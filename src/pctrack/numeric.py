"""Minimal deterministic neural substrate on numpy.

Dense layers, activations, batch normalization, losses and Adam, each with
a hand-derived backward pass. There is no autodiff graph: every forward
returns ``(y, cache)`` and the matching ``backward(dy, cache)`` returns the
input gradient while accumulating parameter gradients in place. Per-call
caches are what make weight sharing work — the same layer object can run
several forwards and replay the backwards in any order.

Two precision modes: float32 for normal runs, float64 when validating
gradients against finite differences.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Callable, Iterable, Sequence

import numpy as np

CHECKPOINT_MAGIC = b"PCTK"
CHECKPOINT_VERSION = 1


class Param:
    """A named trainable array with an accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad.fill(0.0)

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.value.shape})"


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class Linear:
    """y = x @ W.T + b with weight shape (out, in)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 name: str = "linear", dtype=np.float32):
        bound = 1.0 / np.sqrt(in_dim)
        w = rng.uniform(-bound, bound, size=(out_dim, in_dim)).astype(dtype)
        b = rng.uniform(-bound, bound, size=out_dim).astype(dtype)
        self.weight = Param(f"{name}.weight", w)
        self.bias = Param(f"{name}.bias", b)
        self.in_dim = in_dim
        self.out_dim = out_dim

    def params(self) -> list[Param]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray):
        if x.shape[-1] != self.in_dim:
            raise ValueError(
                f"{self.weight.name}: expected {self.in_dim} input columns, got {x.shape[-1]}"
            )
        y = x @ self.weight.value.T + self.bias.value
        return y, x

    def backward(self, dy: np.ndarray, cache) -> np.ndarray:
        x = cache
        self.weight.grad += dy.T @ x
        self.bias.grad += dy.sum(axis=0)
        return dy @ self.weight.value


class BatchNorm:
    """Per-feature normalization over the row axis with running statistics.

    Training mode normalizes by the batch's biased variance and updates the
    running buffers; eval mode uses the stored statistics. The buffers ride
    along in checkpoints next to gamma/beta.
    """

    def __init__(self, dim: int, name: str = "bn", dtype=np.float32,
                 momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Param(f"{name}.gamma", np.ones(dim, dtype=dtype))
        self.beta = Param(f"{name}.beta", np.zeros(dim, dtype=dtype))
        self.running_mean = np.zeros(dim, dtype=dtype)
        self.running_var = np.ones(dim, dtype=dtype)
        self.name = name
        self.momentum = momentum
        self.eps = eps

    def params(self) -> list[Param]:
        return [self.gamma, self.beta]

    def buffers(self) -> dict[str, np.ndarray]:
        return {f"{self.name}.running_mean": self.running_mean,
                f"{self.name}.running_var": self.running_var}

    def forward(self, x: np.ndarray, training: bool, weights: np.ndarray | None = None):
        """``weights`` (one per row) count rows that many times in the batch
        statistics."""
        n = x.shape[0]
        if training:
            if weights is None:
                mu = x.mean(axis=0)
                var = x.var(axis=0)
            else:
                n = weights.sum()
                mu = weights @ x / n
                var = weights @ np.square(x - mu) / n
            m = self.momentum
            self.running_mean = ((1 - m) * self.running_mean + m * mu).astype(
                self.running_mean.dtype)
            self.running_var = ((1 - m) * self.running_var + m * var).astype(
                self.running_var.dtype)
        else:
            mu, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * inv_std
        y = self.gamma.value * xhat + self.beta.value
        return y, (xhat, inv_std, training, n, weights)

    def backward(self, dy: np.ndarray, cache) -> np.ndarray:
        xhat, inv_std, training, n, weights = cache
        self.gamma.grad += (dy * xhat).sum(axis=0)
        self.beta.grad += dy.sum(axis=0)
        dxhat = dy * self.gamma.value
        if not training:
            return dxhat * inv_std
        # Batch statistics were part of the forward, so they get gradients
        # too; a row counted w times there takes w times their share.
        d_sum = dxhat.sum(axis=0)
        dx_sum = (dxhat * xhat).sum(axis=0)
        if weights is None:
            return (inv_std / n) * (n * dxhat - d_sum - xhat * dx_sum)
        w = weights[:, None]
        return (inv_std / n) * (n * dxhat - w * d_sum - w * xhat * dx_sum)


class MLP:
    """A stack of Linear layers with per-layer ReLU and BatchNorm flags.

    ``dims`` lists the widths including input; by default every layer except
    the last gets a ReLU, and nothing gets BN unless asked for.
    """

    def __init__(self, dims: Sequence[int], rng: np.random.Generator,
                 name: str = "mlp", dtype=np.float32,
                 relu: Sequence[bool] | None = None,
                 bn: Sequence[bool] | None = None):
        n_layers = len(dims) - 1
        if n_layers < 1:
            raise ValueError("MLP needs at least one layer")
        if relu is None:
            relu = [True] * (n_layers - 1) + [False]
        if bn is None:
            bn = [False] * n_layers
        if len(relu) != n_layers or len(bn) != n_layers:
            raise ValueError("relu/bn flag lists must match layer count")
        self.layers: list[Linear] = []
        self.norms: list[BatchNorm | None] = []
        self.relu_flags = list(relu)
        for i in range(n_layers):
            self.layers.append(
                Linear(dims[i], dims[i + 1], rng, name=f"{name}.{i}", dtype=dtype))
            self.norms.append(
                BatchNorm(dims[i + 1], name=f"{name}.{i}.bn", dtype=dtype) if bn[i] else None)

    def params(self) -> list[Param]:
        out = []
        for lin, norm in zip(self.layers, self.norms):
            out.extend(lin.params())
            if norm is not None:
                out.extend(norm.params())
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for norm in self.norms:
            if norm is not None:
                out.update(norm.buffers())
        return out

    def forward(self, x: np.ndarray, training: bool = False):
        caches = []
        for lin, norm, act in zip(self.layers, self.norms, self.relu_flags):
            x, c_lin = lin.forward(x)
            c_norm = None
            if norm is not None:
                x, c_norm = norm.forward(x, training)
            c_act = None
            if act:
                x, c_act = relu_forward(x)
            caches.append((c_lin, c_norm, c_act))
        return x, caches

    def backward(self, dy: np.ndarray, caches) -> np.ndarray:
        for lin, norm, act, (c_lin, c_norm, c_act) in zip(
                reversed(self.layers), reversed(self.norms),
                reversed(self.relu_flags), reversed(caches)):
            if act:
                dy = relu_backward(dy, c_act)
            if norm is not None:
                dy = norm.backward(dy, c_norm)
            dy = lin.backward(dy, c_lin)
        return dy


# ---------------------------------------------------------------------------
# Stateless ops
# ---------------------------------------------------------------------------


def relu_forward(x: np.ndarray):
    # The output doubles as the cache: out > 0 holds exactly where x > 0, so
    # the forward pass stays single-sweep and backward rebuilds the mask.
    out = np.maximum(x, 0.0)
    return out, out


def relu_backward(dy: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.where(out > 0, dy, 0.0)


def jagged_layout(idx: np.ndarray, counts: np.ndarray):
    """Rank-major layout of the real neighbors of a padded (M, K) group.

    Rows are ordered longest first (stable, so equal counts keep their
    order). Layer r holds the r-th neighbor of every row with more than r
    neighbors: a prefix of that row order and a contiguous run of the hits.
    Returns ``(order, src, rowpos, sizes)``: the row order, each hit's
    source index, each hit's position in the row order, and each layer's
    length. Only layers that hold a hit are kept, one per neighbor rank up
    to the largest count, so the pooling loops run over real layers alone;
    when no row has a neighbor a single empty layer remains. Rows without
    neighbors come last in ``order`` and appear in no layer.
    """
    order = np.argsort(-counts, kind="stable")
    layers = max(int(counts.max(initial=0)), 1)
    valid = np.arange(layers)[:, None] < counts[order][None, :]
    src = idx[order, :layers].T[valid]
    rowpos = np.broadcast_to(np.arange(order.size), valid.shape)[valid]
    return order, src, rowpos, valid.sum(axis=1)


def jagged_max_forward(z: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-row max of a jagged (hits, C) stack, one row per row of layer 0.

    Takes the layers in neighbor order with ``np.maximum``, the same pairwise
    sequence as ``x.max(axis=1)`` over the padded stack, whose pad slots
    repeat a row's first neighbor and so cannot change its max.
    """
    top = z[: sizes[0]].copy()
    start = sizes[0]
    for s in sizes[1:]:
        np.maximum(top[:s], z[start:start + s], out=top[:s])
        start += s
    return top


def jagged_max_winners(z: np.ndarray, top: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Layer of each channel's first maximum, as ``(x == top).argmax(axis=1)``.

    Scans the layers from last to first, so the earliest equal layer wins.
    A channel that no layer equals (a NaN max) keeps layer 0, as argmax of
    an all-False mask does.
    """
    winners = np.zeros(top.shape, dtype=np.intp)
    ends = np.cumsum(sizes)
    for r in range(len(sizes) - 1, -1, -1):
        s = sizes[r]
        np.copyto(winners[:s], r, where=z[ends[r] - s:ends[r]] == top[:s])
    return winners


def jagged_winner_hits(winners: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Maps (rows, C) winner layers to positions in the jagged hit stack."""
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return starts[winners] + np.arange(winners.shape[0])[:, None]


def scatter_rows(d: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Adds each d[m, c] into row rows[m, c], column c, of an (n_rows, C) zero array.

    Accumulates in (m, c) order, so repeated rows sum in a fixed order.
    """
    m, c = d.shape
    out = np.zeros((n_rows, c), dtype=d.dtype)
    np.add.at(out.reshape(-1), (rows * c + np.arange(c)).reshape(-1), d.reshape(-1))
    return out


def softmax_rows_forward(x: np.ndarray):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    return y, y


def softmax_rows_backward(dy: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y * (dy - (dy * y).sum(axis=-1, keepdims=True))


def l2_normalize_rows_forward(x: np.ndarray, eps: float = 1e-12):
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    denom = np.maximum(norm, eps)
    y = x / denom
    return y, (y, norm, denom, eps)


def l2_normalize_rows_backward(dy: np.ndarray, cache) -> np.ndarray:
    y, norm, denom, eps = cache
    # Where the true norm exceeds eps the denominator depends on x; below it
    # the division is by the constant eps.
    live = norm > eps
    dx_live = (dy - y * (dy * y).sum(axis=-1, keepdims=True)) / denom
    return np.where(live, dx_live, dy / eps)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_loss_forward(logits: np.ndarray, targets: np.ndarray):
    """Mean binary cross entropy straight from logits (never forms sigmoid-log)."""
    if logits.shape != targets.shape:
        raise ValueError(f"shape mismatch {logits.shape} vs {targets.shape}")
    per = np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    return float(per.mean()), (logits, targets)


def bce_loss_backward(cache, scale: float = 1.0) -> np.ndarray:
    logits, targets = cache
    return scale * (sigmoid(logits) - targets) / logits.size


def mse_loss_masked_forward(pred: np.ndarray, target: np.ndarray, row_mask: np.ndarray):
    """MSE averaged over the rows selected by ``row_mask``; 0 if none are."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    idx = np.flatnonzero(row_mask)
    if idx.size == 0:
        return 0.0, (idx, None, pred.shape)
    diff = pred[idx] - target[idx]
    return float(np.mean(diff * diff)), (idx, diff, pred.shape)


def mse_loss_masked_backward(cache, scale: float = 1.0) -> np.ndarray:
    idx, diff, shape = cache
    dpred = np.zeros(shape, dtype=diff.dtype if diff is not None else np.float64)
    if idx.size:
        dpred[idx] = scale * 2.0 * diff / diff.size
    return dpred


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Standard Adam with bias correction over an explicit parameter list."""

    def __init__(self, params: Iterable[Param], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self, lr: float | None = None):
        if lr is None:
            lr = self.lr
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient in {p.name}")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            p.value -= update.astype(p.value.dtype, copy=False)


def lr_at_epoch(lr0: float, divisor: float, step_epochs: int, epoch: int) -> float:
    """Step-decay schedule: divide the base rate every ``step_epochs`` epochs."""
    if step_epochs <= 0:
        return lr0
    return lr0 / divisor ** (epoch // step_epochs)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def grad_check(fn: Callable[[], float], params: Sequence[Param],
               h: float = 1e-5) -> float:
    """Compare analytic gradients against central differences.

    ``fn`` must zero gradients, run forward and backward, and return the
    scalar loss; the analytic gradients are read from ``params`` after the
    first call, later calls contribute only loss values. Returns the max
    over all coordinates of |analytic − numeric| / max(1, |numeric|).
    """
    fn()
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.value.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = fn()
            flat[i] = orig - h
            lm = fn()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------


def save_checkpoint(path, arrays: dict[str, np.ndarray]):
    """Write named arrays as: magic, version, JSON manifest, float32 LE payload, CRC32."""
    manifest = [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()]
    blob = json.dumps(manifest, sort_keys=False).encode("utf-8")
    body = bytearray()
    body += CHECKPOINT_MAGIC
    body += struct.pack("<I", CHECKPOINT_VERSION)
    body += struct.pack("<I", len(blob))
    body += blob
    for v in arrays.values():
        body += np.ascontiguousarray(v, dtype="<f4").tobytes()
    body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    with open(path, "wb") as f:
        f.write(bytes(body))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16 or raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    (crc_stored,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != crc_stored:
        raise ValueError(f"{path}: checksum mismatch, file corrupt")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    manifest = json.loads(raw[12:12 + blob_len].decode("utf-8"))
    out: dict[str, np.ndarray] = {}
    offset = 12 + blob_len
    for entry in manifest:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        out[entry["name"]] = arr.reshape(shape).copy()
        offset += 4 * count
    if offset != len(raw) - 4:
        raise ValueError(f"{path}: payload length does not match manifest")
    return out
