"""Prediction heads: coarse per-point box regression and its refinement.

The coarse stage reads the relation-enhanced search features directly. The
refinement stage treats the best coarse prediction as a rigid motion, maps
every seed back into the template's canonical frame with its inverse,
max-pools features around both the original seeds (search side) and the
mapped seeds (template side), and re-predicts from the concatenation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import Box3D, ball_query_padded, wrap_angle
from .numeric import (
    MLP,
    Param,
    jagged_layout,
    jagged_max_forward,
    jagged_max_winners,
    jagged_winner_hits,
    scatter_rows,
)

if TYPE_CHECKING:
    from .config import RunConfig


@dataclass(frozen=True)
class Prediction:
    """Per-point classification logits (N, 1) and box offsets (N, 4)."""

    cls_logits: np.ndarray
    reg: np.ndarray

    def __post_init__(self):
        if self.cls_logits.ndim != 2 or self.cls_logits.shape[1] != 1:
            raise ValueError(f"cls_logits must be (N, 1), got {self.cls_logits.shape}")
        if self.reg.shape != (self.cls_logits.shape[0], 4):
            raise ValueError(f"reg must be (N, 4), got {self.reg.shape}")

    @property
    def n(self) -> int:
        return self.cls_logits.shape[0]

    def best_index(self) -> int:
        """Row of the highest classification logit (lowest index on ties)."""
        return int(np.argmax(self.cls_logits[:, 0]))


class Heads:
    """Coarse cls/reg MLP pair plus the five-layer refinement MLP."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator,
                 dtype=np.float32, name: str = "heads"):
        c = cfg.sa_channels[-1]

        def flags(n_layers):
            return [True] * (n_layers - 1) + [False] if cfg.use_bn else None

        cls_dims = [c, *cfg.coarse_hidden, 1]
        reg_dims = [c, *cfg.coarse_hidden, 4]
        # pooled search + pooled template features + the 3 mapped coordinates
        ref_dims = [2 * c + 3, *cfg.refine_hidden, 5]
        self.coarse_cls = MLP(cls_dims, rng, name=f"{name}.coarse_cls", dtype=dtype,
                              bn=flags(len(cls_dims) - 1))
        self.coarse_reg = MLP(reg_dims, rng, name=f"{name}.coarse_reg", dtype=dtype,
                              bn=flags(len(reg_dims) - 1))
        self.refine = MLP(ref_dims, rng, name=f"{name}.refine", dtype=dtype,
                          bn=flags(len(ref_dims) - 1))

    def params(self) -> list[Param]:
        return [*self.coarse_cls.params(), *self.coarse_reg.params(),
                *self.refine.params()]

    def buffers(self) -> dict[str, np.ndarray]:
        return {**self.coarse_cls.buffers(), **self.coarse_reg.buffers(),
                **self.refine.buffers()}

    # -------------------------------------------------------------- coarse

    def coarse_forward(self, xs_hat: np.ndarray, training: bool = False):
        if xs_hat.shape[0] == 0:
            raise ValueError("coarse head needs at least one point")
        cls, c_cls = self.coarse_cls.forward(xs_hat, training)
        reg, c_reg = self.coarse_reg.forward(xs_hat, training)
        return Prediction(cls_logits=cls, reg=reg), (c_cls, c_reg)

    def coarse_backward(self, d_cls: np.ndarray, d_reg: np.ndarray, cache):
        c_cls, c_reg = cache
        return (self.coarse_cls.backward(d_cls, c_cls)
                + self.coarse_reg.backward(d_reg, c_reg))

    # -------------------------------------------------------------- refine

    def refine_forward(self, f_search: np.ndarray, f_template: np.ndarray,
                       mapped: np.ndarray, training: bool = False):
        """Per-seed refinement from pooled features and the mapped coordinates.

        ``mapped`` is each seed's template-frame counterpart — the direct
        geometric evidence the stage regresses against.
        """
        n = f_search.shape[0]
        if f_template.shape[0] != n or mapped.shape[0] != n:
            raise ValueError("refinement inputs must be row-aligned")
        joint = np.concatenate([f_search, f_template, mapped], axis=1)
        out, c_ref = self.refine.forward(joint, training)
        pred = Prediction(cls_logits=out[:, :1], reg=out[:, 1:])
        return pred, (c_ref, f_search.shape[1], f_template.shape[1])

    def refine_backward(self, d_cls: np.ndarray, d_reg: np.ndarray, cache):
        """Returns (d_f_search, d_f_template, d_mapped)."""
        c_ref, w_s, w_t = cache
        d_out = np.concatenate([d_cls, d_reg], axis=1)
        d_joint = self.refine.backward(d_out, c_ref)
        return d_joint[:, :w_s], d_joint[:, w_s:w_s + w_t], d_joint[:, w_s + w_t:]


# ---------------------------------------------------------------------------
# Rigid correspondence mapping and local pooling
# ---------------------------------------------------------------------------


def prm_offset(seed_coords: np.ndarray, pred: Prediction,
               pinned_index: int | None = None) -> tuple[np.ndarray, int]:
    """Map seeds into the template frame via the inverse best coarse motion.

    The highest-scoring point's regression (Δ*, Δθ*) is read as the rigid
    motion template→search; its inverse sends each seed to where its
    counterpart should sit in the template's canonical frame. Returns the
    mapped coordinates and the index used (reusable for exact replay).
    """
    i_star = pred.best_index() if pinned_index is None else pinned_index
    p_star = seed_coords[i_star]
    delta = pred.reg[i_star, :3]
    dtheta = float(pred.reg[i_star, 3])
    shifted = seed_coords - (p_star + delta)
    c, s = math.cos(-dtheta), math.sin(-dtheta)
    mapped = np.empty_like(shifted)
    mapped[:, 0] = c * shifted[:, 0] - s * shifted[:, 1]
    mapped[:, 1] = s * shifted[:, 0] + c * shifted[:, 1]
    mapped[:, 2] = shifted[:, 2]
    return mapped, i_star


def prm_offset_backward(d_mapped: np.ndarray, seed_coords: np.ndarray,
                        reg_row: np.ndarray, i_star: int) -> np.ndarray:
    """Gradient of the mapped coordinates w.r.t. the driving regression row.

    The seeds are network inputs, not parameters, so only the (Δ, Δθ) row
    of the coarse regression receives gradient; returns that 4-vector.
    """
    delta = reg_row[:3]
    theta = float(reg_row[3])
    u = seed_coords - (seed_coords[i_star] + delta)
    ct, st = math.cos(theta), math.sin(theta)
    dsum = d_mapped.sum(axis=0)
    out = np.zeros(4, dtype=d_mapped.dtype)
    # m = Rz(-θ) u and u = seed - p* - Δ, so dΔ = -Σ Rz(θ) dm
    out[0] = -(ct * dsum[0] - st * dsum[1])
    out[1] = -(st * dsum[0] + ct * dsum[1])
    out[2] = -dsum[2]
    out[3] = float(np.sum(
        d_mapped[:, 0] * (-st * u[:, 0] + ct * u[:, 1])
        + d_mapped[:, 1] * (-ct * u[:, 0] - st * u[:, 1])))
    return out


def local_pool_forward(queries: np.ndarray, cloud_coords: np.ndarray,
                       cloud_feats: np.ndarray, radius: float = 1.0,
                       group=None, keep_cache: bool = True):
    """Max-pool each query's in-radius neighbor features; empty → zero row.

    Pools by value over the real neighbors only, in the jagged layout of
    ``numeric.jagged_layout``; the backward recovers each channel's winner,
    the first maximum in neighbor order. ``group`` replays a previous
    (idx, counts) neighborhood assignment, ``idx`` being the padded (M, K)
    matrix trimmed to the widest neighborhood, so the pooling becomes a
    fixed function of the feature values. ``keep_cache=False`` returns
    ``None`` as the cache, so the gathered features die with this call.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if group is None:
        idx, counts = ball_query_padded(queries, cloud_coords, radius,
                                        max_k=cloud_coords.shape[0])
        # Padding repeats a real neighbor, so dropping the all-pad columns
        # beyond the widest neighborhood cannot change any row's max.
        idx = idx[:, : max(int(counts.max(initial=0)), 1)]
        group = (idx, counts)
    else:
        idx, counts = group
    order, src, _rowpos, sizes = jagged_layout(idx, counts)
    z = cloud_feats[src]
    top = jagged_max_forward(z, sizes)
    filled = order[: sizes[0]]
    pooled = np.zeros((idx.shape[0], cloud_feats.shape[1]), dtype=cloud_feats.dtype)
    pooled[filled] = top
    cache = (src, filled, sizes, z, top, cloud_feats.shape[0]) if keep_cache else None
    return pooled, cache, group


def local_pool_backward(d_pooled: np.ndarray, cache) -> np.ndarray:
    """Routes each pooled channel's gradient to the neighbor that won the max.

    Recovers the winners from the cached pooling and writes only M·C
    entries. Empty queries send nothing; the rest go in query order, so
    repeated winners sum in the same order as over the padded layout.
    """
    src, filled, sizes, z, top, n_points = cache
    hits = jagged_winner_hits(jagged_max_winners(z, top, sizes), sizes)
    back = np.argsort(filled)
    return scatter_rows(d_pooled[filled[back]], src[hits[back]], n_points)


# ---------------------------------------------------------------------------
# Box decoding
# ---------------------------------------------------------------------------


def decode_box(pred: Prediction, seed_coords: np.ndarray, reference_box: Box3D) -> Box3D:
    """Best per-point prediction → one box with the reference's fixed size."""
    if pred.n < 1:
        raise ValueError("cannot decode an empty prediction")
    i = pred.best_index()
    center = seed_coords[i] + pred.reg[i, :3]
    yaw = wrap_angle(reference_box.yaw + float(pred.reg[i, 3]))
    return Box3D(center=center, size=reference_box.size.copy(), yaw=yaw)
