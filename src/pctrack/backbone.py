"""Hierarchical set-abstraction feature extractor for two point clouds.

One parameter set serves both the template and search branches; the search
branch may pick its centroids by relation scores against the template
branch's features entering the same level, which is why the template side
of each level is resolved first.

Backward passes are hand-written. Centroid selection and neighbor grouping
are discrete and carry no gradient; features flow through the shared
per-neighbor layers and the max-pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .geometry import ball_query_padded
from .numeric import (
    BatchNorm,
    Linear,
    MLP,
    Param,
    add_rows_at,
    jagged_layout,
    jagged_max_forward,
    jagged_max_winners,
    jagged_winner_hits,
    relu_backward,
    relu_forward,
    scatter_rows,
)
from .sampling import (
    SampleSelection,
    dfps_prefix,
    sample_dfps,
    sample_ffps,
    sample_hybrid,
    sample_random,
    sample_ras,
)

if TYPE_CHECKING:
    from .config import RunConfig

SAMPLER_NAMES = ("random", "dfps", "ffps", "ras", "hybrid")
# Samplers that score points against the template branch's features; the
# template branch itself has none to score against.
RELATION_SAMPLERS = ("ras", "hybrid")


def select_points(method: str, coords: np.ndarray, feats: np.ndarray,
                  template_feats: np.ndarray | None, k: int,
                  rng: np.random.Generator, level: int = 0) -> SampleSelection:
    """Dispatch one centroid selection by strategy name.

    A branch keeps one sampler at every level, so past level 0 a ``dfps``
    branch's points are already in D-FPS order, and ``dfps_prefix`` gives
    what the greedy loop would: the loop runs once per branch.
    """
    if method == "random":
        return sample_random(coords.shape[0], k, rng)
    if method == "dfps":
        return sample_dfps(coords, k) if level == 0 else dfps_prefix(coords.shape[0], k)
    if method == "ffps":
        return sample_ffps(feats, k)
    if method == "ras":
        return sample_ras(feats, template_feats, k)
    if method == "hybrid":
        return sample_hybrid(feats, template_feats, k, rng)
    raise ValueError(f"unknown sampler {method!r}")


class SetAbstraction:
    """Group-and-pool encoder for one level, shared between branches.

    Each centroid c_i gathers up to ``max_neighbors`` ball-query neighbors.
    Each real neighbor j (a hit) is encoded from its feature row and its
    centroid-relative coordinates by one shared Linear, an optional BN and
    a ReLU, and each group max-pools to one output row. The Linear is
    applied once per source point and once per centroid, never per hit:

        [f_j, x_j − c_i] @ Wᵀ + b  =  P_j − Q_i + b,
        P = [f, x − o] @ Wᵀ,   Q = (c − o) @ W_rᵀ,

    with W_r the offset columns of W and o the level's first centroid, so
    that |x − o| is bounded by the crop, not by the distance to the world
    origin. A hit's pre-activation is defined as fl(fl(P_j − Q_i) + b).

    Hits are laid out as in ``numeric.jagged_layout``; the pad slots of the
    padded (m, k) grid repeat a row's first hit and cannot change its max.
    Without BN the level pools the P rows of the hits and shifts and
    rectifies the m pooled rows alone: subtracting Q_i, adding b and the
    ReLU are monotone, also after rounding, so this gives the bits of the
    max over the hits' pre-activations. Each channel's winner is its first
    maximum of the pooled quantity (P here), and the backward writes only
    the m·c winner entries. With BN, whose gamma can be negative, every hit
    is shifted, normalised and rectified before the pool. BN's batch
    statistics are those of the padded grid: each row's first hit counts
    1 + (k − count) times.
    """

    def __init__(self, in_ch: int, out_ch: int, radius: float, max_neighbors: int,
                 rng: np.random.Generator, name: str, dtype=np.float32,
                 use_bn: bool = False):
        self.in_ch = in_ch
        self.radius = radius
        self.max_neighbors = max_neighbors
        self.linear = Linear(in_ch + 3, out_ch, rng, name=f"{name}.0", dtype=dtype)
        self.norm = BatchNorm(out_ch, name=f"{name}.0.bn", dtype=dtype) if use_bn else None

    def params(self) -> list[Param]:
        return self.linear.params() + (self.norm.params() if self.norm is not None else [])

    def buffers(self) -> dict[str, np.ndarray]:
        return self.norm.buffers() if self.norm is not None else {}

    def forward(self, coords: np.ndarray, feats: np.ndarray,
                selection: SampleSelection, training: bool = False,
                keep_cache: bool = True):
        """Returns ((centroids, pooled), cache); ``keep_cache=False`` returns
        ``None`` as the cache, so the per-hit arrays die with this call."""
        sel = selection.indices
        centroids = coords[sel]
        # A centroid's exact distance to itself is 0, so every row has a hit.
        idx, counts = ball_query_padded(centroids, coords, self.radius, self.max_neighbors)
        order, src, rowpos, sizes = jagged_layout(idx, counts)
        origin = centroids[0]
        x = np.concatenate([feats, (coords - origin).astype(feats.dtype)], axis=1)
        rel_c = (centroids - origin).astype(feats.dtype)
        weight, bias = self.linear.weight.value, self.linear.bias.value
        q = rel_c @ weight[:, self.in_ch:].T
        z = (x @ weight.T)[src]
        c_norm = None
        if self.norm is not None:
            z -= q[order[rowpos]]
            z += bias
            weights = np.ones(src.size, dtype=z.dtype)
            weights[: sizes[0]] += idx.shape[1] - counts[order[: sizes[0]]]
            z, c_norm = self.norm.forward(z, training, weights)
            z, _ = relu_forward(z)
        top = jagged_max_forward(z, sizes)
        pooled = np.empty_like(top)
        pooled[order] = top
        if self.norm is None:
            pooled -= q
            pooled += bias
            pooled, _ = relu_forward(pooled)
        if not keep_cache:
            return (centroids, pooled), None
        cache = (order, src, rowpos, sizes, x, rel_c, z, top, c_norm, pooled)
        return (centroids, pooled), cache

    def backward(self, d_pooled: np.ndarray, cache) -> np.ndarray:
        """Returns the gradient w.r.t. the level's input features."""
        order, src, rowpos, sizes, x, rel_c, z, top, c_norm, pooled = cache
        hits = jagged_winner_hits(jagged_max_winners(z, top, sizes), sizes)
        if self.norm is None:
            # Only each channel's winner carries gradient, so work on the m·c
            # winners alone, back in centroid order so that the sums below
            # run in the same order as over the padded layout.
            win = np.empty_like(hits)
            win[order] = hits
            dq = relu_backward(d_pooled, pooled)
            g = scatter_rows(dq, src[win], x.shape[0])
        else:
            # BN's batch statistics reach every hit.
            dz = np.zeros_like(z)
            dz[hits, np.arange(z.shape[1])] = d_pooled[order]
            dz = self.norm.backward(relu_backward(dz, z), c_norm)
            g = add_rows_at(dz, src, x.shape[0])
            dq = add_rows_at(dz, order[rowpos], order.size)
        # g is the gradient of P, whose rows are x; Q, over the centroids'
        # offsets, entered with a minus sign.
        weight = self.linear.weight
        weight.grad += g.T @ x
        weight.grad[:, self.in_ch:] -= dq.T @ rel_c
        self.linear.bias.grad += dq.sum(axis=0)
        return g @ weight.value[:, : self.in_ch]


@dataclass
class BackbonePlan:
    """Frozen sampler decisions so a forward can be replayed exactly."""

    selections: list[tuple[SampleSelection, SampleSelection]] = field(default_factory=list)


class Backbone:
    """Initial shared point embedding followed by the SA pyramid."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator,
                 dtype=np.float32, name: str = "backbone"):
        self.dtype = dtype
        self.template_sampler = cfg.template_sampler
        self.search_sampler = cfg.search_sampler
        # (template, search) centroid budget of each level
        self.budgets = tuple(zip(cfg.sa_template_points, cfg.sa_search_points))
        self.embed = MLP([3, cfg.embed_dim], rng, name=f"{name}.embed",
                         dtype=dtype, relu=[True], bn=[cfg.use_bn])
        self.levels: list[SetAbstraction] = []
        in_ch = cfg.embed_dim
        for i, (out_ch, radius) in enumerate(zip(cfg.sa_channels, cfg.sa_radii)):
            self.levels.append(SetAbstraction(in_ch, out_ch, radius, cfg.sa_max_neighbors,
                                              rng, f"{name}.sa{i}", dtype=dtype,
                                              use_bn=cfg.use_bn))
            in_ch = out_ch

    def params(self) -> list[Param]:
        out = self.embed.params()
        for level in self.levels:
            out.extend(level.params())
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        out = self.embed.buffers()
        for level in self.levels:
            out.update(level.buffers())
        return out

    def forward(self, coords_t: np.ndarray, coords_s: np.ndarray,
                rng: np.random.Generator, plan: BackbonePlan | None = None,
                training: bool = False, keep_cache: bool = True):
        """Run both branches; returns ((coords_t', X^t, coords_s', X^s), cache).

        Passing a previously returned plan replays its centroid selections,
        making the forward a deterministic function of the parameters.
        ``keep_cache=False`` keeps no level's cache and returns ``None``.
        """
        coords_t = np.asarray(coords_t, dtype=self.dtype)
        coords_s = np.asarray(coords_s, dtype=self.dtype)
        if coords_t.shape[0] == 0 or coords_s.shape[0] == 0:
            raise ValueError("backbone requires non-empty template and search clouds")
        # The samplers' argmax and the ball query assume finite coordinates.
        if not (np.isfinite(coords_t).all() and np.isfinite(coords_s).all()):
            raise ValueError("backbone requires finite template and search coordinates")

        replay = plan is not None
        if not replay:
            plan = BackbonePlan()

        # Both branches are embedded relative to one shared origin so that
        # translating the whole scene leaves every feature unchanged while
        # cross-branch feature comparisons stay meaningful.
        origin = coords_s.mean(axis=0)
        feats_t, c_embed_t = self.embed.forward(coords_t - origin, training)
        feats_s, c_embed_s = self.embed.forward(coords_s - origin, training)
        ct, cs = coords_t, coords_s
        level_caches = []
        for i, (level, (k_t, k_s)) in enumerate(zip(self.levels, self.budgets)):
            if replay:
                sel_t, sel_s = plan.selections[i]
            else:
                sel_t = select_points(self.template_sampler, ct, feats_t, None, k_t, rng, i)
                sel_s = select_points(self.search_sampler, cs, feats_s, feats_t, k_s, rng, i)
                plan.selections.append((sel_t, sel_s))
            (ct, feats_t), cache_t = level.forward(ct, feats_t, sel_t, training, keep_cache)
            (cs, feats_s), cache_s = level.forward(cs, feats_s, sel_s, training, keep_cache)
            level_caches.append((cache_t, cache_s))

        cache = (c_embed_t, c_embed_s, level_caches) if keep_cache else None
        return (ct, feats_t, cs, feats_s, plan), cache

    def backward(self, d_feats_t: np.ndarray, d_feats_s: np.ndarray, cache):
        c_embed_t, c_embed_s, level_caches = cache
        dt, ds = d_feats_t, d_feats_s
        for level, (cache_t, cache_s) in zip(reversed(self.levels), reversed(level_caches)):
            ds = level.backward(ds, cache_s)
            dt = level.backward(dt, cache_t)
        self.embed.backward(dt, c_embed_t)
        self.embed.backward(ds, c_embed_s)
