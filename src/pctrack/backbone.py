"""Hierarchical set-abstraction feature extractor for two point clouds.

One parameter set serves both the template and search branches; the search
branch may pick its centroids by relation scores against the template
branch's features entering the same level, which is why the template side
of each level is resolved first.

Backward passes are hand-written. Centroid selection and neighbor grouping
are discrete and carry no gradient; features flow through the shared
per-neighbor MLPs and the max-pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import ball_query_padded
from .numeric import (
    BatchNorm,
    Linear,
    MLP,
    Param,
    jagged_layout,
    jagged_max_forward,
    jagged_max_winners,
    jagged_winner_hits,
    max_pool_forward,
    max_pool_winners,
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

SAMPLER_NAMES = ("random", "dfps", "ffps", "ras", "hybrid")
# Samplers that score points against the template branch's features; the
# template branch itself has none to score against.
RELATION_SAMPLERS = ("ras", "hybrid")


def check_template_sampler(name: str):
    if name in RELATION_SAMPLERS:
        raise ValueError(f"template_sampler {name!r} needs template features; "
                         f"the template branch cannot use {', '.join(RELATION_SAMPLERS)}")


@dataclass(frozen=True)
class SALevelSpec:
    """Geometry and width of one set-abstraction level."""

    radius: float
    out_template: int
    out_search: int
    mlp_dims: tuple[int, ...]
    max_neighbors: int = 32

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if not self.mlp_dims:
            raise ValueError("mlp_dims must name at least one width")
        if self.max_neighbors < 1:
            raise ValueError("max_neighbors must be >= 1")
        if self.out_template < 1 or self.out_search < 1:
            raise ValueError("per-level point counts must be >= 1")


@dataclass(frozen=True)
class BackboneSpec:
    """Full pyramid: initial embedding plus a stack of SA levels."""

    embed_dim: int = 32
    levels: tuple[SALevelSpec, ...] = (
        SALevelSpec(radius=0.3, out_template=256, out_search=512, mlp_dims=(64,)),
        SALevelSpec(radius=0.5, out_template=128, out_search=256, mlp_dims=(128,)),
        SALevelSpec(radius=0.7, out_template=64, out_search=128, mlp_dims=(256,)),
    )
    template_sampler: str = "dfps"
    search_sampler: str = "hybrid"
    use_bn: bool = False

    def __post_init__(self):
        for name in (self.template_sampler, self.search_sampler):
            if name not in SAMPLER_NAMES:
                raise ValueError(f"unknown sampler {name!r}")
        check_template_sampler(self.template_sampler)

    @property
    def out_channels(self) -> int:
        return self.levels[-1].mlp_dims[-1]


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

    Each centroid gathers up to ``max_neighbors`` ball-query neighbors;
    every neighbor is encoded from (its feature row ++ its centroid-relative
    coordinates) by a shared per-neighbor MLP, and the group max-pools to a
    single output row. The first layer's matmul is split into a per-point
    part (computed once per source point) and a per-neighbor relative part,
    which is the same arithmetic at a fraction of the cost.

    The max-pool takes values; each channel's winner is its first maximum
    along the neighbor axis, and the backward recovers the winners itself.
    A level of one Linear without BN (``pool_first``) encodes only the real
    neighbors, in the jagged layout of ``numeric.jagged_layout``, pools the
    pre-activations and applies ReLU after the pool, which gives the same
    values because ReLU is monotone. Its backward then writes only the
    m·c winner entries. Deeper or normalized levels rectify every neighbor
    of the padded (m, k) grid before the pool, since BN's batch statistics
    count the pad rows, and run the dense backward.
    """

    def __init__(self, in_ch: int, spec: SALevelSpec, rng: np.random.Generator,
                 name: str, dtype=np.float32, use_bn: bool = False):
        self.spec = spec
        self.in_ch = in_ch
        dims = [in_ch + 3, *spec.mlp_dims]
        self.layers = [
            Linear(dims[i], dims[i + 1], rng, name=f"{name}.{i}", dtype=dtype)
            for i in range(len(spec.mlp_dims))
        ]
        self.norms = [
            BatchNorm(w, name=f"{name}.{i}.bn", dtype=dtype) if use_bn else None
            for i, w in enumerate(spec.mlp_dims)
        ]
        self.pool_first = len(self.layers) == 1 and not use_bn

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

    def forward(self, coords: np.ndarray, feats: np.ndarray,
                selection: SampleSelection, training: bool = False):
        sel = selection.indices
        centroids = coords[sel]
        # A centroid is always within radius of itself, so neighborhoods are
        # never empty; fill_idx only matters for padded duplicate centroids.
        idx, counts = ball_query_padded(
            centroids, coords, self.spec.radius, self.spec.max_neighbors, fill_idx=sel)
        m, k = idx.shape

        first = self.layers[0]
        w_feat = first.weight.value[:, : self.in_ch]
        w_rel = first.weight.value[:, self.in_ch:]
        point_part = feats @ w_feat.T

        if self.pool_first:
            # Only the real neighbors enter: the pad slots repeat a row's
            # first neighbor and cannot change its max. ReLU is monotone, so
            # it commutes with max: pool the pre-activations and rectify only
            # the m pooled rows, back in centroid order.
            order, src, rowpos, sizes = jagged_layout(idx, counts)
            rel = (coords[src] - centroids[order[rowpos]]).astype(feats.dtype)
            z = point_part[src]
            z += rel @ w_rel.T
            z += first.bias.value
            top = jagged_max_forward(z, sizes)
            pooled = np.empty_like(top)
            pooled[order] = top
            pooled, _ = relu_forward(pooled)
            layer_caches = None
            c_pool = (order, src, sizes, z, top)
        else:
            rel = (coords[idx] - centroids[:, None, :]).astype(feats.dtype)
            z = point_part[idx] + rel @ w_rel.T + first.bias.value
            z = z.reshape(m * k, -1)
            layer_caches = []
            for i, (lin, norm) in enumerate(zip(self.layers, self.norms)):
                if i > 0:
                    z, c_lin = lin.forward(z)
                else:
                    c_lin = None
                c_norm = None
                if norm is not None:
                    z, c_norm = norm.forward(z, training)
                z, c_act = relu_forward(z)
                layer_caches.append((c_lin, c_norm, c_act))
            pooled, c_pool = max_pool_forward(z.reshape(m, k, -1))
        cache = (idx, rel, feats, layer_caches, c_pool, pooled)
        return (centroids, pooled), cache

    def backward(self, d_pooled: np.ndarray, cache) -> np.ndarray:
        """Returns the gradient w.r.t. the level's input features."""
        idx, rel, feats, layer_caches, c_pool, pooled = cache
        if layer_caches is None:
            # Only each channel's winner carries gradient, so work on the m·c
            # winners alone: their source points, their rows of rel. The
            # winners go back to centroid order first, so the sums below run
            # in the same order as over the padded layout.
            order, src, sizes, z, top = c_pool
            hits = jagged_winner_hits(jagged_max_winners(z, top, sizes), sizes)
            win = np.empty_like(hits)
            win[order] = hits
            dz = relu_backward(d_pooled, pooled)
            g = scatter_rows(dz, src[win], feats.shape[0])
            d_w_rel = np.einsum("mo,mor->or", dz, rel[win])
            d_bias = dz.sum(axis=0)
        else:
            arg = max_pool_winners(c_pool)
            m, c_last = arg.shape
            rows = np.arange(m)[:, None]
            k = idx.shape[1]
            dz_group = np.zeros((m, k, c_last), dtype=d_pooled.dtype)
            dz_group[rows, arg, np.arange(c_last)[None, :]] = d_pooled
            dz = dz_group.reshape(m * k, c_last)
            for i in range(len(self.layers) - 1, -1, -1):
                c_lin, c_norm, c_act = layer_caches[i]
                dz = relu_backward(dz, c_act)
                if self.norms[i] is not None:
                    dz = self.norms[i].backward(dz, c_norm)
                if i > 0:
                    dz = self.layers[i].backward(dz, c_lin)
            dz = dz.reshape(m, k, -1)
            # Scatter per-neighbor gradients back onto source points; the
            # aggregate serves both the weight and the feature gradient.
            g = np.zeros((feats.shape[0], dz.shape[2]), dtype=dz.dtype)
            np.add.at(g, idx.reshape(-1), dz.reshape(-1, dz.shape[2]))
            d_w_rel = np.einsum("mko,mkr->or", dz, rel)
            d_bias = dz.sum(axis=(0, 1))

        first = self.layers[0]
        w_feat = first.weight.value[:, : self.in_ch]
        first.weight.grad[:, : self.in_ch] += g.T @ feats
        first.weight.grad[:, self.in_ch:] += d_w_rel
        first.bias.grad += d_bias
        return g @ w_feat


@dataclass
class BackbonePlan:
    """Frozen sampler decisions so a forward can be replayed exactly."""

    selections: list[tuple[SampleSelection, SampleSelection]] = field(default_factory=list)


class Backbone:
    """Initial shared point embedding followed by the SA pyramid."""

    def __init__(self, spec: BackboneSpec, rng: np.random.Generator,
                 dtype=np.float32, name: str = "backbone"):
        self.spec = spec
        self.dtype = dtype
        self.embed = MLP([3, spec.embed_dim], rng, name=f"{name}.embed",
                         dtype=dtype, relu=[True], bn=[spec.use_bn])
        self.levels: list[SetAbstraction] = []
        in_ch = spec.embed_dim
        for i, lv in enumerate(spec.levels):
            self.levels.append(SetAbstraction(in_ch, lv, rng, f"{name}.sa{i}",
                                              dtype=dtype, use_bn=spec.use_bn))
            in_ch = lv.mlp_dims[-1]

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
                training: bool = False):
        """Run both branches; returns ((coords_t', X^t, coords_s', X^s), cache).

        Passing a previously returned plan replays its centroid selections,
        making the forward a deterministic function of the parameters.
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
        for i, level in enumerate(self.levels):
            lv = self.spec.levels[i]
            if replay:
                sel_t, sel_s = plan.selections[i]
            else:
                sel_t = select_points(self.spec.template_sampler, ct, feats_t,
                                      None, lv.out_template, rng, i)
                sel_s = select_points(self.spec.search_sampler, cs, feats_s,
                                      feats_t, lv.out_search, rng, i)
                plan.selections.append((sel_t, sel_s))
            (ct, feats_t), cache_t = level.forward(ct, feats_t, sel_t, training)
            (cs, feats_s), cache_s = level.forward(cs, feats_s, sel_s, training)
            level_caches.append((cache_t, cache_s))

        cache = (c_embed_t, c_embed_s, level_caches)
        return (ct, feats_t, cs, feats_s, plan), cache

    def backward(self, d_feats_t: np.ndarray, d_feats_s: np.ndarray, cache):
        c_embed_t, c_embed_s, level_caches = cache
        dt, ds = d_feats_t, d_feats_s
        for level, (cache_t, cache_s) in zip(reversed(self.levels), reversed(level_caches)):
            ds = level.backward(ds, cache_s)
            dt = level.backward(dt, cache_t)
        self.embed.backward(dt, c_embed_t)
        self.embed.backward(ds, c_embed_s)
