"""Point subsampling strategies: random, D-FPS, F-FPS, relation-aware, hybrid.

All samplers are deterministic given their inputs (and an explicit rng for
the stochastic ones): ties always break toward the lowest index, and asking
for more points than exist falls back to selecting everything and padding
round-robin, with the padding recorded on the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import shifted_sq_dist_blocks


@dataclass(frozen=True)
class SampleSelection:
    """Ordered source-point indices chosen by one sampler."""

    indices: np.ndarray
    method: str
    padded: bool = False

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))

    @property
    def k(self) -> int:
        return self.indices.shape[0]


def _pad_round_robin(indices: np.ndarray, k: int) -> np.ndarray:
    """Extend a full selection to length k by cycling through it again."""
    n = indices.shape[0]
    reps = -(-k // n)  # ceil
    return np.tile(indices, reps)[:k]


def sample_random(n: int, k: int, rng: np.random.Generator) -> SampleSelection:
    """k distinct uniform indices out of n (padded round-robin when k > n)."""
    if n < 1:
        raise ValueError("need at least one point")
    perm = rng.permutation(n).astype(np.int64)
    if k <= n:
        return SampleSelection(perm[:k], "random")
    return SampleSelection(_pad_round_robin(perm, k), "random", padded=True)


def _greedy_farthest(points: np.ndarray, k: int, start_index: int, method: str) -> SampleSelection:
    """Greedy farthest-point order from ``start_index``, lowest index on ties.

    Each pick is the point whose minimum row-local squared distance to the
    picks so far is largest. The order is prefix-closed: rerun on its own
    points from index 0, the loop returns their leading indices
    (``dfps_prefix``).
    """
    n, width = points.shape
    if n < 1:
        raise ValueError("need at least one point")
    if not 0 <= start_index < n:
        raise ValueError(f"start_index {start_index} out of range for {n} points")
    take = min(k, n)
    chosen = np.empty(take, dtype=np.int64)
    chosen[0] = start_index
    if width < 8:
        # np.sum adds fewer than 8 columns left to right; adding the rows of
        # a (width, n) difference in that order gives the same bits with one
        # subtract and one multiply per pick. From 8 columns on NumPy sums
        # pairwise, so wide inputs keep the row reduction on a reused buffer.
        cols = np.ascontiguousarray(points.T)
        diff = np.empty_like(cols)
        row, rest = diff[0], list(diff[1:])

        def sq_dist_to(j):
            np.subtract(cols, cols[:, j:j + 1], out=diff)
            np.multiply(diff, diff, out=diff)
            for r in rest:
                np.add(row, r, out=row)
    else:
        row = np.empty(n)
        diff = np.empty_like(points)

        def sq_dist_to(j):
            np.subtract(points, points[j], out=diff)
            np.multiply(diff, diff, out=diff)
            np.sum(diff, axis=1, out=row)

    sq_dist_to(start_index)
    min_d2 = row.copy()
    min_d2[start_index] = -1.0  # already selected; never a candidate again
    for i in range(1, take):
        # argmax returns the first maximum, which is the lowest-index tie.
        nxt = min_d2.argmax()
        chosen[i] = nxt
        sq_dist_to(nxt)
        np.minimum(min_d2, row, out=min_d2)
        min_d2[nxt] = -1.0
    if k <= n:
        return SampleSelection(chosen, method)
    return SampleSelection(_pad_round_robin(chosen, k), method, padded=True)


def sample_dfps(coords: np.ndarray, k: int, start_index: int = 0) -> SampleSelection:
    """Greedy farthest-point selection in Euclidean coordinate space."""
    return _greedy_farthest(np.asarray(coords, dtype=np.float64), k, start_index, "dfps")


def dfps_prefix(n: int, k: int) -> SampleSelection:
    """``sample_dfps(points, k)`` for n points that are already in D-FPS order.

    Such points are a D-FPS run's picks from index 0, in pick order, maybe
    followed by copies of them. Rerun on them, the greedy loop computes the
    same distance bits, and each original pick is the first maximum; the
    copies come last, at distance 0, in index order (README, "Exact
    shortcuts").
    """
    return SampleSelection(_pad_round_robin(np.arange(n), k), "dfps", padded=k > n)


def sample_ffps(features: np.ndarray, k: int, start_index: int = 0) -> SampleSelection:
    """Greedy farthest-point selection measured in feature space."""
    return _greedy_farthest(np.asarray(features, dtype=np.float64), k, start_index, "ffps")


def ras_scores(search_feats: np.ndarray, template_feats: np.ndarray) -> np.ndarray:
    """Per-search-point distance to the nearest template feature row.

    min_j |s - t_j|² = |s|² + min_j (|t_j|² - 2·s·t_j): the right-hand
    minimum is taken block by block over ``shifted_sq_dist_blocks``, then
    ``|s|²`` is added once and round-off below zero is clamped before the
    square root.
    """
    s = np.asarray(search_feats, dtype=np.float64)
    t = np.asarray(template_feats, dtype=np.float64)
    if t.shape[0] == 0:
        raise ValueError("template feature set is empty")
    if s.shape[1] != t.shape[1]:
        raise ValueError(f"feature widths differ: {s.shape[1]} vs {t.shape[1]}")
    v = np.empty(s.shape[0])
    for lo, hi, h in shifted_sq_dist_blocks(s, t):
        h.min(axis=1, out=v[lo:hi])
    v += np.sum(s * s, axis=1)
    np.maximum(v, 0.0, out=v)
    return np.sqrt(v, out=v)


def sample_ras(search_feats: np.ndarray, template_feats: np.ndarray, k: int) -> SampleSelection:
    """The k search points most feature-similar to the template."""
    v = ras_scores(search_feats, template_feats)
    order = np.argsort(v, kind="stable").astype(np.int64)
    n = order.shape[0]
    if k <= n:
        return SampleSelection(order[:k], "ras")
    return SampleSelection(_pad_round_robin(order, k), "ras", padded=True)


def sample_hybrid(search_feats: np.ndarray, template_feats: np.ndarray, k: int,
                  rng: np.random.Generator) -> SampleSelection:
    """Half the budget by relation score, the other half uniform from the rest."""
    if k % 2 != 0:
        raise ValueError(f"hybrid sampling needs an even k, got {k}")
    n = np.asarray(search_feats).shape[0]
    if k >= n:
        full = sample_ras(search_feats, template_feats, k)
        return SampleSelection(full.indices, "hybrid", padded=full.padded)
    half = k // 2
    ras_half = sample_ras(search_feats, template_feats, half).indices
    mask = np.ones(n, dtype=bool)
    mask[ras_half] = False
    complement = np.flatnonzero(mask)
    random_half = rng.choice(complement, size=half, replace=False).astype(np.int64)
    return SampleSelection(np.concatenate([ras_half, random_half]), "hybrid")
