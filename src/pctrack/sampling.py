"""Point subsampling strategies: random, D-FPS, F-FPS, relation-aware, hybrid.

All samplers are deterministic given their inputs (and an explicit rng for
the stochastic ones): ties always break toward the lowest index, and asking
for more points than exist falls back to selecting everything and padding
round-robin, with the padding recorded on the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _BLOCK_BYTES, float32_filter, pair_sq_dist, shifted_sq_dist_blocks


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


def _exhaustive_scores(s: np.ndarray, t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Scores of ``rows`` against every template row, a few rows at a time."""
    n = t.shape[0]
    step = max(1, (1 << 16) // n)
    out = np.empty(rows.shape[0])
    for lo in range(0, rows.shape[0], step):
        r = rows[lo:lo + step]
        d2 = pair_sq_dist(np.repeat(s[r], n, axis=0), np.tile(t, (r.shape[0], 1)))
        out[lo:lo + r.shape[0]] = d2.reshape(r.shape[0], n).min(axis=1)
    return np.sqrt(out)


def ras_scores(search_feats: np.ndarray, template_feats: np.ndarray,
               k: int | None = None) -> np.ndarray:
    """Distance of each search row to its nearest template row, where it can rank.

    The score is ``v_i = sqrt(min_j pair_sq_dist(s_i, t_j))``. Every row
    that can be among the k smallest (lowest index first on ties) gets its
    exact score; every other row reads ``+inf``. ``k=None`` scores all rows.

    A float32 filter finds those rows and pairs. With ``g_ij``, ``S_i``,
    ``u``, ``R`` and ``E`` of ``float32_filter(s, t)``, ``g_ij + S_i`` lies
    within ``E`` of the pair's exact squared score.

    With ``a_i = min_j g_ij + S_i``, each row's exact minimum lies within
    ``a_i ± E``, so ``τ``, the k-th smallest ``a_i + E``, bounds the k-th
    score from above, and a row with ``a_i - E > τ`` cannot rank. Within a
    row that can, only columns with ``g_ij <= min_j g_ij + 2E`` can hold the
    minimum, and only those pairs are scored exactly. When the rows span
    more than one block, they are filtered in the order of their squared
    distance to the template's per-channel [min, max] box, which bounds
    every pair's distance from below (in float32 it errs by at most
    ``(2d + 6)·u·R``), and the filter stops at the first row whose box
    distance less ``E`` exceeds ``τ``: no later row can rank.
    Non-finite rows rank after all others. Inputs outside the filter's range
    (``|x| > 2^40``, a non-finite template) are scored against every
    template row.
    """
    s = np.asarray(search_feats)
    t = np.asarray(template_feats)
    if t.shape[0] == 0:
        raise ValueError("template feature set is empty")
    if s.shape[1] != t.shape[1]:
        raise ValueError(f"feature widths differ: {s.shape[1]} vs {t.shape[1]}")
    m = s.shape[0]
    if m == 0:
        return np.empty(0)
    n = t.shape[0]
    k = m if k is None else min(max(k, 1), m)
    s32, t32, sn, e = float32_filter(s, t)
    v = np.full(m, np.inf)
    if e == np.inf:
        finite = np.isfinite(s).all(axis=1)
        rest = np.arange(m)
        if not finite.all() and float32_filter(s[finite], t)[3] < np.inf:
            v[finite] = ras_scores(s[finite], t, k)
            rest = rest[~finite] if k > finite.sum() else rest[:0]
        v[rest] = _exhaustive_scores(s, t, rest)
        return v
    order = None
    if k < m and m * n * s32.itemsize > _BLOCK_BYTES:
        gap = np.maximum(s32, t32.min(axis=0))
        np.minimum(gap, t32.max(axis=0), out=gap)
        np.subtract(s32, gap, out=gap)  # each row's offset from the box
        bound = np.einsum("ij,ij->i", gap, gap)
        order = np.argsort(bound)
        bound, sn = bound[order], sn[order]
        s32 = s32.take(order, axis=0)
    a = np.empty(m, dtype=np.float32)
    cut = np.inf  # τ + E: no row with a_i > cut can rank
    rows, cols = [], []
    several = False  # some row has more than one column in its band
    for lo, hi, h in shifted_sq_dist_blocks(s32, t32):
        h_min = h.min(axis=1)
        keep = None
        if k < m:
            np.add(h_min, sn[lo:hi], out=a[lo:hi])
            if hi >= k:
                cut = np.partition(a[:hi], k - 1)[k - 1] + 2.0 * e
                keep = (a[lo:hi] <= cut).nonzero()[0]
                h, h_min = h[keep], h_min[keep]
        r, c = np.divmod((h <= (h_min + 2.0 * e)[:, None]).ravel().nonzero()[0], n)
        several = several or c.shape[0] > h.shape[0]
        rows.append((r if keep is None else keep[r]) + lo)
        cols.append(c)
        if order is not None and hi < m and bound[hi] > cut:
            break
    if lo == 0:
        rows, cols = rows[0], cols[0]
    else:
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        if k < m:
            hit = a[rows] <= cut  # rows kept before τ reached its final value
            rows, cols = rows[hit], cols[hit]
    if order is not None:
        rows = order[rows]
    d2 = pair_sq_dist(s.take(rows, axis=0), t.take(cols, axis=0))
    if several:
        np.minimum.at(v, rows, d2)
    else:
        v[rows] = d2
    return np.sqrt(v, out=v)


def sample_ras(search_feats: np.ndarray, template_feats: np.ndarray, k: int) -> SampleSelection:
    """The k search points most feature-similar to the template."""
    v = ras_scores(search_feats, template_feats, k)
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
