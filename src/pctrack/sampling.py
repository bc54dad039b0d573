"""Point subsampling strategies: random, D-FPS, F-FPS, relation-aware, hybrid.

All samplers are deterministic given their inputs (and an explicit rng for
the stochastic ones): ties always break toward the lowest index, and asking
for more points than exist falls back to selecting everything and padding
round-robin (``_take``), with the padding recorded on the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _SLAB_MIN_PAIRS, _U32, float32_filter, pair_sq_dist, slab_spans


@dataclass(frozen=True)
class SampleSelection:
    """Ordered source-point indices chosen by one sampler."""

    indices: np.ndarray
    padded: bool = False

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))


def _take(order: np.ndarray, k: int) -> SampleSelection:
    """The first k entries of ``order``, then round robin again, marked ``padded``."""
    if k <= order.shape[0]:
        return SampleSelection(order[:k])
    return SampleSelection(np.tile(order, -(-k // order.shape[0]))[:k], padded=True)


def sample_random(n: int, k: int, rng: np.random.Generator) -> SampleSelection:
    """k distinct uniform indices out of n (padded round-robin when k > n)."""
    if n < 1:
        raise ValueError("need at least one point")
    return _take(rng.permutation(n), k)


def _greedy_farthest(points: np.ndarray, k: int, start_index: int) -> SampleSelection:
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
    return _take(chosen, k)


def sample_dfps(coords: np.ndarray, k: int, start_index: int = 0) -> SampleSelection:
    """Greedy farthest-point selection in Euclidean coordinate space."""
    return _greedy_farthest(np.asarray(coords, dtype=np.float64), k, start_index)


def dfps_prefix(n: int, k: int) -> SampleSelection:
    """``sample_dfps(points, k)`` for n points that are already in D-FPS order.

    Such points are a D-FPS run's picks from index 0, in pick order, maybe
    followed by copies of them. Rerun on them, the greedy loop computes the
    same distance bits, and each original pick is the first maximum; the
    copies come last, at distance 0, in index order (README, "Exact
    shortcuts").
    """
    return _take(np.arange(n), k)


def sample_ffps(features: np.ndarray, k: int, start_index: int = 0) -> SampleSelection:
    """Greedy farthest-point selection measured in feature space."""
    return _greedy_farthest(np.asarray(features, dtype=np.float64), k, start_index)


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

    With ``a_i`` at least ``min_j g_ij + S_i``, each row's exact minimum is
    at most ``a_i + E``, so ``τ``, the k-th smallest ``a_i + E``, bounds the
    k-th score from above, and a row whose score exceeds ``τ`` cannot rank.
    Within a row that can, only columns with ``g_ij <= min_j g_ij + 2E`` can
    hold the minimum, and only those pairs are scored exactly.

    The input size alone picks the filter: below ``_SLAB_MIN_PAIRS`` search
    × template pairs, one GEMM over every pair (``_one_block_pairs``); from
    there on, only the pairs on overlapping slabs of the template's top
    principal axis (``_slab_pairs``), for every k. Non-finite rows rank after
    all others. Inputs outside the filter's range (``|x| > 2^40``, a
    non-finite template) are scored against every template row.
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
    s32, t32, sn, tn, e = float32_filter(s, t)
    v = np.full(m, np.inf)
    if e == np.inf:
        finite = np.isfinite(s).all(axis=1)
        rest = np.arange(m)
        if not finite.all() and float32_filter(s[finite], t)[4] < np.inf:
            v[finite] = ras_scores(s[finite], t, k)
            rest = rest[~finite] if k > finite.sum() else rest[:0]
        v[rest] = _exhaustive_scores(s, t, rest)
        return v
    if m * n >= _SLAB_MIN_PAIRS:
        rows, cols = _slab_pairs(s32, t32, sn, tn, e, k)
    else:
        rows, cols = _one_block_pairs(s32, t32, sn, tn, e, k)
    np.minimum.at(v, rows, pair_sq_dist(s.take(rows, axis=0), t.take(cols, axis=0)))
    return np.sqrt(v, out=v)


def _box_sq_dist(s32: np.ndarray, t32: np.ndarray) -> np.ndarray:
    """Squared distance of each search row to the template's per-channel
    [min, max] box, a lower bound of its every pair's."""
    gap = np.maximum(s32, t32.min(axis=0))
    np.minimum(gap, t32.max(axis=0), out=gap)
    np.subtract(s32, gap, out=gap)
    return np.einsum("ij,ij->i", gap, gap)


def _template_rows(t32: np.ndarray, tn: np.ndarray) -> np.ndarray:
    """The row-major ``[-2t, |t|²]``: one GEMM of it against a search row's
    ``[s, 1]`` gives the row's ``g`` against every template row."""
    n, d = t32.shape
    right = np.empty((n, d + 1), dtype=np.float32)
    np.multiply(t32, -2.0, out=right[:, :d])
    right[:, d] = tn
    return right


def _one_block_pairs(s32, t32, sn, tn, e, k):
    """``(rows, cols)``: the pairs to score exactly. Every pair of the call
    goes through one GEMM, taken transposed, one column per search row, so
    each row's minimum is a column-wise ``np.minimum.reduce``, as in
    ``_slab_pairs``; rows that cannot rank get a band below every ``g`` and
    so take no pair. At k = m the k-th ``a`` is the largest, so every row
    passes. Below ``_SLAB_MIN_PAIRS`` pairs the product is under 4 MB."""
    m, d = s32.shape
    left = np.ones((m, d + 1), dtype=np.float32)
    left[:, :d] = s32
    h = np.matmul(_template_rows(t32, tn), left.T)
    h_min = np.minimum.reduce(h, axis=0)
    band = h_min + 2.0 * e
    a = h_min + sn
    band[~(a <= np.partition(a, k - 1)[k - 1] + 2.0 * e)] = -np.inf
    cols, rows = np.divmod(np.flatnonzero(h <= band), m)
    return rows, cols


_SLAB_ROWS = 128  # search rows per slab
_SLAB_BAND_ROWS = 64  # rows per GEMM of the band pass
_SLAB_REPS = 64  # template rows whose scores give the first τ
_POWER_STEPS = 4


def _principal_axis(t32: np.ndarray) -> np.ndarray:
    """A float32 unit vector, shortened by 2^-20, near the top principal axis
    of the template rows (power iteration on their covariance). Any vector of
    norm at most 1 gives the slab bound; this one spreads the template most."""
    sample = t32[:: max(1, t32.shape[0] // 256)]
    n, d = sample.shape
    mean = np.ones(n, dtype=t32.dtype) @ sample / n
    cov = (sample.T @ sample).astype(np.float64) - n * np.outer(mean, mean)
    axis = np.zeros(d)
    axis[np.argmax(np.diag(cov))] = 1.0
    for _ in range(_POWER_STEPS):
        step = cov @ axis
        norm = math.sqrt(step @ step)
        if not norm > 0.0:  # no variance along it: keep the unit vector
            break
        axis = step / norm
    return (axis * (1.0 - 2.0 ** -20)).astype(np.float32)


def _shifted_blocks(right, rows32, spans):
    """Yield ``(lo, hi, c0, h)`` for each span ``(lo, hi, c0, c1)`` with
    ``c0 < c1``: ``h`` is the ``g`` of ``rows32[lo:hi]`` against rows c0:c1
    of ``right`` (``_template_rows``), transposed, one column per search
    row. ``h`` is a reused buffer, valid only until the next block is
    drawn."""
    d = rows32.shape[1]
    left = np.ones((d + 1, max(hi - lo for lo, hi, _, _ in spans)), dtype=np.float32)
    buf = np.empty(max((hi - lo) * (c1 - c0) for lo, hi, c0, c1 in spans), dtype=np.float32)
    for lo, hi, c0, c1 in spans:
        if c0 == c1:
            continue
        np.copyto(left[:d, : hi - lo], rows32[lo:hi].T)
        h = buf[: (c1 - c0) * (hi - lo)].reshape(c1 - c0, hi - lo)
        yield lo, hi, c0, np.matmul(right[c0:c1], left[:, : hi - lo], out=h)


def _slab_pairs(s32, t32, sn, tn, e, k):
    """``(rows, cols)`` as in ``_one_block_pairs``, found on slabs
    of the template's top principal axis.

    Both sides are projected on the axis ``p`` of ``_principal_axis``
    (``|p| < 1``), in float32, so ``y_i = s_i·p`` and ``z_j = t_j·p`` err by
    at most ``1.02·d·u·|x|``, and ``|s_i - t_j| >= |y_i - z_j| - ε`` with
    ``ε = 1.02·d·u·sqrt(2R)``. The float32 copies move ``pair_sq_dist`` by at
    most ``5.02·u·R`` (``float32_filter``), so a pair with
    ``|y_i - z_j| > W = sqrt(L + 6·u·R) + 1.1·(d + 1)·u·sqrt(2R)`` has an
    exact squared distance above ``L``; the slack beyond ``5.02·u·R`` and
    ``ε`` covers the rounding of ``W`` and of the float64 window ends.

    The squared distance of a row to the template's per-channel [min, max]
    box (``_box_sq_dist``) bounds its score from below; in float32 it errs
    by at most ``(2d + 6)·u·R``. ``τ`` starts as the k-th smallest score
    bound against ``_SLAB_REPS`` template rows spread along the axis, over
    the rows closest to the box. Only the rows whose box distance is within
    ``τ + E`` can rank. They are sorted by ``y`` and cut into slabs of
    ``_SLAB_ROWS`` (``geometry.slab_spans``); a slab spanning
    ``[y_lo, y_hi]`` is filtered against the template rows with ``z`` in
    ``[y_lo - W, y_hi + W]``, one contiguous slice of the template sorted
    by ``z``. Every window of this first pass is fixed before it starts,
    from the representatives' ``τ`` (``L = τ + 2E``). ``τ`` is then updated
    once, from the row minima the pass found. A row whose bound passes the
    final ``τ + E`` has its nearest template row within ``τ + 2E``, so
    inside its window. The band pass then scores those rows against the
    windows of the final ``τ``, in slabs of ``_SLAB_BAND_ROWS`` along the
    axis.
    """
    m, d = s32.shape
    n = t32.shape[0]
    bound = _box_sq_dist(s32, t32)
    big = float(sn.max()) + float(tn.max())
    axis = _principal_axis(t32)
    ys, yt = s32 @ axis, t32 @ axis
    torder = np.argsort(yt)
    zt = yt[torder].astype(np.float64)
    right = _template_rows(t32.take(torder, axis=0), tn[torder])

    # τ from representatives, over at least 4k rows nearest the box.
    near = np.flatnonzero(bound <= np.partition(bound, min(m, 4 * k) - 1)[min(m, 4 * k) - 1])
    reps = right[(np.arange(_SLAB_REPS) * n + n // 2) // _SLAB_REPS]
    u = np.matmul(np.ascontiguousarray(reps[:, :d]), s32.take(near, axis=0).T)
    u += reps[:, d:]
    a = np.full(m, np.inf, dtype=np.float32)
    a[near] = u.min(axis=0) + sn[near]
    cut = float(np.partition(a, k - 1)[k - 1]) + 2.0 * e

    live = np.flatnonzero(bound <= cut)
    order = live[np.argsort(ys[live])]
    y = ys[order].astype(np.float64)
    rows32, a, sn = s32.take(order, axis=0), a[order], sn[order]
    slack = 6.0 * _U32 * big + e
    eps = 1.1 * (d + 1) * _U32 * math.sqrt(2.0 * big)

    spans = slab_spans(y, zt, _SLAB_ROWS, math.sqrt(cut + slack) + eps)
    for lo, hi, _, h in _shifted_blocks(right, rows32, spans):
        ab = h.min(axis=0)
        ab += sn[lo:hi]
        np.minimum(a[lo:hi], ab, out=a[lo:hi])
    cut = min(cut, float(np.partition(a, k - 1)[k - 1]) + 2.0 * e)

    hit = np.flatnonzero(a <= cut)
    spans = slab_spans(y[hit], zt, _SLAB_BAND_ROWS, math.sqrt(cut + slack) + eps)
    rows, cols = [], []
    for lo, hi, c0, h in _shifted_blocks(right, rows32.take(hit, axis=0), spans):
        c, i = np.divmod(np.flatnonzero(h <= h.min(axis=0) + 2.0 * e), hi - lo)
        rows.append(order[hit[i + lo]])
        cols.append(torder[c + c0])
    return np.concatenate(rows), np.concatenate(cols)


def sample_ras(search_feats: np.ndarray, template_feats: np.ndarray, k: int) -> SampleSelection:
    """The k search points most feature-similar to the template."""
    return _take(np.argsort(ras_scores(search_feats, template_feats, k), kind="stable"), k)


def sample_hybrid(search_feats: np.ndarray, template_feats: np.ndarray, k: int,
                  rng: np.random.Generator) -> SampleSelection:
    """Half the budget by relation score, the other half uniform from the rest."""
    if k % 2 != 0:
        raise ValueError(f"hybrid sampling needs an even k, got {k}")
    n = np.asarray(search_feats).shape[0]
    if k >= n:
        return sample_ras(search_feats, template_feats, k)
    half = k // 2
    ras_half = sample_ras(search_feats, template_feats, half).indices
    mask = np.ones(n, dtype=bool)
    mask[ras_half] = False
    complement = np.flatnonzero(mask)
    random_half = rng.choice(complement, size=half, replace=False).astype(np.int64)
    return SampleSelection(np.concatenate([ras_half, random_half]))
