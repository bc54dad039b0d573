"""Oriented-box and point-set primitives.

Boxes are gravity-aligned: a center, per-axis extents (length, width,
height) and a single yaw rotation about z. All angles are radians, all
distances meters. Everything here is a pure function over immutable
inputs; random number generators are always passed explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Normalize an angle to the half-open interval (-pi, pi]."""
    a = (angle + math.pi) % TWO_PI - math.pi
    if a <= -math.pi:
        a += TWO_PI
    return a


def _as_xyz(points) -> np.ndarray:
    """Coerce a PointCloud, an array or a sequence of xyz triples to an (N, 3) array."""
    if isinstance(points, PointCloud):
        return points.coords
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, 3)
    if arr.ndim != 2 or (arr.size and arr.shape[1] != 3):
        raise ValueError(f"expected (N, 3) coordinates, got shape {arr.shape}")
    return arr.reshape(-1, 3)


@dataclass(frozen=True)
class PointCloud:
    """N points: ``coords`` is an (N, 3) float array of xyz positions."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64).reshape(-1, 3)
        object.__setattr__(self, "coords", coords)
        if not np.isfinite(coords).all():
            raise ValueError("point coordinates must be finite")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def subset(self, indices) -> "PointCloud":
        return PointCloud(self.coords[np.asarray(indices, dtype=np.int64)])


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D bounding box: center, (length, width, height), yaw about z.

    Yaw is normalized to (-pi, pi] on construction; center, size and yaw
    must be finite and sizes positive.
    """

    center: np.ndarray
    size: np.ndarray
    yaw: float = 0.0

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64).reshape(3)
        size = np.asarray(self.size, dtype=np.float64).reshape(3)
        if not (np.isfinite(center).all() and np.isfinite(size).all()
                and math.isfinite(float(self.yaw))):
            raise ValueError("box center, size and yaw must be finite")
        if (size <= 0).any():
            raise ValueError(f"box size components must be positive, got {size}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "yaw", wrap_angle(float(self.yaw)))

    @property
    def volume(self) -> float:
        return float(self.size.prod())

    def as_array7(self) -> np.ndarray:
        """Serialize as (cx, cy, cz, l, w, h, yaw)."""
        return np.concatenate([self.center, self.size, [self.yaw]])

    @staticmethod
    def from_array7(values: Sequence[float]) -> "Box3D":
        v = np.asarray(values, dtype=np.float64).reshape(7)
        return Box3D(center=v[:3], size=v[3:6], yaw=float(v[6]))

    def corners_bev(self) -> np.ndarray:
        """(4, 2) footprint corners in world xy, counter-clockwise."""
        hl, hw = self.size[0] / 2.0, self.size[1] / 2.0
        local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + self.center[:2]


def to_box_frame(points, box: Box3D) -> np.ndarray:
    """Transform world points into the box frame (translate -center, rotate -yaw)."""
    xyz = _as_xyz(points)
    p = xyz - box.center
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    out = np.empty_like(p)
    out[:, 0] = c * p[:, 0] + s * p[:, 1]
    out[:, 1] = -s * p[:, 0] + c * p[:, 1]
    out[:, 2] = p[:, 2]
    return out


def from_box_frame(points, box: Box3D) -> np.ndarray:
    """Inverse of to_box_frame: box-frame points back to world coordinates."""
    xyz = _as_xyz(points)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    out = np.empty_like(xyz)
    out[:, 0] = c * xyz[:, 0] - s * xyz[:, 1]
    out[:, 1] = s * xyz[:, 0] + c * xyz[:, 1]
    out[:, 2] = xyz[:, 2]
    return out + box.center


def box_to_frame(box: Box3D, ref: Box3D) -> Box3D:
    """Express ``box`` in the canonical frame of ``ref``."""
    center = to_box_frame(box.center.reshape(1, 3), ref)[0]
    return Box3D(center, box.size, wrap_angle(box.yaw - ref.yaw))


def box_from_frame(box: Box3D, ref: Box3D) -> Box3D:
    """Map a box expressed in ``ref``'s canonical frame back to world."""
    center = from_box_frame(box.center.reshape(1, 3), ref)[0]
    return Box3D(center, box.size, wrap_angle(box.yaw + ref.yaw))


def points_in_box(cloud, box: Box3D) -> np.ndarray:
    """Boolean mask of points inside the box; boundary points count as inside.

    Bound first: only rows whose offset ``p = xyz - center`` lies within
    the box's axis-aligned xy bound, widened by 1e-9·(hx + hy) (far above
    the rotation's round-off), go through ``to_box_frame``'s arithmetic on
    the same ``p`` bits and ``|·| <= size / 2``. The mask equals the one
    from rotating every row, bit for bit.
    """
    xyz = _as_xyz(cloud)
    cx, cy, cz = box.center.tolist()
    sx, sy, sz = box.size.tolist()
    hx, hy, hz = sx / 2.0, sy / 2.0, sz / 2.0
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    slack = 1e-9 * (hx + hy)
    px = xyz[:, 0] - cx
    py = xyz[:, 1] - cy
    near = np.abs(px) <= abs(c) * hx + abs(s) * hy + slack
    near &= np.abs(py) <= abs(s) * hx + abs(c) * hy + slack
    rows = near.nonzero()[0]
    px, py = px[rows], py[rows]
    inside = np.abs(c * px + s * py) <= hx
    inside &= np.abs(-s * px + c * py) <= hy
    inside &= np.abs(xyz[:, 2][rows] - cz) <= hz
    mask = np.zeros(xyz.shape[0], dtype=bool)
    mask[rows] = inside
    return mask


def crop_template(cloud: PointCloud, box: Box3D, extend_ratio: float = 0.0) -> PointCloud:
    """Points inside the box with its size scaled by (1 + extend_ratio).

    The extension keeps a margin of background context around the object.
    May return an empty cloud; callers decide how to handle that.
    """
    if extend_ratio < 0:
        raise ValueError("extend_ratio must be >= 0")
    scaled = Box3D(box.center, box.size * (1.0 + extend_ratio), box.yaw)
    mask = points_in_box(cloud, scaled)
    return cloud.subset(np.flatnonzero(mask))


def enlarge_box(box: Box3D, margin_m: float) -> Box3D:
    """Grow the box by margin_m on every side (size grows by 2*margin_m per axis)."""
    if margin_m < 0:
        raise ValueError("margin_m must be >= 0")
    return Box3D(box.center, box.size + 2.0 * margin_m, box.yaw)


def distort_box(box: Box3D, range_m: float, rng: np.random.Generator) -> Box3D:
    """Shift the center by independent uniform offsets in [-range_m, range_m]."""
    if range_m < 0:
        raise ValueError("range_m must be >= 0")
    offset = rng.uniform(-range_m, range_m, size=3)
    return Box3D(box.center + offset, box.size, box.yaw)


# ---------------------------------------------------------------------------
# Rotated-box IoU via convex polygon clipping in the BEV plane.
# ---------------------------------------------------------------------------


def _polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a simple polygon given as an (K, 2) vertex array."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex subject polygon by a convex CCW clip polygon."""
    output = [tuple(p) for p in subject]
    n = len(clip)
    for i in range(n):
        if not output:
            break
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        points = output
        output = []
        px, py = points[-1]
        prev_side = ex * (py - ay) - ey * (px - ax)
        for cx, cy in points:
            side = ex * (cy - ay) - ey * (cx - ax)
            if (side >= 0.0) != (prev_side >= 0.0):
                t = prev_side / (prev_side - side)
                output.append((px + t * (cx - px), py + t * (cy - py)))
            if side >= 0.0:
                output.append((cx, cy))
            px, py, prev_side = cx, cy, side
    return np.asarray(output, dtype=np.float64).reshape(-1, 2)


def bev_intersection_area(a: Box3D, b: Box3D) -> float:
    """Intersection area of the two yaw-rotated box footprints."""
    clipped = _clip_convex(a.corners_bev(), b.corners_bev())
    return _polygon_area(clipped)


def box_iou_3d(a: Box3D, b: Box3D) -> float:
    """3D IoU: BEV polygon-clipped footprint overlap times z-extent overlap.

    Arguments are ordered canonically before clipping so the result is
    exactly symmetric despite the clip itself not being.
    """
    if tuple(b.as_array7()) < tuple(a.as_array7()):
        a, b = b, a
    inter_area = bev_intersection_area(a, b)
    if inter_area <= 0.0:
        return 0.0
    za0, za1 = a.center[2] - a.size[2] / 2.0, a.center[2] + a.size[2] / 2.0
    zb0, zb1 = b.center[2] - b.size[2] / 2.0, b.center[2] + b.size[2] / 2.0
    z_overlap = max(0.0, min(za1, zb1) - max(za0, zb0))
    inter = inter_area * z_overlap
    union = a.volume + b.volume - inter
    if union <= 0.0:
        return 0.0
    return float(min(max(inter / union, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Pairwise squared distances and fixed-radius neighbor queries.
# ---------------------------------------------------------------------------

# Bytes per row block of the ball query's filter: small enough that a
# block's GEMM output stays in cache until its consumer has read it.
_BLOCK_BYTES = 1 << 20

# Float32 unit round-off, and the largest squared row norm the float32
# filter takes: |x| <= 2^40, far from float32 overflow.
_U32 = 2.0 ** -24
_NORM_LIMIT = 2.0 ** 80

# The ball query and the relation scores skip pairs on slabs from this many
# query × cloud pairs on; below it the sort costs more than it saves.
_SLAB_MIN_PAIRS = 1 << 20
_BALL_SLAB_ROWS = 64  # queries per slab of the ball query


def pair_sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Σ_c (a_ic - b_ic)²`` for each row pair of two (P, d) arrays.

    The one definition of a squared distance between points or features:
    float64 differences of the inputs, squared and summed along each
    contiguous row, so a pair's bits do not depend on which other pairs
    share the call.
    """
    diff = np.subtract(a, b, dtype=np.float64)
    return np.einsum("ij,ij->i", diff, diff)


def float32_filter(a: np.ndarray, b: np.ndarray, r2: float = 0.0):
    """Float32 copies of ``a`` and ``b``, their row norms ``S_i = |a_i|²`` and
    ``|b_j|²``, and the bound ``E`` of a float32 filter in front of
    ``pair_sq_dist``.

    Each copy is its input itself when that is float32. Let ``g_ij``
    be the float32 ``|b_j|² - 2·a_i·b_j`` of ``shifted_sq_dist_blocks`` on the
    copies, ``R`` the largest ``S_i`` plus the largest ``|b_j|²`` plus ``r2``,
    ``u = 2^-24`` and ``e_ij = pair_sq_dist(a_i, b_j)``. Then
    ``|g_ij + S_i - e_ij| <= (4d + 7.01)·u·R``: the GEMM's (d + 1)-term dot
    products and the norms inside it err by at most ``(3d + 2)·u·R``, ``S_i``
    by ``d·u·R``, rounding the inputs to float32 moves ``|a - b|²`` by at most
    ``4.01·u·R``, and float64 evaluation moves ``e_ij`` by less than ``u·R``.
    ``E = (4d + 24)·u·R + (d + 1)·2^-100``: the ``16.99·u·R`` of additive
    slack covers the callers' float32 bookkeeping, each rounding at most
    ``2.01·u·R`` (``r2`` is in ``R`` for that), and keeps square roots
    strictly ordered; the absolute term covers underflow. ``E`` is ``+inf``
    for inputs outside the filter's range: ``|x| > 2^40`` or non-finite.
    """
    with np.errstate(over="ignore"):  # out-of-range values read inf
        a32, b32 = a.astype(np.float32, copy=False), b.astype(np.float32, copy=False)
    an = np.einsum("ij,ij->i", a32, a32)
    bn = np.einsum("ij,ij->i", b32, b32)
    big_a = float(an.max(initial=0.0))
    big_b = float(bn.max(initial=0.0))
    e = np.inf
    if big_a <= _NORM_LIMIT and big_b <= _NORM_LIMIT:
        d = a.shape[1]
        e = (4 * d + 24) * _U32 * (big_a + big_b + r2) + (d + 1) * 2.0 ** -100
    return a32, b32, an, bn, e


def shifted_sq_dist_blocks(a: np.ndarray, b: np.ndarray, bn: np.ndarray, spans=None):
    """Yield ``(lo, hi, h)`` with ``h = |b[c0:c1]|² - 2·a[lo:hi]·b[c0:c1]ᵀ``,
    block by block.

    ``h`` is the squared distance of each row of ``a`` to rows of ``b`` less
    the row's own ``|a|²``: the approximate side of ``float32_filter``, whose
    row norms of ``b`` are ``bn``. Each block is one GEMM of ``[a, 1]``
    against columns of the row-major ``[-2bᵀ; |b|²]``, built once per call
    (the inner-product form that FAISS uses), so no (M, N) matrix is ever
    built. ``spans`` lists the blocks as ``(lo, hi, c0, c1)``; by default
    they take the rows of ``a`` in order, ``_BLOCK_BYTES`` of arithmetic at a
    time, each against every row of ``b``. The arithmetic runs in ``a``'s
    dtype, which ``b`` and ``bn`` must share. ``h`` is a reused buffer, valid
    only until the next block is drawn.
    """
    m, d = a.shape
    n = b.shape[0]
    right = np.empty((d + 1, n), dtype=a.dtype)
    np.multiply(b.T, -2.0, out=right[:d])
    right[d] = bn
    if spans is None:
        rows = min(m, max(1, _BLOCK_BYTES // (a.itemsize * max(n, 1))))
        spans = [(lo, min(lo + rows, m), 0, n) for lo in range(0, m, rows)]
        size = rows * n
    else:
        rows = max(hi - lo for lo, hi, _, _ in spans)
        size = max((hi - lo) * (c1 - c0) for lo, hi, c0, c1 in spans)
    left = np.ones((rows, d + 1), dtype=a.dtype)
    buf = np.empty(size, dtype=a.dtype)
    for lo, hi, c0, c1 in spans:
        left[: hi - lo, :d] = a[lo:hi]
        h = buf[: (hi - lo) * (c1 - c0)].reshape(hi - lo, c1 - c0)
        np.matmul(left[: hi - lo], right[:, c0:c1], out=h)
        yield lo, hi, h


def float32_at_least(x: np.ndarray) -> np.ndarray:
    """``x`` rounded to float32 and one step up: at least ``x``, at most two
    float32 steps above it."""
    return np.nextafter(x.astype(np.float32), np.float32(np.inf))


def slab_spans(y: np.ndarray, x: np.ndarray, rows: int, w: float) -> list:
    """``(lo, hi, c0, c1)`` for each slab of at most ``rows`` of the sorted
    keys ``y``: ``y[lo:hi]`` is the slab and ``x[c0:c1]`` the sorted keys
    ``x`` in ``[fl(y_lo - w), fl(y_hi + w)]``, closed at both ends. The
    slabs cover ``y`` in order, their sizes at most 1 apart."""
    m = y.shape[0]
    slabs = -(-m // rows)
    ends = (np.arange(slabs + 1) * m) // slabs
    c0 = np.searchsorted(x, y[ends[:-1]] - w)
    c1 = np.searchsorted(x, y[ends[1:] - 1] + w, side="right")
    return list(zip(ends[:-1].tolist(), ends[1:].tolist(), c0.tolist(), c1.tolist()))


def _slab_windows(q: np.ndarray, c: np.ndarray, c32: np.ndarray, r2: float):
    """``(spans, order, corder)`` of the ball query's pair skip: the queries
    and the cloud sorted along the cloud's axis of largest extent, and the
    ``slab_spans`` of ``_BALL_SLAB_ROWS`` sorted queries, each against the
    one run of the sorted cloud that can hold their neighbours.

    Let ``y`` and ``x`` be the float64 values of the queries' and the
    cloud's coordinates on that axis, sorted, and ``u = 2^-53``. A slab of
    queries ``y_lo..y_hi`` takes the cloud points with ``x`` in
    ``[fl(y_lo - w), fl(y_hi + w)]``, where
    ``w = fl(fl(ρ·(1 + 2^-50)) + 2^-500)`` and ``ρ = fl(sqrt(r2))``.

    No neighbour is outside its slab's window. ``pair_sq_dist`` rounds the
    axis difference ``δ = fl(y_i - x_j)`` and adds non-negative terms that
    include ``δ²``, rounded or fused; rounding is monotone, so its result is
    at least ``fl(δ²) >= δ²·(1 - u) - 2^-1075``. A neighbour has that result
    at most ``r2``, so ``|δ| <= sqrt((r2 + 2^-1074) / (1 - u))``, and as a
    subtraction that underflows is exact,
    ``|y_i - x_j| <= |δ| / (1 - u) <= ρ·(1 + 3u) + 2^-536``. The products
    and the sum that make ``w`` round by at most ``u`` each, so
    ``w >= ρ·(1 + 5u) + 2^-501`` bounds that. Then the exact window ends
    satisfy ``y_lo - w <= x_j <= y_hi + w``, and since ``x_j`` is a float64
    number, the rounded ends keep it inside: ``fl`` is monotone and leaves
    ``x_j`` as it is. The float32 filter's bound holds pair by pair, so
    within the windows it keeps every neighbour too.
    """
    cols = np.ascontiguousarray(c32.T)  # (n, 3) reductions along axis 0 are slow
    axis = int(np.argmax(cols.max(axis=1) - cols.min(axis=1)))
    order, corder = np.argsort(q[:, axis]), np.argsort(c[:, axis])
    y = q[order, axis].astype(np.float64)
    x = c[corder, axis].astype(np.float64)
    w = math.sqrt(r2) * (1.0 + 2.0 ** -50) + 2.0 ** -500
    return slab_spans(y, x, _BALL_SLAB_ROWS, w), order, corder


def ball_query_padded(
    queries_xyz: np.ndarray,
    cloud_xyz: np.ndarray,
    radius: float,
    max_k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ball query returning a dense (M, min(max_k, N)) index matrix.

    Point j is a neighbor of query i when ``pair_sq_dist(q_i, c_j) <= r²``.
    Rows hold the lowest max_k neighbors in ascending order, padded by
    repeating the first (index 0 in an empty row) so max-pools are
    unaffected; ``counts`` holds the neighborhood sizes, capped at max_k.
    By ``float32_filter``'s bound (``r²`` in ``R``), a pair within the radius
    has ``g_ij <= r² - S_i + E``; only such pairs, that limit rounded up to
    float32, get their exact distance, and out of range every pair does.

    From ``_SLAB_MIN_PAIRS`` pairs on (and in range), the filter meets only
    the pairs on overlapping coordinate slabs: both sides are sorted along
    the cloud's longest axis, and each slab of queries is filtered against
    the run of cloud points within the radius of it on that axis
    (``_slab_windows``, which proves that no neighbour is skipped). The hits
    are then sorted back to row-major order, so ``idx`` and ``counts`` are
    the same bits either way.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    q = np.asarray(queries_xyz)
    c = np.asarray(cloud_xyz)
    m, n = q.shape[0], c.shape[0]
    if n == 0:
        raise ValueError("cloud must be non-empty")
    if m == 0:
        return np.zeros((0, min(max_k, n)), dtype=np.int64), np.zeros(0, dtype=np.int64)
    r2 = radius * radius
    q32, c32, qn, cn, e = float32_filter(q, c, r2)
    spans = order = None
    if e == np.inf:  # out of range: a filter on zeros keeps every pair
        q32, c32 = np.zeros_like(q32), np.zeros_like(c32)
        qn, cn = np.zeros_like(qn), np.zeros_like(cn)
    elif m * n >= _SLAB_MIN_PAIRS:
        spans, order, corder = _slab_windows(q, c, c32, r2)
        q32, qn = q32.take(order, axis=0), qn[order]
        c32, cn = c32.take(corder, axis=0), cn[corder]
    limit = float32_at_least(np.subtract(r2 + e, qn, dtype=np.float64))[:, None]
    near = []
    for b, (lo, hi, h) in enumerate(shifted_sq_dist_blocks(q32, c32, cn, spans)):
        # Candidates come out row-major within a block, as keys i·n + j of
        # the (sorted) rows and columns.
        flat = np.flatnonzero(h <= limit[lo:hi])
        if spans is None:
            flat += lo * n
        else:
            r, j = np.divmod(flat, h.shape[1])
            flat = (r + lo) * n + (j + spans[b][2])
        near.append(flat)
    r, j = np.divmod(np.concatenate(near), n)
    if order is not None:
        r, j = order[r], corder[j]
    hit = pair_sq_dist(q.take(r, axis=0), c.take(j, axis=0)) <= r2
    rows, cols = r[hit], j[hit]
    if order is not None:
        rows, cols = np.divmod(np.sort(rows * n + cols), n)
    # Each row's hits are in ascending column order; a hit's rank is its
    # offset from the row start.
    hits = np.bincount(rows, minlength=m)
    starts = np.cumsum(hits) - hits
    rank = np.arange(rows.shape[0]) - starts[rows]
    keep = rank < max_k
    first = np.zeros(m, dtype=np.int64)
    found = hits > 0
    first[found] = cols[starts[found]]
    idx = np.repeat(first[:, None], min(max_k, n), axis=1)
    idx[rows[keep], rank[keep]] = cols[keep]
    return idx, np.minimum(hits, max_k)
