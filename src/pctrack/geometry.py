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

# Bytes per row block of the distance stages: small enough that a block's
# GEMM output stays in cache until its consumer has read it.
_BLOCK_BYTES = 1 << 20

# Float32 unit round-off, and the largest squared row norm the float32
# filter takes: |x| <= 2^40, far from float32 overflow.
_U32 = 2.0 ** -24
_NORM_LIMIT = 2.0 ** 80


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

    The copies are the inputs themselves when both are float32. Let ``g_ij``
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
    a32, b32 = a, b
    if a.dtype != np.float32 or b.dtype != np.float32:
        with np.errstate(over="ignore"):  # out-of-range values read inf
            a32, b32 = a.astype(np.float32), b.astype(np.float32)
    an = np.einsum("ij,ij->i", a32, a32)
    bn = np.einsum("ij,ij->i", b32, b32)
    big_a = float(an.max(initial=0.0))
    big_b = float(bn.max(initial=0.0))
    e = np.inf
    if big_a <= _NORM_LIMIT and big_b <= _NORM_LIMIT:
        d = a.shape[1]
        e = (4 * d + 24) * _U32 * (big_a + big_b + r2) + (d + 1) * 2.0 ** -100
    return a32, b32, an, bn, e


def shifted_sq_dist_blocks(a: np.ndarray, b: np.ndarray, bn: np.ndarray):
    """Yield ``(lo, hi, h)`` with ``h = |b|² - 2·a[lo:hi]·bᵀ``, block by block.

    ``h`` is the squared distance of each row of ``a`` to every row of ``b``
    less the row's own ``|a|²``: the approximate side of ``float32_filter``,
    whose row norms of ``b`` are ``bn``. Each block is one GEMM of ``[a, 1]``
    against the row-major ``[-2bᵀ; |b|²]``, built once per call (the
    inner-product form that FAISS uses), so no (M, N) matrix is ever built.
    The arithmetic runs in ``a``'s dtype, which ``b`` and ``bn`` must share,
    and a block holds ``_BLOCK_BYTES`` of it. ``h`` is a reused buffer, valid
    only until the next block is drawn.
    """
    m, d = a.shape
    n = b.shape[0]
    right = np.empty((d + 1, n), dtype=a.dtype)
    np.multiply(b.T, -2.0, out=right[:d])
    right[d] = bn
    rows = min(m, max(1, _BLOCK_BYTES // (a.itemsize * max(n, 1))))
    left = np.ones((rows, d + 1), dtype=a.dtype)
    buf = np.empty((rows, n), dtype=a.dtype)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        left[: hi - lo, :d] = a[lo:hi]
        h = buf[: hi - lo]
        np.matmul(left[: hi - lo], right, out=h)
        yield lo, hi, h


def float32_at_least(x: np.ndarray) -> np.ndarray:
    """``x`` rounded to float32 and one step up: at least ``x``, at most two
    float32 steps above it."""
    return np.nextafter(x.astype(np.float32), np.float32(np.inf))


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
    if e == np.inf:  # out of range: a filter on zeros keeps every pair
        q32, c32 = np.zeros_like(q32), np.zeros_like(c32)
        qn, cn = np.zeros_like(qn), np.zeros_like(cn)
    limit = float32_at_least(np.subtract(r2 + e, qn, dtype=np.float64))[:, None]
    near = []
    for lo, hi, h in shifted_sq_dist_blocks(q32, c32, cn):
        # Candidates come out row-major, and the exact test keeps that order.
        flat = np.flatnonzero(h <= limit[lo:hi]) + lo * n
        r, j = np.divmod(flat, n)
        near.append(flat[pair_sq_dist(q.take(r, axis=0), c.take(j, axis=0)) <= r2])
    rows, cols = np.divmod(np.concatenate(near), n)
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
