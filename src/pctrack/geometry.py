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


def shifted_sq_dist_blocks(a: np.ndarray, b: np.ndarray):
    """Yield ``(lo, hi, h)`` with ``h = |b|² - 2·a[lo:hi]·bᵀ``, block by block.

    ``h`` is the squared distance of each row of ``a`` to every row of ``b``
    less the row's own ``|a|²``; a caller adds that back, or moves it to the
    other side of a comparison. Each block is one GEMM of ``[a, 1]`` against
    the row-major ``[-2bᵀ; |b|²]``, built once per call (the inner-product
    form that FAISS uses), so no (M, N) matrix is ever built. The arithmetic
    runs in ``a``'s dtype, which ``b`` must share, and a block holds
    ``_BLOCK_BYTES`` of it. The last bits depend on the block bounds and the
    operand layout, because a GEMM rounds differently at other shapes. ``h``
    is a reused buffer, valid only until the next block is drawn.
    """
    m, d = a.shape
    n = b.shape[0]
    right = np.empty((d + 1, n), dtype=a.dtype)
    np.multiply(b.T, -2.0, out=right[:d])
    np.sum(b * b, axis=1, out=right[d])
    rows = min(m, max(1, _BLOCK_BYTES // (a.itemsize * max(n, 1))))
    left = np.ones((rows, d + 1), dtype=a.dtype)
    buf = np.empty((rows, n), dtype=a.dtype)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        left[: hi - lo, :d] = a[lo:hi]
        h = buf[: hi - lo]
        np.matmul(left[: hi - lo], right, out=h)
        yield lo, hi, h


def ball_query_padded(
    queries_xyz: np.ndarray,
    cloud_xyz: np.ndarray,
    radius: float,
    max_k: int,
    fill_idx: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ball query returning a dense (M, min(max_k, N)) index matrix.

    Rows are ascending in-radius indices, the lowest max_k when more
    qualify; short rows are padded by repeating the row's first neighbor so
    downstream max-pools are unaffected. Rows with no neighbors at all are
    padded with ``fill_idx`` (per query) when given, else index 0;
    ``counts`` records the neighborhood sizes, capped at max_k.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    q = np.asarray(queries_xyz, dtype=np.float64)
    c = np.asarray(cloud_xyz, dtype=np.float64)
    m, n = q.shape[0], c.shape[0]
    if n == 0:
        raise ValueError("cloud must be non-empty")
    # |q - c|² <= r²  is tested as  |c|² - 2q·c <= r² - |q|².
    limit = radius * radius - np.sum(q * q, axis=1)
    mask = np.empty((m, n), dtype=bool)
    for lo, hi, h in shifted_sq_dist_blocks(q, c):
        np.less_equal(h, limit[lo:hi, None], out=mask[lo:hi])
    # The flat hit positions walk the mask row by row, so each row's hits
    # come out in ascending column order; a hit's rank is its offset from
    # the row start. (flatnonzero + divmod gives what np.nonzero(mask) does,
    # about ten times faster on a sparse 2-D mask.)
    flat = np.flatnonzero(mask)
    rows, cols = np.divmod(flat, n)
    hits = np.bincount(rows, minlength=m)
    starts = np.cumsum(hits) - hits
    rank = np.arange(rows.shape[0]) - starts[rows]
    keep = rank < max_k
    first = np.zeros(m, dtype=np.int64) if fill_idx is None else \
        np.array(fill_idx, dtype=np.int64)
    found = hits > 0
    first[found] = cols[starts[found]]
    idx = np.repeat(first[:, None], min(max_k, n), axis=1)
    idx[rows[keep], rank[keep]] = cols[keep]
    return idx, np.minimum(hits, max_k)
