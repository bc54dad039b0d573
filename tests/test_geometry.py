import math

import numpy as np
import pytest

import pctrack.geometry as geometry
from pctrack.geometry import (
    Box3D,
    PointCloud,
    ball_query_padded,
    box_from_frame,
    box_iou_3d,
    box_to_frame,
    crop_template,
    distort_box,
    enlarge_box,
    float32_at_least,
    from_box_frame,
    points_in_box,
    shifted_sq_dist_blocks,
    slab_spans,
    to_box_frame,
    wrap_angle,
)
from helpers import (
    ball_query_matches,
    mc_box_iou,
    random_box,
    reference_points_in_box,
)


def unit_box(**kw):
    return Box3D(center=[0.0, 0.0, 0.0], size=[1.0, 1.0, 1.0], **kw)


# ---------------------------------------------------------------- wrap_angle


@pytest.mark.parametrize(
    "raw,expected",
    [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3 * math.pi / 2, -math.pi / 2),
        (2 * math.pi, 0.0),
        (-7.5, -7.5 + 2 * math.pi),
    ],
)
def test_wrap_angle(raw, expected):
    assert wrap_angle(raw) == pytest.approx(expected, abs=1e-12)


def test_wrap_angle_interval():
    rng = np.random.default_rng(0)
    for a in rng.uniform(-50, 50, size=500):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        # Same angle modulo a full turn.
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)


# ---------------------------------------------------------------- Box3D basics


def test_box_validates_size():
    with pytest.raises(ValueError):
        Box3D(center=[0, 0, 0], size=[1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        Box3D(center=[0, 0, 0], size=[1.0, -2.0, 1.0])


@pytest.mark.parametrize("yaw", [math.nan, math.inf, -math.inf])
def test_box_rejects_non_finite_yaw(yaw):
    with pytest.raises(ValueError, match="finite"):
        Box3D(center=[0, 0, 0], size=[1, 1, 1], yaw=yaw)


def test_box_normalizes_yaw():
    b = Box3D(center=[0, 0, 0], size=[1, 1, 1], yaw=3 * math.pi)
    assert b.yaw == pytest.approx(math.pi)


def test_box_roundtrips_through_seven_numbers():
    b = Box3D(center=[1.5, -2.0, 0.25], size=[4.0, 2.0, 1.5], yaw=0.7)
    again = Box3D.from_array7(b.as_array7())
    np.testing.assert_allclose(again.center, b.center)
    np.testing.assert_allclose(again.size, b.size)
    assert again.yaw == pytest.approx(b.yaw)


# ---------------------------------------------------------------- frames


def test_box_frame_roundtrip():
    rng = np.random.default_rng(7)
    box = random_box(rng)
    pts = rng.normal(size=(40, 3))
    back = from_box_frame(to_box_frame(pts, box), box)
    np.testing.assert_allclose(back, pts, atol=1e-12)


def test_box_frame_of_center_is_origin():
    box = Box3D(center=[3, -1, 2], size=[2, 1, 1], yaw=1.1)
    local = to_box_frame(box.center.reshape(1, 3), box)
    np.testing.assert_allclose(local, np.zeros((1, 3)), atol=1e-15)


def test_box_to_frame_roundtrip():
    rng = np.random.default_rng(13)
    for _ in range(20):
        box, ref = random_box(rng), random_box(rng)
        again = box_from_frame(box_to_frame(box, ref), ref)
        np.testing.assert_allclose(again.center, box.center, atol=1e-12)
        assert again.yaw == pytest.approx(box.yaw, abs=1e-12)


def random_frame_box(rng, scale):
    """A box whose center lies ``scale`` meters out, in a random direction."""
    direction = rng.normal(size=3)
    center = scale * direction / np.linalg.norm(direction)
    return Box3D(center, rng.uniform(0.2, 6.0, size=3), rng.uniform(-math.pi, math.pi))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2, 1e4])
def test_point_frame_round_trip_property(scale):
    """from_box_frame(to_box_frame(x)) returns x within 1e-9 m, for random
    boxes and clouds out to 1e4 m."""
    rng = np.random.default_rng(int(scale * 1000) % 997)
    for _ in range(50):
        box = random_frame_box(rng, scale)
        pts = box.center + rng.normal(scale=max(scale, 1.0), size=(64, 3))
        back = from_box_frame(to_box_frame(pts, box), box)
        assert np.abs(back - pts).max() <= 1e-9


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2, 1e4])
def test_box_frame_round_trip_property(scale):
    """box_from_frame(box_to_frame(b, ref), ref) returns b: the center within
    1e-9 m, the size exactly, and the yaw up to wrap-around, with yaws near
    ±pi so that the sums and differences wrap."""
    rng = np.random.default_rng(int(scale * 1000) % 991)
    wrapped = 0
    for i in range(100):
        ref = random_frame_box(rng, scale)
        box = random_frame_box(rng, scale)
        if i % 4 == 0:
            box = Box3D(box.center, box.size, math.pi - rng.uniform(0.0, 1e-3))
            ref = Box3D(ref.center, ref.size, -math.pi + rng.uniform(0.0, 1e-3))
        canon = box_to_frame(box, ref)
        wrapped += abs(box.yaw - ref.yaw) > math.pi
        again = box_from_frame(canon, ref)
        assert -math.pi < canon.yaw <= math.pi and -math.pi < again.yaw <= math.pi
        assert np.abs(again.center - box.center).max() <= 1e-9
        np.testing.assert_array_equal(again.size, box.size)
        assert abs(wrap_angle(again.yaw - box.yaw)) <= 1e-12
    assert wrapped >= 25


def test_box_in_own_frame_is_canonical():
    box = Box3D(center=[5, 5, 5], size=[3, 2, 1], yaw=-2.0)
    canon = box_to_frame(box, box)
    np.testing.assert_allclose(canon.center, 0.0, atol=1e-12)
    assert canon.yaw == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- membership


def test_center_point_inside():
    assert points_in_box(np.array([[0.0, 0.0, 0.0]]), unit_box())[0]


def test_point_beyond_half_extent_outside():
    assert not points_in_box(np.array([[0.51, 0.0, 0.0]]), unit_box())[0]


def test_boundary_counts_as_inside():
    on_face = np.array([[0.5, 0.0, 0.0], [0.5, 0.5, 0.5]])
    assert points_in_box(on_face, unit_box()).all()


def test_rotated_membership_hand_case():
    # size (2,1,1) rotated a quarter turn: the long axis lies along y.
    box = Box3D(center=[0, 0, 0], size=[2, 1, 1], yaw=math.pi / 2)
    assert points_in_box(np.array([[0.4, 0.9, 0.0]]), box)[0]
    assert not points_in_box(np.array([[0.9, 0.4, 0.0]]), box)[0]


def test_empty_cloud_empty_mask():
    mask = points_in_box(np.zeros((0, 3)), unit_box())
    assert mask.shape == (0,) and mask.dtype == bool


def test_membership_invariant_under_joint_yaw():
    """Rotating cloud and box together about the box center changes nothing."""
    rng = np.random.default_rng(42)
    box = random_box(rng)
    pts = box.center + rng.normal(scale=2.0, size=(200, 3))
    base = points_in_box(pts, box)
    for extra in rng.uniform(-math.pi, math.pi, size=5):
        c, s = math.cos(extra), math.sin(extra)
        rel = pts - box.center
        rot = np.column_stack(
            [c * rel[:, 0] - s * rel[:, 1], s * rel[:, 0] + c * rel[:, 1], rel[:, 2]]
        )
        turned_box = Box3D(box.center, box.size, box.yaw + extra)
        np.testing.assert_array_equal(points_in_box(rot + box.center, turned_box), base)


MEMBERSHIP_YAWS = [0.0, math.pi / 2, -math.pi / 2, math.pi, math.pi / 4]


def membership_probes(box, rng):
    """World points on the box's faces, edges and corners, each also moved one
    ulp either way (per coordinate and all at once), plus a scattered cloud
    that includes points inside the xy footprint but above or below it."""
    half = box.size / 2.0
    grid = np.array(np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]))
    on_faces = rng.uniform(-1.0, 1.0, size=(60, 3))
    on_faces[np.arange(60), np.arange(60) % 3] = rng.choice([-1.0, 1.0], size=60)
    local = np.vstack([grid.reshape(3, -1).T, on_faces]) * half
    surface = from_box_frame(local, box)
    probes = [surface]
    for direction in (np.inf, -np.inf):
        probes.append(np.nextafter(surface, direction))
        for axis in range(3):
            moved = surface.copy()
            moved[:, axis] = np.nextafter(surface[:, axis], direction)
            probes.append(moved)
    scatter = rng.uniform(-1.6, 1.6, size=(300, 3)) * half
    scatter[:100, 2] = rng.choice([-1.0, 1.0], size=100) * rng.uniform(1.0, 1.6, 100) * half[2]
    probes.append(from_box_frame(scatter, box))
    return np.vstack(probes)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2, 1e4])
@pytest.mark.parametrize("yaw", MEMBERSHIP_YAWS + [None], ids=["0", "pi/2", "-pi/2", "pi",
                                                            "pi/4", "random"])
def test_points_in_box_matches_rotate_everything_oracle(yaw, scale):
    """The bound-first mask equals the rotate-everything mask bit for bit, on
    faces, edges and corners and one ulp off them, for float64 and float32
    inputs, centers from 1e-3 m to 1e4 m."""
    which = 5 if yaw is None else MEMBERSHIP_YAWS.index(yaw)
    rng = np.random.default_rng([which, round(math.log10(scale)) + 3])
    inside = outside = 0
    for trial in range(6):
        theta = rng.uniform(-math.pi, math.pi) if yaw is None else yaw
        size = rng.uniform(0.3, 5.0, size=3)
        if trial == 5:
            size[:2] = (8.0, 0.05)  # long and thin
        direction = rng.normal(size=3)
        box = Box3D(scale * direction / np.linalg.norm(direction), size, theta)
        pts = membership_probes(box, rng)
        for cloud in (pts, pts.astype(np.float32), PointCloud(pts)):
            got = points_in_box(cloud, box)
            want = reference_points_in_box(cloud, box)
            assert got.dtype == bool and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        inside += int(want.sum())
        outside += int((~want).sum())
    assert inside > 100 and outside > 100


# ---------------------------------------------------------------- crops


def test_crop_ratio_zero_matches_membership():
    rng = np.random.default_rng(3)
    box = random_box(rng)
    cloud = PointCloud(box.center + rng.normal(scale=2.0, size=(300, 3)))
    crop = crop_template(cloud, box, extend_ratio=0.0)
    expected = cloud.coords[points_in_box(cloud, box)]
    np.testing.assert_array_equal(crop.coords, expected)


def test_crop_extension_includes_margin_point():
    box = unit_box()
    p = np.array([[0.5 * 1.04, 0.0, 0.0]])  # 4% past the face, under the 10% margin
    assert crop_template(PointCloud(p), box, extend_ratio=0.1).n == 1
    assert crop_template(PointCloud(p), box, extend_ratio=0.0).n == 0


def test_crop_empty_cloud():
    out = crop_template(PointCloud(np.zeros((0, 3))), unit_box(), 0.1)
    assert out.n == 0


def test_crop_rejects_negative_ratio():
    with pytest.raises(ValueError):
        crop_template(PointCloud(np.zeros((1, 3))), unit_box(), -0.1)


# ---------------------------------------------------------------- enlarge


def test_enlarge_margin_zero_identity():
    b = Box3D(center=[1, 2, 3], size=[4, 2, 1.5], yaw=0.3)
    e = enlarge_box(b, 0.0)
    np.testing.assert_array_equal(e.size, b.size)
    np.testing.assert_array_equal(e.center, b.center)


def test_enlarge_adds_margin_per_side():
    e = enlarge_box(Box3D(center=[0, 0, 0], size=[4, 2, 1.5]), 2.0)
    np.testing.assert_allclose(e.size, [8.0, 6.0, 5.5])


def test_enlarged_box_contains_original_corners():
    rng = np.random.default_rng(11)
    for _ in range(10):
        box = random_box(rng)
        big = enlarge_box(box, rng.uniform(0.0, 3.0))
        bev = box.corners_bev()
        z = [box.center[2] - box.size[2] / 2, box.center[2] + box.size[2] / 2]
        corners = np.array([[x, y, zz] for x, y in bev for zz in z])
        assert points_in_box(corners, big).all()


# ---------------------------------------------------------------- IoU


def test_iou_identical_boxes():
    rng = np.random.default_rng(5)
    for _ in range(10):
        b = random_box(rng)
        assert box_iou_3d(b, b) == pytest.approx(1.0, abs=1e-12)


def test_iou_disjoint_boxes():
    a = unit_box()
    b = Box3D(center=[100, 0, 0], size=[1, 1, 1])
    assert box_iou_3d(a, b) == 0.0


def test_iou_unit_cubes_offset_half():
    a = unit_box()
    b = Box3D(center=[0.5, 0, 0], size=[1, 1, 1])
    assert box_iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_iou_no_z_overlap():
    a = unit_box()
    b = Box3D(center=[0, 0, 1.5], size=[1, 1, 1])
    assert box_iou_3d(a, b) == 0.0


def test_iou_symmetric():
    rng = np.random.default_rng(21)
    for _ in range(25):
        a, b = random_box(rng), random_box(rng)
        assert box_iou_3d(a, b) == box_iou_3d(b, a)
        assert 0.0 <= box_iou_3d(a, b) <= 1.0


def test_iou_rigid_invariance():
    """A shared translation + z-rotation applied to both boxes preserves IoU."""
    rng = np.random.default_rng(33)
    for _ in range(15):
        a = random_box(rng)
        b = Box3D(a.center + rng.uniform(-1, 1, 3), random_box(rng).size, rng.uniform(-3, 3))
        base = box_iou_3d(a, b)
        shift = rng.uniform(-10, 10, size=3)
        theta = rng.uniform(-math.pi, math.pi)
        c, s = math.cos(theta), math.sin(theta)

        def moved(box):
            cx = c * box.center[0] - s * box.center[1]
            cy = s * box.center[0] + c * box.center[1]
            return Box3D([cx, cy, box.center[2]] + shift, box.size, box.yaw + theta)

        assert box_iou_3d(moved(a), moved(b)) == pytest.approx(base, abs=1e-9)


def test_iou_matches_monte_carlo():
    rng = np.random.default_rng(55)
    for _ in range(8):
        a = random_box(rng, center_span=1.0)
        b = random_box(rng, center_span=1.0)
        approx = mc_box_iou(a, b, n_samples=200_000, rng=rng)
        assert abs(box_iou_3d(a, b) - approx) < 0.02


# ---------------------------------------------------------------- ball query


def test_ball_query_self_hit():
    cloud = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    idx, counts = ball_query_padded(cloud[1:2], cloud, radius=0.1, max_k=4)
    assert counts.tolist() == [1]
    np.testing.assert_array_equal(idx[0], [1, 1, 1])


def test_ball_query_empty_neighborhood():
    cloud = np.array([[0, 0, 0], [1, 0, 0]], dtype=float)
    idx, counts = ball_query_padded(np.array([[0.5, 10.0, 0.0]]), cloud, radius=0.4, max_k=4)
    assert counts.tolist() == [0]
    np.testing.assert_array_equal(idx[0], [0, 0])  # an empty row pads with index 0


def test_ball_query_line_fixture():
    cloud = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float)
    idx, counts = ball_query_padded(np.array([[1.4, 0, 0]]), cloud, radius=1.0, max_k=8)
    assert counts.tolist() == [2]
    np.testing.assert_array_equal(idx[0], [1, 2, 1, 1])


def test_ball_query_caps_at_max_k():
    cloud = np.zeros((10, 3))
    idx, counts = ball_query_padded(np.array([[0.0, 0.0, 0.0]]), cloud, radius=1.0, max_k=3)
    assert counts.tolist() == [3]
    np.testing.assert_array_equal(idx[0], [0, 1, 2])


@pytest.mark.parametrize("max_k", [1, 4, 16])
def test_ball_query_zero_queries_is_empty(max_k):
    cloud = np.zeros((5, 3))
    idx, counts = ball_query_padded(np.zeros((0, 3)), cloud, radius=1.0, max_k=max_k)
    assert idx.shape == (0, min(max_k, 5)) and counts.shape == (0,)
    assert idx.dtype == counts.dtype == np.int64


def test_ball_query_matches_brute_force():
    rng = np.random.default_rng(77)
    for _ in range(10):
        cloud = rng.uniform(-2, 2, size=(rng.integers(1, 60), 3))
        queries = rng.uniform(-2, 2, size=(8, 3))
        radius = float(rng.uniform(0.3, 1.5))
        idx, _ = ball_query_padded(queries, cloud, radius, max_k=16)
        assert idx.shape == (8, min(16, len(cloud)))
        assert ball_query_matches(queries, cloud, radius, max_k=16)


def test_ball_query_rejects_bad_args():
    cloud = np.zeros((2, 3))
    with pytest.raises(ValueError, match="radius"):
        ball_query_padded(cloud, cloud, radius=0.0, max_k=1)
    with pytest.raises(ValueError, match="max_k"):
        ball_query_padded(cloud, cloud, radius=1.0, max_k=0)
    with pytest.raises(ValueError, match="non-empty"):
        ball_query_padded(cloud, np.zeros((0, 3)), radius=1.0, max_k=1)


@pytest.mark.parametrize("max_k", [1, 32, 600, 1000])
def test_ball_query_matches_full_matrix_reference_across_blocks(max_k):
    """3000 queries span many row blocks; max_k >= N is the refine-pooling
    call. The reference takes every pair's distance."""
    rng = np.random.default_rng(79)
    cloud = rng.uniform(-2, 2, size=(600, 3))
    queries = rng.uniform(-2.5, 2.5, size=(3000, 3))
    assert ball_query_matches(queries, cloud, 0.4, max_k)


def test_ball_query_matches_reference_at_radius_ties_and_empty_rows():
    # Lattice points exactly 1.0 apart sit on the radius; duplicates tie;
    # the far query has no neighbor at all.
    lattice = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    cloud = np.vstack([lattice, lattice[::3]])
    queries = np.vstack([lattice, [[40.0, 0.0, 0.0]]])
    for max_k in (1, 4, 7, cloud.shape[0]):
        assert ball_query_matches(queries, cloud, 1.0, max_k)
    idx, counts = ball_query_padded(queries, cloud, 1.0, 8)
    assert counts[-1] == 0 and (idx[-1] == 0).all()


def test_sq_dist_blocks_cover_every_row_once():
    rng = np.random.default_rng(80)
    b = rng.normal(size=(700, 3))
    spans = [(lo, hi) for lo, hi, _ in shifted_sq_dist_blocks(rng.normal(size=(3000, 3)),
                                                             b, np.sum(b * b, axis=1))]
    assert len(spans) > 1
    assert spans[0][0] == 0 and spans[-1][1] == 3000
    assert all(h == l for (_, h), (l, _) in zip(spans, spans[1:]))


def test_sq_dist_blocks_work_in_the_input_dtype():
    rng = np.random.default_rng(81)
    a = rng.normal(size=(3000, 3))
    b = rng.normal(size=(700, 3))
    want = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2) - np.sum(a * a, axis=1)[:, None]
    rows = {}
    for dtype in (np.float64, np.float32):
        got = np.empty_like(want)
        bd = b.astype(dtype)
        for lo, hi, h in shifted_sq_dist_blocks(a.astype(dtype), bd, np.sum(bd * bd, axis=1)):
            assert h.dtype == dtype
            rows.setdefault(dtype, hi - lo)
            got[lo:hi] = h
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 if dtype == np.float64 else 1e-4)
    assert rows[np.float32] == 2 * rows[np.float64]


@pytest.mark.parametrize("max_k", [32, 4071])
def test_ball_query_matches_direct_difference_oracle_at_level1_size(max_k):
    """A search cloud's level-1 ball query: 512 centroids in 4071 points."""
    rng = np.random.default_rng(81)
    cloud = rng.uniform(-2, 2, size=(4071, 3))
    queries = cloud[rng.choice(4071, size=512, replace=False)] + rng.normal(
        scale=0.05, size=(512, 3))
    assert ball_query_padded(queries, cloud, 0.3, max_k)[1].max() > 1
    assert ball_query_matches(queries, cloud, 0.3, max_k)


def test_ball_query_matches_direct_oracle_on_lattice_and_sphere_shells():
    """Lattice points tie at the radius exactly; the shell points lie on the
    query spheres up to round-off, where only the exact pair distance
    decides. Far from the origin the GEMM form |c|² - 2q·c rounds by more
    than that, in float64 too; float32 inputs enter the filter uncopied."""
    rng = np.random.default_rng(82)
    lattice = np.stack(np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    queries = np.vstack([lattice, rng.uniform(0, 5, size=(2000, 3))])
    for offset, radius in [(0.0, 0.4), (0.0, 1.0), (1e3, 0.3), (1e5, 0.3), (1e7, 0.3),
                           (1e8, 0.3)]:
        u = rng.normal(size=queries.shape)
        shell = queries + radius * u / np.linalg.norm(u, axis=1, keepdims=True)
        cloud = offset + np.vstack([lattice, rng.uniform(0, 5, size=(2000, 3)), shell])
        for dtype in (np.float64, np.float32):
            assert ball_query_matches((offset + queries).astype(dtype), cloud.astype(dtype),
                                      radius, cloud.shape[0])


@pytest.fixture
def filter_calls(monkeypatch):
    """One ``[took_slabs, pairs]`` entry per ball query: whether its float32
    filter ran on slab windows, and how many pairs it met."""
    calls = []
    inner = geometry.shifted_sq_dist_blocks

    def spy(a, b, bn, spans=None):
        calls.append([spans is not None, 0])
        for lo, hi, h in inner(a, b, bn, spans):
            calls[-1][1] += h.size
            yield lo, hi, h

    monkeypatch.setattr(geometry, "shifted_sq_dist_blocks", spy)
    return calls


def _slab_fixture(rng, n, radius, ties):
    """512 queries and n cloud points spread along x (at least 2^20 pairs),
    and the rows of 64 queries that have cloud points exactly ``radius``
    from them along x, 2^-40 beyond that, and on their spheres.
    12 queries have no neighbour at all. With ``ties`` the coordinates lie on a 2^-6 grid, so
    many points share their x and the points at ``±radius`` are exact."""
    m = 512
    assert m * n >= geometry._SLAB_MIN_PAIRS
    lo, hi = np.array([-4.0, -1.5, -1.0]), np.array([4.0, 1.5, 1.0])
    cloud = rng.uniform(lo, hi, size=(n - 5 * 64, 3))
    queries = np.vstack([cloud[rng.choice(cloud.shape[0], m - 12, replace=False)]
                         + rng.normal(scale=0.05, size=(m - 12, 3)),
                         rng.uniform(lo, hi, size=(12, 3)) + [0.0, 40.0, 0.0]])
    if ties:
        cloud, queries = np.round(cloud * 64) / 64, np.round(queries * 64) / 64
    rows = rng.choice(m - 12, 64, replace=False)
    edge = queries[rows]
    step = np.array([radius, 0.0, 0.0])
    u = rng.normal(size=edge.shape)
    cloud = np.vstack([cloud, edge + step, edge - step, edge + step + [2.0 ** -40, 0.0, 0.0],
                       edge + radius * u / np.linalg.norm(u, axis=1, keepdims=True),
                       edge + [0.0, 0.0, radius]])
    return queries, cloud, rows


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("offset", [0.0, 1e5])
@pytest.mark.parametrize("ties", [False, True])
def test_ball_query_slab_path_matches_direct_oracle(filter_calls, dtype, offset, ties):
    """Large calls filter only the pairs on overlapping x slabs. Against
    every pair's direct distance: ties along the sort axis, points at the
    radius along it (the window edge), points on the query spheres, empty
    rows and max_k caps, near the origin and 1e5 m from it."""
    radius = 0.25 if ties else 0.3
    queries, cloud, _ = _slab_fixture(np.random.default_rng(85), 2048 if ties else 3000,
                                      radius, ties)
    queries, cloud = (offset + queries).astype(dtype), (offset + cloud).astype(dtype)
    for max_k in (4, 32, cloud.shape[0]):
        assert ball_query_matches(queries, cloud, radius, max_k)
    idx, counts = ball_query_padded(queries, cloud, radius, cloud.shape[0])
    assert (counts[-12:] == 0).all() and (idx[-12:] == 0).all()
    assert counts.max() > 4  # max_k = 4 caps rows
    assert [took for took, _ in filter_calls] == [True] * len(filter_calls)


def test_ball_query_slab_path_keeps_exact_edge_hits(filter_calls):
    """On a 2^-6 grid the points at ±r along x are exactly r away and are
    neighbours; the points 2^-40 further out are not."""
    radius = 0.25
    queries, cloud, rows = _slab_fixture(np.random.default_rng(86), 2048, radius, ties=True)
    idx, counts = ball_query_padded(queries, cloud, radius, cloud.shape[0])
    n = cloud.shape[0] - 5 * 64
    for i, row in enumerate(rows):
        hits = set(idx[row, :counts[row]].tolist())
        assert {n + i, n + 64 + i} <= hits and n + 128 + i not in hits
    assert filter_calls[0][0]


def test_slab_spans_cut_balanced_slabs_with_closed_windows():
    """``slab_spans`` cuts the sorted keys ``y`` into slabs of at most
    ``rows``, sizes at most 1 apart, and gives each the run of sorted ``x``
    in ``[fl(y_lo - w), fl(y_hi + w)]``, both ends included."""
    y, w = np.array([0.1, 0.2, 0.7]), 0.3
    lo_end, hi_end = 0.1 - w, 0.7 + w
    x = np.array([np.nextafter(lo_end, -np.inf), lo_end, 0.5, hi_end,
                  np.nextafter(hi_end, np.inf)])
    assert slab_spans(y, x, 8, w) == [(0, 3, 1, 4)]
    assert slab_spans(np.array([10.0, 11.0]), np.array([0.0, 1.0, 2.0]), 8, w) == [(0, 2, 3, 3)]
    assert slab_spans(np.array([2.5]), np.array([0.0, 5.0]), 8, 1.0) == [(0, 1, 1, 1)]

    rng = np.random.default_rng(90)
    y, x = np.sort(rng.uniform(-5, 5, size=1000)), np.sort(rng.uniform(-6, 6, size=3000))
    for rows in (7, 64, 999, 1000, 1001):
        spans = slab_spans(y, x, rows, w)
        sizes = [hi - lo for lo, hi, _, _ in spans]
        assert [lo for lo, _, _, _ in spans] == [0, *np.cumsum(sizes)[:-1].tolist()]
        assert sum(sizes) == 1000 and max(sizes) <= rows and max(sizes) - min(sizes) <= 1
        assert len(spans) == -(-1000 // rows)
        for lo, hi, c0, c1 in spans:
            inside = (x >= y[lo] - w) & (x <= y[hi - 1] + w)
            assert np.flatnonzero(inside).tolist() == list(range(c0, c1))


def test_ball_query_small_calls_keep_input_order(filter_calls):
    """Below 2^20 pairs the filter runs on row blocks in input order, each
    against every column: no sort, no slab."""
    rng = np.random.default_rng(87)
    cloud = rng.uniform(-2, 2, size=(2047, 3))
    assert 512 * 2047 < geometry._SLAB_MIN_PAIRS
    assert ball_query_matches(cloud[:512], cloud, 0.3, 32)
    assert filter_calls == [[False, 512 * 2047]]


def test_ball_query_filter_skips_pairs_at_level1_size(filter_calls):
    """Work guard at the level-1 shape of a dense crop: 512 centroids in
    4000 points of an elongated crop, r = 0.3. The float32 filter meets at
    most a third of the pairs, so a silent full scan fails."""
    rng = np.random.default_rng(88)
    cloud = rng.uniform([-3.0, -1.5, -1.0], [3.0, 1.5, 1.0], size=(4000, 3)).astype(np.float32)
    queries = cloud[rng.choice(4000, 512, replace=False)]
    assert ball_query_matches(queries, cloud, 0.3, 32)
    took, pairs = filter_calls[0]
    assert took and 0 < pairs <= 512 * 4000 // 3


def test_float32_at_least_rounds_up_by_at_most_two_steps():
    rng = np.random.default_rng(84)
    x = rng.normal(size=20000) * 10.0 ** rng.uniform(-40, 37, size=20000)
    x[:100] = x[:100].astype(np.float32)  # exactly representable: one step up
    y = float32_at_least(x)
    assert y.dtype == np.float32
    assert (y >= x).all()
    below = np.nextafter(np.nextafter(y, np.float32(-np.inf)), np.float32(-np.inf))
    assert (below < x).all()


# ---------------------------------------------------------------- distortion


def test_distort_range_zero_identity():
    b = unit_box(yaw=0.4)
    d = distort_box(b, 0.0, np.random.default_rng(1))
    np.testing.assert_array_equal(d.center, b.center)
    assert d.yaw == b.yaw


def test_distort_bounded():
    b = unit_box()
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = distort_box(b, 0.3, rng)
        assert (np.abs(d.center - b.center) <= 0.3).all()
        np.testing.assert_array_equal(d.size, b.size)


def test_distort_reproducible():
    b = unit_box()
    first = distort_box(b, 0.3, np.random.default_rng(123)).center
    second = distort_box(b, 0.3, np.random.default_rng(123)).center
    np.testing.assert_array_equal(first, second)
    # Pinned from the seeded generator so accidental RNG reordering shows up.
    np.testing.assert_allclose(
        first, [0.10941112, -0.26770739, -0.16778408], atol=1e-6
    )
