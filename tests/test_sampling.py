import math

import numpy as np
import pytest

import pctrack.sampling as sampling
from pctrack.geometry import pair_sq_dist
from pctrack.sampling import (
    SampleSelection,
    dfps_prefix,
    ras_scores,
    sample_dfps,
    sample_ffps,
    sample_hybrid,
    sample_random,
    sample_ras,
)
from helpers import (
    foreground_fixture,
    greedy_fps_oracle,
    ras_sort_oracle,
    reference_greedy_farthest,
    reference_ras_scores,
)


# ---------------------------------------------------------------- random


def test_random_full_draw_is_permutation():
    sel = sample_random(8, 8, np.random.default_rng(0))
    assert sorted(sel.indices.tolist()) == list(range(8))
    assert not sel.padded


def test_random_single():
    sel = sample_random(1, 1, np.random.default_rng(0))
    assert sel.indices.tolist() == [0]


def test_random_seeded_regression():
    sel = sample_random(10, 4, np.random.default_rng(42))
    assert sel.indices.tolist() == [5, 6, 0, 7]


def test_random_unique_when_not_padded():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        k = int(rng.integers(1, n + 1))
        sel = sample_random(n, k, rng)
        assert len(set(sel.indices.tolist())) == k
        assert sel.indices.shape == (k,)


def test_random_padding_round_robin():
    sel = sample_random(3, 8, np.random.default_rng(5))
    assert sel.padded
    assert sel.indices.shape == (8,)
    base = sel.indices[:3].tolist()
    assert sel.indices.tolist() == base + base + base[:2]


# ---------------------------------------------------------------- D-FPS / F-FPS


def test_dfps_all_points():
    coords = np.random.default_rng(2).normal(size=(6, 3))
    sel = sample_dfps(coords, 6)
    assert sorted(sel.indices.tolist()) == list(range(6))


def test_dfps_line_fixture():
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0], [10, 0, 0]])
    assert sample_dfps(coords, 3).indices.tolist() == [0, 4, 3]


def test_dfps_coincident_points_selected_last():
    rng = np.random.default_rng(3)
    for _ in range(30):
        pts = rng.normal(size=(4, 3))
        pts = np.vstack([pts, pts[1]])  # index 4 duplicates index 1
        order = sample_dfps(pts, 5).indices.tolist()
        dup_pos = max(order.index(1), order.index(4))
        assert dup_pos == 4  # one of the twins always comes last


def test_dfps_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 64))
        pts = rng.normal(size=(n, 3))
        k = int(rng.integers(1, n + 1))
        start = int(rng.integers(0, n))
        got = sample_dfps(pts, k, start_index=start).indices.tolist()
        assert got == greedy_fps_oracle(pts, k, start)


def test_ffps_matches_oracle_in_feature_space():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(2, 48))
        feats = rng.normal(size=(n, 8))
        k = int(rng.integers(1, n + 1))
        got = sample_ffps(feats, k).indices.tolist()
        assert got == greedy_fps_oracle(feats, k, 0)


def test_ffps_on_coordinates_equals_dfps():
    rng = np.random.default_rng(6)
    coords = rng.normal(size=(30, 3))
    np.testing.assert_array_equal(
        sample_ffps(coords, 12).indices, sample_dfps(coords, 12).indices
    )


def test_ffps_one_hot_features_all_distinct_first():
    eye = np.eye(5)
    feats = np.vstack([eye, eye[2]])  # a duplicate one-hot at index 5
    order = sample_ffps(feats, 6).indices.tolist()
    assert sorted(order[:5]) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("sampler,width", [(sample_dfps, 3), (sample_ffps, 6), (sample_ffps, 32)])
def test_fps_matches_full_array_reference_bitwise(sampler, width):
    """Below 8 columns the distances are summed column by column, from 8 on
    by NumPy's row reduction; both must pick what the old loop picked."""
    # Lattice points scaled by 0.1 have many distances that are equal in
    # exact arithmetic and differ only by rounding, so any other summation
    # order picks other points.
    rng = np.random.default_rng(width)
    pts = rng.integers(-20, 21, size=(3000, width)) * 0.1
    pts[1::5] = pts[::5]  # duplicates tie exactly
    got = sampler(pts, 600, start_index=17)
    np.testing.assert_array_equal(got.indices, reference_greedy_farthest(pts, 600, 17))
    fortran = np.asfortranarray(pts[:400])
    np.testing.assert_array_equal(sampler(fortran, 150).indices,
                                  reference_greedy_farthest(fortran, 150))


def test_dfps_is_prefix_closed_on_its_own_order():
    """D-FPS on the points of a D-FPS selection, in selection order, returns
    ``dfps_prefix``: the leading indices, padded round robin past the end.
    Rounded coordinates make ties and exact duplicates common; k1 falls
    below and above n (padded first selections), k2 below and above k1."""
    rng = np.random.default_rng(47)
    padded_first = padded_second = 0
    for trial in range(240):
        n = int(rng.integers(1, 40))
        pts = np.round(rng.uniform(-1.0, 1.0, size=(n, 3)), int(rng.integers(1, 4)))
        if trial % 3 == 0:
            pts[rng.integers(0, n, size=n // 3)] = pts[rng.integers(0, n, size=n // 3)]
        if trial % 5 == 0:
            pts = pts.astype(np.float32)
        k1 = int(rng.integers(1, 2 * n + 2))
        first = sample_dfps(pts, k1)
        ordered = pts[first.indices]
        padded_first += first.padded
        for k2 in (int(rng.integers(1, k1 + 1)), int(rng.integers(k1 + 1, 2 * k1 + 2))):
            got = sample_dfps(ordered, k2)
            want = dfps_prefix(k1, k2)
            np.testing.assert_array_equal(got.indices, want.indices)
            assert got.padded == want.padded
            padded_second += got.padded
    assert padded_first >= 50 and padded_second >= 240


def test_fps_start_index_validation():
    pts = np.zeros((3, 3))
    with pytest.raises(ValueError):
        sample_dfps(pts, 2, start_index=3)


# ---------------------------------------------------------------- relation scores


def test_ras_scores_zero_on_exact_match():
    template = np.array([[1.0, 0.0], [0.0, 1.0]])
    search = np.array([[0.0, 1.0], [5.0, 5.0]])
    v = ras_scores(search, template)
    assert v[0] == pytest.approx(0.0, abs=1e-12)


def test_ras_scores_hand_fixture():
    template = np.array([[1.0, 0.0], [0.0, 1.0]])
    search = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0], [0.0, -1.0]])
    v = ras_scores(search, template)
    np.testing.assert_allclose(
        v, [0.0, math.sqrt(0.02), math.sqrt(2.0), math.sqrt(2.0)], atol=1e-12
    )


def test_ras_scores_template_permutation_invariant():
    rng = np.random.default_rng(7)
    template = rng.normal(size=(6, 4))
    search = rng.normal(size=(10, 4))
    v0 = ras_scores(search, template)
    v1 = ras_scores(search, template[rng.permutation(6)])
    np.testing.assert_allclose(v0, v1, atol=1e-12)


def test_ras_scores_rejects_empty_template():
    with pytest.raises(ValueError):
        ras_scores(np.zeros((3, 2)), np.zeros((0, 2)))


def test_ras_scores_rejects_width_mismatch():
    with pytest.raises(ValueError):
        ras_scores(np.zeros((3, 2)), np.zeros((4, 3)))


def test_ras_scores_match_full_matrix_reference_across_blocks(monkeypatch):
    """3000 x 700 x 64 is past ``_SLAB_MIN_PAIRS``, so ``k=None`` (k = m)
    runs on the slab filter."""
    slab_calls = _spy_slab_pairs(monkeypatch)
    rng = np.random.default_rng(71)
    template = rng.normal(size=(700, 64))
    search = rng.normal(size=(3000, 64))
    search[::7] = template[rng.integers(0, 700, size=search[::7].shape[0])]  # zero scores
    search[1::7] = search[::7]  # duplicate search rows tie
    v = ras_scores(search, template)
    np.testing.assert_array_equal(v, reference_ras_scores(search, template))
    np.testing.assert_array_equal(v[::7], v[1::7])
    assert (v[::7] == 0.0).all()
    assert slab_calls == [3000]


def test_ras_order_matches_direct_difference_oracle_at_level1_size():
    """Level-1 relation sampling of a dense search crop: 4000 points, a
    1600-point template, 32 feature channels."""
    rng = np.random.default_rng(72)
    search = rng.normal(size=(4000, 32))
    template = rng.normal(size=(1600, 32))
    d2 = np.empty(4000)
    for lo in range(0, 4000, 50):
        diff = search[lo:lo + 50, None, :] - template[None, :, :]
        d2[lo:lo + 50] = np.sum(diff ** 2, axis=2).min(axis=1)
    want = np.argsort(np.sqrt(d2), kind="stable")
    np.testing.assert_array_equal(sample_ras(search, template, 4000).indices, want)
    np.testing.assert_array_equal(ras_scores(search, template),
                                  reference_ras_scores(search, template))


@pytest.mark.parametrize("d", [1, 3, 8, 16, 17, 32, 64, 129])
def test_pair_sq_dist_bits_do_not_depend_on_which_pairs_share_a_call(d):
    rng = np.random.default_rng(700 + d)
    scale = 10.0 ** rng.integers(-3, 4, size=(300, 1))
    a = rng.normal(size=(300, d)) * scale
    b = a + rng.normal(size=(300, d)) * scale * 1e-3
    whole = pair_sq_dist(a, b)
    singles = [pair_sq_dist(a[i:i + 1], b[i:i + 1])[0] for i in range(300)]
    np.testing.assert_array_equal(whole, singles)
    pick = rng.permutation(300)[:123]
    np.testing.assert_array_equal(pair_sq_dist(a[pick], b[pick]), whole[pick])
    np.testing.assert_array_equal(pair_sq_dist(a[::-1], b[::-1]), whole[::-1])
    a32, b32 = a.astype(np.float32), b.astype(np.float32)
    np.testing.assert_array_equal(pair_sq_dist(a32, b32),
                                  pair_sq_dist(a32.astype(np.float64), b32.astype(np.float64)))


def _assert_ranks_like_oracle(search, template, k):
    """Rows that can rank carry the exact score, the others +inf, and the
    k smallest (lowest index first) match the direct-difference oracle."""
    want = reference_ras_scores(search, template)
    v = ras_scores(search, template, k)
    m = want.shape[0]
    top = np.argsort(want, kind="stable")[:m if k is None else k]
    np.testing.assert_array_equal(v[top], want[top])
    other = ~((v == want) | (np.isnan(v) & np.isnan(want)))
    assert (v[other] == np.inf).all()
    np.testing.assert_array_equal(np.argsort(v, kind="stable")[:top.shape[0]], top)
    return v


def test_ras_scores_match_direct_oracle_on_random_inputs():
    """Ties from rounding, duplicated rows, both dtypes, scales 1e-3 to 1e3,
    k from 1 to m, one block."""
    rng = np.random.default_rng(74)
    for case in range(120):
        m, n, d = int(rng.integers(1, 120)), int(rng.integers(1, 60)), int(rng.integers(1, 40))
        scale = 10.0 ** rng.uniform(-3, 3)
        grid = [0.5, 0.1, 1e-3, 0.0][case % 4]
        template = rng.normal(size=(n, d))
        search = rng.normal(size=(m, d))
        if grid:
            template, search = np.round(template / grid) * grid, np.round(search / grid) * grid
        if case % 3 == 0:
            template = template[rng.integers(0, n, size=n)]
            search[::2] = search[: (m + 1) // 2][: search[::2].shape[0]]
        if case % 5 == 0:
            search[: m // 3] = template[rng.integers(0, n, size=m // 3)]
        template, search = template * scale, search * scale
        if case % 2:
            template, search = template.astype(np.float32), search.astype(np.float32)
        for k in (1, int(rng.integers(1, m + 1)), m, None):
            _assert_ranks_like_oracle(search, template, k)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ras_scores_match_direct_oracle_across_blocks(dtype):
    """Ties and zero scores at 900 x 420, a product of more than 1 MB that
    is still below ``_SLAB_MIN_PAIRS`` and so runs as one block."""
    rng = np.random.default_rng(75)
    template = np.round(np.maximum(rng.normal(size=(420, 6)), 0.0), 1)
    search = np.round(np.maximum(rng.normal(size=(900, 6)), 0.0), 1)
    search[:40] = template[:40]
    template[200:260] = template[:60]
    search, template = search.astype(dtype), template.astype(dtype)
    assert 1 << 18 < search.shape[0] * template.shape[0] < sampling._SLAB_MIN_PAIRS
    for k in (1, 17, 64, 300, 899, 900):
        _assert_ranks_like_oracle(search, template, k)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_non_finite_rows_rank_last(dtype):
    rng = np.random.default_rng(76)
    template = rng.normal(size=(9, 5)).astype(dtype)
    search = rng.normal(size=(40, 5)).astype(dtype)
    search[3, 2] = np.nan
    search[17, 0] = np.inf
    search[25] = -np.inf
    search[31, 4] = np.nan
    for k in range(1, 41):
        v = _assert_ranks_like_oracle(search, template, k)
    order = np.argsort(v, kind="stable")
    assert order[-4:].tolist() == [17, 25, 3, 31]
    assert sample_ras(search, template, 40).indices[-4:].tolist() == [17, 25, 3, 31]


def test_inputs_outside_the_filter_range_are_scored_in_full():
    rng = np.random.default_rng(77)
    template = rng.normal(size=(12, 4)) * 1e13
    search = rng.normal(size=(30, 4)) * 1e13
    search[:5] = template[:5]
    for k in (1, 7, 30):
        _assert_ranks_like_oracle(search, template, k)
    search = rng.normal(size=(30, 4))
    search[4] = 1e20
    for k in (1, 29, 30):
        _assert_ranks_like_oracle(search, rng.normal(size=(12, 4)), k)
    template = rng.normal(size=(12, 4))
    template[2, 1] = np.nan
    assert np.isnan(_assert_ranks_like_oracle(search, template, 5)).all()


def test_relation_scores_stay_sparse_at_level1_size(monkeypatch):
    """Work guard at the level-1 shape of a dense crop: 4000 search rows, a
    1600-row template, 32 channels, k = 256, on isotropic features, where
    the slab windows skip little. Only rows that can rank are scored; the
    others read +inf."""
    slab_calls = _spy_slab_pairs(monkeypatch)
    rng = np.random.default_rng(78)
    template = np.maximum(rng.normal(size=(1600, 32)), 0.0).astype(np.float32)
    search = np.maximum(rng.normal(size=(4000, 32)), 0.0).astype(np.float32)
    search[:90] = template[:90]
    v = _assert_ranks_like_oracle(search, template, 256)
    assert np.isfinite(v).sum() <= 512
    assert slab_calls == [4000]


def _relu_embedding(rng, n_template, n_search, width, shared, dtype=np.float64):
    """Template and search features: a ReLU layer over 3-D points, so the
    rows spread along a few principal axes as trained features do. The
    first ``shared`` search rows are template rows."""
    w, b = rng.normal(size=(3, width)), rng.normal(scale=0.5, size=width)
    pts_t = rng.uniform(-1.0, 1.0, size=(n_template, 3))
    pts_s = np.vstack([pts_t[:shared], rng.uniform(-1.5, 1.5, size=(n_search - shared, 3))])
    return tuple(np.maximum(p @ w + b, 0.0).astype(dtype) for p in (pts_t, pts_s))


def _spy_slab_pairs(monkeypatch):
    """The search row count of each ``_slab_pairs`` call, in call order."""
    calls = []
    inner = sampling._slab_pairs

    def spy(s32, *args):
        calls.append(s32.shape[0])
        return inner(s32, *args)

    monkeypatch.setattr(sampling, "_slab_pairs", spy)
    return calls


@pytest.fixture
def slab_path(monkeypatch):
    """Every call takes the pair skip on principal-axis slabs, whatever its
    size. Yields the search row count of each slab call."""
    monkeypatch.setattr(sampling, "_SLAB_MIN_PAIRS", 0)
    return _spy_slab_pairs(monkeypatch)


def _slab_case(name, rng):
    if name == "zero-variance":
        template = np.repeat(rng.normal(size=(1, 5)), 60, axis=0)
        search = rng.normal(size=(400, 5))
        search[::9] = template[0]
    elif name.startswith("d="):
        d = int(name[2:])
        template = np.round(rng.uniform(-1.0, 1.0, size=(300, d)), 2)
        search = np.round(rng.uniform(-1.5, 1.5, size=(700, d)), 2)
        search[:40] = template[:40]
    elif name == "ties":
        template, search = _relu_embedding(rng, 300, 800, 8, 50)
        template, search = np.round(template, 1), np.round(search, 1)
        search[400:600] = search[:200]
        template[150:250] = template[:100]
    elif name.startswith("offset="):
        template, search = _relu_embedding(rng, 250, 600, 6, 30)
        template, search = template + float(name[7:]), search + float(name[7:])
    else:  # non-finite rows
        template, search = _relu_embedding(rng, 250, 600, 6, 30)
        search[7, 2], search[100, 0], search[333] = np.nan, np.inf, -np.inf
    return template, search


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["zero-variance", "d=1", "d=2", "d=3", "ties", "offset=30",
                                  "offset=100", "offset=1e3", "offset=1e5", "non-finite"])
def test_slab_path_ranks_like_oracle(slab_path, name, dtype):
    """The slab pair skip, forced on: exact scores for every row that can
    rank, ``+inf`` or exact for the rest, including k inside a tie. At
    offsets 30 and 100, ``E`` is close to the gaps between scores, so a
    window without its ``τ + 2E`` margin loses rows' nearest pairs."""
    rng = np.random.default_rng(90)
    template, search = _slab_case(name, rng)
    template, search = template.astype(dtype), search.astype(dtype)
    want = np.sort(reference_ras_scores(search, template))
    tied = [k for k in range(1, want.shape[0]) if want[k - 1] == want[k]]
    ks = {1, 17, 256, search.shape[0] - 1, *tied[:: max(1, len(tied) // 3)]}
    for k in ks:
        _assert_ranks_like_oracle(search, template, k)
    assert len(slab_path) == len(ks) >= 4


def test_slab_path_matches_direct_oracle_on_random_inputs(slab_path):
    """The random fixtures of the one-block test, through the slab filter."""
    rng = np.random.default_rng(91)
    calls = 0
    for case in range(60):
        m, n, d = int(rng.integers(2, 150)), int(rng.integers(1, 60)), int(rng.integers(1, 20))
        grid = [0.5, 0.1, 1e-3, 0.0][case % 4]
        template = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2, 2)
        search = rng.normal(size=(m, d)) * 10.0 ** rng.uniform(-2, 2)
        if grid:
            template, search = np.round(template / grid) * grid, np.round(search / grid) * grid
        if case % 3 == 0:
            search[::2] = search[: (m + 1) // 2][: search[::2].shape[0]]
            search[: m // 3] = template[rng.integers(0, n, size=m // 3)]
        if case % 2:
            template, search = template.astype(np.float32), search.astype(np.float32)
        ks = {1, int(rng.integers(1, m)), m - 1}
        for k in ks:
            _assert_ranks_like_oracle(search, template, k)
        calls += len(ks)
    assert len(slab_path) == calls


class _CountingNumpy:
    """NumPy, with ``matmul`` counting its output entries."""

    def __init__(self):
        self.pairs = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.pairs += a.shape[0] * b.shape[-1]
        return np.matmul(a, b, **kwargs)


@pytest.mark.parametrize("m,n,d,k", [(512, 256, 64, 128), (256, 128, 128, 64),
                                     (128, 100, 32, 64), (100, 37, 16, 50)])
def test_one_block_filter_matches_row_blocks_bitwise(monkeypatch, m, n, d, k):
    """The level-2/3 and training shapes, below ``_SLAB_MIN_PAIRS``: the one
    transposed product with column-wise minima selects the same rows, with
    the same top-k score bits, as the slab filter forced on (rows in slabs
    of the principal axis), and as the oracle. Ties: duplicated search rows
    and search rows equal to template rows."""
    template, search = _relu_embedding(np.random.default_rng(92), n, m, d, n // 4, np.float32)
    search[m // 2:m // 2 + m // 8] = search[: m // 8]
    taken = []
    inner = sampling._one_block_pairs
    monkeypatch.setattr(sampling, "_one_block_pairs",
                        lambda *args: taken.append(True) or inner(*args))
    for kk in (1, k, m - 1, None):
        one = ras_scores(search, template, kk)
        _assert_ranks_like_oracle(search, template, kk)
        with monkeypatch.context() as slabs:
            slabs.setattr(sampling, "_SLAB_MIN_PAIRS", 0)
            slab = ras_scores(search, template, kk)
        top = np.argsort(one, kind="stable")[: m if kk is None else kk]
        np.testing.assert_array_equal(np.argsort(slab, kind="stable")[: top.shape[0]], top)
        np.testing.assert_array_equal(slab[top].view(np.int64), one[top].view(np.int64))
    assert len(taken) == 8


def test_relation_filter_skips_pairs_at_level1_size(monkeypatch):
    """Work guard at the level-1 shape of a dense crop, 4000 x 1600 x 32,
    k = 256, on features with principal axes: the float32 filter evaluates
    at most a fifth of the pairs, so a silent full scan fails."""
    counter = _CountingNumpy()
    monkeypatch.setattr(sampling, "np", counter)
    template, search = _relu_embedding(np.random.default_rng(79), 1600, 4000, 32, 90, np.float32)
    v = _assert_ranks_like_oracle(search, template, 256)
    assert (v[:90] == 0.0).all()
    assert 0 < counter.pairs <= 4000 * 1600 // 5


# ---------------------------------------------------------------- RAS selection


def test_ras_picks_exact_match_first():
    template = np.array([[1.0, 0.0], [0.0, 1.0]])
    search = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0], [0.0, -1.0]])
    sel = sample_ras(search, template, 2)
    assert sel.indices[0] == 0


def test_ras_full_budget_selects_all():
    rng = np.random.default_rng(8)
    sel = sample_ras(rng.normal(size=(9, 4)), rng.normal(size=(3, 4)), 9)
    assert sorted(sel.indices.tolist()) == list(range(9))


def test_ras_matches_sort_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        search = rng.normal(size=(n, 5))
        template = rng.normal(size=(int(rng.integers(1, 10)), 5))
        k = int(rng.integers(1, n + 1))
        got = sample_ras(search, template, k).indices.tolist()
        assert got == ras_sort_oracle(search, template, k)


def test_ras_ties_break_low_index():
    template = np.zeros((1, 2))
    search = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])  # all distance 1
    sel = sample_ras(search, template, 2)
    assert sel.indices.tolist() == [0, 1]


# ---------------------------------------------------------------- hybrid


def test_hybrid_requires_even_k():
    with pytest.raises(ValueError, match="even"):
        sample_hybrid(np.zeros((10, 2)), np.zeros((2, 2)), 5, np.random.default_rng(0))


def test_hybrid_full_budget_selects_all():
    rng = np.random.default_rng(10)
    sel = sample_hybrid(rng.normal(size=(8, 3)), rng.normal(size=(3, 3)), 8, rng)
    assert sorted(sel.indices.tolist()) == list(range(8))


def test_hybrid_ras_half_has_smallest_scores():
    rng = np.random.default_rng(11)
    for _ in range(10):
        search = rng.normal(size=(30, 4))
        template = rng.normal(size=(6, 4))
        v = ras_scores(search, template)
        sel = sample_hybrid(search, template, 10, rng)
        smallest = set(np.argsort(v, kind="stable")[:5].tolist())
        assert set(sel.indices[:5].tolist()) == smallest


def test_hybrid_halves_are_disjoint():
    rng = np.random.default_rng(12)
    search = rng.normal(size=(40, 4))
    template = rng.normal(size=(5, 4))
    sel = sample_hybrid(search, template, 16, rng)
    assert len(set(sel.indices.tolist())) == 16


def test_hybrid_seeded_regression():
    rng = np.random.default_rng(7)
    template = rng.normal(size=(5, 3))
    search = rng.normal(size=(12, 3))
    sel = sample_hybrid(search, template, 6, np.random.default_rng(99))
    assert sel.indices.tolist() == [8, 7, 2, 11, 9, 5]


# ---------------------------------------------------------------- direction


def test_relation_sampling_keeps_more_foreground():
    """On object+clutter scenes, relation-guided picks beat blind ones."""
    k = 32
    frac = {"ras": [], "hybrid": [], "random": [], "dfps": [], "ffps": []}
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        search, template, fg_mask = foreground_fixture(rng)
        sels = {
            "ras": sample_ras(search, template, k),
            "hybrid": sample_hybrid(search, template, k, rng),
            "random": sample_random(len(search), k, rng),
            "dfps": sample_dfps(search, k),
            "ffps": sample_ffps(search, k),
        }
        for name, sel in sels.items():
            frac[name].append(fg_mask[sel.indices].mean())
    means = {name: float(np.mean(vals)) for name, vals in frac.items()}
    assert means["ras"] > means["random"]
    assert means["ras"] > means["dfps"]
    assert means["ras"] > means["ffps"]
    assert means["hybrid"] >= means["random"]


# ---------------------------------------------------------------- general


@pytest.mark.parametrize("n,k", [(5, 3), (5, 5), (3, 7), (6, 4), (4, 4), (3, 8)])
def test_selection_lengths(n, k):
    """Every sampler gives k indices: min(n, k) distinct points, then the
    same points again round robin, marked padded. Hybrid needs an even k;
    from k = n on it is the relation sampler alone."""
    rng = np.random.default_rng(13)
    feats = rng.normal(size=(n, 4))
    template = rng.normal(size=(2, 4))
    sels = [
        sample_random(n, k, rng),
        sample_dfps(feats[:, :3], k),
        dfps_prefix(n, k),
        sample_ffps(feats, k),
        sample_ras(feats, template, k),
    ]
    if k % 2 == 0:
        sels.append(sample_hybrid(feats, template, k, rng))
    for sel in sels:
        assert sel.indices.shape == (k,)
        assert (sel.indices < n).all() and (sel.indices >= 0).all()
        assert sel.padded == (k > n)
        head = sel.indices[: min(n, k)]
        assert np.unique(head).shape[0] == head.shape[0]
        np.testing.assert_array_equal(sel.indices, np.resize(head, k))


def test_selection_type_holds_int64_indices():
    sel = sample_random(4, 2, np.random.default_rng(14))
    assert isinstance(sel, SampleSelection)
    assert sel.indices.dtype == np.int64
    np.testing.assert_array_equal(sel.indices, np.random.default_rng(14).permutation(4)[:2])
