import numpy as np
import pytest

from pctrack.backbone import Backbone, BackbonePlan, SetAbstraction, select_points
from pctrack.checks import tiny_config
from pctrack.config import RunConfig, apply_ablation, config_for_profile
from pctrack.geometry import ball_query_padded
from pctrack.numeric import grad_check
from pctrack.sampling import SampleSelection, sample_dfps

from helpers import reference_sa_backward, reference_sa_forward


def tiny_backbone(seed=0, dtype=np.float64):
    return Backbone(tiny_config(), np.random.default_rng(seed), dtype=dtype)


def tiny_clouds(seed=1, n_t=8, n_s=10, scale=0.5):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=scale, size=(n_t, 3)), rng.normal(scale=scale, size=(n_s, 3))


# ---------------------------------------------------------------- SA level


def test_sa_single_point_self_neighborhood():
    """With one point, the group is (zero rel coords ++ its own feature)."""
    rng = np.random.default_rng(2)
    sa = SetAbstraction(5, 7, 0.5, 32, rng, "sa", dtype=np.float64)
    coords = np.array([[0.3, -0.2, 0.1]])
    feats = rng.normal(size=(1, 5))
    sel = SampleSelection(np.array([0]), "dfps")
    (cent, pooled), _ = sa.forward(coords, feats, sel)
    np.testing.assert_array_equal(cent, coords)
    lin = sa.linear
    by_hand = np.concatenate([feats[0], np.zeros(3)]) @ lin.weight.value.T + lin.bias.value
    np.testing.assert_allclose(pooled[0], np.maximum(by_hand, 0.0), atol=1e-12)


def test_sa_output_row_count_matches_selection():
    rng = np.random.default_rng(3)
    sa = SetAbstraction(4, 6, 0.7, 32, rng, "sa", dtype=np.float64)
    coords = rng.normal(scale=0.4, size=(20, 3))
    feats = rng.normal(size=(20, 4))
    for k in (1, 5, 12):
        sel = sample_dfps(coords, k)
        (cent, pooled), _ = sa.forward(coords, feats, sel)
        assert cent.shape == (k, 3)
        assert pooled.shape == (k, 6)


def test_sa_pool_invariant_under_point_reordering():
    """Permuting the source points permutes groups but not pooled values."""
    rng = np.random.default_rng(4)
    sa = SetAbstraction(4, 8, 0.9, 16, rng, "sa", dtype=np.float64)
    coords = rng.normal(scale=0.4, size=(16, 3))
    feats = rng.normal(size=(16, 4))
    sel = SampleSelection(np.array([2, 7, 11]), "dfps")
    (_, base), _ = sa.forward(coords, feats, sel)

    perm = rng.permutation(16)
    inv = np.empty(16, dtype=np.int64)
    inv[perm] = np.arange(16)
    sel_p = SampleSelection(inv[sel.indices], "dfps")
    (_, permuted), _ = sa.forward(coords[perm], feats[perm], sel_p)
    np.testing.assert_array_equal(base, permuted)


def test_sa_split_matmul_matches_plain_concat():
    """The split first-layer trick must equal the naive concat matmul."""
    rng = np.random.default_rng(5)
    sa = SetAbstraction(6, 9, 1.0, 8, rng, "sa", dtype=np.float64)
    coords = rng.normal(scale=0.5, size=(12, 3))
    feats = rng.normal(size=(12, 6))
    sel = SampleSelection(np.array([0, 3, 6, 9]), "dfps")
    (_, pooled), _ = sa.forward(coords, feats, sel)

    idx, _ = ball_query_padded(coords[sel.indices], coords, 1.0, 8)
    lin = sa.linear
    naive = np.empty((4, idx.shape[1], 9))
    for a in range(4):
        for b in range(idx.shape[1]):
            row = np.concatenate([feats[idx[a, b]], coords[idx[a, b]] - coords[sel.indices[a]]])
            naive[a, b] = row @ lin.weight.value.T + lin.bias.value
    np.testing.assert_allclose(pooled, np.maximum(naive, 0).max(axis=1), atol=1e-12)


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("use_bn", [False, True], ids=["1layer-plain", "1layer-bn"])
def test_sa_grad_check(use_bn, training):
    """Weight gradients of the pool-then-ReLU level and of the BN level."""
    rng = np.random.default_rng(6)
    sa = SetAbstraction(3, 5, 1.0, 4, rng, "sa", dtype=np.float64, use_bn=use_bn)
    coords = rng.normal(scale=0.5, size=(9, 3))
    feats = rng.normal(size=(9, 3))
    sel = sample_dfps(coords, 3)
    w_loss = rng.normal(size=(3, 5))

    def fn():
        for p in sa.params():
            p.zero_grad()
        (_, pooled), cache = sa.forward(coords, feats, sel, training)
        sa.backward(w_loss, cache)
        return float((w_loss * pooled).sum())

    assert grad_check(fn, sa.params()) < 1e-5


def test_sa_input_feature_gradient():
    rng = np.random.default_rng(7)
    sa = SetAbstraction(4, 6, 1.2, 8, rng, "sa", dtype=np.float64)
    coords = rng.normal(scale=0.4, size=(7, 3))
    from pctrack.numeric import Param

    feats = Param("feats", rng.normal(size=(7, 4)))
    sel = sample_dfps(coords, 2)
    w_loss = rng.normal(size=(2, 6))

    def fn():
        feats.zero_grad()
        for p in sa.params():
            p.zero_grad()
        (_, pooled), cache = sa.forward(coords, feats.value, sel)
        feats.grad += sa.backward(w_loss, cache)
        return float((w_loss * pooled).sum())

    assert grad_check(fn, [feats]) < 1e-5


def run_sa_against_padded_reference(dtype, use_bn, training, max_neighbors,
                                    ref_dtype=None):
    """One SA forward and backward by the level and by the padded reference,
    on a fixture with padded centroids, tied padded neighborhoods and
    channels that are <= 0 in every neighbor. At 32 neighbors most slots are
    padding, as at the operating point. The reference runs in ``ref_dtype``
    (default ``dtype``) on the same inputs and parameter values. Returns
    both sides' outputs, feature gradients, parameter gradients and
    buffers."""
    ref_dtype = ref_dtype or dtype

    def make(dt):
        return SetAbstraction(4, 6, 0.6, max_neighbors, np.random.default_rng(30), "sa",
                              dtype=dt, use_bn=use_bn)

    rng = np.random.default_rng(31)
    # A tight cluster fills neighborhoods; far points leave them padded.
    n_near, n_far, spread, n_sel, tie = ((7, 3, 4.0, 14, 4.0) if max_neighbors == 6
                                         else (60, 140, 1.5, 64, 12.0))
    coords = np.vstack([rng.normal(scale=0.2, size=(n_near, 3)),
                        rng.uniform(-spread, spread, size=(n_far, 3)) + [9.0, 0.0, 0.0]])
    coords = coords.astype(dtype)
    sa, ref = make(dtype), make(ref_dtype)
    sa.linear.bias.value[:2] = -50.0
    # Channel 2 ignores the offsets, so points with equal features tie.
    sa.linear.weight.value[2, 4:] = 0.0
    for p, q in zip(ref.params(), sa.params()):
        p.value[...] = q.value
    feats = rng.normal(size=(n_near + n_far, 4)).astype(dtype)
    feats[[1, 2]] = tie * sa.linear.weight.value[2, :4]
    sel = sample_dfps(coords, n_sel)
    idx, counts = ball_query_padded(coords[sel.indices], coords, 0.6, max_neighbors)
    assert counts.min() == 1 and counts.max() == max_neighbors
    if max_neighbors == 6:
        assert sel.padded
    else:
        assert counts.sum() / idx.size < 0.3
        # the tied points share a neighborhood with an earlier neighbor
        assert any(1 in row[1:n] and 2 in row[1:n] for row, n in zip(idx, counts))
    d_pooled = rng.normal(size=(n_sel, 6)).astype(dtype)

    (_, pooled), cache = sa.forward(coords, feats, sel, training)
    d_feats = sa.backward(d_pooled, cache)
    (_, pooled_ref), cache_ref = reference_sa_forward(
        ref, coords.astype(ref_dtype), feats.astype(ref_dtype), sel, training)
    d_feats_ref = reference_sa_backward(ref, d_pooled.astype(ref_dtype), cache_ref)
    assert pooled.dtype == dtype and d_feats.dtype == dtype
    for p in sa.params():
        assert p.grad.any(), p.name
    ref_bufs = ref.buffers()
    return ([pooled, d_feats, *(p.grad for p in sa.params()), *sa.buffers().values()],
            [pooled_ref, d_feats_ref, *(p.grad for p in ref.params()),
             *(ref_bufs[name] for name in sa.buffers())])


@pytest.mark.parametrize("use_bn,training,max_neighbors", [
    (False, False, 6),
    (False, True, 6),
    (True, False, 6),
    (True, True, 6),
    (False, True, 32),
    (True, True, 32),
], ids=["1layer", "1layer-train", "bn", "bn-train", "1layer-train-k32", "bn-train-k32"])
def test_sa_matches_dense_argmax_reference_bitwise(use_bn, training, max_neighbors):
    """Without BN, value pooling and the winner-only backward equal the
    padded argmax algorithm bit for bit in float32. With BN, eval-mode
    outputs are bitwise equal and the rest, summed in another order, within
    1e-3. In training mode the float32 padded reference is itself off by up
    to 4.5e-3 here (the bias gradient, which BN makes zero, is rounding
    residue), so the level is held to the padded algorithm run in float64
    on the same inputs and parameters."""
    ref_dtype = np.float64 if use_bn and training else np.float32
    got, want = run_sa_against_padded_reference(np.float32, use_bn, training,
                                                max_neighbors, ref_dtype)
    if use_bn:
        if not training:
            np.testing.assert_array_equal(got[0], want[0])
        assert max_rel_err(got, want) < 1e-3
        return
    assert not got[0][:, :2].any()
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("max_neighbors", [6, 32])
def test_sa_bn_matches_padded_reference_float64(training, max_neighbors):
    """BN levels in float64: outputs, gradients and running statistics agree
    with the padded algorithm to 1e-9; eval-mode outputs bit for bit."""
    got, want = run_sa_against_padded_reference(np.float64, True, training, max_neighbors)
    if not training:
        np.testing.assert_array_equal(got[0], want[0])
    assert max_rel_err(got, want) < 1e-9


def max_rel_err(got, want):
    return max(float((np.abs(a - b) / np.maximum(1.0, np.abs(b))).max())
               for a, b in zip(got, want))


@pytest.mark.parametrize("m,in_ch,c", [(512, 32, 64), (256, 64, 128), (128, 128, 256),
                                       (37, 32, 64)])
def test_hit_matmul_matches_batched_neighbor_matmul_bitwise(m, in_ch, c):
    """The pool-first level multiplies the offsets of the real neighbors as
    one (hits, 3) matrix; each row must equal its row of the (m, k, 3)
    batched product over the padded layout, at the shapes of the desk net."""
    rng = np.random.default_rng(m + c)
    k = 32
    weight = rng.uniform(-0.2, 0.2, size=(c, in_ch + 3)).astype(np.float32)
    w_rel = weight[:, in_ch:]
    rel = rng.normal(scale=0.3, size=(m, k, 3)).astype(np.float32)
    counts = np.minimum(rng.geometric(0.12, size=m), k)
    order = np.argsort(-counts, kind="stable")
    valid = np.arange(k)[:, None] < counts[order][None, :]
    rows = np.broadcast_to(order, valid.shape)[valid]
    cols = np.broadcast_to(np.arange(k)[:, None], valid.shape)[valid]
    hits = np.ascontiguousarray(rel[rows, cols])
    np.testing.assert_array_equal((hits @ w_rel.T).view(np.uint32),
                                  (rel @ w_rel.T)[rows, cols].view(np.uint32))


# ---------------------------------------------------------------- full backbone


def test_backbone_default_output_shapes():
    bb = Backbone(RunConfig(), np.random.default_rng(8), dtype=np.float32)
    rng = np.random.default_rng(9)
    coords_t = rng.normal(scale=1.0, size=(512, 3)).astype(np.float32)
    coords_s = rng.normal(scale=1.5, size=(1024, 3)).astype(np.float32)
    (ct, xt, cs, xs, plan), _ = bb.forward(coords_t, coords_s, np.random.default_rng(10))
    assert xt.shape == (64, 256)
    assert xs.shape == (128, 256)
    assert ct.shape == (64, 3)
    assert cs.shape == (128, 3)
    assert len(plan.selections) == 3


def test_backbone_identical_clouds_identical_features():
    """Shared weights: same cloud + same selections → bitwise equal branches."""
    bb = tiny_backbone(seed=11)
    coords, _ = tiny_clouds(seed=12, n_t=10, n_s=10)
    rng = np.random.default_rng(13)
    (_, xt0, _, xs0, plan), _ = bb.forward(coords, coords, rng)
    forced = BackbonePlan([(s_t, s_t) for s_t, _ in plan.selections])
    (_, xt, _, xs, _), _ = bb.forward(coords, coords, rng, plan=forced)
    np.testing.assert_array_equal(xt, xs)


def test_backbone_rejects_empty_cloud():
    bb = tiny_backbone()
    with pytest.raises(ValueError):
        bb.forward(np.zeros((0, 3)), np.zeros((5, 3)), np.random.default_rng(0))


def test_backbone_translation_invariance():
    bb = tiny_backbone(seed=14, dtype=np.float32)
    coords_t, coords_s = tiny_clouds(seed=15, n_t=12, n_s=16)
    rng_a = np.random.default_rng(16)
    (_, xt0, _, xs0, plan), _ = bb.forward(coords_t, coords_s, rng_a)
    shift = np.array([4.0, -7.0, 2.5])
    (_, xt1, _, xs1, _), _ = bb.forward(coords_t + shift, coords_s + shift,
                                        rng_a, plan=plan)
    np.testing.assert_allclose(xt0, xt1, atol=1e-5)
    np.testing.assert_allclose(xs0, xs1, atol=1e-5)


@pytest.mark.parametrize("sampler", ["dfps", "ffps", "ras", "hybrid", "random"])
def test_backbone_translation_invariance_is_exact_on_dyadic_grid(sampler):
    """No plan replay: with dyadic coordinates, power-of-two point counts and
    a dyadic shift, every distance and the embedding origin are exact, so a
    fresh forward with the same rng seed selects the same points and gives
    bitwise-identical features."""
    bb = Backbone(tiny_config(search_sampler=sampler), np.random.default_rng(14),
                  dtype=np.float32)
    grid = np.random.default_rng(15)
    coords_t = grid.integers(-16, 17, size=(16, 3)) / 32.0
    coords_s = grid.integers(-32, 33, size=(32, 3)) / 32.0
    shift = np.array([4.0, -7.5, 2.25])
    runs = [bb.forward(coords_t + d, coords_s + d, np.random.default_rng(16))[0]
            for d in (0.0, shift)]
    (ct0, xt0, cs0, xs0, plan0), (ct1, xt1, cs1, xs1, plan1) = runs
    for (t0, s0), (t1, s1) in zip(plan0.selections, plan1.selections):
        np.testing.assert_array_equal(t0.indices, t1.indices)
        np.testing.assert_array_equal(s0.indices, s1.indices)
    np.testing.assert_array_equal(ct1 - shift.astype(np.float32), ct0)
    np.testing.assert_array_equal(cs1 - shift.astype(np.float32), cs0)
    assert xt0.tobytes() == xt1.tobytes()
    assert xs0.tobytes() == xs1.tobytes()


def test_backbone_weight_sharing_is_structural():
    bb = tiny_backbone(seed=17)
    coords_t, coords_s = tiny_clouds(seed=18)
    rng = np.random.default_rng(19)
    (_, xt0, _, xs0, plan), _ = bb.forward(coords_t, coords_s, rng)
    bb.levels[0].linear.weight.value += 0.05
    (_, xt1, _, xs1, _), _ = bb.forward(coords_t, coords_s, rng, plan=plan)
    assert not np.allclose(xt0, xt1)
    assert not np.allclose(xs0, xs1)


def test_backbone_plan_replay_is_deterministic():
    bb = tiny_backbone(seed=20)
    coords_t, coords_s = tiny_clouds(seed=21)
    (_, xt0, _, xs0, plan), _ = bb.forward(coords_t, coords_s, np.random.default_rng(0))
    (_, xt1, _, xs1, _), _ = bb.forward(coords_t, coords_s, np.random.default_rng(999),
                                        plan=plan)
    np.testing.assert_array_equal(xt0, xt1)
    np.testing.assert_array_equal(xs0, xs1)


def test_backbone_grad_check():
    """End-to-end parameter gradients through both branches and all levels."""
    bb = tiny_backbone(seed=22)
    coords_t, coords_s = tiny_clouds(seed=23, n_t=8, n_s=10)
    rng = np.random.default_rng(24)
    w_t = rng.normal(size=(4, 8))
    w_s = rng.normal(size=(6, 8))
    plan_holder = {}

    def fn():
        for p in bb.params():
            p.zero_grad()
        out, cache = bb.forward(coords_t, coords_s, np.random.default_rng(25),
                                plan=plan_holder.get("plan"))
        _, xt, _, xs, plan = out
        plan_holder["plan"] = plan
        bb.backward(w_t, w_s, cache)
        return float((w_t * xt).sum() + (w_s * xs).sum())

    assert grad_check(fn, bb.params()) < 1e-4


@pytest.mark.parametrize("profile,ablation,n_t,n_s", [
    ("desk", None, 300, 700),
    ("desk", None, 150, 400),
    ("desk-small", None, 40, 100),
    ("tiny", None, 12, 60),
    ("desk", "sampler-dfps", 200, 450),
    ("desk-small", "sampler-dfps", 90, 100),
])
def test_backbone_dfps_selections_equal_per_level_sample_dfps(profile, ablation, n_t, n_s):
    """Every D-FPS branch's selections equal ``sample_dfps`` run afresh at
    each level on that level's points, padded level-1 selections included,
    although only level 1 runs the greedy loop."""
    cfg = config_for_profile(profile)
    if ablation:
        cfg = apply_ablation(cfg, ablation)
    bb = Backbone(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(n_t)
    # Two decimals make ties between candidate distances common.
    clouds = [np.round(rng.uniform(-2.0, 2.0, size=(n, 3)), 2) for n in (n_t, n_s)]
    (*_, plan), _ = bb.forward(*clouds, np.random.default_rng(1))
    branches = [(0, cfg.template_sampler, cfg.sa_template_points),
                (1, cfg.search_sampler, cfg.sa_search_points)]
    checked = 0
    for side, sampler, budgets in branches:
        if sampler != "dfps":
            continue
        pts = clouds[side].astype(bb.dtype)
        for level, budget in enumerate(budgets):
            got = plan.selections[level][side]
            want = sample_dfps(pts, budget)
            np.testing.assert_array_equal(got.indices, want.indices)
            assert (got.padded, got.method) == (want.padded, "dfps")
            assert got.padded == (level == 0 and pts.shape[0] < budget)
            pts = pts[got.indices]
            checked += 1
    assert checked == len(cfg.sa_radii) * (2 if ablation else 1)


def test_select_points_dispatch():
    rng = np.random.default_rng(26)
    coords = rng.normal(size=(12, 3))
    feats = rng.normal(size=(12, 5))
    tfeats = rng.normal(size=(4, 5))
    for method in ("random", "dfps", "ffps", "ras", "hybrid"):
        sel = select_points(method, coords, feats, tfeats, 4, rng)
        assert sel.k == 4
        assert sel.method == method
    with pytest.raises(ValueError):
        select_points("voxel", coords, feats, tfeats, 4, rng)
