import math

import numpy as np
import pytest

from pctrack.checks import tiny_config
from pctrack.config import config_for_profile
from pctrack.geometry import Box3D
from pctrack.heads import (
    Heads,
    Prediction,
    decode_box,
    local_pool_backward,
    local_pool_forward,
    prm_offset,
    prm_offset_backward,
)
from pctrack.numeric import Param, grad_check

from helpers import desk_crops, reference_local_pool_backward, reference_local_pool_forward


SMALL_CONFIG = tiny_config(sa_channels=(6, 6), coarse_hidden=(8, 8),
                           refine_hidden=(10, 8, 8, 6))


def small_heads(seed=0):
    return Heads(SMALL_CONFIG, np.random.default_rng(seed), dtype=np.float64)


def make_pred(cls_col, reg):
    return Prediction(cls_logits=np.asarray(cls_col, dtype=float).reshape(-1, 1),
                      reg=np.asarray(reg, dtype=float))


# ---------------------------------------------------------------- coarse head


def test_coarse_shapes():
    heads = small_heads()
    pred, _ = heads.coarse_forward(np.random.default_rng(1).normal(size=(11, 6)))
    assert pred.cls_logits.shape == (11, 1)
    assert pred.reg.shape == (11, 4)


def test_coarse_zero_weights_give_biases():
    heads = small_heads(seed=2)
    for mlp in (heads.coarse_cls, heads.coarse_reg):
        for lin in mlp.layers:
            lin.weight.value[:] = 0.0
            lin.bias.value[:] = 0.0
    heads.coarse_cls.layers[-1].bias.value[:] = 0.7
    heads.coarse_reg.layers[-1].bias.value[:] = [1.0, 2.0, 3.0, 4.0]
    pred, _ = heads.coarse_forward(np.random.default_rng(3).normal(size=(5, 6)))
    np.testing.assert_allclose(pred.cls_logits, 0.7)
    np.testing.assert_allclose(pred.reg, np.broadcast_to([1.0, 2.0, 3.0, 4.0], (5, 4)))


def test_coarse_rejects_empty():
    with pytest.raises(ValueError):
        small_heads().coarse_forward(np.zeros((0, 6)))


def test_coarse_grad_check():
    heads = small_heads(seed=4)
    rng = np.random.default_rng(5)
    x = Param("x", rng.normal(size=(7, 6)))
    w_cls = rng.normal(size=(7, 1))
    w_reg = rng.normal(size=(7, 4))

    def fn():
        for p in [x, *heads.params()]:
            p.zero_grad()
        pred, cache = heads.coarse_forward(x.value)
        x.grad += heads.coarse_backward(w_cls, w_reg, cache)
        return float((w_cls * pred.cls_logits).sum() + (w_reg * pred.reg).sum())

    params = [x, *heads.coarse_cls.params(), *heads.coarse_reg.params()]
    assert grad_check(fn, params) < 1e-4


# ---------------------------------------------------------------- prm offset


def test_prm_offset_identity_for_zero_motion():
    seeds = np.array([[0.0, 0, 0], [1, 2, 0], [-1, 0.5, 0.3]])
    pred = make_pred([10.0, 0.0, 0.0], np.zeros((3, 4)))
    mapped, i_star = prm_offset(seeds, pred)
    assert i_star == 0
    np.testing.assert_allclose(mapped, seeds, atol=1e-12)


def test_prm_offset_pure_translation():
    seeds = np.array([[0.0, 0, 0], [2, 0, 0]])
    reg = np.array([[1.0, 0, 0, 0], [0.0, 0, 0, 0]])
    pred = make_pred([5.0, -5.0], reg)  # best point is the origin seed
    mapped, _ = prm_offset(seeds, pred)
    np.testing.assert_allclose(mapped[1], [1.0, 0.0, 0.0], atol=1e-12)


def test_prm_offset_round_trip():
    """Re-applying the forward coarse motion must recover the seeds."""
    rng = np.random.default_rng(6)
    for _ in range(10):
        seeds = rng.normal(size=(9, 3))
        reg = rng.normal(size=(9, 4))
        pred = make_pred(rng.normal(size=9), reg)
        mapped, i = prm_offset(seeds, pred)
        dtheta = reg[i, 3]
        c, s = math.cos(dtheta), math.sin(dtheta)
        forward = np.column_stack([
            c * mapped[:, 0] - s * mapped[:, 1],
            s * mapped[:, 0] + c * mapped[:, 1],
            mapped[:, 2],
        ]) + seeds[i] + reg[i, :3]
        np.testing.assert_allclose(forward, seeds, atol=1e-9)


def test_prm_offset_pinned_index_overrides_argmax():
    seeds = np.random.default_rng(7).normal(size=(4, 3))
    pred = make_pred([0.0, 9.0, 0.0, 0.0], np.random.default_rng(8).normal(size=(4, 4)))
    free, i_free = prm_offset(seeds, pred)
    pinned, i_pin = prm_offset(seeds, pred, pinned_index=2)
    assert i_free == 1 and i_pin == 2
    assert not np.allclose(free, pinned)


# ---------------------------------------------------------------- local pool


def brute_local_pool(queries, coords, feats, radius):
    out = np.zeros((len(queries), feats.shape[1]), dtype=feats.dtype)
    for qi, q in enumerate(queries):
        hits = [i for i in range(len(coords)) if np.linalg.norm(coords[i] - q) <= radius]
        if hits:
            out[qi] = feats[hits].max(axis=0)
    return out


def test_local_pool_isolated_point():
    coords = np.array([[0.0, 0, 0], [5.0, 0, 0]])
    feats = np.array([[1.0, -2.0], [3.0, 4.0]])
    pooled, _, _ = local_pool_forward(np.array([[4.9, 0, 0]]), coords, feats, radius=0.5)
    np.testing.assert_array_equal(pooled, [[3.0, 4.0]])


def test_local_pool_far_query_zero():
    coords = np.random.default_rng(9).normal(size=(6, 3))
    feats = np.random.default_rng(10).normal(size=(6, 4)) + 10.0
    pooled, _, _ = local_pool_forward(np.array([[50.0, 0, 0]]), coords, feats, radius=1.0)
    np.testing.assert_array_equal(pooled, np.zeros((1, 4)))


def test_local_pool_matches_brute_force():
    rng = np.random.default_rng(11)
    coords = rng.uniform(-2, 2, size=(32, 3))
    feats = rng.normal(size=(32, 5))
    queries = rng.uniform(-2.5, 2.5, size=(10, 3))
    pooled, _, _ = local_pool_forward(queries, coords, feats, radius=1.0)
    np.testing.assert_allclose(pooled, brute_local_pool(queries, coords, feats, 1.0),
                               atol=1e-12)


def test_local_pool_group_replay():
    rng = np.random.default_rng(12)
    coords = rng.uniform(-1, 1, size=(15, 3))
    feats = rng.normal(size=(15, 4))
    queries = rng.uniform(-1, 1, size=(5, 3))
    p0, _, group = local_pool_forward(queries, coords, feats, radius=0.8)
    p1, _, _ = local_pool_forward(queries + 100.0, coords, feats, radius=0.8, group=group)
    np.testing.assert_array_equal(p0, p1)  # replay ignores the new coordinates


def test_local_pool_grad_check():
    rng = np.random.default_rng(13)
    coords = rng.uniform(-1, 1, size=(12, 3))
    feats = Param("feats", rng.normal(size=(12, 4)))
    queries = rng.uniform(-1, 1, size=(6, 3))
    # One query far away exercises the zero-row path.
    queries[5] = [40.0, 0.0, 0.0]
    w_loss = rng.normal(size=(6, 4))

    def fn():
        feats.zero_grad()
        pooled, cache, _ = local_pool_forward(queries, coords, feats.value, radius=0.9)
        feats.grad += local_pool_backward(w_loss, cache)
        return float((w_loss * pooled).sum())

    assert grad_check(fn, [feats]) < 1e-6


def test_local_pool_matches_argmax_reference_bitwise():
    """Value pooling plus winner recovery equal argmax pooling bit for bit in
    float32: padded neighborhoods, exact ties between distinct points, a
    channel <= 0 everywhere and an empty neighborhood."""
    rng = np.random.default_rng(40)
    coords = rng.uniform(-1, 1, size=(20, 3)).astype(np.float32)
    feats = rng.normal(size=(20, 5)).astype(np.float32)
    feats[:, 0] = -1.0 - np.abs(feats[:, 0])
    # Three nearby points share the top value of channels 1..4.
    coords[[7, 11]] = coords[3] + np.float32(0.05)
    feats[[3, 7, 11], 1:] = feats[:, 1:].max(axis=0) + 1.0
    queries = rng.uniform(-1.2, 1.2, size=(12, 3)).astype(np.float32)
    queries[-1] = [30.0, 0.0, 0.0]
    d_pooled = rng.normal(size=(12, 5)).astype(np.float32)

    pooled, cache, _ = local_pool_forward(queries, coords, feats, radius=0.7)
    ref, ref_cache = reference_local_pool_forward(queries, coords, feats, 0.7)
    assert pooled.dtype == np.float32
    np.testing.assert_array_equal(pooled, ref)
    d_feats = local_pool_backward(d_pooled, cache)
    assert d_feats.dtype == np.float32
    np.testing.assert_array_equal(d_feats, reference_local_pool_backward(d_pooled, ref_cache))


@pytest.mark.parametrize("replay", [False, True])
def test_local_pool_without_cache_pools_the_same_group(replay):
    """Desk refinement shapes: 128 seeds pooled over 128 search points of
    256 channels; ``keep_cache=False`` returns no cache, the same pooled bits
    and the same (idx, counts) group."""
    cfg = config_for_profile("desk")
    rng = np.random.default_rng(41)
    _, search = desk_crops(41)
    seeds = search[rng.choice(search.shape[0], cfg.sa_search_points[-1], replace=False)]
    seeds = seeds.astype(np.float32)
    feats = rng.normal(size=(seeds.shape[0], cfg.sa_channels[-1])).astype(np.float32)
    p0, cache, g0 = local_pool_forward(seeds, seeds, feats, cfg.pool_radius)
    p1, none, g1 = local_pool_forward(seeds, seeds, feats, cfg.pool_radius,
                                      group=g0 if replay else None, keep_cache=False)
    assert cache is not None and none is None
    np.testing.assert_array_equal(p0, p1)
    np.testing.assert_array_equal(g0[0], g1[0])
    np.testing.assert_array_equal(g0[1], g1[1])


def test_local_pool_rejects_bad_radius():
    with pytest.raises(ValueError):
        local_pool_forward(np.zeros((1, 3)), np.zeros((2, 3)), np.zeros((2, 2)), radius=0.0)


# ---------------------------------------------------------------- refine head


def test_refine_shapes():
    heads = small_heads(seed=14)
    rng = np.random.default_rng(15)
    pred, _ = heads.refine_forward(rng.normal(size=(9, 6)), rng.normal(size=(9, 6)),
                                   rng.normal(size=(9, 3)))
    assert pred.cls_logits.shape == (9, 1)
    assert pred.reg.shape == (9, 4)


def test_refine_rejects_row_mismatch():
    heads = small_heads()
    with pytest.raises(ValueError):
        heads.refine_forward(np.zeros((4, 6)), np.zeros((3, 6)), np.zeros((4, 3)))


def test_refine_row_permutation_equivariance():
    heads = small_heads(seed=16)
    rng = np.random.default_rng(17)
    f_s = rng.normal(size=(8, 6))
    f_t = rng.normal(size=(8, 6))
    mapped = rng.normal(size=(8, 3))
    base, _ = heads.refine_forward(f_s, f_t, mapped)
    perm = rng.permutation(8)
    permuted, _ = heads.refine_forward(f_s[perm], f_t[perm], mapped[perm])
    np.testing.assert_allclose(permuted.cls_logits, base.cls_logits[perm], atol=1e-12)
    np.testing.assert_allclose(permuted.reg, base.reg[perm], atol=1e-12)


def test_refine_grad_check():
    heads = small_heads(seed=18)
    rng = np.random.default_rng(19)
    f_s = Param("f_s", rng.normal(size=(5, 6)))
    f_t = Param("f_t", rng.normal(size=(5, 6)))
    mapped = Param("mapped", rng.normal(size=(5, 3)))
    w_cls = rng.normal(size=(5, 1))
    w_reg = rng.normal(size=(5, 4))

    def fn():
        for p in [f_s, f_t, mapped, *heads.refine.params()]:
            p.zero_grad()
        pred, cache = heads.refine_forward(f_s.value, f_t.value, mapped.value)
        d_fs, d_ft, d_m = heads.refine_backward(w_cls, w_reg, cache)
        f_s.grad += d_fs
        f_t.grad += d_ft
        mapped.grad += d_m
        return float((w_cls * pred.cls_logits).sum() + (w_reg * pred.reg).sum())

    assert grad_check(fn, [f_s, f_t, mapped, *heads.refine.params()]) < 1e-4


def test_prm_offset_backward_matches_finite_differences():
    rng = np.random.default_rng(21)
    seeds = rng.normal(size=(7, 3))
    weights = rng.normal(size=(7, 3))
    reg = Param("reg", rng.normal(size=(7, 4)) * 0.3)
    i_star = 2

    def fn():
        reg.zero_grad()
        pred = Prediction(cls_logits=np.zeros((7, 1)), reg=reg.value)
        mapped, _ = prm_offset(seeds, pred, pinned_index=i_star)
        reg.grad[i_star] += prm_offset_backward(weights, seeds,
                                                reg.value[i_star], i_star)
        return float((weights * mapped).sum())

    assert grad_check(fn, [reg]) < 1e-4


# ---------------------------------------------------------------- decode


def unit_ref(yaw=0.0):
    return Box3D(center=[0, 0, 0], size=[2.0, 1.0, 1.0], yaw=yaw)


def test_decode_uses_argmax_row():
    seeds = np.array([[0.0, 0, 0], [5.0, 5.0, 0.0]])
    reg = np.array([[9.0, 9, 9, 0], [1.0, 0, 0, 0]])
    pred = make_pred([-1.0, 3.0], reg)
    box = decode_box(pred, seeds, unit_ref())
    np.testing.assert_allclose(box.center, [6.0, 5.0, 0.0])
    assert box.yaw == pytest.approx(0.0)
    np.testing.assert_array_equal(box.size, [2.0, 1.0, 1.0])


def test_decode_zero_reg_lands_on_seed():
    seeds = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, 0.0]])
    pred = make_pred([2.0, 1.0], np.zeros((2, 4)))
    box = decode_box(pred, seeds, unit_ref(yaw=0.8))
    np.testing.assert_allclose(box.center, seeds[0])
    assert box.yaw == pytest.approx(0.8)


def test_decode_yaw_wraparound():
    seeds = np.zeros((1, 3))
    pred = make_pred([1.0], [[0.0, 0.0, 0.0, 0.3]])
    box = decode_box(pred, seeds, unit_ref(yaw=3.0))
    assert box.yaw == pytest.approx(3.3 - 2 * math.pi)


def test_decode_invariant_to_monotone_cls_transform():
    rng = np.random.default_rng(20)
    seeds = rng.normal(size=(6, 3))
    logits = rng.normal(size=6)
    reg = rng.normal(size=(6, 4))
    a = decode_box(make_pred(logits, reg), seeds, unit_ref())
    b = decode_box(make_pred(3.0 * logits + 7.0, reg), seeds, unit_ref())
    np.testing.assert_array_equal(a.center, b.center)
    assert a.yaw == b.yaw


def test_decode_tie_breaks_low_index():
    seeds = np.array([[1.0, 0, 0], [2.0, 0, 0]])
    pred = make_pred([0.5, 0.5], np.zeros((2, 4)))
    box = decode_box(pred, seeds, unit_ref())
    np.testing.assert_allclose(box.center, [1.0, 0.0, 0.0])


def test_prediction_validates_shapes():
    with pytest.raises(ValueError):
        Prediction(cls_logits=np.zeros((3, 2)), reg=np.zeros((3, 4)))
    with pytest.raises(ValueError):
        Prediction(cls_logits=np.zeros((3, 1)), reg=np.zeros((4, 4)))
