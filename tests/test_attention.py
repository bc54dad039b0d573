import numpy as np
import pytest

from pctrack.attention import (
    PointRelationTransformer,
    RelationAttention,
    cosine_match_backward,
    cosine_match_forward,
)
from pctrack.numeric import Param, grad_check


def make_ram(channels=5, seed=0, **kw):
    return RelationAttention(channels, np.random.default_rng(seed),
                             dtype=np.float64, **kw)


def ram_scores(cache):
    """(raw scores, softmax weights) from a RelationAttention cache."""
    return cache[8], cache[9]


def cosine_scores(cache):
    """(raw scores, softmax weights) from a cosine-match cache."""
    return cache[5], cache[6]


def self_attention_outputs(cache):
    """(X̄^s, X̄^t) from a PointRelationTransformer cache: each self-attention
    block's cache ends with its output."""
    c_s, c_t, _ = cache
    return c_s[-1], c_t[-1]


# ---------------------------------------------------------------- RAM forward


def test_ram_single_key_softmax_is_one():
    ram = make_ram()
    rng = np.random.default_rng(1)
    q = rng.normal(size=(4, 5))
    k = rng.normal(size=(1, 5))
    out, cache = ram.forward(q, k, k)
    _, p = ram_scores(cache)
    np.testing.assert_allclose(p, 1.0, atol=1e-12)
    # With one key the attended value is Wv k + b for every query.
    wv_k, _ = ram.wv.forward(k)
    pre = q - wv_k
    phi_out, _ = ram.phi.forward(pre)
    np.testing.assert_allclose(out, np.maximum(phi_out, 0.0), atol=1e-12)


def test_ram_scores_are_cosines():
    ram = make_ram(seed=2)
    rng = np.random.default_rng(3)
    q = rng.normal(size=(6, 5))
    k = rng.normal(size=(4, 5))
    _, cache = ram.forward(q, k, k)
    a, p = ram_scores(cache)
    assert (np.abs(a) <= 1.0 + 1e-9).all()
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_ram_without_l2_norm_scores_unbounded():
    ram = make_ram(seed=4, use_l2_norm=False)
    rng = np.random.default_rng(5)
    q = 20.0 * rng.normal(size=(6, 5))
    k = 20.0 * rng.normal(size=(4, 5))
    _, cache = ram.forward(q, k, k)
    a, _ = ram_scores(cache)
    assert np.abs(a).max() > 1.0


def test_ram_offset_toggle_changes_output():
    rng = np.random.default_rng(6)
    q = rng.normal(size=(5, 5))
    k = rng.normal(size=(3, 5))
    on = make_ram(seed=7, use_offset=True)
    off = make_ram(seed=7, use_offset=False)
    a, _ = on.forward(q, k, k)
    b, _ = off.forward(q, k, k)
    assert not np.allclose(a, b)


def test_ram_rejects_shape_mismatch():
    ram = make_ram()
    with pytest.raises(ValueError):
        ram.forward(np.zeros((2, 5)), np.zeros((3, 4)), np.zeros((3, 4)))
    with pytest.raises(ValueError):
        ram.forward(np.zeros((2, 5)), np.zeros((0, 5)), np.zeros((0, 5)))
    with pytest.raises(ValueError):
        ram.forward(np.zeros((2, 5)), np.zeros((3, 5)), np.zeros((2, 5)))


@pytest.mark.parametrize("l2,offset", [(True, True), (True, False),
                                       (False, True), (False, False)])
def test_ram_grad_check_all_toggles(l2, offset):
    ram = make_ram(seed=8, use_l2_norm=l2, use_offset=offset)
    rng = np.random.default_rng(9)
    q = Param("q", rng.normal(size=(4, 5)))
    k = Param("k", rng.normal(size=(3, 5)))
    v = Param("v", rng.normal(size=(3, 5)))
    w_loss = rng.normal(size=(4, 5))

    def fn():
        for p in [q, k, v, *ram.params()]:
            p.zero_grad()
        out, cache = ram.forward(q.value, k.value, v.value)
        dq, dk, dv = ram.backward(w_loss, cache)
        q.grad += dq
        k.grad += dk
        v.grad += dv
        return float((w_loss * out).sum())

    assert grad_check(fn, [q, k, v, *ram.params()]) < 1e-4


# ---------------------------------------------------------------- PRT


def test_prt_output_shapes():
    prt = PointRelationTransformer(6, np.random.default_rng(10), dtype=np.float64)
    rng = np.random.default_rng(11)
    xs = rng.normal(size=(9, 6))
    xt = rng.normal(size=(5, 6))
    xs_hat, cache = prt.forward(xs, xt)
    xs_bar, xt_bar = self_attention_outputs(cache)
    assert xs_hat.shape == (9, 6)
    assert xs_bar.shape == (9, 6)
    assert xt_bar.shape == (5, 6)
    assert ram_scores(cache[2])[1].shape == (9, 5)


def test_prt_shared_self_attention():
    """Identical branch inputs give bitwise identical self-attention outputs."""
    prt = PointRelationTransformer(5, np.random.default_rng(12), dtype=np.float64)
    x = np.random.default_rng(13).normal(size=(7, 5))
    _, cache = prt.forward(x, x)
    xs_bar, xt_bar = self_attention_outputs(cache)
    np.testing.assert_array_equal(xs_bar, xt_bar)


def test_prt_shared_weights_are_one_object():
    prt = PointRelationTransformer(5, np.random.default_rng(14), dtype=np.float64)
    rng = np.random.default_rng(15)
    xs = rng.normal(size=(6, 5))
    xt = rng.normal(size=(4, 5))
    xs_bar0, xt_bar0 = self_attention_outputs(prt.forward(xs, xt)[1])
    prt.self_ram.wq.weight.value += 0.1
    xs_bar1, xt_bar1 = self_attention_outputs(prt.forward(xs, xt)[1])
    assert not np.allclose(xs_bar0, xs_bar1)
    assert not np.allclose(xt_bar0, xt_bar1)


def test_prt_search_token_permutation_equivariance():
    prt = PointRelationTransformer(4, np.random.default_rng(16), dtype=np.float64)
    rng = np.random.default_rng(17)
    xs = rng.normal(size=(12, 4))
    xt = rng.normal(size=(5, 4))
    base, _ = prt.forward(xs, xt)
    perm = rng.permutation(12)
    permuted, _ = prt.forward(xs[perm], xt)
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


def test_prt_template_permutation_invariance():
    prt = PointRelationTransformer(4, np.random.default_rng(18), dtype=np.float64)
    rng = np.random.default_rng(19)
    xs = rng.normal(size=(8, 4))
    xt = rng.normal(size=(6, 4))
    base, _ = prt.forward(xs, xt)
    shuffled, _ = prt.forward(xs, xt[rng.permutation(6)])
    np.testing.assert_allclose(shuffled, base, atol=1e-12)


def test_prt_grad_check():
    """Gradients through cross- and twice-applied shared self-attention."""
    prt = PointRelationTransformer(4, np.random.default_rng(20), dtype=np.float64)
    rng = np.random.default_rng(21)
    xs = Param("xs", rng.normal(size=(6, 4)))
    xt = Param("xt", rng.normal(size=(4, 4)))
    w_loss = rng.normal(size=(6, 4))

    def fn():
        for p in [xs, xt, *prt.params()]:
            p.zero_grad()
        xs_hat, cache = prt.forward(xs.value, xt.value)
        d_xs, d_xt = prt.backward(w_loss, cache)
        xs.grad += d_xs
        xt.grad += d_xt
        return float((w_loss * xs_hat).sum())

    assert grad_check(fn, [xs, xt, *prt.params()]) < 1e-4


# ---------------------------------------------------------------- cosine match


def test_cosine_match_one_hot_recovers_rows():
    x = np.eye(3)
    out, cache = cosine_match_forward(x, x)
    a, _ = cosine_scores(cache)
    assert (np.diag(a) == pytest.approx(1.0)) and a.shape == (3, 3)
    # Each output row leans strongly toward its matching template row.
    assert (out.argmax(axis=1) == np.arange(3)).all()


def test_cosine_match_shape():
    rng = np.random.default_rng(22)
    out, _ = cosine_match_forward(rng.normal(size=(7, 4)), rng.normal(size=(3, 4)))
    assert out.shape == (7, 4)


def test_cosine_match_row_scale_invariant_scores():
    rng = np.random.default_rng(23)
    xs = rng.normal(size=(5, 4))
    xt = rng.normal(size=(3, 4))
    a0, _ = cosine_scores(cosine_match_forward(xs, xt)[1])
    scaled = xs.copy()
    scaled[2] *= 40.0
    a1, _ = cosine_scores(cosine_match_forward(scaled, xt)[1])
    np.testing.assert_allclose(a0, a1, atol=1e-9)


def test_cosine_match_grad_check():
    rng = np.random.default_rng(24)
    xs = Param("xs", rng.normal(size=(5, 4)))
    xt = Param("xt", rng.normal(size=(3, 4)))
    w_loss = rng.normal(size=(5, 4))

    def fn():
        xs.zero_grad()
        xt.zero_grad()
        out, cache = cosine_match_forward(xs.value, xt.value)
        d_xs, d_xt = cosine_match_backward(w_loss, cache)
        xs.grad += d_xs
        xt.grad += d_xt
        return float((w_loss * out).sum())

    assert grad_check(fn, [xs, xt]) < 1e-4
