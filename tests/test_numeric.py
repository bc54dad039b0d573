import math
import struct
import zlib

import numpy as np
import pytest

from pctrack.numeric import (
    ADAM_CHUNK,
    Adam,
    BatchNorm,
    Linear,
    MLP,
    Param,
    add_rows_at,
    bce_loss_backward,
    bce_loss_forward,
    grad_check,
    l2_normalize_rows_backward,
    l2_normalize_rows_forward,
    load_checkpoint,
    jagged_layout,
    jagged_max_forward,
    jagged_max_winners,
    jagged_winner_hits,
    lr_at_epoch,
    mse_loss_masked_backward,
    mse_loss_masked_forward,
    relu_backward,
    relu_forward,
    save_checkpoint,
    sigmoid,
    softmax_rows_backward,
    softmax_rows_forward,
)


def fd_through_input(x, fwd, bwd, seed=0):
    """Finite-difference the map x -> sum(w * fwd(x)) for a fixed random w."""
    rng = np.random.default_rng(seed)
    p = Param("x", np.asarray(x, dtype=np.float64))
    w = rng.normal(size=fwd(p.value)[0].shape)

    def fn():
        p.zero_grad()
        y, cache = fwd(p.value)
        p.grad += bwd(w, cache)
        return float((w * y).sum())

    return grad_check(fn, [p])


# ---------------------------------------------------------------- linear


def test_linear_identity_weights():
    rng = np.random.default_rng(0)
    lin = Linear(3, 3, rng, dtype=np.float64)
    lin.weight.value[:] = np.eye(3)
    lin.bias.value[:] = 0.0
    x = rng.normal(size=(5, 3))
    y, _ = lin.forward(x)
    np.testing.assert_array_equal(y, x)


def test_linear_zero_input_gives_bias():
    lin = Linear(4, 2, np.random.default_rng(1), dtype=np.float64)
    y, _ = lin.forward(np.zeros((3, 4)))
    np.testing.assert_allclose(y, np.broadcast_to(lin.bias.value, (3, 2)))


def test_linear_rejects_bad_width():
    lin = Linear(4, 2, np.random.default_rng(2))
    with pytest.raises(ValueError):
        lin.forward(np.zeros((3, 5)))


def test_linear_grad_check():
    rng = np.random.default_rng(3)
    lin = Linear(4, 3, rng, dtype=np.float64)
    x = rng.normal(size=(6, 4))
    w_loss = rng.normal(size=(6, 3))
    saved_dx = {}

    def fn():
        for p in lin.params():
            p.zero_grad()
        y, cache = lin.forward(x)
        saved_dx["dx"] = lin.backward(w_loss, cache)
        return float((w_loss * y).sum())

    assert grad_check(fn, lin.params()) < 1e-6
    # Input gradient via the same rig.
    assert fd_through_input(x, lin.forward, lambda dy, c: lin.backward(dy, c)) < 1e-6


# ---------------------------------------------------------------- relu


def test_relu_all_negative():
    y, _ = relu_forward(np.array([-3.0, -0.5, -1e-9]))
    np.testing.assert_array_equal(y, [0.0, 0.0, 0.0])


def test_relu_all_positive_identity():
    x = np.array([0.3, 2.0, 1e-6])
    y, _ = relu_forward(x)
    np.testing.assert_array_equal(y, x)


def test_relu_subgradient_zero_at_kink():
    _, mask = relu_forward(np.array([0.0]))
    np.testing.assert_array_equal(relu_backward(np.array([5.0]), mask), [0.0])


def test_relu_grad_check_away_from_kink():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 4))
    x[np.abs(x) < 1e-3] = 0.1
    assert fd_through_input(x, relu_forward, relu_backward) < 1e-6


# ---------------------------------------------------------------- jagged max-pool


def padded_group(rng, counts, n_points, k):
    """Padded (M, K) neighbor matrix as ball query lays it out: distinct real
    neighbors first, then repeats of the first one; empty rows hold 0."""
    idx = np.zeros((len(counts), k), dtype=np.int64)
    for row, n in enumerate(counts):
        if n:
            idx[row, :n] = rng.choice(n_points, size=n, replace=False)
            idx[row, n:] = idx[row, 0]
    return idx, np.asarray(counts, dtype=np.int64)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint32)


@pytest.mark.parametrize("case,counts", [
    pytest.param("full", [6] * 9, id="full"),
    pytest.param("count1", [1] * 9, id="count1"),
    pytest.param("mixed", [3, 6, 1, 6, 2, 5, 1, 4, 3], id="mixed"),
    pytest.param("trailing-empty", [2, 6, 4, 1, 0, 0], id="trailing-empty"),
    pytest.param("all-empty", [0] * 5, id="all-empty"),
    pytest.param("ties", [6, 6, 5, 6, 5, 6, 6, 5, 6], id="ties"),
    pytest.param("nan", [4, 6, 2, 6, 5, 1, 6, 3, 6], id="nan"),
])
def test_jagged_max_matches_padded_max_and_argmax_bitwise(case, counts):
    """Pooled values and winners over the real neighbors equal ``x.max(axis=1)``
    and ``(x == top).argmax(axis=1)`` over the padded stack, bit for bit."""
    rng = np.random.default_rng(12)
    feats = rng.normal(size=(20, 5)).astype(np.float32)
    # Point 19 is left out of the random neighborhoods.
    idx, counts = padded_group(rng, counts, 19, 6)
    if case == "ties":
        # Distinct points with equal rows, and +0.0 / -0.0 in channel 3. Each
        # row meets three tied points and a signed zero of each sign, -0.0
        # first in even rows; in odd rows the first neighbor is tied.
        feats[[2, 5, 11, 17]] = feats.max(axis=0) + 1.0
        feats[:, 3] = -np.abs(feats[:, 3]) - 1.0
        feats[[4, 9], 3] = 0.0
        feats[[7, 13], 3] = -0.0
        for row, n in enumerate(counts):
            first = [] if row % 2 else [0]
            tied = [2, 9, 17, 13, 5, 1] if row % 2 else [5, 7, 2, 4, 11]
            hits = [*first, *tied][:n]
            idx[row] = hits + hits[:1] * (6 - n)
    if case == "nan":
        feats[19, 1] = np.nan
        idx[1, 3] = 19
    x = feats[idx]
    top_ref = x.max(axis=1)
    arg_ref = (x == top_ref[:, None, :]).argmax(axis=1)

    order, src, rowpos, sizes = jagged_layout(idx, counts)
    z = feats[src]
    top = jagged_max_forward(z, sizes)
    winners = jagged_max_winners(z, top, sizes)

    filled = order[: sizes[0]]
    assert sorted(filled) == list(np.flatnonzero(counts))
    assert sizes.sum() == counts.sum() == src.size == rowpos.size
    # One layer per neighbor rank up to the largest count; a single empty
    # layer when no row has a neighbor.
    assert len(sizes) == max(counts.max(), 1)
    assert (sizes > 0).all() or list(sizes) == [0]
    np.testing.assert_array_equal(src, idx[order[rowpos], np.repeat(np.arange(len(sizes)), sizes)])
    assert top.shape == winners.shape == (sizes[0], 5)
    np.testing.assert_array_equal(bits(top), bits(top_ref[filled]))
    np.testing.assert_array_equal(winners, arg_ref[filled])
    hits = jagged_winner_hits(winners, sizes)
    np.testing.assert_array_equal(src[hits], np.take_along_axis(idx, arg_ref, 1)[filled])
    if case == "nan":
        assert np.isnan(top_ref).sum() == 1
        assert (winners[np.isnan(top)] == 0).all()
    if case == "ties":
        np.testing.assert_array_equal(arg_ref[:, 0], [1, 0] * 4 + [1])
        np.testing.assert_array_equal(arg_ref[:, 3], [2, 1] * 4 + [2])


def test_jagged_layout_orders_rows_longest_first_stably():
    idx, counts = padded_group(np.random.default_rng(3), [2, 0, 3, 2, 3, 1], 10, 3)
    order, src, rowpos, sizes = jagged_layout(idx, counts)
    np.testing.assert_array_equal(order, [2, 4, 0, 3, 5, 1])
    np.testing.assert_array_equal(sizes, [5, 4, 2])
    np.testing.assert_array_equal(rowpos, [0, 1, 2, 3, 4, 0, 1, 2, 3, 0, 1])
    np.testing.assert_array_equal(src[:5], idx[[2, 4, 0, 3, 5], 0])
    np.testing.assert_array_equal(src[9:], idx[[2, 4], 2])


@pytest.mark.parametrize("n_rows,n_targets", [(3248, 900), (500, 7), (1, 1), (0, 4)])
def test_add_rows_at_equals_np_add_at_bitwise(n_rows, n_targets):
    """Rank-by-rank adds sum each target in the order of ``np.add.at``: the
    same bits, also for targets hit many times and for signed zeros."""
    rng = np.random.default_rng(n_rows)
    d = rng.normal(scale=100.0, size=(n_rows, 64)).astype(np.float32)
    d[::5, 3] = -0.0
    rows = rng.integers(0, n_targets, size=n_rows)
    want = np.zeros((n_targets, 64), dtype=np.float32)
    np.add.at(want, rows, d)
    np.testing.assert_array_equal(bits(add_rows_at(d, rows, n_targets)), bits(want))


# ---------------------------------------------------------------- softmax


def test_softmax_constant_row():
    y, _ = softmax_rows_forward(np.array([[2.0, 2.0, 2.0, 2.0]]))
    np.testing.assert_allclose(y, [[0.25, 0.25, 0.25, 0.25]])


def test_softmax_single_column():
    y, _ = softmax_rows_forward(np.array([[3.0], [-7.0]]))
    np.testing.assert_allclose(y, [[1.0], [1.0]])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(5)
    y, _ = softmax_rows_forward(rng.normal(scale=5, size=(20, 7)))
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-9)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 6))
    y0, _ = softmax_rows_forward(x)
    y1, _ = softmax_rows_forward(x + 123.0)
    np.testing.assert_allclose(y0, y1, atol=1e-9)


def test_softmax_survives_huge_logits():
    y, _ = softmax_rows_forward(np.array([[1000.0, 0.0]]))
    assert np.isfinite(y).all()
    np.testing.assert_allclose(y, [[1.0, 0.0]], atol=1e-12)


def test_softmax_grad_check():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 6))
    assert fd_through_input(x, softmax_rows_forward, softmax_rows_backward) < 1e-6


# ---------------------------------------------------------------- l2 normalize


def test_l2_normalize_three_four_five():
    y, _ = l2_normalize_rows_forward(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(y, [[0.6, 0.8]])


def test_l2_normalize_unit_row_unchanged():
    x = np.array([[1.0, 0.0, 0.0]])
    y, _ = l2_normalize_rows_forward(x)
    np.testing.assert_allclose(y, x)


def test_l2_normalize_scale_invariant():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(10, 5))
    y0, _ = l2_normalize_rows_forward(x)
    y1, _ = l2_normalize_rows_forward(3.7 * x)
    np.testing.assert_allclose(y0, y1, atol=1e-9)


def test_l2_normalize_zero_row_is_safe():
    y, _ = l2_normalize_rows_forward(np.zeros((1, 4)))
    np.testing.assert_array_equal(y, np.zeros((1, 4)))


def test_l2_normalize_grad_check():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 5))
    # Keep row norms comfortably above the kink at eps.
    x += np.sign(x) * 0.1
    assert fd_through_input(
        x, l2_normalize_rows_forward, l2_normalize_rows_backward) < 1e-6


# ---------------------------------------------------------------- losses


def test_bce_at_zero_logit():
    loss, _ = bce_loss_forward(np.array([0.0]), np.array([1.0]))
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_saturated_correct():
    loss, _ = bce_loss_forward(np.array([20.0]), np.array([1.0]))
    assert loss < 1e-8


def test_bce_shape_mismatch():
    with pytest.raises(ValueError):
        bce_loss_forward(np.zeros(3), np.zeros(4))


def test_bce_grad_check():
    rng = np.random.default_rng(10)
    z = rng.normal(size=12)
    t = (rng.uniform(size=12) > 0.5).astype(np.float64)
    p = Param("z", z)

    def fn():
        p.zero_grad()
        loss, cache = bce_loss_forward(p.value, t)
        p.grad += bce_loss_backward(cache)
        return loss

    assert grad_check(fn, [p]) < 1e-6


def test_masked_mse_selects_rows():
    pred = np.array([[1.0, 1.0], [5.0, 5.0], [2.0, 0.0]])
    target = np.zeros((3, 2))
    mask = np.array([True, False, True])
    loss, _ = mse_loss_masked_forward(pred, target, mask)
    # Rows 0 and 2 only: mean of (1,1,4,0).
    assert loss == pytest.approx(1.5)


def test_masked_mse_no_positives_is_zero():
    loss, cache = mse_loss_masked_forward(np.ones((3, 4)), np.zeros((3, 4)),
                                          np.zeros(3, dtype=bool))
    assert loss == 0.0
    np.testing.assert_array_equal(mse_loss_masked_backward(cache), np.zeros((3, 4)))


def test_masked_mse_grad_check():
    rng = np.random.default_rng(12)
    pred = Param("pred", rng.normal(size=(6, 4)))
    target = rng.normal(size=(6, 4))
    mask = np.array([True, False, True, True, False, False])

    def fn():
        pred.zero_grad()
        loss, cache = mse_loss_masked_forward(pred.value, target, mask)
        pred.grad += mse_loss_masked_backward(cache)
        return loss

    assert grad_check(fn, [pred]) < 1e-6


def test_sigmoid_matches_definition_and_is_stable():
    z = np.array([-800.0, -5.0, 0.0, 5.0, 800.0])
    s = sigmoid(z)
    assert np.isfinite(s).all()
    np.testing.assert_allclose(s[1:4], 1 / (1 + np.exp(-z[1:4])), atol=1e-12)
    assert s[0] == pytest.approx(0.0, abs=1e-12) and s[4] == pytest.approx(1.0)


# ---------------------------------------------------------------- batch norm


def test_batchnorm_normalizes_in_training():
    rng = np.random.default_rng(13)
    bn = BatchNorm(5, dtype=np.float64)
    x = rng.normal(loc=3.0, scale=2.5, size=(64, 5))
    y, _ = bn.forward(x, training=True)
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-6)
    np.testing.assert_allclose(y.var(axis=0), 1.0, atol=1e-4)


def test_batchnorm_eval_uses_running_stats():
    rng = np.random.default_rng(14)
    bn = BatchNorm(3, dtype=np.float64, momentum=1.0)  # running = last batch
    x = rng.normal(loc=-1.0, scale=0.5, size=(128, 3))
    bn.forward(x, training=True)
    y, _ = bn.forward(x, training=False)
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-6)


def test_batchnorm_grad_check_training_mode():
    rng = np.random.default_rng(15)
    bn = BatchNorm(4, dtype=np.float64)
    x = rng.normal(size=(8, 4))
    w_loss = rng.normal(size=(8, 4))
    xp = Param("x", x)

    def fn():
        xp.zero_grad()
        for p in bn.params():
            p.zero_grad()
        y, cache = bn.forward(xp.value, training=True)
        xp.grad += bn.backward(w_loss, cache)
        return float((w_loss * y).sum())

    assert grad_check(fn, [xp] + bn.params()) < 1e-5


def test_batchnorm_weights_count_rows_as_repeats():
    """A row of weight w acts as w copies of itself: forward, running
    statistics, and gradients summed over the copies, of which only the
    first receives an upstream gradient."""
    rng = np.random.default_rng(17)
    x = rng.normal(loc=2.0, size=(7, 3))
    w = np.array([4.0, 1.0, 1.0, 3.0, 1.0, 1.0, 2.0])
    dy = rng.normal(size=(7, 3))
    reps = w.astype(int)
    first = np.cumsum(reps) - reps
    dy_rep = np.zeros((reps.sum(), 3))
    dy_rep[first] = dy
    weighted, repeated = BatchNorm(3, dtype=np.float64), BatchNorm(3, dtype=np.float64)
    y, cache = weighted.forward(x, True, w)
    y_rep, cache_rep = repeated.forward(np.repeat(x, reps, axis=0), True)
    dx = weighted.backward(dy, cache)
    dx_rep = np.add.reduceat(repeated.backward(dy_rep, cache_rep), first)
    np.testing.assert_allclose(y, y_rep[first], rtol=0, atol=1e-12)
    np.testing.assert_allclose(dx, dx_rep, rtol=0, atol=1e-12)
    for a, b in zip(weighted.params(), repeated.params()):
        np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=1e-12)
    for name, buf in weighted.buffers().items():
        np.testing.assert_allclose(buf, repeated.buffers()[name], rtol=0, atol=1e-12)


# ---------------------------------------------------------------- MLP


def test_mlp_shapes_and_final_layer_is_linear():
    rng = np.random.default_rng(16)
    mlp = MLP([3, 8, 8, 5], rng, dtype=np.float64)
    y, _ = mlp.forward(rng.normal(size=(7, 3)))
    assert y.shape == (7, 5)
    assert (y < 0).any()  # no ReLU on the output layer


def test_mlp_zero_weights_give_final_bias():
    rng = np.random.default_rng(17)
    mlp = MLP([4, 6, 2], rng, dtype=np.float64)
    for lin in mlp.layers:
        lin.weight.value[:] = 0.0
        lin.bias.value[:] = 0.0
    mlp.layers[-1].bias.value[:] = [1.5, -2.5]
    y, _ = mlp.forward(np.ones((3, 4)))
    np.testing.assert_allclose(y, np.broadcast_to([1.5, -2.5], (3, 2)))


def test_mlp_rejects_inconsistent_flags():
    with pytest.raises(ValueError):
        MLP([3, 4, 5], np.random.default_rng(18), relu=[True])


def test_mlp_grad_check():
    rng = np.random.default_rng(19)
    mlp = MLP([3, 6, 4], rng, dtype=np.float64)
    x = rng.normal(size=(5, 3)) + 0.3
    w_loss = rng.normal(size=(5, 4))

    def fn():
        for p in mlp.params():
            p.zero_grad()
        y, caches = mlp.forward(x)
        mlp.backward(w_loss, caches)
        return float((w_loss * y).sum())

    assert grad_check(fn, mlp.params()) < 1e-5


def test_mlp_shared_weights_replay_two_forwards():
    """Run the same MLP on two inputs, backprop both; grads must add up."""
    rng = np.random.default_rng(20)
    mlp = MLP([3, 5, 2], rng, dtype=np.float64)
    xa = rng.normal(size=(4, 3))
    xb = rng.normal(size=(6, 3))
    wa = rng.normal(size=(4, 2))
    wb = rng.normal(size=(6, 2))

    def fn():
        for p in mlp.params():
            p.zero_grad()
        ya, ca = mlp.forward(xa)
        yb, cb = mlp.forward(xb)
        mlp.backward(wb, cb)
        mlp.backward(wa, ca)
        return float((wa * ya).sum() + (wb * yb).sum())

    assert grad_check(fn, mlp.params()) < 1e-5


# ---------------------------------------------------------------- Adam


def test_adam_zero_grad_no_move():
    p = Param("w", np.ones(4))
    opt = Adam([p], lr=0.1)
    opt.step()
    np.testing.assert_array_equal(p.value, np.ones(4))


def test_adam_first_step_closed_form():
    g = np.array([0.3, -2.0, 5.0])
    p = Param("w", np.zeros(3))
    opt = Adam([p], lr=0.01)
    p.grad += g
    opt.step()
    expected = -0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.value, expected, rtol=1e-6)


def test_adam_converges_on_quadratic():
    p = Param("w", np.array([1.0, 1.0]))
    opt = Adam([p], lr=0.01)
    for _ in range(1000):
        opt.zero_grad()
        p.grad += 2.0 * p.value
        opt.step()
    assert np.linalg.norm(p.value) < 1e-3


def test_adam_rejects_nonfinite_grad():
    p = Param("bad_layer", np.zeros(2))
    opt = Adam([p])
    p.grad += np.array([np.nan, 0.0])
    with pytest.raises(FloatingPointError, match="bad_layer"):
        opt.step()


class LonghandAdam:
    """The per-parameter Adam step: the reference for the flat one."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.value -= lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


# 8,300 elements straddle the first chunk boundary and 8,200 the second.
_CHUNKED_SHAPES = [(7, 3), (100, 83), (5,), (2, 4100)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adam_step_is_the_per_parameter_step_bitwise(dtype):
    ends = np.cumsum([math.prod(s) for s in _CHUNKED_SHAPES])
    assert ends[0] < ADAM_CHUNK < ends[1] and ends[2] < 2 * ADAM_CHUNK < ends[3]
    rng = np.random.default_rng(41)
    init = [rng.normal(size=s).astype(dtype) for s in _CHUNKED_SHAPES]
    flat = [Param(f"p{i}", a.copy()) for i, a in enumerate(init)]
    ref = [Param(f"p{i}", a.copy()) for i, a in enumerate(init)]
    opt, longhand = Adam(flat), LonghandAdam(ref)
    for lr in (1e-3, 4e-3, 2.5e-4, 1e-2, 7e-4):
        opt.zero_grad()
        for p, q in zip(flat, ref):
            g = (rng.normal(size=p.shape) * 10.0 ** rng.uniform(-4, 1)).astype(dtype)
            p.grad += g
            q.grad[...] = g
        opt.step(lr=lr)
        longhand.step(lr)
        for p, q in zip(flat, ref):
            assert p.value.dtype == dtype and p.value.tobytes() == q.value.tobytes()
        assert opt.m.tobytes() == np.concatenate([m.ravel() for m in longhand.m]).tobytes()
        assert opt.v.tobytes() == np.concatenate([v.ravel() for v in longhand.v]).tobytes()


def test_average_grad_is_the_per_parameter_division_bitwise():
    rng = np.random.default_rng(42)
    params = [Param(n, rng.normal(size=s).astype(np.float32))
              for n, s in (("a", (3, 4)), ("b", (5,)))]
    opt = Adam(params)
    for p in params:
        p.grad += rng.normal(size=p.shape).astype(np.float32)
    want = [p.grad / 7 for p in params]
    opt.average_grad(7)
    for p, w in zip(params, want):
        assert p.grad.tobytes() == w.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adam_non_finite_grad_names_the_first_such_param_and_moves_nothing(bad):
    params = [Param(n, np.linspace(-1.0, 1.0, k)) for n, k in (("a", 4), ("b", 3), ("c", 5))]
    opt = Adam(params)
    for p in params:
        p.grad += 0.5
    params[1].grad[2] = bad
    params[2].grad[0] = np.nan
    before = [p.value.copy() for p in params]
    with pytest.raises(FloatingPointError, match=r"in b$"):
        opt.step()
    for p, b in zip(params, before):
        np.testing.assert_array_equal(p.value, b)
    assert not opt.m.any() and not opt.v.any()


def test_adam_over_no_params_steps():
    opt = Adam([])
    opt.zero_grad()
    opt.average_grad(2)
    opt.step()
    assert opt.t == 1


def test_adam_refuses_mixed_dtypes():
    with pytest.raises(ValueError, match="dtype"):
        Adam([Param("a", np.zeros(2, np.float32)), Param("b", np.zeros(2, np.float64))])


def test_lr_schedule():
    assert lr_at_epoch(0.001, 5.0, 40, 0) == pytest.approx(0.001)
    assert lr_at_epoch(0.001, 5.0, 40, 39) == pytest.approx(0.001)
    assert lr_at_epoch(0.001, 5.0, 40, 40) == pytest.approx(0.0002)
    assert lr_at_epoch(0.001, 5.0, 40, 80) == pytest.approx(0.00004)


# ---------------------------------------------------------------- grad_check


def test_grad_check_exact_on_quadratic():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(3, 3))
    a = a + a.T
    p = Param("w", rng.normal(size=3))

    def fn():
        p.zero_grad()
        p.grad += (a + a.T) @ p.value
        return float(p.value @ a @ p.value)

    assert grad_check(fn, [p]) < 1e-8


def test_grad_check_flags_corrupted_backward():
    p = Param("w", np.array([0.7, -0.3]))

    def fn():
        p.zero_grad()
        p.grad += 3.0 * p.value  # wrong: true gradient is 2w
        return float(p.value @ p.value)

    assert grad_check(fn, [p]) > 1e-2


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(22)
    arrays = {
        "enc.weight": rng.normal(size=(4, 3)).astype(np.float32),
        "enc.bias": rng.normal(size=4).astype(np.float32),
        "scalar_step": np.float32(7.0).reshape(()),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, arrays, ["embed_dim=8", "use_offset=false"])
    loaded, config = load_checkpoint(path)
    assert list(loaded) == list(arrays)
    for k in arrays:
        np.testing.assert_array_equal(loaded[k], np.asarray(arrays[k], dtype=np.float32))
    assert config == ["embed_dim=8", "use_offset=false"]


def test_checkpoint_version_one_is_refused(tmp_path):
    """Version 1 held no config; no reader for it is kept."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.zeros(3, dtype=np.float32)}, [])
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 1)
    raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])) & 0xFFFFFFFF)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


def test_checkpoint_detects_corruption(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.zeros(3, dtype=np.float32)}, [])
    raw = bytearray(path.read_bytes())
    raw[-6] ^= 0xFF  # flip a payload byte
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        load_checkpoint(path)


def test_every_truncated_or_bit_flipped_checkpoint_is_a_value_error(tmp_path):
    """Fuzz: each proper prefix, and each single-bit flip, of a checkpoint."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                           "b": np.ones(2, dtype=np.float32)}, ["seed=3"])
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            load_checkpoint(path)
    for bit in range(8 * len(raw)):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        with pytest.raises(ValueError):
            load_checkpoint(path)


def test_checkpoint_with_a_malformed_manifest_is_a_value_error(tmp_path):
    """Manifests rewritten under a recomputed CRC, each wrong in one field,
    fail by path and name the manifest."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.zeros(3, dtype=np.float32)}, [])
    raw = path.read_bytes()
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    for manifest in [
        '{"arrays": [{"name": "w", "shape": [3]}]}',
        '[{"name": "w", "shape": [3]}]',
        '{"config": [], "arrays": [{"shape": [3]}]}',
        '{"config": [], "arrays": 5}',
        '{"config": "seed=3", "arrays": [{"name": "w", "shape": [3]}]}',
        '{"config": [3], "arrays": [{"name": "w", "shape": [3]}]}',
        '{"config": [], "arrays": [["w", [3]]]}',
        '{"config": [], "arrays": [{"name": 1, "shape": [3]}]}',
        '{"config": [], "arrays": [{"name": "w", "shape": 3}]}',
        '{"config": [], "arrays": [{"name": "w", "shape": [-1]}]}',
        '{"config": [], "arrays": [{"name": "w", "shape": [1.5, 2]}]}',
        '{"config": [], "arrays": [{"name": "w", "shape": [1]}, {"name": "w", "shape": [2]}]}',
        '{"config": [], "arrays": [',
    ]:
        blob = manifest.encode("utf-8")
        body = raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + blob_len:-4]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(ValueError, match="model.ckpt: checkpoint manifest"):
            load_checkpoint(path)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_writes_are_byte_stable(tmp_path):
    arrays = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, arrays, ["seed=3"])
    save_checkpoint(p2, arrays, ["seed=3"])
    assert p1.read_bytes() == p2.read_bytes()
