"""Autodiff engine tests: analytic gradients vs central finite differences."""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from serkit import autodiff
from serkit.autodiff import (
    Tensor,
    concat,
    conv1d_dilated,
    attention_weights,
    finite_difference_gradient,
    group_norm,
    layer_norm,
    linear,
    multi_head_attention,
    no_grad,
    relative_error,
)
from serkit.errors import ConfigError, NumericError, SerkitError, ShapeError

H = 1e-5
PRIMITIVE_TOL = 1e-5
TRIALS = 100


def fd_check(build, x0: np.ndarray, tol: float = PRIMITIVE_TOL):
    """Compare reverse-mode gradient of sum(build(x) * r) against finite differences."""
    rng = np.random.default_rng(hash(str(x0.shape)) % (2**32))
    probe = rng.normal(size=None)  # keep rng state stable across calls

    x = Tensor(x0, requires_grad=True)
    out = build(x)
    mix = Tensor(np.linspace(0.3, 1.1, out.data.size).reshape(out.data.shape))
    (out * mix).sum().backward()
    analytic = x.grad.copy()

    def scalar_f(arr):
        value = build(Tensor(arr))
        return float((value.data * mix.data).sum())

    oracle = finite_difference_gradient(scalar_f, x0, h=H)
    err = relative_error(analytic, oracle)
    assert err < tol, f"gradient mismatch: rel err {err:.3e}"
    return err


def tanh(x: Tensor) -> Tensor:
    """tanh(x) = 2 sigmoid(2x) - 1, composed from engine ops (the engine has no tanh op)."""
    return (x * 2.0).sigmoid() * 2.0 - 1.0


class TestBasics:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        y = (x * x).sum()
        y.backward()
        assert y.item() == pytest.approx(14.0)
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_sum_identity_grad(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((4, 3)))

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2.0).backward()

    def test_reused_node_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 7
        y.backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_non_finite_forward_raises(self):
        x = Tensor([0.0], requires_grad=True)
        with pytest.raises(NumericError, match="log"):
            x.log()

    def test_matmul_shape_error_names_op(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((2, 3)))
        with pytest.raises(ShapeError, match="matmul"):
            a @ b

    def test_first_gradient_is_a_copy(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        g = np.array([1.0, 2.0, 3.0])
        (a + b).backward(g)
        a.grad[:] = 99.0
        np.testing.assert_array_equal(b.grad, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(g, [1.0, 2.0, 3.0])

    def test_contiguous_first_gradient_is_adopted(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        first = np.ones((2, 3))
        x._accumulate(first)
        assert x.grad is first
        y = Tensor(np.zeros((3, 2)), requires_grad=True)
        strided = np.ones((2, 3)).T
        y._accumulate(strided)
        assert not np.shares_memory(y.grad, strided) and y.grad.flags.c_contiguous

    def test_backward_seed_shape_must_match(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        y = x * 2.0
        for seed in (np.ones(2), np.array([2.0])):     # numpy would raise / broadcast these
            with pytest.raises(ShapeError) as err:
                y.backward(seed)
            assert str(seed.shape) in str(err.value) and "(3,)" in str(err.value)
        assert x.grad is None

    def test_fan_out_gradients_are_private(self):
        rng = np.random.default_rng(10)
        shapes = ((3, 4), (3, 4), (4, 3), (16,), (16,))
        arrays = [rng.uniform(-1.0, 1.0, size=shape) for shape in shapes]

        def loss(a, b, c, d, e):
            s = a + b                          # both sides of one add
            t = (s.T + c).relu() @ s           # s consumed twice; T hands a view of g
            u = t.reshape(16) + d              # reshape hands a view of g
            v = d + t.reshape(16)              # an add whose second parent is a reshape
            w = concat([s, s], axis=0)         # two contiguous slices of one g, both to s
            x = e + e                          # one leaf on both sides of one add
            # u consumed twice by one mul; t gets a gradient after its reshapes' views
            return (u * u).sum() + (v * x).sum() + (w * w).sum() + (t * t).sum()

        leaves = [Tensor(arr, requires_grad=True) for arr in arrays]
        seed = np.array([2.0])
        loss(*leaves).backward(seed)
        np.testing.assert_array_equal(seed, [2.0])
        for i, leaf in enumerate(leaves):
            others = [Tensor(arr) for arr in arrays]

            def f(arr, i=i, others=others):
                return 2.0 * loss(*others[:i], Tensor(arr), *others[i + 1:]).item()

            assert relative_error(leaf.grad, finite_difference_gradient(f, arrays[i])) < 1e-6
        for i, leaf in enumerate(leaves):
            assert not np.shares_memory(leaf.grad, seed)
            assert not any(np.shares_memory(leaf.grad, other.grad) for other in leaves[i + 1:])
            leaf.grad[...] = float(i)
        for i, leaf in enumerate(leaves):
            assert np.all(leaf.grad == float(i))
        np.testing.assert_array_equal(seed, [2.0])

    def test_relu_matches_where_bitwise(self):
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=(4, 50))
        x0[0, ::3] = 0.0
        x0[1, ::3] = -0.0
        x = Tensor(x0, requires_grad=True)
        out = x.relu()
        assert out.data.tobytes() == np.where(x0 > 0, x0, 0.0).tobytes()
        mix = rng.normal(size=x0.shape)
        (out * Tensor(mix)).sum().backward()
        assert np.all(x.grad[x0 <= 0] == 0.0)
        np.testing.assert_array_equal(x.grad[x0 > 0], mix[x0 > 0])

    def test_slice_scatter_matches_add_at(self):
        rng = np.random.default_rng(9)
        x0, w = rng.normal(size=(3, 4, 5)), rng.normal(size=(2, 4, 3))
        idx = np.array([0, 2, 2])
        x = Tensor(x0, requires_grad=True)
        ((x[1:, :, 1:4] * w).sum() + x[..., 0:3][2].sum() + x[idx][:, 1:3, 1:4].sum()).backward()
        expected = np.zeros_like(x0)
        np.add.at(expected, (slice(1, None), slice(None), slice(1, 4)), w)
        np.add.at(expected, (2, Ellipsis, slice(0, 3)), np.ones((4, 3)))
        inner = np.zeros((3, 4, 5))
        np.add.at(inner, (slice(None), slice(1, 3), slice(1, 4)), 1.0)
        np.add.at(expected, idx, inner)
        np.testing.assert_array_equal(x.grad, expected)


class TestPrimitiveGradients:
    """Every primitive op vs central differences, 100 seeded trials each."""

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_elementwise_chain(self, trial):
        rng = np.random.default_rng(1000 + trial)
        x0 = rng.uniform(-1.0, 1.0, size=(3, 4))
        fd_check(lambda x: tanh((x * 0.7 + 0.1) - (x * x) * 0.3), x0)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_exp_log_div(self, trial):
        rng = np.random.default_rng(2000 + trial)
        x0 = rng.uniform(0.4, 1.0, size=(6,))

        def exp(x):     # exp(x) as the odds s / (1 - s) of s = sigmoid(x)
            s = x.sigmoid()
            return s / (1.0 - s)

        fd_check(lambda x: (exp(x).log() / (x + 2.0)), x0)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_sigmoid_pow(self, trial):
        rng = np.random.default_rng(3000 + trial)
        x0 = rng.uniform(-1.0, 1.0, size=(5,))
        fd_check(lambda x: (x.sigmoid() ** 2.0 + (x * x + 0.5) ** 0.5), x0)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_relu_maximum_off_kink(self, trial):
        rng = np.random.default_rng(4000 + trial)
        x0 = rng.uniform(-1.0, 1.0, size=(8,))
        x0[np.abs(x0) < 1e-3] = 0.5            # keep clear of the relu kink
        x0[np.abs(x0 - 0.2) < 1e-3] = 0.6      # and of the maximum(0.2) kink
        fd_check(lambda x: x.relu() + x.maximum(0.2) * 0.5, x0)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_matmul(self, trial):
        rng = np.random.default_rng(5000 + trial)
        x0 = rng.uniform(-1.0, 1.0, size=(3, 4))
        w = Tensor(rng.uniform(-1.0, 1.0, size=(4, 2)))
        fd_check(lambda x: x @ w, x0)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_matmul_weight_side(self, trial):
        rng = np.random.default_rng(5500 + trial)
        a = Tensor(rng.uniform(-1.0, 1.0, size=(2, 3)))
        w0 = rng.uniform(-1.0, 1.0, size=(3, 3))
        fd_check(lambda w: a @ w, w0)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_reductions(self, trial):
        rng = np.random.default_rng(6000 + trial)
        x0 = rng.uniform(-1.0, 1.0, size=(4, 4))
        fd_check(lambda x: x.sum(axis=0) + x.mean(axis=1, keepdims=True).reshape(4) + x.mean(),
                 x0)
        fd_check(lambda x: x.reshape(16).sum(axis=0) * x.reshape(16).mean(axis=0), x0)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_variance(self, trial):
        # centered second moment over axis 0, composed as the CCC loss composes it
        rng = np.random.default_rng(6500 + trial)
        x0 = rng.uniform(-1.0, 1.0, size=(3, 5))

        def variance(x):
            centered = x - x.mean(axis=0)
            return (centered * centered).mean(axis=0)

        fd_check(variance, x0)
        fd_check(lambda x: variance(x.reshape(15)), x0)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_softmax(self, trial):
        rng = np.random.default_rng(7000 + trial)
        x0 = rng.uniform(-1.0, 1.0, size=(3, 5))
        fd_check(lambda x: x.softmax(), x0)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_slice_concat_reshape_transpose(self, trial):
        rng = np.random.default_rng(8000 + trial)
        x0 = rng.uniform(-1.0, 1.0, size=(4, 4))
        fd_check(lambda x: concat([x[:2, :], x[2:, :] * 2.0], axis=0).T.reshape(16), x0)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_gather_rows(self, trial):
        rng = np.random.default_rng(8500 + trial)
        x0 = rng.uniform(-1.0, 1.0, size=(5, 3))
        idx = np.array([0, 2, 2, 4])  # repeated index exercises scatter-add
        fd_check(lambda x: x[idx], x0)
        fd_check(lambda x: x[idx, 1:], x0)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_conv1d_dilated(self, trial):
        rng = np.random.default_rng(9000 + trial)
        x0 = rng.uniform(-1.0, 1.0, size=(4, 7))
        w = Tensor(rng.uniform(-1.0, 1.0, size=(3, 4, 3)))
        b = Tensor(rng.uniform(-1.0, 1.0, size=(3,)))
        fd_check(lambda x: conv1d_dilated(x, w, b, dilation=2), x0)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_conv1d_weight_and_bias_grads(self, trial):
        rng = np.random.default_rng(9500 + trial)
        x = Tensor(rng.uniform(-1.0, 1.0, size=(2, 6)))
        w0 = rng.uniform(-1.0, 1.0, size=(2, 2, 3))
        b0 = rng.uniform(-1.0, 1.0, size=(2,))
        fd_check(lambda w: conv1d_dilated(x, w, Tensor(b0), dilation=1), w0)
        fd_check(lambda b: conv1d_dilated(x, Tensor(w0), b, dilation=1), b0)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_group_norm_grad(self, trial):
        rng = np.random.default_rng(10500 + trial)
        x0 = rng.uniform(-1.0, 1.0, size=(4, 5))
        gamma = Tensor(rng.uniform(0.5, 1.5, size=(4,)))
        beta = Tensor(rng.uniform(-0.5, 0.5, size=(4,)))
        fd_check(lambda x: group_norm(x, 2, gamma, beta, eps=1e-5), x0)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_layer_norm_grad(self, trial):
        rng = np.random.default_rng(11000 + trial)
        x0 = rng.uniform(-1.0, 1.0, size=(3, 6))
        gamma = Tensor(rng.uniform(0.5, 1.5, size=(6,)))
        beta = Tensor(rng.uniform(-0.5, 0.5, size=(6,)))
        fd_check(lambda x: layer_norm(x, gamma, beta), x0)


class TestThreeLayerNet:
    def test_random_net_gradient_vs_fd(self):
        """d(loss)/d(W) on a random 3-layer net: max rel err < 1e-6."""
        rng = np.random.default_rng(42)
        x = Tensor(rng.uniform(-1.0, 1.0, size=(2, 4)))
        sizes = [(4, 5), (5, 5), (5, 1)]
        weights = [rng.uniform(-0.5, 0.5, size=s) for s in sizes]

        def net(ws):
            h = x
            for i, w in enumerate([ws["w0"], ws["w1"], ws["w2"]]):
                h = h @ w
                if i < 2:
                    h = tanh(h)
            return (h * h).sum()

        inputs = {f"w{i}": Tensor(w, requires_grad=True) for i, w in enumerate(weights)}
        _, grads = forward_backward(net, inputs)

        for i in range(3):
            def scalar_f(arr, i=i):
                ws = {f"w{j}": Tensor(weights[j]) for j in range(3)}
                ws[f"w{i}"] = Tensor(arr)
                return net(ws).item()

            oracle = finite_difference_gradient(scalar_f, weights[i], h=H)
            assert relative_error(grads[f"w{i}"], oracle) < 1e-6


class TestGroupNorm:
    def test_normalizes_per_group(self):
        rng = np.random.default_rng(7)
        c, t, groups = 8, 10, 4
        x = Tensor(rng.normal(size=(c, t)))
        out = group_norm(x, groups, Tensor(np.ones(c)), Tensor(np.zeros(c)), eps=1e-5).data
        per_group = out.reshape(groups, (c // groups) * t)
        np.testing.assert_allclose(per_group.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(per_group.var(axis=1), 1.0, atol=1e-4)

    def test_constant_input_zeros(self):
        x = Tensor(np.full((4, 6), 3.25))
        out = group_norm(x, 2, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-5)
        np.testing.assert_array_equal(out.data, np.zeros((4, 6)))

    def test_hand_computed_two_groups(self):
        x = np.array([[1.0, 3.0], [5.0, 7.0], [0.0, 0.0], [2.0, 2.0]])
        eps = 1e-5
        out = group_norm(Tensor(x), 2, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=eps).data
        g0 = x[:2]  # channels {0, 1}
        expected0 = (g0 - g0.mean()) / np.sqrt(g0.var() + eps)
        g1 = x[2:]  # channels {2, 3}
        expected1 = (g1 - g1.mean()) / np.sqrt(g1.var() + eps)
        np.testing.assert_allclose(out[:2], expected0, atol=1e-12)
        np.testing.assert_allclose(out[2:], expected1, atol=1e-12)

    def test_indivisible_groups_rejected(self):
        x = Tensor(np.ones((5, 3)))
        with pytest.raises(ConfigError):
            group_norm(x, 2, Tensor(np.ones(5)), Tensor(np.zeros(5)))


class TestFiniteDifference:
    def test_square_at_three(self):
        grad = finite_difference_gradient(lambda v: float(v[0] ** 2), np.array([3.0]), h=1e-5)
        assert abs(grad[0] - 6.0) < 1e-8

    def test_constant_function(self):
        grad = finite_difference_gradient(lambda v: 42.0, np.ones((3, 2)), h=1e-5)
        np.testing.assert_array_equal(grad, np.zeros((3, 2)))

    def test_bad_step_rejected(self):
        with pytest.raises(ConfigError):
            finite_difference_gradient(lambda v: 0.0, np.ones(2), h=0.0)


def forward_backward(graph, inputs: dict) -> tuple:
    """Run `graph(inputs)` to a scalar and return (value, grads).

    `grads` maps each requires_grad input name to d(value)/d(input);
    non-grad inputs are absent. Gradients on the inputs are reset first,
    so repeated calls do not accumulate across invocations.
    """
    for tensor in inputs.values():
        tensor.grad = None
    value = graph(inputs)
    if not isinstance(value, Tensor):
        raise ShapeError("graph must return a Tensor")
    if value.data.size != 1:
        raise ShapeError(f"graph output must be scalar, got shape {value.data.shape}")
    value.backward()
    grads = {}
    for name, tensor in inputs.items():
        if tensor.requires_grad:
            grads[name] = tensor.grad.copy() if tensor.grad is not None else np.zeros_like(tensor.data)
    return value, grads


class TestForwardBackward:
    def test_grads_only_for_requires_grad(self):
        inputs = {
            "a": Tensor([1.0, 2.0], requires_grad=True),
            "b": Tensor([3.0, 4.0], requires_grad=False),
        }
        value, grads = forward_backward(lambda t: (t["a"] * t["b"]).sum(), inputs)
        assert value.item() == pytest.approx(11.0)
        assert set(grads) == {"a"}
        np.testing.assert_allclose(grads["a"], [3.0, 4.0])

    def test_unused_param_gets_zero_grad(self):
        inputs = {
            "used": Tensor([2.0], requires_grad=True),
            "unused": Tensor([5.0], requires_grad=True),
        }
        _, grads = forward_backward(lambda t: (t["used"] ** 2.0).sum(), inputs)
        np.testing.assert_array_equal(grads["unused"], [0.0])

    def test_non_scalar_output_rejected(self):
        inputs = {"a": Tensor([1.0, 2.0], requires_grad=True)}
        with pytest.raises(ShapeError):
            forward_backward(lambda t: t["a"] * 2.0, inputs)


class TestNumericContracts:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = Tensor(rng.uniform(-30, 30, size=(4, 7)))
            rows = x.softmax().data.sum(axis=1)
            np.testing.assert_allclose(rows, 1.0, atol=1e-12)

    def test_sigmoid_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            out = Tensor(rng.uniform(-60, 60, size=(16,))).sigmoid().data
            assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_forward_backward_deterministic(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
            out = tanh(x @ w).softmax().sum()
            out.backward()
            return out.data.copy(), x.grad.copy(), w.grad.copy()

        first = run()
        second = run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


# -- composed references for the fused ops --------------------------------------


def composed_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """LayerNorm over rows of [T, d] built from elementary ops."""
    mu = x.mean(axis=1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    return centered / ((var + eps) ** 0.5) * gamma.reshape(1, -1) + beta.reshape(1, -1)


def composed_group_norm(x: Tensor, num_groups: int, gamma: Tensor, beta: Tensor,
                        eps: float = 1e-5) -> Tensor:
    """GroupNorm over [C, T] built from elementary ops."""
    c, t = x.data.shape
    xg = x.reshape(num_groups, (c // num_groups) * t)
    mu = xg.mean(axis=1, keepdims=True)
    centered = xg - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    normalized = centered / ((var + eps) ** 0.5)
    return normalized.reshape(c, t) * gamma.reshape(c, 1) + beta.reshape(c, 1)


def composed_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
    """Per-head slice/matmul/softmax chain over [T, d]."""
    dh = q.data.shape[1] // num_heads
    heads = []
    for h in range(num_heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = (q[:, sl] @ k[:, sl].T) * (1.0 / np.sqrt(dh))
        heads.append(scores.softmax() @ v[:, sl])
    return concat(heads, axis=1)


def traced_bytes(build, shape):
    """Bytes that `build()` leaves allocated, and its peak, both above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == shape
    return current - base, peak - base


def padded_batch(rng, lengths, width, t_max, time_axis):
    """Random batch with zero padding past each length, plus its [B, T] 0/1 frame mask."""
    lengths = np.asarray(lengths)
    shape = (len(lengths), t_max, width) if time_axis == 1 else (len(lengths), width, t_max)
    x = rng.uniform(-1.0, 1.0, size=shape)
    mask = (np.arange(t_max) < lengths[:, None]).astype(float)
    x *= mask[:, :, None] if time_axis == 1 else mask[:, None, :]
    return x, mask


LENGTHS = (5, 2, 7)


def conv_reference(x, w, b, dilation, lengths=None):
    """Direct conv1d: each output frame sums w[:, :, i] @ x[..., t + (i - K//2) * dilation]
    over the taps that land on a frame inside the utterance's valid length."""
    c_out, _, k = w.shape
    xb = x.reshape((-1,) + x.shape[-2:])
    n, _, t_len = xb.shape
    ends = np.full(n, t_len) if lengths is None else np.asarray(lengths)
    out = np.empty((n, c_out, t_len))
    for u in range(n):
        for t in range(t_len):
            acc = b.copy()
            for i in range(k):
                src = t + (i - k // 2) * dilation
                if 0 <= src < ends[u]:
                    acc += w[:, :, i] @ xb[u, :, src]
            out[u, :, t] = acc
    return out.reshape(x.shape[:-2] + (c_out, t_len))


class TestFusedOps:
    """Fused ops against their composed references (forward) and FD (backward)."""

    def test_layer_norm_matches_composed(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5, 6))
        gamma, beta = Tensor(rng.uniform(0.5, 1.5, 6)), Tensor(rng.uniform(-0.5, 0.5, 6))
        fused = layer_norm(Tensor(x), gamma, beta).data
        for b in range(3):
            ref = composed_layer_norm(Tensor(x[b]), gamma, beta).data
            np.testing.assert_allclose(fused[b], ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("trial", range(10))
    def test_layer_norm_batched_grads(self, trial):
        rng = np.random.default_rng(12000 + trial)
        x0 = rng.uniform(-1.0, 1.0, size=(2, 3, 4))
        gamma0, beta0 = rng.uniform(0.5, 1.5, 4), rng.uniform(-0.5, 0.5, 4)
        fd_check(lambda x: layer_norm(x, Tensor(gamma0), Tensor(beta0)), x0)
        fd_check(lambda g: layer_norm(Tensor(x0), g, Tensor(beta0)), gamma0)
        fd_check(lambda b: layer_norm(Tensor(x0), Tensor(gamma0), b), beta0)

    @pytest.mark.parametrize("masked", [False, True])
    def test_group_norm_matches_composed(self, masked):
        rng = np.random.default_rng(2)
        lengths = LENGTHS if masked else (7, 7, 7)
        x, _ = padded_batch(rng, lengths, 4, 7, time_axis=2)
        gamma, beta = Tensor(rng.uniform(0.5, 1.5, 4)), Tensor(rng.uniform(-0.5, 0.5, 4))
        fused = group_norm(Tensor(x), 2, gamma, beta, lengths=lengths if masked else None).data
        for b, n in enumerate(lengths):
            ref = composed_group_norm(Tensor(x[b, :, :n]), 2, gamma, beta).data
            np.testing.assert_allclose(fused[b, :, :n], ref, rtol=0, atol=1e-12)
            assert np.all(fused[b, :, n:] == 0.0)

    @pytest.mark.parametrize("trial", range(10))
    @pytest.mark.parametrize("masked", [False, True])
    def test_group_norm_grads(self, trial, masked):
        rng = np.random.default_rng(13000 + trial)
        x0, mask = padded_batch(rng, LENGTHS, 4, 7, time_axis=2)
        x0 += rng.uniform(-1.0, 1.0, size=x0.shape) * (1.0 - mask[:, None, :])  # junk padding
        lengths = LENGTHS if masked else None
        gamma0, beta0 = rng.uniform(0.5, 1.5, 4), rng.uniform(-0.5, 0.5, 4)
        fd_check(lambda x: group_norm(x, 2, Tensor(gamma0), Tensor(beta0), lengths=lengths), x0)
        fd_check(lambda g: group_norm(Tensor(x0), 2, g, Tensor(beta0), lengths=lengths), gamma0)
        fd_check(lambda b: group_norm(Tensor(x0), 2, Tensor(gamma0), b, lengths=lengths), beta0)

    @pytest.mark.parametrize("masked", [False, True])
    def test_attention_matches_composed(self, masked):
        rng = np.random.default_rng(3)
        lengths = LENGTHS if masked else (7, 7, 7)
        q, _ = padded_batch(rng, lengths, 8, 7, time_axis=1)
        k = rng.normal(size=q.shape)
        v = rng.normal(size=q.shape)
        fused = multi_head_attention(Tensor(q), Tensor(k), Tensor(v), 2,
                                     lengths=lengths if masked else None).data
        for b, n in enumerate(lengths):
            ref = composed_attention(Tensor(q[b, :n]), Tensor(k[b, :n]), Tensor(v[b, :n]), 2)
            np.testing.assert_allclose(fused[b, :n], ref.data, rtol=0, atol=1e-12)
        single = multi_head_attention(Tensor(q[0]), Tensor(k[0]), Tensor(v[0]), 2).data
        np.testing.assert_allclose(single, composed_attention(
            Tensor(q[0]), Tensor(k[0]), Tensor(v[0]), 2).data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("trial", range(10))
    @pytest.mark.parametrize("masked", [False, True])
    def test_attention_grads(self, trial, masked):
        rng = np.random.default_rng(14000 + trial)
        padded_batch(rng, LENGTHS, 4, 7, time_axis=1)      # keeps the seeded draws below
        lengths = LENGTHS if masked else None
        q0, k0, v0 = rng.uniform(-1.0, 1.0, size=(3, 3, 7, 4))   # junk in padded rows too
        fd_check(lambda q: multi_head_attention(q, Tensor(k0), Tensor(v0), 2, lengths), q0)
        fd_check(lambda k: multi_head_attention(Tensor(q0), k, Tensor(v0), 2, lengths), k0)
        fd_check(lambda v: multi_head_attention(Tensor(q0), Tensor(k0), v, 2, lengths), v0)

    def test_attention_fully_masked_row_raises(self):
        x = Tensor(np.ones((1, 3, 4)))
        with pytest.raises(NumericError, match="attention"):
            multi_head_attention(x, x, x, 2, lengths=[0])


def _attention_run(q0, k0, v0, lengths):
    q, k, v = (Tensor(a, requires_grad=True) for a in (q0, k0, v0))
    out = multi_head_attention(q, k, v, 2, lengths)
    (out * Tensor(np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape))).sum().backward()
    return out.data, q.grad, k.grad, v.grad


class TestBlockedAttention:
    """Attention tiles its (utterance, head) pairs; tiling must not change a bit."""

    @pytest.mark.parametrize("masked", [False, True])
    def test_blocks_match_single_block(self, masked, monkeypatch):
        assert autodiff.BLOCK_ELEMENTS // (200 * 200) == 3   # 4 pairs: blocks of 3 and 1
        rng = np.random.default_rng(15)
        q0, k0, v0 = rng.uniform(-1.0, 1.0, size=(3, 2, 200, 4))
        lengths = [200, 131] if masked else None
        blocked = _attention_run(q0, k0, v0, lengths)
        monkeypatch.setattr(autodiff, "BLOCK_ELEMENTS", 1 << 30)
        single = _attention_run(q0, k0, v0, lengths)
        for got, want in zip(blocked, single):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("trial", range(5))
    @pytest.mark.parametrize("masked", [False, True])
    def test_grads_across_blocks(self, trial, masked, monkeypatch):
        monkeypatch.setattr(autodiff, "BLOCK_ELEMENTS", 4 * 7 * 7)   # 6 pairs: blocks of 4 and 2
        rng = np.random.default_rng(16000 + trial)
        padded_batch(rng, LENGTHS, 4, 7, time_axis=1)      # keeps the seeded draws below
        lengths = LENGTHS if masked else None
        q0, k0, v0 = rng.uniform(-1.0, 1.0, size=(3, 3, 7, 4))
        fd_check(lambda q: multi_head_attention(q, Tensor(k0), Tensor(v0), 2, lengths), q0)
        fd_check(lambda k: multi_head_attention(Tensor(q0), k, Tensor(v0), 2, lengths), k0)
        fd_check(lambda v: multi_head_attention(Tensor(q0), Tensor(k0), v, 2, lengths), v0)

    def test_fully_masked_row_in_later_block_raises(self):
        x = Tensor(np.ones((3, 200, 4)), requires_grad=True)
        with pytest.raises(NumericError, match="attention"):    # pairs 4 and 5: second block
            multi_head_attention(x, x, x, 2, lengths=[200, 200, 0])

    def test_no_grad_keeps_no_softmax(self):
        x0 = np.random.default_rng(17).uniform(-1.0, 1.0, size=(8, 200, 4))
        softmax_bytes = 8 * 2 * 200 * 200 * 8

        def retained_and_peak(x):
            return traced_bytes(lambda: multi_head_attention(x, x, x, 2), x0.shape)

        retained, _ = retained_and_peak(Tensor(x0, requires_grad=True))
        assert retained >= softmax_bytes
        with no_grad():
            retained, peak = retained_and_peak(Tensor(x0, requires_grad=True))
        assert retained < softmax_bytes / 10
        assert peak < softmax_bytes / 2

    def test_grad_keeps_exponentials_and_row_sums_only(self):
        x0 = np.random.default_rng(18).uniform(-1.0, 1.0, size=(8, 200, 64))
        x = Tensor(x0, requires_grad=True)
        retained, _ = traced_bytes(lambda: multi_head_attention(x, x, x, 2), x0.shape)
        pairs, n = 8 * 2, 200
        e_and_sums = pairs * n * n * 8 + pairs * n * 8        # [m, n, n] tiles, [m, n, 1] sums
        # plus the output and its head-major copy for backward; a kept [m, n, d/H + 1]
        # product would add 16 * 200 * 32 * 8 bytes (800 KiB) over the row sums
        assert retained <= e_and_sums + 2 * x0.nbytes + (64 << 10)


def _seeded_attention(q0, k0, v0, g0, lengths):
    """Output and q/k/v gradients of one attention node under the backward seed g0."""
    q, k, v = (Tensor(a, requires_grad=True) for a in (q0, k0, v0))
    out = multi_head_attention(q, k, v, 2, lengths)
    out.backward(g0)
    return out.data, q.grad, k.grad, v.grad


class TestAttentionLengths:
    """Attention computes on each utterance's first `lengths` frames and on nothing else."""

    @pytest.mark.parametrize("lengths,t_max", [((5, 2, 7, 5, 1), 7), ((131, 200, 64, 131), 200)])
    @pytest.mark.parametrize("block", [None, 2 * 7 * 7])
    def test_rows_equal_their_unpadded_run(self, lengths, t_max, block, monkeypatch):
        if block is not None:   # also split runs of equal length across tiles
            monkeypatch.setattr(autodiff, "BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(23)
        q0, k0, v0 = rng.uniform(-1.0, 1.0, size=(3, len(lengths), t_max, 8))   # junk padding
        g0 = rng.normal(size=q0.shape)
        batch = _seeded_attention(q0, k0, v0, g0, lengths)
        for b, n in enumerate(lengths):
            single = _seeded_attention(q0[b:b + 1, :n], k0[b:b + 1, :n], v0[b:b + 1, :n],
                                       g0[b:b + 1, :n], None)
            for got, want in zip(batch, single):
                assert np.array_equal(got[b, :n], want[0])
                assert np.all(got[b, n:] == 0.0)   # padded queries: 0 out, 0 grad to anything

    def test_lengths_outside_one_to_t_rejected(self):
        x = Tensor(np.ones((2, 4, 4)))
        for lengths in ([4], [4, 4, 4], [4, 5]):     # a wrong count, or a length above T
            with pytest.raises(ShapeError, match="attention"):
                multi_head_attention(x, x, x, 2, lengths)
        with pytest.raises(NumericError, match="attention"):
            multi_head_attention(x, x, x, 2, [4, 0])


def _fallback_batch(rng, lengths, t_max):
    """q, k, v [B, T, 4] (2 heads of 2) plus a [B, T, 4] backward seed. Each (frame, head)
    query is plain, or +-33 along keys whose first value is about 33: its scores then lie
    near +-770, past what exp takes (710) or all below where it underflows to 0 (-746).
    The third utterance's queries are all plain, so a tile can mix it with fallback rows."""
    size = (len(lengths), t_max, 2)
    q = rng.uniform(-1.0, 1.0, size=size + (2,))
    sign = rng.choice([0.0, 1.0, -1.0], size=size)
    sign[2] = 0.0
    q[sign != 0.0] = 0.0
    q[..., 0] += 33.0 * sign
    k = np.stack([33.0 * (1.0 + 0.003 * rng.uniform(-1.0, 1.0, size=size)),
                  rng.uniform(-1.0, 1.0, size=size)], axis=-1)
    v = rng.uniform(-1.0, 1.0, size=q.shape)
    scores = np.einsum("bihd,bjhd->bhij", q, k) / np.sqrt(2.0)
    valid = np.arange(t_max) < np.asarray(lengths)[:, None]
    rows = scores[np.broadcast_to(valid[:, None, :, None] & valid[:, None, None, :],
                                  scores.shape)]
    assert rows.max() > 720.0 and rows.min() < -760.0
    return (q.reshape(size[:2] + (4,)), k.reshape(size[:2] + (4,)),
            v.reshape(size[:2] + (4,)), rng.normal(size=size[:2] + (4,)))


class TestAttentionFallback:
    """Rows whose unshifted exponentials overflow or all underflow take the max-shifted path."""

    LENGTHS = (5, 7, 5, 3)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_composed_and_fd_without_warnings(self, seed):
        q0, k0, v0, _ = _fallback_batch(np.random.default_rng(19000 + seed), self.LENGTHS, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fused = multi_head_attention(Tensor(q0), Tensor(k0), Tensor(v0), 2, self.LENGTHS)
            for b, n in enumerate(self.LENGTHS):
                ref = composed_attention(Tensor(q0[b, :n]), Tensor(k0[b, :n]),
                                         Tensor(v0[b, :n]), 2).data
                np.testing.assert_allclose(fused.data[b, :n], ref, rtol=0, atol=1e-12)
            lengths = self.LENGTHS
            fd_check(lambda q: multi_head_attention(q, Tensor(k0), Tensor(v0), 2, lengths), q0)
            fd_check(lambda k: multi_head_attention(Tensor(q0), k, Tensor(v0), 2, lengths), k0)
            fd_check(lambda v: multi_head_attention(Tensor(q0), Tensor(k0), v, 2, lengths), v0)

    @pytest.mark.parametrize("block", [None, 2 * 5 * 5])
    def test_rows_equal_their_unpadded_run(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(autodiff, "BLOCK_ELEMENTS", block)
        q0, k0, v0, g0 = _fallback_batch(np.random.default_rng(20), self.LENGTHS, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = _seeded_attention(q0, k0, v0, g0, self.LENGTHS)
            for b, n in enumerate(self.LENGTHS):
                single = _seeded_attention(q0[b:b + 1, :n], k0[b:b + 1, :n], v0[b:b + 1, :n],
                                           g0[b:b + 1, :n], None)
                for got, want in zip(batch, single):
                    assert np.array_equal(got[b, :n], want[0])
                    assert np.all(got[b, n:] == 0.0)
            with no_grad():
                free = multi_head_attention(Tensor(q0), Tensor(k0), Tensor(v0), 2, self.LENGTHS)
        assert np.array_equal(free.data, batch[0])


NORMS = {
    "group_norm": ((8, 64, 200), lambda x, g, b: group_norm(x, 8, g, b)),
    "group_norm_masked": ((8, 64, 200), lambda x, g, b: group_norm(
        x, 8, g, b, lengths=np.arange(130, 210, 10))),
    "layer_norm": ((8, 200, 64), lambda x, g, b: layer_norm(x, g, b)),
}


class TestNormBuffers:
    """GroupNorm and LayerNorm forward and backward each use two full-size buffers."""

    @pytest.mark.parametrize("name", sorted(NORMS))
    def test_forward_peak_and_retained(self, name):
        shape, norm = NORMS[name]
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 64), requires_grad=True)
        beta = Tensor(rng.uniform(-0.5, 0.5, 64), requires_grad=True)
        full, slack = x.data.nbytes, x.data.nbytes // 8
        retained, peak = traced_bytes(lambda: norm(x, gamma, beta), shape)
        assert peak <= 3 * full
        assert retained <= 2 * full + slack          # the output and xhat
        with no_grad():
            retained, peak = traced_bytes(lambda: norm(x, gamma, beta), shape)
        assert peak <= 3 * full
        assert retained <= full + slack               # the output only
        out, g = norm(x, gamma, beta), np.ones(shape)

        def backward():
            out._backward(g)
            return x.grad

        _, peak = traced_bytes(backward, shape)
        assert peak <= 2 * full + slack               # x.grad is one of the two

    @pytest.mark.parametrize("name", sorted(NORMS))
    def test_all_grads_in_one_backward(self, name):
        shape, norm = NORMS[name]
        rng = np.random.default_rng(19)
        x0, mix = rng.normal(size=shape), rng.normal(size=shape)
        p0 = [rng.uniform(0.5, 1.5, 64), rng.uniform(-0.5, 0.5, 64)]

        def grads(wanted):
            leaves = [Tensor(a, requires_grad=i in wanted) for i, a in enumerate([x0] + p0)]
            (norm(*leaves) * Tensor(mix)).sum().backward()
            return [leaf.grad for leaf in leaves]

        joint = grads({0, 1, 2})
        for i in range(3):
            np.testing.assert_array_equal(joint[i], grads({i})[i])


def _norm_case(kind, groups, width, lengths, extra, masked, eps, seed):
    """(x, gamma, beta, build) for a differential case; padded frames hold junk."""
    rng = np.random.default_rng(seed)
    lengths = np.array(lengths)
    t, c = lengths.max() + extra, groups * width
    gamma, beta = rng.uniform(0.5, 1.5, c), rng.uniform(-0.5, 0.5, c)
    if kind == "layer_norm":
        return (rng.normal(size=(len(lengths), t, c)), gamma, beta,
                lambda x, g, b: layer_norm(x, g, b, eps=eps))
    valid = lengths if masked else None
    return (rng.normal(size=(len(lengths), c, t)), gamma, beta,
            lambda x, g, b: group_norm(x, groups, g, b, eps=eps, lengths=valid))


class TestNormDifferential:
    """The normalisation node against its composed references, FD and itself.

    A block of two values normalises to +-1 up to eps, so its gradient scales with eps; eps
    stays large enough for central differences to resolve it.
    """

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["group_norm", "layer_norm"]), groups=st.integers(1, 3),
           width=st.integers(1, 3), lengths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           extra=st.integers(0, 2), masked=st.booleans(), eps=st.sampled_from([1e-3, 0.1]),
           seed=st.integers(0, 2**16))
    @example(kind="group_norm", groups=2, width=2, lengths=[1, 5], extra=0, masked=True,
             eps=1e-3, seed=0)
    @example(kind="group_norm", groups=1, width=3, lengths=[1], extra=2, masked=True,
             eps=1e-3, seed=1)
    @example(kind="group_norm", groups=3, width=1, lengths=[4, 4], extra=0, masked=False,
             eps=0.1, seed=2)
    @example(kind="layer_norm", groups=1, width=4, lengths=[1], extra=0, masked=False,
             eps=1e-3, seed=3)
    def test_matches_composed_fd_and_single_grads(self, kind, groups, width, lengths, extra,
                                                   masked, eps, seed):
        x0, gamma0, beta0, build = _norm_case(kind, groups, width, lengths, extra, masked,
                                              eps, seed)
        gamma, beta = Tensor(gamma0), Tensor(beta0)
        fused = build(Tensor(x0), gamma, beta).data
        for b, n in enumerate(lengths):
            if kind == "layer_norm":
                ref, got = composed_layer_norm(Tensor(x0[b]), gamma, beta, eps).data, fused[b]
            else:
                n = n if masked else x0.shape[-1]
                ref = composed_group_norm(Tensor(x0[b, :, :n]), groups, gamma, beta, eps).data
                got = fused[b, :, :n]
                assert np.all(fused[b, :, n:] == 0.0)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

        fd_check(lambda x: build(x, Tensor(gamma0), Tensor(beta0)), x0)
        fd_check(lambda g: build(Tensor(x0), g, Tensor(beta0)), gamma0)
        fd_check(lambda b: build(Tensor(x0), Tensor(gamma0), b), beta0)

        mix = np.random.default_rng(seed + 1).normal(size=x0.shape)

        def grads(wanted):
            leaves = [Tensor(a, requires_grad=i in wanted)
                      for i, a in enumerate((x0, gamma0, beta0))]
            (build(*leaves) * Tensor(mix)).sum().backward()
            return [leaf.grad for leaf in leaves]

        joint = grads({0, 1, 2})
        for i in range(3):
            assert np.array_equal(joint[i], grads({i})[i])


def _fused_check(arrays, build, reference, wanted, view):
    """One fused op against its numpy reference, FD, single-input runs and no_grad.

    `wanted[i]` says whether input i requires grad in the joint run. With `view` the first
    input reaches the op as a transposed view of its leaf, so an op that wrote into its input
    would change the leaf's bytes; no input may change through forward and backward.
    """
    expected = reference(*arrays)
    np.testing.assert_allclose(build(*map(Tensor, arrays)).data, expected, rtol=0, atol=1e-12)
    # At the FD contract's 1e-4: a softmax's gradients can sit at the oracle's 1e-6 floor,
    # where central differences resolve them to about 1e-5.
    for i in range(len(arrays)):
        fd_check(lambda t, i=i: build(*[t if j == i else Tensor(a)
                                        for j, a in enumerate(arrays)]), arrays[i], tol=1e-4)
    mix = Tensor(np.random.default_rng(len(arrays)).normal(size=expected.shape))

    def run(wanted):
        first = np.swapaxes(arrays[0], -1, -2).copy() if view else arrays[0].copy()
        leaves = [Tensor(a, requires_grad=w)
                  for a, w in zip([first] + [a.copy() for a in arrays[1:]], wanted)]
        before = [leaf.data.tobytes() for leaf in leaves]
        out = build(*([leaves[0].T if view else leaves[0]] + leaves[1:]))
        assert _linked(out) == any(wanted)
        if any(wanted):
            (out * mix).sum().backward()
        assert [leaf.data.tobytes() for leaf in leaves] == before
        grads = [leaf.grad for leaf in leaves]
        if view and grads[0] is not None:
            grads[0] = np.swapaxes(grads[0], -1, -2)
        return grads, leaves

    joint, leaves = run(wanted)
    for i, grad in enumerate(joint):
        assert (grad is None) != wanted[i]
        if grad is not None:
            assert np.array_equal(grad, run([j == i for j in range(len(arrays))])[0][i])
            others = [leaf.grad for leaf in leaves[i + 1:]] + [leaf.data for leaf in leaves]
            assert not any(np.shares_memory(leaves[i].grad, other)
                           for other in others if other is not None)
    tracked = build(*[Tensor(a, requires_grad=True) for a in arrays])
    with no_grad():
        free = build(*[Tensor(a, requires_grad=True) for a in arrays])
    assert _linked(tracked) and not _linked(free)
    assert free.data.tobytes() == tracked.data.tobytes()


def _grad_flags(bits: int, n: int) -> list:
    return [bool(bits >> i & 1) for i in range(n)]


class TestFusedDifferential:
    """linear (with and without LoRA), attention_weights and GroupNorm+ReLU: each one node,
    checked by `_fused_check` over drawn shapes, lengths and requires_grad flags."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(lead=st.lists(st.integers(1, 3), min_size=1, max_size=2), d_in=st.integers(1, 4),
           d_out=st.integers(1, 4), rank=st.integers(0, 2), grad_bits=st.integers(0, 31),
           view=st.booleans(), seed=st.integers(0, 2**16))
    def test_linear(self, lead, d_in, d_out, rank, grad_bits, view, seed):
        rng = np.random.default_rng(seed)
        shapes = [tuple(lead) + (d_in,), (d_out, d_in), (d_out,)]
        shapes += [(rank, d_in), (d_out, rank)] if rank else []
        arrays = [rng.uniform(-1.0, 1.0, size=shape) for shape in shapes]

        def build(x, w, b, *lora):
            return linear(x, w, b, (lora[0], lora[1], 1.5) if lora else None)

        def reference(x, w, b, *lora):
            return x @ w.T + b + ((x @ lora[0].T) @ lora[1].T * 1.5 if lora else 0.0)

        _fused_check(arrays, build, reference, _grad_flags(grad_bits, len(arrays)), view)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(lengths=st.one_of(st.none(), st.lists(st.integers(1, 5), min_size=1, max_size=3)),
           batched=st.booleans(), extra=st.integers(0, 2), d=st.integers(1, 3),
           hidden=st.integers(1, 3), grad_bits=st.integers(0, 15), view=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_attention_weights(self, lengths, batched, extra, d, hidden, grad_bits, view, seed):
        rng = np.random.default_rng(seed)
        n = max(lengths or [3]) + extra
        lead = (len(lengths),) if lengths is not None else (2,) if batched else ()
        arrays = [rng.uniform(-1.0, 1.0, size=shape)     # padded rows hold junk
                  for shape in (lead + (n, d), (hidden, d), (hidden,), (hidden,))]
        arrays[1] *= 2.0

        def build(seq, w, b, v):
            return attention_weights(seq, w, b, v, lengths)

        def reference(seq, w, b, v):
            scores = np.tanh(seq @ w.T + b) @ v
            out = np.zeros_like(scores)
            for row in np.ndindex(scores.shape[:-1]):
                k = n if lengths is None else lengths[row[0]]
                e = np.exp(scores[row][:k] - scores[row][:k].max())
                out[row][:k] = e / e.sum()
            return out

        _fused_check(arrays, build, reference, _grad_flags(grad_bits, 4), view)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(groups=st.integers(1, 3), width=st.integers(1, 3),
           lengths=st.lists(st.integers(1, 5), min_size=1, max_size=3), extra=st.integers(0, 2),
           masked=st.booleans(), eps=st.sampled_from([1e-3, 0.1]), grad_bits=st.integers(0, 7),
           view=st.booleans(), seed=st.integers(0, 2**16))
    def test_group_norm_relu(self, groups, width, lengths, extra, masked, eps, grad_bits, view,
                             seed):
        rng = np.random.default_rng(seed)
        c, t = groups * width, max(lengths) + extra
        valid = lengths if masked else [t] * len(lengths)
        arrays = [rng.normal(size=(len(lengths), c, t)), rng.uniform(0.5, 1.5, c),
                  rng.uniform(-0.5, 0.5, c)]

        def normalized(x, gamma, beta):        # GroupNorm over each utterance's valid frames
            out = np.zeros_like(x)
            for u, k in enumerate(valid):
                block = x[u, :, :k].reshape(groups, -1)
                xhat = (block - block.mean(axis=1, keepdims=True)) / np.sqrt(
                    block.var(axis=1, keepdims=True) + eps)
                out[u, :, :k] = xhat.reshape(c, k) * gamma[:, None] + beta[:, None]
            return out

        pre = normalized(*arrays)
        valid_mask = np.arange(t) < np.array(valid)[:, None, None]
        assume(np.all(np.abs(pre[np.broadcast_to(valid_mask, pre.shape)]) > 1e-3))  # off the kink

        def build(x, gamma, beta):
            return group_norm(x, groups, gamma, beta, eps=eps,
                              lengths=lengths if masked else None, relu=True)

        _fused_check(arrays, build, lambda *a: np.maximum(normalized(*a), 0.0),
                     _grad_flags(grad_bits, 3), view)


class TestBatchedPrimitives:
    """Leading batch axis and valid lengths on the primitive ops."""

    def test_masked_conv_matches_per_utterance(self):
        rng = np.random.default_rng(4)
        x, mask = padded_batch(rng, LENGTHS, 3, 7, time_axis=2)
        x += 5.0 * (1.0 - mask[:, None, :])   # padding must not leak into the result
        w = Tensor(rng.normal(size=(2, 3, 3)))
        b = Tensor(rng.normal(size=2))
        out = conv1d_dilated(Tensor(x), w, b, dilation=2, lengths=LENGTHS).data
        for i, n in enumerate(LENGTHS):
            ref = conv1d_dilated(Tensor(x[i, :, :n]), w, b, dilation=2).data
            np.testing.assert_allclose(out[i, :, :n], ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("trial", range(10))
    def test_masked_conv_grads(self, trial):
        rng = np.random.default_rng(15000 + trial)
        x0, _ = padded_batch(rng, LENGTHS, 3, 7, time_axis=2)
        w0 = rng.uniform(-1.0, 1.0, size=(2, 3, 3))
        b0 = rng.uniform(-1.0, 1.0, size=2)
        fd_check(lambda x: conv1d_dilated(x, Tensor(w0), Tensor(b0), 2, LENGTHS), x0)
        fd_check(lambda w: conv1d_dilated(Tensor(x0), w, Tensor(b0), 2, LENGTHS), w0)
        fd_check(lambda b: conv1d_dilated(Tensor(x0), Tensor(w0), b, 2, LENGTHS), b0)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("masked", [False, True])
    def test_conv_matches_direct_reference(self, k, dilation, masked):
        rng = np.random.default_rng(100 * k + dilation)
        x, mask = padded_batch(rng, LENGTHS, 3, 7, time_axis=2)
        x += 5.0 * (1.0 - mask[:, None, :])   # junk padding
        w, b = rng.normal(size=(2, 3, k)), rng.normal(size=2)
        for xin, n in ((x, LENGTHS), (x[1], LENGTHS[1:2])):   # [B, C, T] and [C, T]
            n = n if masked else None
            out = conv1d_dilated(Tensor(xin), Tensor(w), Tensor(b), dilation, n).data
            np.testing.assert_allclose(out, conv_reference(xin, w, b, dilation, n),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("trial", range(10))
    def test_wide_dilated_conv_grads(self, trial):
        rng = np.random.default_rng(15200 + trial)
        x0, mask = padded_batch(rng, LENGTHS, 3, 7, time_axis=2)
        x0 += rng.uniform(-1.0, 1.0, size=x0.shape) * (1.0 - mask[:, None, :])  # junk padding
        w0 = rng.uniform(-1.0, 1.0, size=(2, 3, 5))
        b0 = rng.uniform(-1.0, 1.0, size=2)
        fd_check(lambda x: conv1d_dilated(x, Tensor(w0), Tensor(b0), 2, LENGTHS), x0)
        fd_check(lambda w: conv1d_dilated(Tensor(x0), w, Tensor(b0), 2, LENGTHS), w0)
        fd_check(lambda b: conv1d_dilated(Tensor(x0), Tensor(w0), b, 2, LENGTHS), b0)

    def test_conv_keeps_only_the_padded_input(self):
        rng = np.random.default_rng(21)
        shape = (8, 16, 200)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        w = Tensor(rng.normal(size=(16, 16, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=16), requires_grad=True)
        lengths = np.arange(130, 210, 10)
        full, slack = x.data.nbytes, x.data.nbytes // 8
        padded = full // 200 * (200 + 2 * 4)
        retained, peak = traced_bytes(lambda: conv1d_dilated(x, w, b, 4, lengths), shape)
        assert retained <= full + padded + slack     # the output and the padded input
        assert peak < 4.5 * full
        with no_grad():
            retained, _ = traced_bytes(lambda: conv1d_dilated(x, w, b, 4, lengths), shape)
        assert retained <= full + slack               # the output only

    @pytest.mark.parametrize("masked", [False, True])
    def test_pointwise_conv_matches_zero_padded_wide_kernel(self, masked):
        rng = np.random.default_rng(5)
        x, mask = padded_batch(rng, LENGTHS, 3, 7, time_axis=2)
        x += 5.0 * (1.0 - mask[:, None, :])   # junk padding
        w = rng.normal(size=(2, 3, 1))
        wide = np.zeros((2, 3, 3))
        wide[:, :, 1:2] = w                    # K=3 with zero side taps reads padded edges
        b = Tensor(rng.normal(size=2))
        for xin, n in ((x, LENGTHS), (x[1], LENGTHS[1:2])):   # [B, C, T] and [C, T]
            n = n if masked else None
            pointwise = conv1d_dilated(Tensor(xin), Tensor(w), b, lengths=n).data
            padded = conv1d_dilated(Tensor(xin), Tensor(wide), b, lengths=n).data
            np.testing.assert_allclose(pointwise, padded, rtol=0, atol=1e-12)
            assert pointwise.flags.c_contiguous and padded.flags.c_contiguous

    @pytest.mark.parametrize("trial", range(10))
    @pytest.mark.parametrize("masked", [False, True])
    def test_pointwise_conv_grads(self, trial, masked):
        rng = np.random.default_rng(15500 + trial)
        x0, mask = padded_batch(rng, LENGTHS, 3, 7, time_axis=2)
        x0 += rng.uniform(-1.0, 1.0, size=x0.shape) * (1.0 - mask[:, None, :])  # junk padding
        lengths = LENGTHS if masked else None
        w0 = rng.uniform(-1.0, 1.0, size=(2, 3, 1))
        b0 = rng.uniform(-1.0, 1.0, size=2)
        fd_check(lambda x: conv1d_dilated(x, Tensor(w0), Tensor(b0), lengths=lengths), x0)
        fd_check(lambda w: conv1d_dilated(Tensor(x0), w, Tensor(b0), lengths=lengths), w0)
        fd_check(lambda b: conv1d_dilated(Tensor(x0), Tensor(w0), b, lengths=lengths), b0)
        fd_check(lambda x: conv1d_dilated(x, Tensor(w0), Tensor(b0)), x0[0])

    @pytest.mark.parametrize("trial", range(10))
    def test_batched_matmul_grads(self, trial):
        rng = np.random.default_rng(16000 + trial)
        a0 = rng.uniform(-1.0, 1.0, size=(2, 3, 4))
        w0 = rng.uniform(-1.0, 1.0, size=(4, 5))
        m0 = rng.uniform(-1.0, 1.0, size=(2, 4, 2))
        fd_check(lambda a: a @ Tensor(w0), a0)
        fd_check(lambda a: a @ Tensor(m0), a0)
        fd_check(lambda w: Tensor(a0) @ w, w0)
        fd_check(lambda m: Tensor(a0) @ m, m0)
        fd_check(lambda a: Tensor(w0.T) @ a.T, a0)       # 2-D @ batched

    @pytest.mark.parametrize("trial", range(10))
    def test_masked_softmax_grads(self, trial):
        """The masked softmax behind attention_weights: rows past lengths[b] weigh exactly 0."""
        rng = np.random.default_rng(17000 + trial)
        x0 = rng.uniform(-1.0, 1.0, size=(3, 5, 2))
        w, b, v = (Tensor(rng.uniform(-1.0, 1.0, size=shape)) for shape in ((4, 2), (4,), (4,)))
        lengths = [5, 1, 3]
        out = attention_weights(Tensor(x0), w, b, v, lengths).data
        for row, n in zip(out, lengths):
            assert np.all(row[n:] == 0.0) and np.all(row[:n] > 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        fd_check(lambda x: attention_weights(x, w, b, v, lengths), x0)

    def test_backward_frees_interior_gradients(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        hidden = x * 3.0
        loss = (hidden * hidden).sum()
        loss.backward()
        assert hidden.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, [18.0, 36.0])


def _param(rng, *shape, low=-1.0, high=1.0):
    return Tensor(rng.uniform(low, high, size=shape), requires_grad=True)


NO_GRAD_OPS = {
    "elementwise": lambda rng: _param(rng, 3, 4) * _param(rng, 3, 4),
    "matmul": lambda rng: _param(rng, 3, 4) @ _param(rng, 4, 2),
    "conv1d": lambda rng: conv1d_dilated(_param(rng, 2, 3, 6), _param(rng, 4, 3, 3),
                                         _param(rng, 4), dilation=2),
    "group_norm": lambda rng: group_norm(_param(rng, 2, 4, 5), 2, _param(rng, 4, low=0.5),
                                         _param(rng, 4)),
    "layer_norm": lambda rng: layer_norm(_param(rng, 2, 3, 4), _param(rng, 4, low=0.5),
                                         _param(rng, 4)),
    "attention": lambda rng: multi_head_attention(_param(rng, 2, 5, 4), _param(rng, 2, 5, 4),
                                                  _param(rng, 2, 5, 4), 2),
}


def _linked(t: Tensor) -> bool:
    return t.requires_grad or t._parents != () or t._backward is not None


class TestNoGrad:
    """Inside no_grad() ops link no graph; outside, only grad-requiring nodes link."""

    @pytest.mark.parametrize("op", sorted(NO_GRAD_OPS))
    def test_op_links_nothing_and_gives_same_values(self, op):
        tracked = NO_GRAD_OPS[op](np.random.default_rng(40))
        with no_grad():
            free = NO_GRAD_OPS[op](np.random.default_rng(40))
        assert _linked(tracked)
        assert not _linked(free)
        assert free.data.tobytes() == tracked.data.tobytes()

    def test_non_finite_inside_no_grad_names_the_op(self):
        x = Tensor([0.0], requires_grad=True)
        with no_grad(), pytest.raises(NumericError, match="'log'"):
            x.log()

    def test_mode_restored_after_exception(self):
        x = Tensor([2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert _linked(x * x)

    def test_mode_restored_after_nesting(self):
        x = Tensor([2.0], requires_grad=True)
        with no_grad():
            with pytest.raises(RuntimeError):
                with no_grad():
                    raise RuntimeError("boom")
            assert not _linked(x * x)
            with no_grad():
                pass
            assert not _linked(x * x)
        assert _linked(x * x)

    def test_mode_is_per_thread(self):
        seen = []
        x = Tensor([2.0], requires_grad=True)
        with no_grad():
            worker = threading.Thread(target=lambda: seen.append(_linked(x * x)))
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen == [True]

    def test_mixed_graph_gradients_and_frozen_nodes(self):
        rng = np.random.default_rng(41)
        w0, x0 = rng.normal(size=(4, 2)), rng.normal(size=(3, 4))
        frozen = Tensor(w0)
        hidden = (frozen * 2.0) ** 2.0          # frozen-only: keeps no inputs
        x = Tensor(x0, requires_grad=True)
        out = x @ hidden
        (out * out).sum().backward()
        assert not _linked(hidden)
        assert out._parents == ()                # backward() released the graph it walked
        h = np.power(w0 * 2.0, 2.0)
        np.testing.assert_array_equal(x.grad, (2.0 * (x0 @ h)) @ h.T)
        assert frozen.grad is None
        with pytest.raises(SerkitError, match="op 'matmul' whose graph an earlier backward"):
            out.sum().backward()
        np.testing.assert_array_equal(x.grad, (2.0 * (x0 @ h)) @ h.T)
