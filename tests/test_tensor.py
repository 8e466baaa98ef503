"""Numerics core: primitives, gradients, determinism, precision modes."""

import math
import warnings

import numpy as np
import pytest

from mac import tensor as tz
from mac.tensor import ContractError, ShapeError, Tensor

import tensor_oracle
from conftest import check_gradients, recorded_nodes, rel_err
from tensor_oracle import broadcast_to, cast, cumsum, log, mul, take, transpose, tsum, where_mask

# ln(1 + e^-3) at 40-digit precision
SOFTPLUS_NEG3 = 0.04858735157374205875892591985469
LN2 = 0.6931471805599453094172321214581766


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = tz.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_projector(self):
        p = Tensor([[1.0, 0.0], [0.0, 0.0]])
        v = Tensor([[5.0], [7.0]])
        np.testing.assert_array_equal(tz.matmul(p, v).data, [[5.0], [0.0]])

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4, 2)))
        w = rng.standard_normal((3, 2))
        worst = check_gradients(
            lambda: tsum(mul(tz.matmul(a, b), Tensor(w))), [a, b]
        )
        assert worst < 1e-6

    def test_inner_extent_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
            tz.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))

    def test_batched_and_shared_rhs(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((5, 3, 4)))
        b2 = Tensor(rng.standard_normal((4, 2)))
        bb = Tensor(rng.standard_normal((5, 4, 2)))
        np.testing.assert_allclose(tz.matmul(a, b2).data, a.data @ b2.data)
        np.testing.assert_allclose(tz.matmul(a, bb).data, a.data @ bb.data)
        check_gradients(lambda: tsum(mul(tz.matmul(a, b2), 0.3)), [a, b2])
        check_gradients(lambda: tsum(mul(tz.matmul(a, bb), 0.3)), [a, bb])

    @pytest.mark.parametrize("b_shape", [(4, 2), (5, 4, 2)], ids=["shared", "batched"])
    def test_a_frozen_operand_leaves_the_live_gradient_bit_identical(self, monkeypatch, b_shape):
        rng = np.random.default_rng(7)
        a_data, b_data = rng.standard_normal((5, 3, 4)), rng.standard_normal(b_shape)
        w = rng.standard_normal((5, 3, 2))
        products = []
        real_matmul = np.matmul
        monkeypatch.setattr(np, "matmul",
                            lambda *args, **kw: products.append(1) or real_matmul(*args, **kw))

        def grads(live_a, live_b):
            a, b = Tensor(a_data, requires_grad=live_a), Tensor(b_data, requires_grad=live_b)
            loss = tsum(mul(tz.matmul(a, b), w))
            products.clear()
            got = loss.backward()
            return got.get(a), got.get(b), len(products)

        ga, gb, n_both = grads(True, True)
        ga_alone, none_b, n_a = grads(True, False)
        none_a, gb_alone, n_b = grads(False, True)
        assert none_a is None and none_b is None
        np.testing.assert_array_equal(ga_alone, ga)
        np.testing.assert_array_equal(gb_alone, gb)
        assert (n_both, n_a, n_b) == (2, 1, 1)  # a frozen side's product is never taken


class TestSoftplus:
    def test_at_zero(self):
        assert abs(tz._softplus(np.float64(0.0)) - LN2) < 1e-15

    def test_large_input_no_overflow(self):
        out = tz._softplus(np.float64(100.0))
        assert abs(out - 100.0) < 1e-12

    def test_matches_extended_precision_oracle(self):
        assert abs(tz._softplus(np.float64(-3.0)) - SOFTPLUS_NEG3) < 1e-12


def _sigmoid_ref(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


GELU_C = math.sqrt(2.0 / math.pi)
# per-element references, each in a form that neither overflows nor cancels
ACTIVATION_REFS = {
    "silu": lambda x: x * _sigmoid_ref(x),
    "softplus": lambda x: max(x, 0.0) + math.log1p(math.exp(-abs(x))),
    "softplus slope": _sigmoid_ref,
    # 0.5 x (1 + tanh u) = x sigmoid(2u)
    "gelu": lambda x: x * _sigmoid_ref(2.0 * GELU_C * (x + 0.044715 * x * x * x)),
}
ACTIVATION_POINTS = (-700.0, -80.0, -30.0, -1.0, 0.0, 1.0, 30.0, 80.0, 700.0)
ACTIVATION_ULPS = 4


class TestActivationAccuracy:
    """silu, softplus, its slope and gelu against math, in both tails."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_within_a_few_ulps_of_math_reference(self, dtype):
        # fp32 keeps |x| <= 80, where exp(-|x|) is still a normal number
        limit = 700.0 if dtype == np.float64 else 80.0
        points = [p for p in ACTIVATION_POINTS if abs(p) <= limit]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = Tensor(np.array(points, dtype=dtype), requires_grad=True)
            got = {
                "silu": tensor_oracle.silu(x).data,
                "softplus": tz._softplus(x.data),
                "softplus slope": tz._sigmoid(x.data),
                "gelu": tensor_oracle.gelu(x).data,
            }
        bound = ACTIVATION_ULPS * float(np.finfo(dtype).eps)
        for name, values in got.items():
            assert values.dtype == dtype, (name, values.dtype)
            for p, v in zip(points, values):
                ref = ACTIVATION_REFS[name](p)
                assert abs(float(v) - ref) <= bound * abs(ref), (name, p, float(v), ref)


class TestBackward:
    def test_quadratic_form(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = tsum(mul(w, w))
        grads = loss.backward()
        np.testing.assert_allclose(grads[w], [2.0, 4.0])

    def test_unused_leaf_gets_no_entry(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        u = Tensor([5.0], requires_grad=True)
        loss = tsum(mul(w, w))
        grads = loss.backward()
        assert u not in grads

    def test_nonscalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError, match="scalar"):
            mul(w, w).backward()

    def test_each_node_contributes_once(self):
        # diamond reuse: y = 2w + 3w must give gradient exactly 5
        w = Tensor(1.5, requires_grad=True)
        loss = tz.add(mul(w, 2.0), mul(w, 3.0))
        grads = loss.backward()
        assert grads[w] == 5.0

    def test_a_fused_node_runs_its_adjoint_once_per_backward(self):
        a, c = Tensor([1.0, 2.0], requires_grad=True), Tensor([5.0, 6.0], requires_grad=True)
        b = Tensor([3.0, 4.0])
        calls = []

        def vjp(g):
            calls.append(g)
            return [2.0 * g, g, 3.0 * g]  # the frozen b's share reaches nothing

        out = tz.fused(2.0 * a.data + b.data + 3.0 * c.data, [a, b, c], vjp)
        assert out._pairs == ((a, 0), (c, 2))
        loss = tsum(tz.add(out, out))  # two uses, whose gradients meet before the adjoint
        for n in (1, 2):
            grads = loss.backward()
            assert len(calls) == n
            assert list(grads) == [a, c]
            np.testing.assert_array_equal(grads[a], [4.0, 4.0])
            np.testing.assert_array_equal(grads[c], [6.0, 6.0])

    def test_each_backward_call_stands_alone(self):
        # two calls on one graph, whose leaf w is used twice, return equal
        # gradients, and no tensor of the graph keeps one
        w = Tensor([2.0], requires_grad=True)
        x = Tensor([3.0])
        square, scaled = mul(w, w), mul(w, x)
        loss = tsum(tz.add(square, scaled))
        first, second = loss.backward(), loss.backward()
        assert list(first) == list(second) == [w]
        np.testing.assert_array_equal(first[w], [7.0])  # 2w + x
        np.testing.assert_array_equal(second[w], first[w])
        assert not any(hasattr(t, "grad") for t in (w, x, square, scaled, loss))


class TestPrimitiveGradients:
    """Every differentiable primitive vs central differences (small shapes)."""

    def test_elementwise_unary(self):
        rng = np.random.default_rng(2)
        for op in (tensor_oracle.exp, tensor_oracle.silu, tensor_oracle.softplus,
                   tensor_oracle.gelu, tensor_oracle.relu, tensor_oracle.neg):
            x = Tensor(rng.standard_normal((3, 5)) * 0.8 + 0.3)
            check_gradients(lambda op=op, x=x: tsum(mul(op(x), 0.7)), [x])

    def test_log_and_oracle_power(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(0.5, 2.0, (4, 3)))
        check_gradients(lambda: tsum(log(x)), [x])
        check_gradients(lambda: tsum(tensor_oracle.power(x, -0.5)), [x])
        check_gradients(lambda: tsum(tensor_oracle.power(x, -1.0)), [x])

    def test_broadcast_binary(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.standard_normal((4, 1, 3)))
        b = Tensor(rng.standard_normal((1, 5, 3)))
        check_gradients(lambda: tsum(mul(tz.add(a, b), mul(a, b))), [a, b])

    def test_reductions_and_shape_ops(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3, 4)))
        w = Tensor(rng.standard_normal((2, 4, 3)))
        check_gradients(lambda: tsum(mul(tensor_oracle.tmean(x, axis=1), 2.0)), [x])
        check_gradients(
            lambda: tsum(mul(transpose(x, (0, 2, 1)), w)), [x, w]
        )
        check_gradients(lambda: tsum(mul(tz.reshape(x, (6, 4)), 0.5)), [x])
        check_gradients(lambda: tsum(mul(take(x, np.s_[:, 1:, :2]), 3.0)), [x])
        check_gradients(
            lambda: tsum(mul(tz.concat([x, x], axis=2), 0.25)), [x]
        )
        check_gradients(
            lambda: tsum(mul(broadcast_to(tz.reshape(x, (2, 3, 4, 1)), (2, 3, 4, 5)), 0.1)),
            [x],
        )

    def test_concat_of_unequal_parts_with_a_frozen_middle(self):
        rng = np.random.default_rng(8)
        first, middle, last = (Tensor(rng.standard_normal((2, n, 3))) for n in (1, 4, 2))
        w = Tensor(rng.standard_normal((2, 7, 3)))
        check_gradients(lambda: tsum(mul(tz.concat([first, middle, last], axis=-2), w)),
                        [first, last])
        out = tz.concat([first, middle, last], axis=-2)
        assert out._pairs == ((first, 0), (last, 2))
        assert middle not in tsum(mul(out, w)).backward()

    def test_cumsum(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((3, 6)))
        scale = Tensor(rng.standard_normal((3, 6)))
        check_gradients(lambda: tsum(mul(cumsum(x, axis=1), scale)), [x])

    def test_where_mask(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((5, 5)))
        keep = np.tril(np.ones((5, 5), dtype=bool))
        out = where_mask(x, keep, -7.0)
        assert np.all(out.data[~keep] == -7.0)
        check_gradients(lambda: tsum(mul(where_mask(x, keep, 0.0), 2.0)), [x])

    def test_embedding(self):
        rng = np.random.default_rng(9)
        table = Tensor(rng.standard_normal((7, 4)))
        ids = np.array([[1, 1, 3], [0, 6, 1]])
        w = Tensor(rng.standard_normal((2, 3, 4)))
        check_gradients(lambda: tsum(mul(tz.embedding([table], ids), w)), [table])
        # stacked tables: rows 0-2 are the first's, 3 the frozen one's, 4-8 the last's
        first, last = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((5, 4)))
        frozen = Tensor(rng.standard_normal((1, 4)))
        ids = np.array([[4, 0, 3], [8, 3, 0]])
        out = tz.embedding([first, frozen, last], ids)
        assert np.array_equal(out.data, np.concatenate([first.data, frozen.data, last.data])[ids])
        check_gradients(lambda: tsum(mul(tz.embedding([first, frozen, last], ids), w)),
                        [first, last])
        grads = tsum(mul(tz.embedding([first, frozen, last], ids), w)).backward()
        assert frozen not in grads and not grads[first][1:].any()

    # K = 1 has an empty prefix; T = 1 and 2 are shorter than K-1 = 3 at K = 4
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("t", [1, 2, 9])
    @pytest.mark.parametrize("warm", [False, True])
    def test_conv1d_depthwise_causal(self, k, t, warm):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, t, 3))
        w = rng.standard_normal((k, 3))
        b = rng.standard_normal(3)
        prefix = rng.standard_normal((2, k - 1, 3)) if warm else np.zeros((2, k - 1, 3))

        # bit for bit the composed conv: each row's taps add in order 0..K-1
        out, tail = tz.conv1d_depthwise_causal(x, w, b, prefix)
        want = tensor_oracle.conv1d_depthwise_causal(Tensor(x), Tensor(w), Tensor(b),
                                                     Tensor(prefix))
        np.testing.assert_array_equal(out, want[0].data)
        np.testing.assert_array_equal(tail, want[1].data)
        # the tail is the last K-1 rows of [prefix, x], prefix rows included when T < K-1
        np.testing.assert_array_equal(tail, np.concatenate([prefix, x], axis=1)[:, t:])

        # the output takes x's dtype, also against float64 weights
        out32, _ = tz.conv1d_depthwise_causal(x.astype(np.float32), w, b,
                                              prefix.astype(np.float32))
        assert out32.dtype == np.float32

    def test_conv1d_prefix_matches_long_sequence(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 12, 2))
        w = rng.standard_normal((4, 2))
        cold = np.zeros((1, 3, 2))
        full = tz.conv1d_depthwise_causal(x, w, None, cold)[0]
        head, carried = tz.conv1d_depthwise_causal(x[:, :5, :], w, None, cold)
        rest = tz.conv1d_depthwise_causal(x[:, 5:, :], w, None, carried)[0]
        np.testing.assert_allclose(np.concatenate([head, rest], axis=1), full, atol=1e-14)

    def test_conv1d_oracle_gradients(self):
        # the composed conv the array kernel's adjoints are checked against
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((2, 9, 3)))
        w = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal(3))
        scale = Tensor(rng.standard_normal((2, 9, 3)))
        tail_scale = Tensor(rng.standard_normal((2, 3, 3)))
        cold = tz.zeros((2, 3, 3))

        def loss(prefix):  # through the output and the tail
            out, tail = tensor_oracle.conv1d_depthwise_causal(x, w, b, prefix)
            return tz.add(tsum(mul(out, scale)), tsum(mul(tail, tail_scale)))

        check_gradients(lambda: loss(cold), [x, w, b])
        warm = Tensor(rng.standard_normal((2, 3, 3)))
        check_gradients(lambda: loss(warm), [x, w, b, warm])
        out, tail = tensor_oracle.conv1d_depthwise_causal(x, w, b, warm)
        want = tz.conv1d_depthwise_causal(x.data, w.data, b.data, warm.data)
        np.testing.assert_allclose(out.data, want[0], atol=1e-14)
        np.testing.assert_array_equal(tail.data, want[1])

    # T = 1 and 2 are shorter than the K-1 = 3 prefix rows at K = 4
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("t", [1, 2, 9])
    @pytest.mark.parametrize("warm", [False, True])
    def test_conv1d_adjoints_match_the_composed_oracle(self, k, t, warm):
        # the input's gradient; the prefix is a constant of the block
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((2, t, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((k, 3)))  # frozen in the block
        prefix = Tensor(rng.standard_normal((2, k - 1, 3)) if warm else np.zeros((2, k - 1, 3)))
        g = rng.standard_normal((2, t, 3))
        out, _ = tensor_oracle.conv1d_depthwise_causal(x, w, None, prefix)
        grads = tsum(mul(out, Tensor(g))).backward()
        gx = np.zeros(x.shape)
        tz._conv1d_input_grad(g, w.data, gx)
        assert rel_err(gx, grads[x]) < 1e-12

    def test_cross_entropy(self):
        rng = np.random.default_rng(12)
        logits = Tensor(rng.standard_normal((2, 5, 7)))
        targets = rng.integers(0, 7, (2, 5))
        mask = (rng.uniform(size=(2, 5)) > 0.4).astype(float)
        mask[0, 0] = 1.0  # keep at least one position

        # manual oracle
        z = logits.data
        lse = np.log(np.exp(z - z.max(-1, keepdims=True)).sum(-1)) + z.max(-1)
        picked = np.take_along_axis(z, targets[..., None], axis=-1)[..., 0]
        expect = ((lse - picked) * mask).sum() / mask.sum()
        got = tz.cross_entropy(logits, targets, mask)
        assert abs(got.item() - expect) < 1e-12

        check_gradients(lambda: tz.cross_entropy(logits, targets, mask), [logits])

    def test_cross_entropy_uniform_logits_is_log_vocab(self):
        v = 64
        logits = Tensor(np.zeros((3, 4, v)))
        targets = np.zeros((3, 4), dtype=int)
        loss = tz.cross_entropy(logits, targets, np.ones((3, 4)))
        assert abs(loss.item() - np.log(v)) < 1e-12

        rng = np.random.default_rng(13)
        noisy = Tensor(rng.uniform(0, 1, (8, 16, v)))
        targets = rng.integers(0, v, (8, 16))
        loss = tz.cross_entropy(noisy, targets, np.ones((8, 16)))
        assert abs(loss.item() - np.log(v)) / np.log(v) < 0.05

    def test_cross_entropy_empty_mask_rejected(self):
        with pytest.raises(ContractError):
            tz.cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(2, dtype=int), np.zeros(2))

    def test_rms_norm(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((3, 8)))
        w = Tensor(rng.uniform(0.5, 1.5, 8))
        out = tz.rms_norm(x, w).data
        expect = x.data / np.sqrt((x.data**2).mean(-1, keepdims=True) + 1e-5) * w.data
        np.testing.assert_allclose(out, expect, atol=1e-12)
        check_gradients(lambda: tsum(mul(tz.rms_norm(x, w), 0.3)), [x, w])


class TestRmsNormKernel:
    """The one-node ``rms_norm`` against the composed oracle in ``tests/``."""

    @staticmethod
    def value_and_grads(norm, shape, dtype, weight_trainable=True):
        rng = np.random.default_rng(16)
        # row scales from 1e-3 upward, so eps matters in some rows
        scale = np.logspace(-3, 1, int(np.prod(shape[:-1]))).reshape(shape[:-1] + (1,))
        x = Tensor(rng.standard_normal(shape) * scale, requires_grad=True, dtype=dtype)
        w = Tensor(rng.uniform(0.5, 1.5, shape[-1]), requires_grad=weight_trainable,
                   dtype=dtype)
        probe = Tensor(rng.standard_normal(shape), dtype=dtype)
        out = norm(x, w)
        grads = tsum(mul(out, probe)).backward()
        return out.data, grads[x], grads.get(w)

    @pytest.mark.parametrize("shape", [(3, 5, 8), (8,)])
    # in fp32 the oracle's scalar constants (eps, 1/D) promote it to fp64, so
    # the bound is the kernel's own fp32 rounding over a sum of D squares
    @pytest.mark.parametrize("dtype,bound", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_value_and_gradients_match_oracle(self, shape, dtype, bound):
        got = self.value_and_grads(tz.rms_norm, shape, dtype)
        want = self.value_and_grads(tensor_oracle.rms_norm, shape, dtype)
        for name, a, b in zip(("value", "grad x", "grad weight"), got, want):
            assert a.dtype == dtype, name
            assert rel_err(a, b) < bound, (name, rel_err(a, b))

    def test_frozen_weight_gets_no_gradient(self):
        got = self.value_and_grads(tz.rms_norm, (2, 4, 6), np.float64, False)
        want = self.value_and_grads(tensor_oracle.rms_norm, (2, 4, 6), np.float64, False)
        assert got[2] is None and want[2] is None
        assert rel_err(got[1], want[1]) < 1e-12

    def test_one_call_records_one_tape_node(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        w = Tensor(np.ones(4), requires_grad=True)
        assert recorded_nodes(tz.rms_norm(x, w)) == 1
        assert recorded_nodes(tensor_oracle.rms_norm(x, w)) == 7


class TestInvariants:
    def test_reshape_transpose_round_trip(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((3, 4, 5)))
        back = tz.reshape(tz.reshape(x, (12, 5)), (3, 4, 5))
        np.testing.assert_array_equal(back.data, x.data)
        back = transpose(transpose(x, (2, 0, 1)), (1, 2, 0))
        np.testing.assert_array_equal(back.data, x.data)

    def test_seeded_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            a = Tensor(rng.standard_normal((6, 6)))
            b = Tensor(rng.standard_normal((6, 6)))
            return tz.matmul(tensor_oracle.silu(a), tensor_oracle.gelu(b)).data

        assert np.array_equal(run(), run())

    def test_no_grad_suppresses_tape(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with tz.no_grad():
            y = mul(x, x)
        assert not y.requires_grad and y._pairs == ()

    def test_float32_mode(self):
        x = tz.zeros((3,), dtype=np.float32)
        assert x.dtype == np.float32
        y = tz.add(x, tz.ones((3,), dtype=np.float32))
        assert y.dtype == np.float32
        # with no dtype given, a constructor makes float64, and so does
        # Tensor from non-float input
        assert tz.zeros((1,)).dtype == tz.ones((1,)).dtype == np.float64
        assert Tensor([1, 2]).dtype == np.float64

    def test_python_scalar_takes_the_tensor_dtype(self):
        x = Tensor(np.linspace(-1, 1, 4), dtype=np.float32, requires_grad=True)
        for out in (mul(x, 0.5), mul(0.5, x), tz.add(x, 1), tz.add(-1.5, x)):
            assert out.dtype == np.float32
        assert tsum(mul(x, 0.5)).backward()[x].dtype == np.float32
        # fp64 results are what numpy gives for the plain arrays
        v = np.random.default_rng(16).standard_normal(5)
        assert np.array_equal(mul(Tensor(v), 0.1).data, v * 0.1)
        assert np.array_equal(tz.add(1e-5, Tensor(v)).data, 1e-5 + v)

    def test_take_returns_a_view(self):
        x = Tensor(np.random.default_rng(17).standard_normal((2, 3, 4)), requires_grad=True)
        y = take(x, np.s_[:, 1:, :2])
        assert np.shares_memory(y.data, x.data)
        np.testing.assert_array_equal(y.data, x.data[:, 1:, :2])
        expected = np.zeros(x.shape)
        expected[:, 1:, :2] = 3.0
        np.testing.assert_array_equal(tsum(mul(y, 3.0)).backward()[x], expected)
        assert take(x, (1, 2, 3)).data.shape == ()  # a full integer index gives a 0-d array

    def test_cast_round_trip_through_graph(self):
        x = Tensor(np.linspace(-1, 1, 5), requires_grad=True)
        y = tsum(mul(cast(cast(x, np.float32), np.float64), 2.0))
        grads = y.backward()
        assert grads[x].dtype == np.float64
        np.testing.assert_allclose(grads[x], 2.0)


class TestOptim:
    def test_adamw_descends_quadratic(self):
        from mac import optim

        w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = optim.AdamW({"w": w}, lr=0.1)
        for _ in range(200):
            opt.step({"w": tsum(mul(w, w)).backward()[w]})
        assert np.abs(w.data).max() < 1e-2

    def test_clip_norm_scales_to_bound(self):
        from mac import optim

        w = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        grads = {"w": tsum(mul(w, w)).backward()[w]}  # (6, 8), norm 10
        clipped, norm = optim.clip_grad_norm(grads, 1.0)
        assert abs(norm - 10.0) < 1e-12
        assert abs(np.linalg.norm(clipped["w"]) - 1.0) < 1e-9
        np.testing.assert_array_equal(grads["w"], [6.0, 8.0])  # scaled into new arrays
        for bound in (0.0, 10.0):  # off, and not exceeded: the argument comes back
            kept, unscaled = optim.clip_grad_norm(grads, bound)
            assert kept is grads and unscaled == norm

    def test_clip_scales_a_shared_gradient_once(self):
        from mac import optim

        # equal-shape operands of an add get one gradient array between them
        a = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        grads = tsum(tz.add(a, b)).backward()
        assert grads[a] is grads[b]
        # grads (1, 1) twice, norm 2
        clipped, norm = optim.clip_grad_norm({"a": grads[a], "b": grads[b]}, 1.0)
        assert abs(norm - 2.0) < 1e-12
        np.testing.assert_allclose(clipped["a"], 0.5, rtol=1e-9)
        np.testing.assert_allclose(clipped["b"], 0.5, rtol=1e-9)
        np.testing.assert_array_equal(grads[a], 1.0)

    def test_optimizer_skips_missing_grads(self):
        from mac import optim

        w = Tensor(np.array([1.0]), requires_grad=True)
        before = w.data.copy()
        optim.AdamW({"w": w}, lr=0.1).step({})
        np.testing.assert_array_equal(w.data, before)
