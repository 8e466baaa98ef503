"""Numerics core: primitives, gradients, determinism, precision modes."""

import numpy as np
import pytest

from mac import tensor as tz
from mac.tensor import ContractError, ShapeError, Tensor

from conftest import check_gradients

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
            lambda: tz.tsum(tz.mul(tz.matmul(a, b), Tensor(w))), [a, b]
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
        check_gradients(lambda: tz.tsum(tz.mul(tz.matmul(a, b2), 0.3)), [a, b2])
        check_gradients(lambda: tz.tsum(tz.mul(tz.matmul(a, bb), 0.3)), [a, bb])


class TestSoftplus:
    def test_at_zero(self):
        assert abs(tz.softplus(Tensor(0.0)).item() - LN2) < 1e-15

    def test_large_input_no_overflow(self):
        out = tz.softplus(Tensor(100.0)).item()
        assert abs(out - 100.0) < 1e-12

    def test_matches_extended_precision_oracle(self):
        assert abs(tz.softplus(Tensor(-3.0)).item() - SOFTPLUS_NEG3) < 1e-12


class TestBackward:
    def test_quadratic_form(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = tz.tsum(tz.mul(w, w))
        grads = loss.backward()
        np.testing.assert_allclose(grads[w], [2.0, 4.0])

    def test_unused_leaf_gets_no_entry_and_zero_grad(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        u = Tensor([5.0], requires_grad=True)
        loss = tz.tsum(tz.mul(w, w))
        grads = loss.backward()
        assert u not in grads and u.grad is None

    def test_nonscalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError, match="scalar"):
            tz.mul(w, w).backward()

    def test_each_node_contributes_once(self):
        # diamond reuse: y = 2w + 3w must give gradient exactly 5
        w = Tensor(1.5, requires_grad=True)
        loss = tz.add(tz.mul(w, 2.0), tz.mul(w, 3.0))
        grads = loss.backward()
        assert grads[w] == 5.0

    def test_grad_accumulates_across_backward_calls(self):
        w = Tensor([2.0], requires_grad=True)
        tz.tsum(tz.mul(w, w)).backward()
        tz.tsum(tz.mul(w, w)).backward()
        np.testing.assert_allclose(w.grad, [8.0])


class TestPrimitiveGradients:
    """Every differentiable primitive vs central differences (small shapes)."""

    def test_elementwise_unary(self):
        rng = np.random.default_rng(2)
        for op in (tz.exp, tz.sigmoid, tz.silu, tz.softplus, tz.gelu, tz.relu, tz.neg):
            x = Tensor(rng.standard_normal((3, 5)) * 0.8 + 0.3)
            check_gradients(lambda op=op, x=x: tz.tsum(tz.mul(op(x), 0.7)), [x])

    def test_log_power_div(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(0.5, 2.0, (4, 3)))
        y = Tensor(rng.uniform(0.5, 2.0, (4, 3)))
        check_gradients(lambda: tz.tsum(tz.log(x)), [x])
        check_gradients(lambda: tz.tsum(tz.power(x, -0.5)), [x])
        check_gradients(lambda: tz.tsum(tz.div(x, y)), [x, y])

    def test_broadcast_binary(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.standard_normal((4, 1, 3)))
        b = Tensor(rng.standard_normal((1, 5, 3)))
        check_gradients(lambda: tz.tsum(tz.mul(tz.add(a, b), tz.mul(a, b))), [a, b])

    def test_reductions_and_shape_ops(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3, 4)))
        w = Tensor(rng.standard_normal((2, 4, 3)))
        check_gradients(lambda: tz.tsum(tz.mul(tz.tmean(x, axis=1), 2.0)), [x])
        check_gradients(
            lambda: tz.tsum(tz.mul(tz.transpose(x, (0, 2, 1)), w)), [x, w]
        )
        check_gradients(lambda: tz.tsum(tz.mul(tz.reshape(x, (6, 4)), 0.5)), [x])
        check_gradients(lambda: tz.tsum(tz.mul(x[:, 1:, :2], 3.0)), [x])
        check_gradients(
            lambda: tz.tsum(tz.mul(tz.concat([x, x], axis=2), 0.25)), [x]
        )
        check_gradients(
            lambda: tz.tsum(tz.mul(tz.broadcast_to(tz.reshape(x, (2, 3, 4, 1)), (2, 3, 4, 5)), 0.1)),
            [x],
        )

    def test_cumsum(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((3, 6)))
        scale = Tensor(rng.standard_normal((3, 6)))
        check_gradients(lambda: tz.tsum(tz.mul(tz.cumsum(x, axis=1), scale)), [x])

    def test_softmax(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((4, 6)))
        w = Tensor(rng.standard_normal((4, 6)))
        check_gradients(lambda: tz.tsum(tz.mul(tz.softmax(x, axis=-1), w)), [x])
        row_sums = tz.softmax(x, axis=-1).data.sum(axis=-1)
        np.testing.assert_allclose(row_sums, 1.0, atol=1e-12)

    def test_where_mask(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((5, 5)))
        keep = np.tril(np.ones((5, 5), dtype=bool))
        out = tz.where_mask(x, keep, -7.0)
        assert np.all(out.data[~keep] == -7.0)
        check_gradients(lambda: tz.tsum(tz.mul(tz.where_mask(x, keep, 0.0), 2.0)), [x])

    def test_embedding(self):
        rng = np.random.default_rng(9)
        table = Tensor(rng.standard_normal((7, 4)))
        ids = np.array([[1, 1, 3], [0, 6, 1]])
        w = Tensor(rng.standard_normal((2, 3, 4)))
        check_gradients(lambda: tz.tsum(tz.mul(tz.embedding(table, ids), w)), [table])

    def test_conv1d_depthwise_causal(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((2, 9, 3)))
        w = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal(3))
        scale = Tensor(rng.standard_normal((2, 9, 3)))
        cold = tz.zeros((2, 3, 3))

        # brute-force oracle: zero-padded causal window product
        out = tz.conv1d_depthwise_causal(x, w, b, cold).data
        expect = np.zeros_like(x.data)
        padded = np.concatenate([np.zeros((2, 3, 3)), x.data], axis=1)
        for t in range(9):
            for k in range(4):
                expect[:, t, :] += w.data[k] * padded[:, t + k, :]
        expect += b.data
        np.testing.assert_allclose(out, expect, atol=1e-14)

        check_gradients(
            lambda: tz.tsum(tz.mul(tz.conv1d_depthwise_causal(x, w, b, cold), scale)),
            [x, w, b],
        )
        warm = Tensor(rng.standard_normal((2, 3, 3)))
        check_gradients(
            lambda: tz.tsum(tz.mul(tz.conv1d_depthwise_causal(x, w, b, warm), scale)),
            [x, w, b, warm],
        )

    def test_conv1d_prefix_matches_long_sequence(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((1, 12, 2)))
        w = Tensor(rng.standard_normal((4, 2)))
        cold = tz.zeros((1, 3, 2))
        full = tz.conv1d_depthwise_causal(x, w, None, cold).data
        head = tz.conv1d_depthwise_causal(x[:, :5, :], w, None, cold).data
        tail = tz.conv1d_depthwise_causal(x[:, 5:, :], w, None, x[:, 2:5, :]).data
        np.testing.assert_allclose(np.concatenate([head, tail], axis=1), full, atol=1e-14)

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
        check_gradients(lambda: tz.tsum(tz.mul(tz.rms_norm(x, w), 0.3)), [x, w])


class TestInvariants:
    def test_reshape_transpose_round_trip(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((3, 4, 5)))
        back = tz.reshape(tz.reshape(x, (12, 5)), (3, 4, 5))
        np.testing.assert_array_equal(back.data, x.data)
        back = tz.transpose(tz.transpose(x, (2, 0, 1)), (1, 2, 0))
        np.testing.assert_array_equal(back.data, x.data)

    def test_seeded_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            a = Tensor(rng.standard_normal((6, 6)))
            b = Tensor(rng.standard_normal((6, 6)))
            return tz.matmul(tz.silu(a), tz.softmax(b, axis=-1)).data

        assert np.array_equal(run(), run())

    def test_debug_mode_flags_nonfinite(self):
        tz.set_debug_checks(True)
        try:
            with np.errstate(divide="ignore"):
                with pytest.raises(FloatingPointError):
                    tz.log(Tensor([0.0]))  # -inf
            with pytest.raises(FloatingPointError):
                Tensor([np.nan])
        finally:
            tz.set_debug_checks(False)

    def test_no_grad_suppresses_tape(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with tz.no_grad():
            y = tz.mul(x, x)
        assert not y.requires_grad and y._pairs == ()

    def test_float32_mode(self):
        with tz.using_dtype(np.float32):
            x = tz.zeros((3,))
            assert x.dtype == np.float32
            y = tz.add(x, tz.ones((3,)))
            assert y.dtype == np.float32
        assert tz.zeros((1,)).dtype == np.float64

    def test_cast_round_trip_through_graph(self):
        x = Tensor(np.linspace(-1, 1, 5), requires_grad=True)
        y = tz.tsum(tz.mul(tz.cast(tz.cast(x, np.float32), np.float64), 2.0))
        grads = y.backward()
        assert grads[x].dtype == np.float64
        np.testing.assert_allclose(grads[x], 2.0)


class TestOptim:
    def test_adamw_descends_quadratic(self):
        from mac import optim

        w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = optim.AdamW({"w": w}, lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            tz.tsum(tz.mul(w, w)).backward()
            opt.step()
        assert np.abs(w.data).max() < 1e-2

    def test_clip_norm_scales_to_bound(self):
        from mac import optim

        w = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        tz.tsum(tz.mul(w, w)).backward()  # grad (6, 8), norm 10
        norm = optim.clip_grad_norm({"w": w}, 1.0)
        assert abs(norm - 10.0) < 1e-12
        assert abs(np.linalg.norm(w.grad) - 1.0) < 1e-9

    def test_optimizer_skips_missing_grads(self):
        from mac import optim

        w = Tensor(np.array([1.0]), requires_grad=True)
        before = w.data.copy()
        optim.AdamW({"w": w}, lr=0.1).step()
        np.testing.assert_array_equal(w.data, before)
