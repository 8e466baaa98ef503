"""Selective-scan kernels: discretization, three-mode equivalence, FLOPs."""

import weakref

import numpy as np
import pytest

from mac import ssd
from mac import tensor as tz
from mac.tensor import ContractError, ShapeError, Tensor

import ssd_oracle
from conftest import check_gradients, rel_err
from ssd_oracle import TapedParams, taped_scan
from tensor_oracle import exp, mul, neg, softplus, tsum

E_NEG1 = 0.3678794411714423215955237701614609


def random_params(rng, t=16, h=4, p=16, g=1, n=16, batch=1, dtype=np.float64):
    return ssd.SelectiveParams(
        dt=tz._softplus(rng.standard_normal((batch, t, h)).astype(dtype)),
        a=-np.exp(rng.standard_normal(h).astype(dtype)),
        B=rng.standard_normal((batch, t, g, n)).astype(dtype),
        C=rng.standard_normal((batch, t, g, n)).astype(dtype),
        x=rng.standard_normal((batch, t, h, p)).astype(dtype),
    )


def rows(params, lo, hi):
    """Time steps lo:hi of every sequence in params."""
    return ssd.SelectiveParams(params.dt[:, lo:hi], params.a, params.B[:, lo:hi],
                               params.C[:, lo:hi], params.x[:, lo:hi])


def scalar_params(abar, bcoef, c, xs):
    """1-head 1-dim chain with prescribed abar/bbar via dt=1, a=ln(abar), B=bbar,
    as a batch of one."""
    t = len(xs)
    return ssd.SelectiveParams(
        dt=np.ones((1, t, 1)),
        a=np.array([np.log(abar)]),
        B=np.full((1, t, 1, 1), bcoef),
        C=np.full((1, t, 1, 1), c),
        x=np.asarray(xs, dtype=float).reshape(1, t, 1, 1),
    )


class TestDiscretizeZoh:
    """The Mamba-2 rule abar = exp(dt*a), bbar = dt*B, read off one scan
    step from a state h0: y = C (abar h0 + bbar x) with C = 1."""

    @staticmethod
    def one_step(dt, a, b, x, h0):
        params = ssd.SelectiveParams(dt=np.array([[[dt]]]), a=np.array([a]),
                                     B=np.full((1, 1, 1, 1), b), C=np.ones((1, 1, 1, 1)),
                                     x=np.full((1, 1, 1, 1), x))
        y, _ = ssd.scan_recurrent(params, initial=np.full((1, 1, 1, 1), h0))
        return y.item()

    def test_mamba2_rule(self):
        assert abs(self.one_step(0.5, -2.0, 0.0, 0.0, 1.0) - E_NEG1) < 1e-15  # abar
        assert abs(self.one_step(0.5, -2.0, 1.0, 3.0, 0.0) - 1.5) < 1e-15  # bbar x

    def test_vanishing_decay_limit(self):
        # dt*a -> 0: abar -> 1, bbar -> dt*B
        assert abs(self.one_step(0.5, -1e-9, 0.0, 0.0, 1.0) - 1.0) < 1e-9
        assert abs(self.one_step(0.5, -1e-9, 1.0, 3.0, 0.0) - 1.5) < 1e-15


class TestScanRecurrent:
    def test_hand_unrolled_chain(self):
        params = scalar_params(abar=0.5, bcoef=1.0, c=1.0, xs=[1.0, 1.0, 1.0])
        y, final = ssd.scan_recurrent(params)
        np.testing.assert_allclose(y.reshape(-1), [1.0, 1.5, 1.75], atol=1e-15)
        np.testing.assert_allclose(final.reshape(-1), [1.75], atol=1e-15)

    def test_zero_input_coupling(self):
        params = scalar_params(abar=0.5, bcoef=0.0, c=1.0, xs=[1.0, 2.0, 3.0])
        y, _ = ssd.scan_recurrent(params)
        np.testing.assert_array_equal(y, np.zeros_like(y))

    def test_split_scan_invariance(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, t=20)
        full, _ = ssd.scan_recurrent(params)
        for k in (1, 7, 13, 19):
            y1, carry = ssd.scan_recurrent(rows(params, 0, k))
            y2, _ = ssd.scan_recurrent(rows(params, k, 20), initial=carry)
            joined = np.concatenate([y1, y2], axis=1)
            assert np.abs(joined - full).max() <= 1e-12

    def test_rejects_nonpositive_dt(self):
        params = scalar_params(0.5, 1.0, 1.0, [1.0])
        params.dt = np.array([[[0.0]]])
        with pytest.raises(ContractError, match="dt"):
            ssd.scan_recurrent(params)

    def test_rejects_nonnegative_a(self):
        params = scalar_params(0.5, 1.0, 1.0, [1.0])
        params.a = np.array([0.1])
        with pytest.raises(ContractError, match="a"):
            ssd.scan_recurrent(params)


class TestScanConvolutional:
    def test_time_invariant_kernel(self):
        # impulse input reads out the kernel (C bbar, C abar bbar, ...)
        params = scalar_params(abar=0.5, bcoef=1.0, c=1.0, xs=[1.0, 0.0, 0.0])
        y, _ = ssd.scan_convolutional(params)
        np.testing.assert_allclose(y.reshape(-1), [1.0, 0.5, 0.25], atol=1e-15)

    def test_zero_input(self):
        params = scalar_params(abar=0.7, bcoef=1.0, c=1.0, xs=[0.0, 0.0, 0.0, 0.0])
        y, _ = ssd.scan_convolutional(params)
        np.testing.assert_array_equal(y, np.zeros_like(y))

    def test_matches_recurrent_oracle_time_varying(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, t=17, g=2, n=6, p=5)
        expect, _ = ssd.scan_recurrent(params)
        got, _ = ssd.scan_convolutional(params)
        assert np.abs(got - expect).max() <= 1e-10

    def test_nonzero_initial_state_matches_recurrent(self):
        # a carried state enters the single chunk like any other
        rng = np.random.default_rng(16)
        params = random_params(rng, t=11, g=2, n=6, p=5, batch=2)
        init = rng.standard_normal((2, 4, 5, 6))
        expect, ef = ssd.scan_recurrent(params, initial=init)
        got, gf = ssd.scan_convolutional(params, initial=init)
        assert np.abs(got - expect).max() <= 1e-10
        assert np.abs(gf - ef).max() <= 1e-10


class TestScanChunked:
    def test_single_chunk_equals_convolutional_with_carry(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, t=12)
        y_conv, final_conv = ssd.scan_convolutional(params)
        y_chunk, final = ssd.scan_chunked(params, chunk_len=12)
        y_rec, final_rec = ssd.scan_recurrent(params)
        assert np.abs(y_chunk - y_conv).max() <= 1e-12
        assert np.abs(final - final_rec).max() <= 1e-10
        assert np.abs(final_conv - final_rec).max() <= 1e-10

    def test_chunk_len_one_is_recurrent_path(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, t=9)
        y1, f1 = ssd.scan_chunked(params, chunk_len=1)
        y2, f2 = ssd.scan_recurrent(params)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(f1, f2)

    def test_random_chunked_matches_recurrent(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, t=64)
        expect, ef = ssd.scan_recurrent(params)
        got, gf = ssd.scan_chunked(params, chunk_len=16)
        assert np.abs(got - expect).max() <= 1e-8
        assert np.abs(gf - ef).max() <= 1e-8

    def test_ragged_tail_and_initial_state(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, t=23)
        init = rng.standard_normal((1, 4, 16, 16))
        expect, ef = ssd.scan_recurrent(params, initial=init)
        got, gf = ssd.scan_chunked(params, chunk_len=7, initial=init)
        assert np.abs(got - expect).max() <= 1e-8
        assert np.abs(gf - ef).max() <= 1e-8

    def test_chunk_len_zero_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ContractError):
            ssd.scan_chunked(random_params(rng, t=4), chunk_len=0)

    def test_float32_inputs_carry_state_in_float64(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, t=40, dtype=np.float32)
        y, final = ssd.scan_chunked(params, chunk_len=8)
        assert y.dtype == np.float32 and final.dtype == np.float32


class TestProperties:
    def test_three_mode_equivalence_property(self):
        rng = np.random.default_rng(9)
        for case in range(40):
            t = int(rng.integers(1, 65))
            g = int(rng.choice([1, 2]))
            params = random_params(rng, t=t, g=g, n=8, p=6, h=4)
            y_rec, _ = ssd.scan_recurrent(params)
            y_conv, _ = ssd.scan_convolutional(params)
            y_chunk, _ = ssd.scan_chunked(params, chunk_len=16)
            assert np.abs(y_rec - y_conv).max() <= 1e-8, f"case {case}"
            assert np.abs(y_rec - y_chunk).max() <= 1e-8, f"case {case}"

    def test_each_row_matches_its_batch_of_one(self):
        rng = np.random.default_rng(11)
        batched = random_params(rng, t=21, batch=3)
        yb, fb = ssd.scan_chunked(batched, chunk_len=8)
        for i in range(3):
            single = ssd.SelectiveParams(batched.dt[i : i + 1], batched.a, batched.B[i : i + 1],
                                         batched.C[i : i + 1], batched.x[i : i + 1])
            ys, fs = ssd.scan_chunked(single, chunk_len=8)
            assert np.abs(yb[i : i + 1] - ys).max() <= 1e-12
            assert np.abs(fb[i : i + 1] - fs).max() <= 1e-12

    def test_stability_no_state_explosion(self):
        rng = np.random.default_rng(12)
        t = 4096
        params = random_params(rng, t=t, h=2, p=3, n=4)
        # step one token at a time so every intermediate state is seen
        final, peak = None, 0.0
        for s in range(t):
            _, final = ssd.scan_recurrent(rows(params, s, s + 1), initial=final)
            peak = max(peak, np.abs(final).max())
        abar = np.exp(params.dt * params.a)
        bbar_x = (
            params.dt[0, :, :, None, None]
            * params.B[0, :, 0][:, None, None, :]
            * params.x[0, :, :, :, None]
        )
        worst_decay = abar.max()
        bound = np.abs(bbar_x).max() / (1.0 - worst_decay)
        assert peak <= bound + 1e-9
        assert np.isfinite(final).all()

    def test_gradients_match_across_modes_and_fd(self):
        rng = np.random.default_rng(13)
        t, h, p, g, n = 7, 2, 3, 1, 4
        dt_raw = Tensor(rng.standard_normal((1, t, h)), requires_grad=True)
        log_a = Tensor(rng.standard_normal(h))  # a is a constant of the scan
        bmat = Tensor(rng.standard_normal((1, t, g, n)), requires_grad=True)
        cmat = Tensor(rng.standard_normal((1, t, g, n)), requires_grad=True)
        x = Tensor(rng.standard_normal((1, t, h, p)), requires_grad=True)
        h0 = Tensor(rng.standard_normal((1, h, p, n)))  # so is the entering state
        w = Tensor(rng.standard_normal((1, t, h, p)))
        leaves = [dt_raw, bmat, cmat, x]

        def loss_for(mode):
            def fn():
                params = TapedParams(dt=softplus(dt_raw), a=neg(exp(log_a)), B=bmat, C=cmat, x=x)
                y, _ = taped_scan(params, mode, chunk_len=3, initial=h0)
                return tsum(mul(y, w))
            return fn

        grads = {}
        for mode in ssd.MODES:
            grads[mode] = loss_for(mode)().backward()
        for leaf in leaves:
            assert rel_err(grads["recurrent"][leaf], grads["chunked"][leaf]) < 1e-9
            assert rel_err(grads["recurrent"][leaf], grads["convolutional"][leaf]) < 1e-9

        for mode in ("chunked", "recurrent"):
            check_gradients(loss_for(mode), leaves)


def scan_leaves(rng, t, h, p, g, n, batch=1, dtype=np.float64, slow_head=False):
    """dt, a, B, C and x as leaves that need gradients (the kernel gives one
    to all but a, its constant, and the composed oracle to all), and an
    initial state, a constant of both."""
    a = -np.exp(rng.standard_normal(h))
    if slow_head:
        a[0] = -1e-8  # head 0 hardly decays: abar = exp(dt*a) within 1e-7 of 1
    values = (np.log1p(np.exp(rng.standard_normal((batch, t, h)))), a,
              rng.standard_normal((batch, t, g, n)), rng.standard_normal((batch, t, g, n)),
              rng.standard_normal((batch, t, h, p)))
    leaves = [Tensor(v, requires_grad=True, dtype=dtype) for v in values]
    return leaves + [Tensor(rng.standard_normal((batch, h, p, n)), dtype=dtype)]


def scan_loss(scan, leaves, mode):
    """(y, final state, loss over y) of one taped scan at chunk_len 4."""
    dt, a, bmat, cmat, x, h0 = leaves
    y, final = scan(TapedParams(dt=dt, a=a, B=bmat, C=cmat, x=x), mode, chunk_len=4, initial=h0)
    w = Tensor(np.random.default_rng(99).standard_normal(y.shape), dtype=y.dtype)
    return y, final, tsum(mul(y, w))


class TestKernelsMatchOracle:
    """The numpy kernels and their adjoints, recorded by ``taped_scan``,
    against the composed-Tensor scans: y and the final state as values,
    and the gradients of dt, B, C and x from a loss over y."""

    @pytest.mark.parametrize("mode", ssd.MODES)
    @pytest.mark.parametrize("g", (1, 2))
    @pytest.mark.parametrize("batch", (1, 3))
    @pytest.mark.parametrize("slow_head", (False, True))
    def test_outputs_and_all_gradients(self, mode, g, batch, slow_head):
        # T = 11 is not a multiple of chunk_len = 4; at T = 1 every mode runs
        # the recurrence forward with the chunked adjoint at chunk length 1
        for t in (11, 1):
            rng = np.random.default_rng(17)
            leaves = scan_leaves(rng, t=t, h=4, p=3, g=g, n=5, batch=batch, slow_head=slow_head)
            for initial in (True, False):
                use = leaves if initial else leaves[:5] + [None]
                got, expect = [], []
                for scan, out in ((taped_scan, got), (ssd_oracle.scan, expect)):
                    y, final, loss = scan_loss(scan, use, mode)
                    grads = loss.backward()
                    out.extend([y.data, final.data] + [grads[v] for v in use[:5]
                                                       if v is not use[1]])
                for i, (a, b) in enumerate(zip(got, expect)):
                    assert a.shape == b.shape
                    assert rel_err(a, b) < 1e-10, (t, initial, i)

    @pytest.mark.parametrize("mode", ssd.MODES)
    def test_float32_outputs_and_gradients(self, mode):
        rng = np.random.default_rng(18)
        leaves = scan_leaves(rng, t=9, h=4, p=3, g=2, n=5, batch=2, dtype=np.float32)
        y, final, loss = scan_loss(taped_scan, leaves, mode)
        grads = loss.backward()
        assert y.dtype == np.float32 and final.dtype == np.float32
        assert leaves[1] not in grads and leaves[5] not in grads  # a, the initial state
        assert all(grads[v].dtype == np.float32 for v in leaves[:5] if v is not leaves[1])

    @pytest.mark.parametrize("mode", ("chunked", "convolutional"))
    def test_the_chunked_adjoint_keeps_no_input_array(self, mode):
        # the Mamba block frees its scan inputs once the forward is done, and
        # the adjoint rebuilds from its own chunk-layout copies
        rng = np.random.default_rng(21)
        params = random_params(rng, t=9, h=4, p=3, g=2, n=5, batch=2, dtype=np.float32)
        inputs = [weakref.ref(getattr(params, k)) for k in ("dt", "B", "C", "x")]
        y, _, vjp = ssd.kernel(params, mode, 4)
        del params
        assert [ref() for ref in inputs] == [None] * 4
        assert [g.dtype for g in vjp(np.ones(y.shape, y.dtype))] == [np.dtype(np.float32)] * 4

    @pytest.mark.parametrize("mode", ssd.MODES)
    def test_one_token_adjoint_is_built_only_when_called(self, monkeypatch, mode):
        calls, chunked = [], ssd._chunked

        def counted(*args):
            calls.append(args[-1])  # the chunk length
            return chunked(*args)

        monkeypatch.setattr(ssd, "_chunked", counted)
        rng = np.random.default_rng(20)
        params = random_params(rng, t=1, h=4, p=3, g=2, n=5, batch=2)
        y, _, vjp = ssd.kernel(params, mode, 4, rng.standard_normal((2, 4, 3, 5)))
        assert calls == []
        grads = vjp(np.ones(y.shape))
        assert calls == [1] and len(grads) == 4  # dt, B, C, x


class TestArrayContract:
    """``mac.ssd`` is arrays in, arrays out, and records nothing on the tape."""

    @pytest.mark.parametrize("mode", ssd.MODES)
    @pytest.mark.parametrize("batch", (1, 2))
    def test_scans_return_arrays_and_record_nothing(self, monkeypatch, mode, batch):
        nodes = []
        monkeypatch.setattr(tz, "fused", lambda *args: nodes.append(args))
        rng = np.random.default_rng(19)
        params = random_params(rng, t=11, h=4, p=3, g=2, n=5, batch=batch)
        initial = rng.standard_normal((batch, 4, 3, 5))
        wrapper = {"recurrent": lambda: ssd.scan_recurrent(params, initial=initial),
                   "chunked": lambda: ssd.scan_chunked(params, 4, initial=initial),
                   "convolutional": lambda: ssd.scan_convolutional(params, initial=initial)}
        assert tz._grad_enabled
        for call in (wrapper[mode], lambda: ssd.kernel(params, mode, 4, initial)[:2]):
            y, final = call()
            assert type(y) is np.ndarray and type(final) is np.ndarray
            assert y.shape == (batch, 11, 4, 3) and final.shape == (batch, 4, 3, 5)
        assert nodes == []


class TestMalformedInput:
    """A scan call with the wrong shapes fails with a ``ShapeError`` that
    names them, through the kernel and each wrapper alike."""

    CALLS = {"kernel": ssd.kernel, "recurrent": ssd.scan_recurrent,
             "chunked": ssd.scan_chunked, "convolutional": ssd.scan_convolutional}

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("drop", ("all", "x"))
    def test_arrays_without_a_batch_axis(self, call, drop):
        params = random_params(np.random.default_rng(21), t=5, h=4, p=3, g=2, n=6)
        params.x = params.x[0]
        if drop == "all":
            params.dt, params.B, params.C = params.dt[0], params.B[0], params.C[0]
        shapes = (params.dt.shape, params.B.shape, params.x.shape)
        with pytest.raises(ShapeError) as info:
            self.CALLS[call](params)
        assert all(f"{name} {shape}" in str(info.value)
                   for name, shape in zip(("dt", "B", "x"), shapes))

    @pytest.mark.parametrize("call", CALLS)
    def test_initial_state_without_a_batch_axis(self, call):
        rng = np.random.default_rng(22)
        params = random_params(rng, t=5, h=4, p=3, g=2, n=6)
        with pytest.raises(ShapeError) as info:
            self.CALLS[call](params, initial=rng.standard_normal((4, 3, 6)))
        assert "(4, 3, 6)" in str(info.value) and "(1, 4, 3, 6)" in str(info.value)


class TestDispatch:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractError, match="unknown scan mode"):
            ssd.kernel(random_params(np.random.default_rng(15), t=3), "fft")


class TestCountFlops:
    def test_recurrent_linearity_exact(self):
        base = ssd.count_flops(512, 16, 4, 16, "recurrent")
        assert ssd.count_flops(1024, 16, 4, 16, "recurrent") == 2 * base

    def test_chunked_at_least_recurrent_default_dims(self):
        rec = ssd.count_flops(512, 16, 4, 16, "recurrent")
        chunk = ssd.count_flops(512, 16, 4, 16, "chunked", chunk_len=16)
        assert chunk >= rec

    def test_chunked_ratio_exactly_two(self):
        a = ssd.count_flops(512, 16, 4, 16, "chunked", chunk_len=16)
        b = ssd.count_flops(1024, 16, 4, 16, "chunked", chunk_len=16)
        assert b == 2 * a

    def test_convolutional_is_quadratic(self):
        a = ssd.count_flops(256, 16, 4, 16, "convolutional")
        b = ssd.count_flops(512, 16, 4, 16, "convolutional")
        assert b / a > 3.5  # T^2-dominated

    def test_convolutional_counts_one_chunk(self):
        for t in (1, 7, 64):
            assert ssd.count_flops(t, 16, 4, 16, "convolutional") == ssd.count_flops(
                t, 16, 4, 16, "chunked", chunk_len=t
            )

    def test_chunk_len_one_equals_recurrent_count(self):
        assert ssd.count_flops(64, 16, 4, 16, "chunked", chunk_len=1) == ssd.count_flops(
            64, 16, 4, 16, "recurrent"
        )

    def test_bad_arguments(self):
        with pytest.raises(ContractError):
            ssd.count_flops(0, 16, 4, 16, "recurrent")
        with pytest.raises(ContractError):
            ssd.count_flops(8, 16, 4, 16, "nonsense")
