"""Selective-scan kernels: discretization, three-mode equivalence, FLOPs."""

import numpy as np
import pytest

from mac import ssd
from mac import tensor as tz
from mac.tensor import ContractError, Tensor

import ssd_oracle
from conftest import check_gradients, rel_err

E_NEG1 = 0.3678794411714423215955237701614609
ONE_MINUS_E_NEG1 = 0.6321205588285576784044762298385391


def random_params(rng, t=16, h=4, p=16, g=1, n=16, batch=None):
    lead = () if batch is None else (batch,)
    return ssd.SelectiveParams(
        dt=tz.softplus(Tensor(rng.standard_normal(lead + (t, h)))),
        a=tz.neg(tz.exp(Tensor(rng.standard_normal(h)))),
        B=Tensor(rng.standard_normal(lead + (t, g, n))),
        C=Tensor(rng.standard_normal(lead + (t, g, n))),
        x=Tensor(rng.standard_normal(lead + (t, h, p))),
    )


def scalar_params(abar, bcoef, c, xs):
    """1-head 1-dim chain with prescribed abar/bbar via dt=1, a=ln(abar), B=bbar."""
    t = len(xs)
    return ssd.SelectiveParams(
        dt=tz.ones((t, 1)),
        a=Tensor(np.array([np.log(abar)])),
        B=Tensor(np.full((t, 1, 1), bcoef)),
        C=Tensor(np.full((t, 1, 1), c)),
        x=Tensor(np.asarray(xs, dtype=float).reshape(t, 1, 1)),
    )


class TestDiscretizeZoh:
    def test_exact_scalar_case(self):
        z, coef, _, _ = ssd.discretize_zoh(np.array([[1.0]]), np.array([-1.0]), exact=True)
        assert abs(np.exp(z).item() - E_NEG1) < 1e-15
        assert abs(coef.item() - ONE_MINUS_E_NEG1) < 1e-15

    def test_vanishing_decay_limit(self):
        # dt*a -> 0 takes the series branch: abar -> 1, bbar -> dt*B
        z, coef, _, _ = ssd.discretize_zoh(np.array([[0.5]]), np.array([-1e-9]), exact=True)
        assert abs(np.exp(z).item() - 1.0) < 1e-9
        assert abs(coef.item() * 3.0 - 1.5) < 1e-9

    def test_simplified_mode(self):
        z, coef, _, _ = ssd.discretize_zoh(np.array([[0.5]]), np.array([-2.0]), exact=False)
        assert abs(np.exp(z).item() - E_NEG1) < 1e-15
        assert abs(coef.item() * 3.0 - 1.5) < 1e-15

    def test_exact_mode_series_matches_expm1_oracle(self):
        # both branches of phi(z) = (e^z - 1)/z against the stable oracle
        for a_val, tol in ((-9.9e-7, 1e-12), (-1.1e-6, 1e-9), (-0.3, 1e-12)):
            got = ssd.discretize_zoh(np.array([[1.0]]), np.array([a_val]), exact=True)[1].item()
            expect = np.expm1(a_val) / a_val
            assert abs(got - expect) < tol, a_val

    def test_outputs_take_dt_shape(self):
        rng = np.random.default_rng(0)
        dt, a = rng.uniform(0.1, 1.0, (2, 5, 4)), -rng.uniform(0.5, 2.0, 4)
        for exact in (False, True):
            for out in ssd.discretize_zoh(dt, a, exact):
                assert out.shape == (2, 5, 4)

    def test_partials_match_finite_differences(self):
        # z = dt*a in both branches of the exact rule, and the simplified rule
        dt = np.array([[0.5, 1.0, 2.0, 0.7]])
        a = np.array([-1e-8, -3e-7, -0.4, -2.0])
        eps = 1e-6
        for exact in (False, True):
            _, _, d_dt, d_a = ssd.discretize_zoh(dt, a, exact)
            num_dt = (ssd.discretize_zoh(dt + eps, a, exact)[1]
                      - ssd.discretize_zoh(dt - eps, a, exact)[1]) / (2 * eps)
            num_a = (ssd.discretize_zoh(dt, a + eps * 1e-3, exact)[1]
                     - ssd.discretize_zoh(dt, a - eps * 1e-3, exact)[1]) / (2 * eps * 1e-3)
            assert rel_err(d_dt, num_dt) < 1e-6, exact
            assert rel_err(d_a, num_a) < 1e-6, exact


class TestScanRecurrent:
    def test_hand_unrolled_chain(self):
        params = scalar_params(abar=0.5, bcoef=1.0, c=1.0, xs=[1.0, 1.0, 1.0])
        y, final = ssd.scan_recurrent(params)
        np.testing.assert_allclose(y.data.reshape(-1), [1.0, 1.5, 1.75], atol=1e-15)
        assert final.step_index == 3

    def test_zero_input_coupling(self):
        params = scalar_params(abar=0.5, bcoef=0.0, c=1.0, xs=[1.0, 2.0, 3.0])
        y, _ = ssd.scan_recurrent(params)
        np.testing.assert_array_equal(y.data, np.zeros_like(y.data))

    def test_split_scan_invariance(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, t=20)
        with tz.no_grad():
            full, _ = ssd.scan_recurrent(params)
            for k in (1, 7, 13, 19):
                head = ssd.SelectiveParams(params.dt[:k], params.a, params.B[:k],
                                           params.C[:k], params.x[:k])
                tail = ssd.SelectiveParams(params.dt[k:], params.a, params.B[k:],
                                           params.C[k:], params.x[k:])
                y1, carry = ssd.scan_recurrent(head)
                y2, _ = ssd.scan_recurrent(tail, initial=carry)
                joined = np.concatenate([y1.data, y2.data], axis=0)
                assert np.abs(joined - full.data).max() <= 1e-12

    def test_rejects_nonpositive_dt(self):
        params = scalar_params(0.5, 1.0, 1.0, [1.0])
        params.dt = Tensor([[0.0]])
        with pytest.raises(ContractError, match="dt"):
            ssd.scan_recurrent(params)

    def test_rejects_nonnegative_a(self):
        params = scalar_params(0.5, 1.0, 1.0, [1.0])
        params.a = Tensor([0.1])
        with pytest.raises(ContractError, match="a"):
            ssd.scan_recurrent(params)


class TestScanConvolutional:
    def test_time_invariant_kernel(self):
        # impulse input reads out the kernel (C bbar, C abar bbar, ...)
        params = scalar_params(abar=0.5, bcoef=1.0, c=1.0, xs=[1.0, 0.0, 0.0])
        y, _ = ssd.scan_convolutional(params)
        np.testing.assert_allclose(y.data.reshape(-1), [1.0, 0.5, 0.25], atol=1e-15)

    def test_zero_input(self):
        params = scalar_params(abar=0.7, bcoef=1.0, c=1.0, xs=[0.0, 0.0, 0.0, 0.0])
        y, _ = ssd.scan_convolutional(params)
        np.testing.assert_array_equal(y.data, np.zeros_like(y.data))

    def test_matches_recurrent_oracle_time_varying(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, t=17, g=2, n=6, p=5)
        with tz.no_grad():
            expect, _ = ssd.scan_recurrent(params)
            got, _ = ssd.scan_convolutional(params)
        assert np.abs(got.data - expect.data).max() <= 1e-10

    def test_nonzero_initial_state_matches_recurrent(self):
        # a carried state enters the single chunk like any other
        rng = np.random.default_rng(16)
        params = random_params(rng, t=11, g=2, n=6, p=5, batch=2)
        init = ssd.ScanState(Tensor(rng.standard_normal((2, 4, 5, 6))), 3)
        with tz.no_grad():
            expect, ef = ssd.scan_recurrent(params, initial=init)
            got, gf = ssd.scan_convolutional(params, initial=init)
        assert np.abs(got.data - expect.data).max() <= 1e-10
        assert np.abs(gf.h.data - ef.h.data).max() <= 1e-10
        assert gf.step_index == ef.step_index == 14


class TestScanChunked:
    def test_single_chunk_equals_convolutional_with_carry(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, t=12)
        with tz.no_grad():
            y_conv, final_conv = ssd.scan_convolutional(params)
            y_chunk, final = ssd.scan_chunked(params, chunk_len=12)
            y_rec, final_rec = ssd.scan_recurrent(params)
        assert np.abs(y_chunk.data - y_conv.data).max() <= 1e-12
        assert np.abs(final.h.data - final_rec.h.data).max() <= 1e-10
        assert np.abs(final_conv.h.data - final_rec.h.data).max() <= 1e-10
        assert final_conv.step_index == final_rec.step_index == 12

    def test_chunk_len_one_is_recurrent_path(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, t=9)
        with tz.no_grad():
            y1, f1 = ssd.scan_chunked(params, chunk_len=1)
            y2, f2 = ssd.scan_recurrent(params)
        np.testing.assert_array_equal(y1.data, y2.data)
        np.testing.assert_array_equal(f1.h.data, f2.h.data)

    def test_random_chunked_matches_recurrent(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, t=64)
        with tz.no_grad():
            expect, ef = ssd.scan_recurrent(params)
            got, gf = ssd.scan_chunked(params, chunk_len=16)
        assert np.abs(got.data - expect.data).max() <= 1e-8
        assert np.abs(gf.h.data - ef.h.data).max() <= 1e-8

    def test_ragged_tail_and_initial_state(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, t=23)
        init = ssd.ScanState(Tensor(rng.standard_normal((4, 16, 16))), 5)
        with tz.no_grad():
            expect, _ = ssd.scan_recurrent(params, initial=init)
            got, final = ssd.scan_chunked(params, chunk_len=7, initial=init)
        assert np.abs(got.data - expect.data).max() <= 1e-8
        assert final.step_index == 28

    def test_chunk_len_zero_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ContractError):
            ssd.scan_chunked(random_params(rng, t=4), chunk_len=0)

    def test_float32_inputs_carry_state_in_float64(self):
        rng = np.random.default_rng(8)
        with tz.using_dtype(np.float32):
            params = ssd.SelectiveParams(
                dt=tz.softplus(Tensor(rng.standard_normal((40, 4)), dtype=np.float32)),
                a=tz.neg(tz.exp(Tensor(rng.standard_normal(4), dtype=np.float32))),
                B=Tensor(rng.standard_normal((40, 1, 16)), dtype=np.float32),
                C=Tensor(rng.standard_normal((40, 1, 16)), dtype=np.float32),
                x=Tensor(rng.standard_normal((40, 4, 16)), dtype=np.float32),
            )
            with tz.no_grad():
                y, final = ssd.scan_chunked(params, chunk_len=8)
        assert y.dtype == np.float32 and final.h.dtype == np.float32


class TestProperties:
    def test_three_mode_equivalence_property(self):
        rng = np.random.default_rng(9)
        for case in range(40):
            t = int(rng.integers(1, 65))
            g = int(rng.choice([1, 2]))
            params = random_params(rng, t=t, g=g, n=8, p=6, h=4)
            with tz.no_grad():
                y_rec, _ = ssd.scan_recurrent(params)
                y_conv, _ = ssd.scan_convolutional(params)
                y_chunk, _ = ssd.scan_chunked(params, chunk_len=16)
            assert np.abs(y_rec.data - y_conv.data).max() <= 1e-8, f"case {case}"
            assert np.abs(y_rec.data - y_chunk.data).max() <= 1e-8, f"case {case}"

    def test_exact_zoh_mode_equivalence(self):
        rng = np.random.default_rng(10)
        params = random_params(rng, t=31)
        with tz.no_grad():
            y_rec, _ = ssd.scan_recurrent(params, exact_zoh=True)
            y_conv, _ = ssd.scan_convolutional(params, exact_zoh=True)
            y_chunk, _ = ssd.scan_chunked(params, chunk_len=8, exact_zoh=True)
        assert np.abs(y_rec.data - y_conv.data).max() <= 1e-8
        assert np.abs(y_rec.data - y_chunk.data).max() <= 1e-8
        # exact mode deviates from the simplified rule (phi(z) != 1)
        y_simple, _ = ssd.scan_recurrent(params)
        assert np.abs(y_simple.data - y_rec.data).max() > 1e-4

    def test_batched_matches_unbatched(self):
        rng = np.random.default_rng(11)
        batched = random_params(rng, t=21, batch=3)
        with tz.no_grad():
            yb, fb = ssd.scan_chunked(batched, chunk_len=8)
            for i in range(3):
                single = ssd.SelectiveParams(
                    batched.dt[i], batched.a, batched.B[i], batched.C[i], batched.x[i]
                )
                ys, fs = ssd.scan_chunked(single, chunk_len=8)
                assert np.abs(yb.data[i] - ys.data).max() <= 1e-12
                assert np.abs(fb.h.data[i] - fs.h.data).max() <= 1e-12

    def test_stability_no_state_explosion(self):
        rng = np.random.default_rng(12)
        t = 4096
        params = random_params(rng, t=t, h=2, p=3, n=4)
        with tz.no_grad():
            # step one token at a time so every intermediate state is seen
            final, peak = None, 0.0
            for s in range(t):
                step = ssd.SelectiveParams(params.dt[s : s + 1], params.a, params.B[s : s + 1],
                                           params.C[s : s + 1], params.x[s : s + 1])
                _, final = ssd.scan_recurrent(step, initial=final)
                peak = max(peak, np.abs(final.h.data).max())
            abar = np.exp(params.dt.data * params.a.data)
            bbar_x = (
                params.dt.data[:, :, None, None]
                * params.B.data[:, 0][:, None, None, :]
                * params.x.data[:, :, :, None]
            )
        worst_decay = abar.max()
        bound = np.abs(bbar_x).max() / (1.0 - worst_decay)
        assert peak <= bound + 1e-9
        assert np.isfinite(final.h.data).all() and final.step_index == t

    def test_gradients_match_across_modes_and_fd(self):
        rng = np.random.default_rng(13)
        t, h, p, g, n = 7, 2, 3, 1, 4
        dt_raw = Tensor(rng.standard_normal((t, h)), requires_grad=True)
        log_a = Tensor(rng.standard_normal(h), requires_grad=True)
        bmat = Tensor(rng.standard_normal((t, g, n)), requires_grad=True)
        cmat = Tensor(rng.standard_normal((t, g, n)), requires_grad=True)
        x = Tensor(rng.standard_normal((t, h, p)), requires_grad=True)
        h0 = Tensor(rng.standard_normal((h, p, n)), requires_grad=True)
        w = Tensor(rng.standard_normal((t, h, p)))
        w_state = Tensor(rng.standard_normal((h, p, n)))
        leaves = [dt_raw, log_a, bmat, cmat, x, h0]

        def loss_for(mode):
            def fn():
                params = ssd.SelectiveParams(
                    dt=tz.softplus(dt_raw), a=tz.neg(tz.exp(log_a)), B=bmat, C=cmat, x=x
                )
                y, final = ssd.scan(params, mode, chunk_len=3, initial=ssd.ScanState(h0))
                return tz.add(tz.tsum(tz.mul(y, w)), tz.tsum(tz.mul(final.h, w_state)))
            return fn

        grads = {}
        for mode in ssd.MODES:
            tz.zero_grad(leaves)
            grads[mode] = loss_for(mode)().backward()
        for leaf in leaves:
            assert rel_err(grads["recurrent"][leaf], grads["chunked"][leaf]) < 1e-9
            assert rel_err(grads["recurrent"][leaf], grads["convolutional"][leaf]) < 1e-9

        for mode in ("chunked", "recurrent"):
            tz.zero_grad(leaves)
            check_gradients(loss_for(mode), leaves)


def scan_leaves(rng, t, h, p, g, n, batch=None, dtype=np.float64, series_head=False):
    """dt, a, B, C, x and an initial state as leaves that need gradients."""
    lead = () if batch is None else (batch,)
    a = -np.exp(rng.standard_normal(h))
    if series_head:
        a[0] = -1e-8  # dt*a of head 0 in the series branch of the exact rule
    values = (np.log1p(np.exp(rng.standard_normal(lead + (t, h)))), a,
              rng.standard_normal(lead + (t, g, n)), rng.standard_normal(lead + (t, g, n)),
              rng.standard_normal(lead + (t, h, p)), rng.standard_normal(lead + (h, p, n)))
    return [Tensor(v, requires_grad=True, dtype=dtype) for v in values]


def scan_loss(impl, leaves, mode, on, exact=False):
    """(y, final state, loss) of one scan at chunk_len 4; ``on`` picks y, the
    state or both."""
    dt, a, bmat, cmat, x, h0 = leaves
    params = ssd.SelectiveParams(dt=dt, a=a, B=bmat, C=cmat, x=x)
    initial = None if h0 is None else ssd.ScanState(h0, 2)
    y, final = impl.scan(params, mode, chunk_len=4, initial=initial, exact_zoh=exact)
    rng = np.random.default_rng(99)
    terms = []
    if on in ("y", "both"):
        terms.append(tz.tsum(tz.mul(y, Tensor(rng.standard_normal(y.shape), dtype=y.dtype))))
    if on in ("state", "both"):
        w = Tensor(rng.standard_normal(final.h.shape), dtype=final.h.dtype)
        terms.append(tz.tsum(tz.mul(final.h, w)))
    loss = terms[0] if len(terms) == 1 else tz.add(terms[0], terms[1])
    return y, final, loss


class TestKernelsMatchOracle:
    """The numpy kernels and their adjoints against the composed-Tensor scans."""

    @pytest.mark.parametrize("mode", ssd.MODES)
    @pytest.mark.parametrize("g", (1, 2))
    @pytest.mark.parametrize("batch", (None, 3))
    @pytest.mark.parametrize("exact", (False, True))
    def test_outputs_and_all_gradients(self, mode, g, batch, exact):
        rng = np.random.default_rng(17)
        # T = 11 is not a multiple of chunk_len = 4
        leaves = scan_leaves(rng, t=11, h=4, p=3, g=g, n=5, batch=batch, series_head=exact)
        for initial in (True, False):
            use = leaves if initial else leaves[:5] + [None]
            for on in ("y", "state", "both"):
                got, expect = [], []
                for impl, out in ((ssd, got), (ssd_oracle, expect)):
                    tz.zero_grad(leaves)
                    y, final, loss = scan_loss(impl, use, mode, on, exact)
                    grads = loss.backward()
                    # C does not reach the final state: the tape has no gradient for it
                    out.extend([y.data, final.h.data] + [grads.get(v, np.zeros(v.shape))
                                                         for v in use if v is not None])
                    assert final.step_index == (13 if initial else 11)
                for i, (a, b) in enumerate(zip(got, expect)):
                    assert a.shape == b.shape
                    assert rel_err(a, b) < 1e-10, (initial, on, i)

    @pytest.mark.parametrize("mode", ssd.MODES)
    def test_float32_outputs_and_gradients(self, mode):
        rng = np.random.default_rng(18)
        leaves = scan_leaves(rng, t=9, h=4, p=3, g=2, n=5, batch=2, dtype=np.float32)
        with tz.using_dtype(np.float32):
            y, final, loss = scan_loss(ssd, leaves, mode, "both")
            grads = loss.backward()
        assert y.dtype == np.float32 and final.h.dtype == np.float32
        assert all(grads[v].dtype == np.float32 for v in leaves)

    @pytest.mark.parametrize("mode", ssd.MODES)
    def test_one_call_records_two_tape_nodes(self, mode):
        rng = np.random.default_rng(19)
        for t, chunk_len, batch in ((1, 4, None), (11, 4, 2), (40, 3, None), (40, 16, 2)):
            leaves = scan_leaves(rng, t=t, h=4, p=3, g=2, n=5, batch=batch)
            params = ssd.SelectiveParams(*leaves[:5])
            y, final = ssd.scan(params, mode, chunk_len=chunk_len,
                                initial=ssd.ScanState(leaves[5]))
            recorded, todo = set(), [y, final.h]
            while todo:
                node = todo.pop()
                if node._pairs and id(node) not in recorded:
                    recorded.add(id(node))
                    todo.extend(parent for parent, _ in node._pairs)
            assert len(recorded) == 2, (t, chunk_len, batch)


class TestDispatch:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractError, match="unknown scan mode"):
            ssd.scan(random_params(np.random.default_rng(15), t=3), "fft")


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
