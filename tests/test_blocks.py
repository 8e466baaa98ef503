"""Block assembly, LoRA contracts, the stacked LM, streaming state."""

import numpy as np
import pytest

from mac import blocks, optim, ssd
from mac import config as configmod
from mac import tensor as tz
from mac.blocks import LmConfig, LoraAdapter, MambaBlock, SsmLm
from mac.tensor import ContractError, ShapeError, Tensor

import block_oracle
from conftest import check_gradients, recorded_nodes
from tensor_oracle import mul, take, tsum

# T = 1 (the recurrence), one partial chunk, and more than one chunk with
# the last one padded
LENGTHS = (1, 7, 37)
TINY = dict(n_layers=2, n_heads=3, head_dim=8, d_state=6, n_groups=1, vocab_size=13, conv_width=4)


def tiny_lm(seed=0, **over) -> SsmLm:
    cfg = LmConfig(**{**TINY, **over})
    return SsmLm(cfg, np.random.default_rng(seed))


class TestBlockForward:
    def test_zero_in_proj_means_zero_gate_and_zero_output(self):
        lm = tiny_lm()
        blk = lm.blocks[0]
        blk.in_proj.base.data[:] = 0.0  # gate z = 0 -> silu(0) = 0
        x = Tensor(np.random.default_rng(1).standard_normal((1, 6, 24)))
        with tz.no_grad():
            y, _ = blk.forward(x)
        np.testing.assert_array_equal(y.data, np.zeros_like(y.data))

    def test_causality_of_conv_plus_scan(self):
        lm = tiny_lm(seed=2)
        blk = lm.blocks[0]
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 10, 24))
        with tz.no_grad():
            base = blk.forward(Tensor(x))[0].data
        for t in (0, 4, 9):
            bumped = x.copy()
            bumped[:, t, :] += rng.standard_normal(24)
            with tz.no_grad():
                out = blk.forward(Tensor(bumped))[0].data
            delta = np.abs(out - base).max(axis=(0, 2))
            assert delta[:t].max(initial=0.0) == 0.0, f"leak before position {t}"
            assert delta[t] > 0.0

    @pytest.mark.parametrize("t", LENGTHS)
    def test_whole_sequence_equals_one_token_steps(self, t):
        # a whole sequence runs the chunked scan (t > 1), each step the recurrence
        lm = tiny_lm(seed=4)
        blk = lm.blocks[0]
        x = Tensor(np.random.default_rng(5).standard_normal((2, t, 24)))
        with tz.no_grad():
            whole = blk.forward(x)[0].data
            state, steps = None, []
            for i in range(t):
                out, state = blk.forward(take(x, np.s_[:, i : i + 1, :]), state=state)
                steps.append(out.data)
        assert np.abs(whole - np.concatenate(steps, axis=1)).max() <= 1e-8

    def test_shape_contract(self):
        lm = tiny_lm()
        with pytest.raises(ShapeError):
            lm.blocks[0].forward(Tensor(np.zeros((2, 5, 7))))

    @pytest.mark.parametrize("carried", [False, True])
    def test_block_gradcheck_every_parameter(self, carried):
        # full finite-difference sweep of the input and every parameter the
        # block differentiates (the pre-norm weight and live LoRA factors),
        # over two chunks of the scan, the second one padded; carried, the
        # block continues a state whose scan state and conv tail are leaves
        # too, and the loss reads the new state and tail as well
        cfg = LmConfig(n_layers=1, n_heads=2, head_dim=3, d_state=2, n_groups=1,
                       vocab_size=5, conv_width=3)
        rng = np.random.default_rng(6)
        lm = SsmLm(cfg, rng)
        blocks.attach_lora(lm, rank=2, rng=rng)
        blk = lm.blocks[0]
        for proj in (blk.in_proj, blk.out_proj):  # a live adapter, not the zero init
            proj.adapter.up.data[:] = rng.standard_normal(proj.adapter.up.shape) * 0.3
        t = ssd.DEFAULT_CHUNK + 3
        x = Tensor(np.random.default_rng(7).standard_normal((1, t, 6)))
        w = Tensor(np.random.default_rng(8).standard_normal((1, t, 6)))
        leaves = [x, blk.res_norm] + _leaves(blk)
        state = None
        if carried:
            with tz.no_grad():
                _, warm = blk.forward(Tensor(rng.standard_normal((1, 5, 6))))
            state = blocks.BlockState(ssm=Tensor(warm.ssm.data),
                                      conv_tail=Tensor(warm.conv_tail.data))
            leaves += [state.ssm, state.conv_tail]
            w_ssm, w_tail = (Tensor(rng.standard_normal(v.shape))
                             for v in (warm.ssm, warm.conv_tail))

        def fn():
            # pre-norm applied the way the residual stack does
            y, new = blk.forward(tz.rms_norm(x, blk.res_norm), state=state)
            loss = tsum(mul(y, w))
            if carried:
                loss = tz.add(loss, tz.add(tsum(mul(new.ssm, w_ssm)),
                                           tsum(mul(new.conv_tail, w_tail))))
            return loss

        worst = check_gradients(fn, leaves, tol=1e-4)
        assert worst < 1e-4


class TestOneTokenStepContract:
    """What a streaming decode step promises its caller, whatever it costs."""

    def _warm(self, seed=50, b=2):
        blk = tiny_lm(seed=seed).blocks[0]
        rng = np.random.default_rng(seed + 1)
        with tz.no_grad():
            _, state = blk.forward(Tensor(rng.standard_normal((b, 5, 24))))
        return blk, state, Tensor(rng.standard_normal((b, 1, 24)))

    @pytest.mark.parametrize("part", ["conv_tail", "ssm"])
    def test_wrong_state_shape_is_a_shape_error_naming_both_shapes(self, part):
        blk, state, step = self._warm()
        good = getattr(state, part).shape
        bad = good[:-1] + (good[-1] + 1,)
        other = (2, 1, blk.cfg.conv_dim) if part == "conv_tail" else good
        broken = blocks.BlockState(**{"ssm": state.ssm, "conv_tail": state.conv_tail,
                                      part: Tensor(np.zeros(bad))})
        with tz.no_grad(), pytest.raises(ShapeError) as err:
            blk.forward(step, state=broken)
        assert str(bad) in str(err.value) and str(other) in str(err.value)

    @pytest.mark.parametrize("name, value", [("log_a", -800.0), ("dt_bias", -800.0)])
    def test_a_zero_decay_or_step_size_is_a_contract_error(self, name, value):
        # log_a = -800 makes a = -exp(-800) = -0.0; dt_bias = -800 makes dt = 0
        blk, state, step = self._warm()
        getattr(blk, name).data[1] = value
        with tz.no_grad(), pytest.raises(ContractError):
            blk.forward(step, state=state)

    def test_a_returned_state_is_never_changed_by_a_later_step(self):
        blk, state, step = self._warm()
        with tz.no_grad():
            for _ in range(3):  # a prefill state, then states returned by steps
                kept = [state.ssm.data.copy(), state.conv_tail.data.copy()]
                runs = [blk.forward(step, state=state) for _ in range(2)]
                for a, b in zip(*[[out.data, new.ssm.data, new.conv_tail.data]
                                  for out, new in runs]):
                    np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(state.ssm.data, kept[0])
                np.testing.assert_array_equal(state.conv_tail.data, kept[1])
                state = runs[0][1]


def _leaves(blk: MambaBlock) -> list[Tensor]:
    """The parameters ``MambaBlock.forward`` differentiates: the LoRA
    factors of in_proj and out_proj. It reads the others as constants (the
    pre-norm weight is the stack's)."""
    return [v for k, v in blk.parameters().items() if ".lora." in k]


class TestFusedBlockMatchesComposedOracle:
    """``MambaBlock.forward`` (one fused node) against the composed block of
    ``block_oracle``: outputs and every gradient at 1e-10 in fp64."""

    CFG = dict(n_layers=2, n_heads=4, head_dim=3, d_state=5, n_groups=2, vocab_size=7)

    def _block(self, width, seed):
        cfg = LmConfig(**self.CFG, conv_width=width)
        rng = np.random.default_rng(seed)
        lm = SsmLm(cfg, rng)
        blocks.attach_lora(lm, rank=3, rng=rng)
        blk = lm.blocks[0]
        for proj in (blk.in_proj, blk.out_proj):  # a live adapter, not the zero init
            proj.adapter.up.data[:] = rng.standard_normal(proj.adapter.up.shape) * 0.3
        return blk

    def _run(self, forward, blk, x, state, weights):
        """Loss over the output, the final scan state and the conv tail."""
        out, new = forward(blk, x, state=state)
        loss = tz.add(tz.add(tsum(mul(out, weights[0])), tsum(mul(new.ssm, weights[1]))),
                      tsum(mul(new.conv_tail, weights[2])))
        return out, new, loss

    @pytest.mark.parametrize("t", LENGTHS)
    @pytest.mark.parametrize("width", [4, 1])
    @pytest.mark.parametrize("carried", [False, True])
    def test_outputs_and_all_gradients(self, t, width, carried):
        blk = self._block(width, seed=40 + width)
        rng = np.random.default_rng(41)
        b, d = 2, blk.cfg.d_model
        x = Tensor(rng.standard_normal((b, t, d)), requires_grad=True)
        state = None
        leaves = [x] + _leaves(blk)
        if carried:
            with tz.no_grad():
                _, warm = blk.forward(Tensor(rng.standard_normal((b, 5, d))))
            state = blocks.BlockState(ssm=Tensor(warm.ssm.data, requires_grad=True),
                                      conv_tail=Tensor(warm.conv_tail.data, requires_grad=True))
            leaves += [state.ssm, state.conv_tail]
        for leaf in leaves:
            leaf.requires_grad = True
        with tz.no_grad():
            probe = blk.forward(x, state=state)
        weights = [Tensor(rng.standard_normal(v.shape))
                   for v in (probe[0], probe[1].ssm, probe[1].conv_tail)]

        results = []
        for forward in (MambaBlock.forward, block_oracle.block_forward):
            out, new, loss = self._run(forward, blk, x, state, weights)
            grads = loss.backward()
            results.append([out.data, new.ssm.data, new.conv_tail.data]
                           + [grads[leaf] for leaf in leaves])
        assert blk.in_proj.base not in grads and blk.out_proj.base not in grads
        for fused, oracle in zip(*results):
            assert fused.shape == oracle.shape
            scale = max(1.0, float(np.abs(oracle).max(initial=0.0)))
            assert np.abs(fused - oracle).max(initial=0.0) <= 1e-10 * scale

    @pytest.mark.parametrize("carried", [False, True])
    def test_fused_block_records_one_node_per_output(self, carried):
        blk = self._block(4, seed=43)
        for leaf in blk.parameters().values():  # even the frozen ones: they stay constants
            leaf.requires_grad = True
        rng = np.random.default_rng(44)
        x = Tensor(rng.standard_normal((2, 6, blk.cfg.d_model)), requires_grad=True)
        state = None
        if carried:
            with tz.no_grad():
                _, warm = blk.forward(Tensor(rng.standard_normal((2, 5, blk.cfg.d_model))))
            state = blocks.BlockState(ssm=Tensor(warm.ssm.data, requires_grad=True),
                                      conv_tail=Tensor(warm.conv_tail.data, requires_grad=True))
        out, new = blk.forward(x, state=state)
        # output, final scan state and conv tail: each one node whose parents
        # are the block input, the 4 LoRA factors and the carried state
        want = [x] + _leaves(blk) + ([state.ssm, state.conv_tail] if carried else [])
        assert len(_leaves(blk)) == 4
        for node in (out, new.ssm, new.conv_tail):
            assert recorded_nodes(node) == 1
            assert {id(p) for p, _ in node._pairs} == {id(v) for v in want}


NODES_PER_BLOCK = 3  # pre-norm, block, residual add
HEAD_NODES = 2  # final norm, tied head matmul


class TestTapeBudget:
    def test_training_forward_records_fixed_nodes_per_block(self):
        # the LM's recorded nodes do not grow with the batch or the sequence
        for n_layers in (1, 2):
            lm = tiny_lm(seed=45, n_layers=n_layers)
            blocks.attach_lora(lm, rank=2, rng=np.random.default_rng(46))
            for name, t in lm.parameters().items():
                if ".lora." in name:
                    t.requires_grad = True
            for b, t in ((1, 5), (3, 19)):
                embs = Tensor(np.random.default_rng(47).standard_normal((b, t, 24)),
                              requires_grad=True)
                logits = lm.forward(embs)
                assert recorded_nodes(logits) == NODES_PER_BLOCK * n_layers + HEAD_NODES, (
                    n_layers, b, t)


class TestLmForward:
    def test_logits_shape_and_finiteness(self):
        lm = tiny_lm(seed=9)
        x = Tensor(np.random.default_rng(10).standard_normal((1, 7, 24)))
        with tz.no_grad():
            logits = lm.forward(x)
        assert logits.shape == (1, 7, 13)
        assert np.isfinite(logits.data).all()

    def test_tied_embeddings_head_is_transpose(self):
        lm = tiny_lm(seed=11)
        assert [k for k in lm.parameters() if not k.startswith("blocks.")] == [
            "embedding", "final_norm"]
        for blk in lm.blocks:  # gate z = 0: every block adds zero to the residual
            blk.in_proj.base.data[:] = 0.0
        x = Tensor(np.random.default_rng(30).standard_normal((1, 4, 24)))
        with tz.no_grad():
            want = tz.matmul(tz.rms_norm(x, lm.final_norm), Tensor(lm.embedding.data.T))
            np.testing.assert_array_equal(lm.forward(x).data, want.data)

    def test_prefix_logits_agree_on_both_sides_of_the_scan_rule(self):
        # a prefix of 1 runs the recurrence, the others chunk differently
        # from the whole sequence (one partial chunk, one chunk, one
        # padded chunk more)
        lm = tiny_lm(seed=12)
        x = Tensor(np.random.default_rng(13).standard_normal((2, 37, 24)))
        with tz.no_grad():
            whole = lm.forward(x).data
            for t in (1, 9, ssd.DEFAULT_CHUNK, ssd.DEFAULT_CHUNK + 1):
                err = np.abs(lm.forward(take(x, np.s_[:, :t, :])).data - whole[:, :t]).max()
                assert err <= 1e-8, t

    def test_causality_of_logits(self):
        lm = tiny_lm(seed=14)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((1, 8, 24))
        with tz.no_grad():
            base = lm.forward(Tensor(x)).data
        for _ in range(5):
            t = int(rng.integers(1, 8))
            bumped = x.copy()
            bumped[:, t:, :] = rng.standard_normal((1, 8 - t, 24))
            with tz.no_grad():
                out = lm.forward(Tensor(bumped)).data
            np.testing.assert_array_equal(out[:, :t], base[:, :t])

    def test_streaming_prefill_plus_steps_equals_full(self):
        # logits, not tokens, so a wrong carried state cannot hide behind an
        # argmax. The sequence, fed whole, runs three chunks, the last one
        # padded; fed in uneven pieces it continues the carried state over a
        # 1-token or a partial-chunk prefill, pieces of 2 and 3 positions
        # (below and at K-1 for conv width 4; width 1 carries no conv tail)
        # and one of 19 (a chunk and a padded one), over two rows of one
        # batch, and then 1-token steps
        x = Tensor(np.random.default_rng(17).standard_normal((2, 40, 24)))
        for width in (4, 1):
            lm = tiny_lm(seed=16, conv_width=width)
            with tz.no_grad():
                full = lm.forward(x).data
                for first in (1, 5):
                    states, chunks = None, []
                    for lo, hi in ((0, first), (first, 7), (7, 9), (9, 12), (12, 31),
                                   *((t, t + 1) for t in range(31, 40))):
                        out, states = lm.forward(take(x, np.s_[:, lo:hi, :]), states=states,
                                                 return_states=True)
                        chunks.append(out.data)
                    err = np.abs(np.concatenate(chunks, axis=1) - full).max()
                    assert err <= 1e-10, (width, first)

    @pytest.mark.parametrize("width", [4, 1])
    def test_streaming_gradients_equal_full(self, width):
        # the gradients of x and of every LoRA factor through the carried
        # states of the whole stack: the loss sum(logits * w) over one
        # forward, and over the pieces of the streaming test above
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((2, 40, 24)), requires_grad=True)
        w = rng.standard_normal((2, 40, TINY["vocab_size"]))
        lm = tiny_lm(seed=16, conv_width=width)
        blocks.attach_lora(lm, rank=3, rng=rng)
        for blk in lm.blocks:
            for proj in (blk.in_proj, blk.out_proj):  # a live adapter, not the zero init
                proj.adapter.up.data[:] = rng.standard_normal(proj.adapter.up.shape) * 0.3
        leaves = [x] + [v for blk in lm.blocks for v in _leaves(blk)]
        results = []
        for first in (None, 1, 5):
            spans = [(0, 40)] if first is None else [
                (0, first), (first, 7), (7, 9), (9, 12), (12, 31),
                *((t, t + 1) for t in range(31, 40))]
            for leaf in leaves:
                leaf.requires_grad = True
            states, terms = None, []
            for lo, hi in spans:
                out, states = lm.forward(take(x, np.s_[:, lo:hi, :]), states=states,
                                         return_states=True)
                terms.append(tsum(mul(out, Tensor(w[:, lo:hi]))))
            loss = terms[0]
            for term in terms[1:]:
                loss = tz.add(loss, term)
            grads = loss.backward()
            results.append([grads[leaf] for leaf in leaves])
        full = results[0]
        for streamed in results[1:]:
            for got, expect in zip(streamed, full):
                scale = max(1.0, float(np.abs(expect).max()))
                assert np.abs(got - expect).max() <= 1e-10 * scale


class TestLora:
    def test_zero_init_noop_bit_identical(self):
        lm = tiny_lm(seed=18)
        x = Tensor(np.random.default_rng(19).standard_normal((1, 6, 24)))
        with tz.no_grad():
            before = lm.forward(x).data.copy()
        blocks.attach_lora(lm, rank=4, rng=np.random.default_rng(20))
        with tz.no_grad():
            after = lm.forward(x).data
        assert np.array_equal(before, after)

    def test_alpha_over_rank_is_two(self):
        for r in (1, 2, 8, 64, 256):
            ad = LoraAdapter.init(10, 12, r, np.random.default_rng(r))
            assert ad.down.shape == (10, r) and ad.up.shape == (r, 12) and ad.scale == 2.0

    def test_rank_must_be_positive(self):
        for r in (0, -2):
            with pytest.raises(ContractError):
                LoraAdapter.init(3, 3, r, np.random.default_rng(0))

    def test_fp32_lora_apply_stays_fp32(self):
        rng = np.random.default_rng(31)
        ad = LoraAdapter.init(5, 4, 2, rng)
        ad.down = Tensor(ad.down.data, dtype=np.float32)
        ad.up = Tensor(rng.standard_normal((2, 4)), dtype=np.float32)
        base = Tensor(rng.standard_normal((5, 4)), dtype=np.float32)
        x = rng.standard_normal((3, 5)).astype(np.float32)
        out, weight = blocks.lora_apply(base, ad, x)
        assert out.dtype == weight.dtype == np.float32

    def test_base_receives_no_gradient_through_lora(self):
        lm = tiny_lm(seed=24)
        blocks.attach_lora(lm, rank=2, rng=np.random.default_rng(24))
        blk = lm.blocks[0]
        adapters = [blk.in_proj.adapter, blk.out_proj.adapter]
        for ad in adapters:  # the bases stay frozen: requires_grad False
            ad.down.requires_grad = ad.up.requires_grad = True
        x = Tensor(np.random.default_rng(25).standard_normal((1, 5, 24)))
        grads = tsum(blk.forward(x)[0]).backward()
        assert blk.in_proj.base not in grads and blk.out_proj.base not in grads
        assert all(t in grads for ad in adapters for t in (ad.down, ad.up))

    def test_frozen_base_bit_invariant_under_training(self):
        lm = tiny_lm(seed=25)
        blocks.attach_lora(lm, rank=2, rng=np.random.default_rng(26))
        frozen = {
            name: t.data.copy()
            for name, t in lm.parameters().items()
            if "lora" not in name
        }
        trainable = {k: t for k, t in lm.parameters().items() if ".lora." in k}
        for t in trainable.values():
            t.requires_grad = True
        opt = optim.AdamW(trainable, lr=1e-2)
        rng = np.random.default_rng(27)
        for _ in range(20):
            x = Tensor(rng.standard_normal((1, 5, 24)))
            grads = tsum(mul(lm.forward(x), 0.01)).backward()
            opt.step({k: grads[t] for k, t in trainable.items() if t in grads})
        for name, before in frozen.items():
            assert np.array_equal(lm.parameters()[name].data, before), name

    def test_merged_form_matches_three_matmuls(self):
        # x @ (base + s down up) and its adjoint against x @ base + s (x @ down) @ up
        rng = np.random.default_rng(32)
        base = Tensor(rng.standard_normal((6, 9)))  # frozen
        ad = LoraAdapter.init(6, 9, 3, rng)
        ad.up = Tensor(rng.standard_normal((3, 9)))
        x = Tensor(rng.standard_normal((2, 5, 6)), requires_grad=True)
        w = rng.standard_normal((2, 5, 9))
        ad.down.requires_grad = ad.up.requires_grad = True
        out, weight = blocks.lora_apply(base, ad, x.data)
        gx, gdown, gup = blocks._lora_grads(ad, weight, x.data, w)  # the base is a constant
        oracle = block_oracle.lora_apply(base, ad, x)
        grads = tsum(mul(oracle, Tensor(w))).backward()
        assert base not in grads
        results = [[out, gx, gdown, gup],
                   [oracle.data] + [grads[leaf] for leaf in (x, ad.down, ad.up)]]
        for merged, composed in zip(*results):
            scale = max(1.0, float(np.abs(composed).max()))
            assert np.abs(merged - composed).max() <= 1e-12 * scale

    def test_trainable_count_scales_linearly_in_rank(self):
        def adapter_count(rank):
            lm = tiny_lm(seed=28)
            blocks.attach_lora(lm, rank=rank, rng=np.random.default_rng(29))
            return sum(t.data.size for k, t in lm.parameters().items() if ".lora." in k)

        assert adapter_count(256) == 32 * adapter_count(8)


class TestConfigAndStubs:
    def test_dims_invariant(self):
        cfg = LmConfig(**{**TINY, "n_heads": 4, "head_dim": 16, "n_groups": 2})
        assert cfg.d_model == 64
        with pytest.raises(ShapeError, match="n_groups"):
            LmConfig(**{**TINY, "n_heads": 4, "n_groups": 3})

    def test_nano_and_small_sizes(self):
        def size(*overrides):
            cfg = configmod.apply_overrides(configmod.Config(), list(overrides))
            lm_cfg = configmod.model_configs(cfg, vocab_size=50)[0]
            return lm_cfg.n_layers, lm_cfg.n_heads, lm_cfg.head_dim, lm_cfg.d_model

        assert size() == (4, 4, 16, 64)  # nano, the defaults
        assert size("model.n_layers=8", "model.n_heads=8") == (8, 8, 16, 128)  # small
