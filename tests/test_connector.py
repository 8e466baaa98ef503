"""Connector layouts, lengths, separator placement, MLP contract."""

import tracemalloc

import numpy as np
import pytest

from mac import tensor as tz
from mac.connector import SEP, VARIANTS, ConnectorConfig, ConnectorMlp, connect, mlp_forward
from mac.tensor import ContractError, ShapeError, Tensor

import frontend_oracle
import tensor_oracle
from conftest import check_gradients, recorded_nodes
from tensor_oracle import mul, take, tsum
from test_pipeline import tiny_captioner


def make_grid(rng, t, f, d, b=1) -> Tensor:
    """Encoder tokens [b, t, f, d]."""
    return Tensor(rng.standard_normal((b, t, f, d)))


def vectors(out, sep: Tensor) -> Tensor:
    """The audio segment [B, L_a, D] of ``connect``'s output: its rows, and
    the separator where the index map reads ``SEP``, in one gather. The
    separator enters the table only when some position reads it."""
    if not (out.index == SEP).any():
        return tz.embedding([out.rows], out.index)
    rows = [out.rows, tz.reshape(sep, (1, sep.shape[0]))]
    return tz.embedding(rows, np.where(out.index == SEP, out.rows.shape[0], out.index))


def build(variant, t=4, f=3, d_enc=5, d_model=8, hidden_mult=4, sep_position="prefix"):
    cfg = ConnectorConfig(variant=variant, d_enc=d_enc, grid_t=t, grid_f=f, d_model=d_model,
                          hidden_mult=hidden_mult, sep_position=sep_position)
    mlp = ConnectorMlp(cfg, np.random.default_rng(0))
    return cfg, mlp


class TestLengths:
    def test_paper_geometry_concatenation(self):
        rng = np.random.default_rng(1)
        cfg, mlp = build("concatenation", t=64, f=8, d_enc=768, d_model=16)
        assert cfg.mlp_in == 6144
        with tz.no_grad():
            seq = connect(make_grid(rng, 64, 8, 768), cfg, mlp)
        assert len(seq) == 64
        assert (seq.segments == "audio").all()
        assert np.array_equal(seq.index, np.arange(64)[None])

    def test_paper_geometry_time_major(self):
        rng = np.random.default_rng(2)
        cfg, mlp = build("time_major", t=64, f=8, d_enc=16, d_model=16)
        with tz.no_grad():
            seq = connect(make_grid(rng, 64, 8, 16), cfg, mlp)
        assert len(seq) == 64 * (8 + 1) == 576

    def test_paper_geometry_frequency_major(self):
        rng = np.random.default_rng(3)
        cfg, mlp = build("frequency_major", t=64, f=8, d_enc=16, d_model=16)
        with tz.no_grad():
            seq = connect(make_grid(rng, 64, 8, 16), cfg, mlp)
        assert len(seq) == (64 + 1) * 8 == 520

    def test_degenerate_grid_single_token(self):
        rng = np.random.default_rng(4)
        cfg, mlp = build("concatenation", t=1, f=1, d_enc=6, d_model=8)
        grid = make_grid(rng, 1, 1, 6)
        with tz.no_grad():
            seq = connect(grid, cfg, mlp)
            direct = mlp_forward(tz.reshape(grid, (1, 6)), mlp)
        assert len(seq) == 1
        np.testing.assert_array_equal(vectors(seq, tz.zeros((8,))).data[0], direct.data)

    def test_length_formulas_random_geometries(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            t = int(rng.integers(1, 65))
            f = int(rng.integers(1, 65))
            b = int(rng.integers(1, 4))
            grid = make_grid(rng, t, f, 3, b)
            for variant, expect in (
                ("concatenation", t),
                ("time_major", t * (f + 1)),
                ("frequency_major", (t + 1) * f),
            ):
                cfg, mlp = build(variant, t=t, f=f, d_enc=3, d_model=4)
                with tz.no_grad():
                    seq = connect(grid, cfg, mlp)
                assert len(seq) == expect, (variant, t, f)
                assert vectors(seq, tz.zeros((4,))).shape == (b, expect, 4)
                assert seq.index.shape == seq.segments.shape == (b, expect)

    def test_geometry_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        cfg, mlp = build("concatenation", t=4, f=3, d_enc=5)
        with pytest.raises(ShapeError, match="do not match"):
            connect(make_grid(rng, 4, 2, 5), cfg, mlp)
        with pytest.raises(ShapeError, match="do not match"):
            connect(Tensor(make_grid(rng, 4, 3, 5).data[0]), cfg, mlp)


class TestSeparators:
    def test_time_major_separator_positions(self):
        rng = np.random.default_rng(8)
        t, f = 5, 3
        cfg, mlp = build("time_major", t=t, f=f, d_enc=4)
        sep = Tensor(np.full(8, 7.25))
        with tz.no_grad():
            seq = connect(make_grid(rng, t, f, 4, b=2), cfg, mlp)
            vecs = vectors(seq, sep).data
        for row in range(2):
            for pos, label in enumerate(seq.segments[row]):
                should_be_sep = pos % (f + 1) == f
                assert (label == "separator") == should_be_sep == (seq.index[row, pos] == SEP)
                if should_be_sep:
                    np.testing.assert_array_equal(vecs[row, pos], sep.data)

    def test_frequency_major_prefix_and_suffix(self):
        rng = np.random.default_rng(9)
        t, f = 4, 3
        grid = make_grid(rng, t, f, 4)
        cfg, mlp = build("frequency_major", t=t, f=f, d_enc=4, sep_position="prefix")
        with tz.no_grad():
            seq = connect(grid, cfg, mlp)
        assert [i for i, s in enumerate(seq.segments[0]) if s == "separator"] == [
            b * (t + 1) for b in range(f)
        ]

        cfg2, mlp2 = build("frequency_major", t=t, f=f, d_enc=4, sep_position="suffix")
        with tz.no_grad():
            seq2 = connect(grid, cfg2, mlp2)
        assert [i for i, s in enumerate(seq2.segments[0]) if s == "separator"] == [
            b * (t + 1) + t for b in range(f)
        ]
        assert len(seq) == len(seq2) == (t + 1) * f
        for out in (seq, seq2):
            assert np.array_equal(out.index[0] == SEP, out.segments[0] == "separator")

    def test_b_and_c_contain_identical_token_multisets(self):
        # same per-token MLP, different order: non-separator rows must match
        # as multisets when weights are shared
        rng = np.random.default_rng(10)
        t, f = 6, 4
        grid = make_grid(rng, t, f, 5)
        cfg_b, mlp = build("time_major", t=t, f=f, d_enc=5)
        cfg_c, _ = build("frequency_major", t=t, f=f, d_enc=5)
        sep = Tensor(np.zeros(8))
        with tz.no_grad():
            seq_b, seq_c = connect(grid, cfg_b, mlp), connect(grid, cfg_c, mlp)
            vecs_b, vecs_c = vectors(seq_b, sep).data, vectors(seq_c, sep).data
        rows_b = [tuple(v) for v, s in zip(vecs_b[0], seq_b.segments[0]) if s == "audio"]
        rows_c = [tuple(v) for v, s in zip(vecs_c[0], seq_c.segments[0]) if s == "audio"]
        assert sorted(rows_b) == sorted(rows_c)

    def test_connect_is_pure(self):
        rng = np.random.default_rng(11)
        grid = make_grid(rng, 3, 2, 4)
        cfg, mlp = build("time_major", t=3, f=2, d_enc=4)
        with tz.no_grad():
            a = connect(grid, cfg, mlp)
            b = connect(grid, cfg, mlp)
        assert np.array_equal(a.rows.data, b.rows.data) and np.array_equal(a.index, b.index)


class TestBatchMatchesOracle:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("sep_position", ["prefix", "suffix"])
    @pytest.mark.parametrize("b", [1, 3])
    def test_rows_labels_and_gradients(self, variant, sep_position, b):
        # every clip's rows and labels equal the per-clip connector's exactly;
        # the gradients of the MLP, the separator and the tokens agree to rounding
        rng = np.random.default_rng(17)
        t, f = 5, 3
        cfg, mlp = build(variant, t=t, f=f, d_enc=4, sep_position=sep_position)
        grid = make_grid(rng, t, f, 4, b)
        sep = Tensor(rng.standard_normal(8))
        leaves = list(mlp.parameters().values()) + [sep, grid]
        for leaf in leaves:
            leaf.requires_grad = True
        seq = connect(grid, cfg, mlp)
        vecs = vectors(seq, sep)
        weights = rng.standard_normal(vecs.shape)
        batch_grads = tsum(mul(vecs, weights)).backward()

        clips = [frontend_oracle.connect(frontend_oracle.AudioTokenGrid(take(grid, i)), cfg,
                                         mlp, sep) for i in range(b)]
        for i, (clip, segments) in enumerate(clips):
            assert np.array_equal(vecs.data[i], clip.data)
            assert list(seq.segments[i]) == segments
        oracle = tsum(tz.concat([mul(clip, weights[i])
                                 for i, (clip, _) in enumerate(clips)], axis=0))
        oracle_grads = oracle.backward()
        for leaf in leaves:
            if leaf is sep and variant == "concatenation":
                assert sep not in batch_grads and sep not in oracle_grads
                continue
            scale = np.abs(oracle_grads[leaf]).max()
            assert np.abs(batch_grads[leaf] - oracle_grads[leaf]).max() <= 1e-12 * scale


class TestMlp:
    def test_zero_weights_zero_output(self):
        cfg, mlp = build("concatenation", t=2, f=2, d_enc=3)
        for t_ in mlp.parameters().values():
            t_.data[:] = 0.0
        out = mlp_forward(Tensor(np.ones((4, 6))), mlp)
        np.testing.assert_array_equal(out.data, np.zeros((4, 8)))

    def test_identity_construction_on_positive_inputs(self):
        # scaled identity through the first layer, inverse scale after GELU:
        # for x > 0 and c large, gelu(c x)/c ~ x
        d = 6
        _, mlp = build("time_major", t=1, f=1, d_enc=d, d_model=d)  # every weight set below
        c = 10.0
        w1 = np.zeros((d, 4 * d))
        w1[:, :d] = c * np.eye(d)
        w2 = np.zeros((4 * d, d))
        w2[:d, :] = np.eye(d) / c
        mlp.w1.data[:] = w1
        mlp.b1.data[:] = 0.0
        mlp.w2.data[:] = w2
        mlp.b2.data[:] = 0.0
        x = np.random.default_rng(13).uniform(0.5, 2.0, (9, d))
        out = mlp_forward(Tensor(x), mlp)
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_gradient_check(self):
        cfg, mlp = build("concatenation", t=2, f=2, d_enc=3, d_model=4)
        x = Tensor(np.random.default_rng(14).standard_normal((5, 6)))
        w = Tensor(np.random.default_rng(15).standard_normal((5, 4)))
        leaves = list(mlp.parameters().values()) + [x]
        check_gradients(lambda: tsum(mul(mlp_forward(x, mlp), w)), leaves)

    def test_input_dim_mismatch(self):
        cfg, mlp = build("concatenation", t=2, f=2, d_enc=3)
        with pytest.raises(ShapeError):
            mlp_forward(Tensor(np.ones((4, 5))), mlp)
        with pytest.raises(ShapeError):
            mlp_forward(Tensor(np.ones((2, 2, 6))), mlp)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fused_equals_composed_oracle_bit_for_bit(self, variant):
        # the MLP rows connect() makes for each layout, at the nano widths:
        # one fused node and the five taped nodes of tensor_oracle agree in
        # the output and in all five gradients, bit for bit
        cfg, mlp = build(variant, t=4, f=8, d_enc=64, d_model=64)
        rng = np.random.default_rng(19)
        mlp.b1.data[:] = rng.standard_normal(mlp.b1.shape)
        mlp.b2.data[:] = rng.standard_normal(mlp.b2.shape)
        grid = make_grid(rng, cfg.grid_t, cfg.grid_f, cfg.d_enc, b=3)
        leaves = [grid] + list(mlp.parameters().values())
        for leaf in leaves:
            leaf.requires_grad = True
        n_rows = cfg.grid_t if variant == "concatenation" else cfg.grid_t * cfg.grid_f
        rows = tz.reshape(grid, (3 * n_rows, cfg.mlp_in))
        upstream = rng.standard_normal((3 * n_rows, cfg.d_model))
        fused, composed = mlp_forward(rows, mlp), tensor_oracle.mlp_forward(rows, mlp)
        assert recorded_nodes(fused) == recorded_nodes(rows) + 1
        assert np.array_equal(fused.data, composed.data)
        got = tsum(mul(fused, upstream)).backward()
        want = tsum(mul(composed, upstream)).backward()
        assert len(got) == len(want) == 5
        for leaf in leaves:
            assert got[leaf].dtype == want[leaf].dtype and np.array_equal(got[leaf], want[leaf])

    def test_keeps_the_pre_activation_and_its_tanh(self):
        # the composed MLP also keeps x @ w1, 0.5 x and the GELU output; the
        # fused node holds two [N, hidden] arrays beside its output
        cfg, mlp = build("time_major", t=16, f=8, d_enc=64, d_model=64)
        for t_ in mlp.parameters().values():
            t_.requires_grad = True
        rows = Tensor(np.random.default_rng(20).standard_normal((8 * 128, 64)))
        hidden = rows.shape[0] * mlp.w1.shape[1] * rows.data.itemsize
        out_bytes = rows.shape[0] * mlp.w2.shape[1] * rows.data.itemsize
        held = {}
        for name, fn in (("fused", mlp_forward), ("composed", tensor_oracle.mlp_forward)):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = fn(rows, mlp)
                held[name] = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            del out
        assert held["fused"] <= 2 * hidden + out_bytes + self.MEMORY_SLACK, held
        assert held["composed"] >= 5 * hidden, held

    # bytes the node, its closures and their cells may take: 2 kB was seen
    MEMORY_SLACK = 16 * 1024


class TestConfig:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ContractError):
            build("qformer")

    def test_bad_sep_position_rejected(self):
        with pytest.raises(ContractError):
            build("frequency_major", sep_position="middle")

    def test_sep_embedding_shape_checked(self):
        # the separator enters the captioner's one input table, on every
        # layout and also where no position reads it
        for variant in VARIANTS:
            cap, train, _ = tiny_captioner(**{"connector.variant": variant})
            cap.sep_embedding = tz.zeros((5,))
            with pytest.raises(ShapeError, match="separator"):
                cap.build_sequence(train[:2])
            with pytest.raises(ShapeError, match="separator"):
                cap.embed_tokens(np.array([[cap.vocab.sep_id]]))
