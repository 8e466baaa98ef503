"""Connector layouts, lengths, separator placement, MLP contract."""

import numpy as np
import pytest

from mac import tensor as tz
from mac.audio import AudioTokenGrid
from mac.connector import ConnectorConfig, ConnectorMlp, connect, mlp_forward
from mac.tensor import ContractError, ShapeError, Tensor

from conftest import check_gradients


def make_grid(rng, t, f, d) -> AudioTokenGrid:
    return AudioTokenGrid(Tensor(rng.standard_normal((t, f, d))))


def build(variant, t=4, f=3, d_enc=5, d_model=8, **over):
    cfg = ConnectorConfig(variant=variant, d_enc=d_enc, grid_t=t, grid_f=f,
                          d_model=d_model, **over)
    mlp = ConnectorMlp(cfg, np.random.default_rng(0))
    return cfg, mlp


class TestLengths:
    def test_paper_geometry_concatenation(self):
        rng = np.random.default_rng(1)
        cfg, mlp = build("concatenation", t=64, f=8, d_enc=768, d_model=16)
        assert cfg.mlp_in == 6144
        with tz.no_grad():
            seq = connect(make_grid(rng, 64, 8, 768), cfg, mlp, tz.zeros((16,)))
        assert len(seq) == 64
        assert all(s == "audio" for s in seq.segments)

    def test_paper_geometry_time_major(self):
        rng = np.random.default_rng(2)
        cfg, mlp = build("time_major", t=64, f=8, d_enc=16, d_model=16)
        with tz.no_grad():
            seq = connect(make_grid(rng, 64, 8, 16), cfg, mlp, tz.zeros((16,)))
        assert len(seq) == 64 * (8 + 1) == 576

    def test_paper_geometry_frequency_major(self):
        rng = np.random.default_rng(3)
        cfg, mlp = build("frequency_major", t=64, f=8, d_enc=16, d_model=16)
        with tz.no_grad():
            seq = connect(make_grid(rng, 64, 8, 16), cfg, mlp, tz.zeros((16,)))
        assert len(seq) == (64 + 1) * 8 == 520

    def test_degenerate_grid_single_token(self):
        rng = np.random.default_rng(4)
        cfg, mlp = build("concatenation", t=1, f=1, d_enc=6, d_model=8)
        grid = make_grid(rng, 1, 1, 6)
        with tz.no_grad():
            seq = connect(grid, cfg, mlp, tz.zeros((8,)))
            direct = mlp_forward(tz.reshape(grid.tokens, (1, 6)), mlp)
        assert len(seq) == 1
        np.testing.assert_array_equal(seq.vectors.data, direct.data)

    def test_length_formulas_random_geometries(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            t = int(rng.integers(1, 65))
            f = int(rng.integers(1, 65))
            grid = make_grid(rng, t, f, 3)
            for variant, expect in (
                ("concatenation", t),
                ("time_major", t * (f + 1)),
                ("frequency_major", (t + 1) * f),
            ):
                cfg, mlp = build(variant, t=t, f=f, d_enc=3, d_model=4)
                with tz.no_grad():
                    seq = connect(grid, cfg, mlp, tz.zeros((4,)))
                assert len(seq) == expect == cfg.out_length, (variant, t, f)

    def test_geometry_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        cfg, mlp = build("concatenation", t=4, f=3, d_enc=5)
        with pytest.raises(ShapeError, match="does not match"):
            connect(make_grid(rng, 4, 2, 5), cfg, mlp, tz.zeros((8,)))


class TestSeparators:
    def test_time_major_separator_positions(self):
        rng = np.random.default_rng(8)
        t, f = 5, 3
        cfg, mlp = build("time_major", t=t, f=f, d_enc=4)
        sep = Tensor(np.full(8, 7.25))
        with tz.no_grad():
            seq = connect(make_grid(rng, t, f, 4), cfg, mlp, sep)
        for pos, label in enumerate(seq.segments):
            should_be_sep = pos % (f + 1) == f
            assert (label == "separator") == should_be_sep
            if should_be_sep:
                np.testing.assert_array_equal(seq.vectors.data[pos], sep.data)

    def test_frequency_major_prefix_and_suffix(self):
        rng = np.random.default_rng(9)
        t, f = 4, 3
        grid = make_grid(rng, t, f, 4)
        sep = Tensor(np.full(8, -3.5))

        cfg, mlp = build("frequency_major", t=t, f=f, d_enc=4, sep_position="prefix")
        with tz.no_grad():
            seq = connect(grid, cfg, mlp, sep)
        assert [i for i, s in enumerate(seq.segments) if s == "separator"] == [
            b * (t + 1) for b in range(f)
        ]

        cfg2, mlp2 = build("frequency_major", t=t, f=f, d_enc=4, sep_position="suffix")
        with tz.no_grad():
            seq2 = connect(grid, cfg2, mlp2, sep)
        assert [i for i, s in enumerate(seq2.segments) if s == "separator"] == [
            b * (t + 1) + t for b in range(f)
        ]
        assert len(seq) == len(seq2) == (t + 1) * f

    def test_b_and_c_contain_identical_token_multisets(self):
        # same per-token MLP, different order: non-separator rows must match
        # as multisets when weights are shared
        rng = np.random.default_rng(10)
        t, f = 6, 4
        grid = make_grid(rng, t, f, 5)
        cfg_b, mlp = build("time_major", t=t, f=f, d_enc=5)
        cfg_c = ConnectorConfig(variant="frequency_major", d_enc=5, grid_t=t,
                                grid_f=f, d_model=8)
        sep = Tensor(np.zeros(8))
        with tz.no_grad():
            seq_b = connect(grid, cfg_b, mlp, sep)
            seq_c = connect(grid, cfg_c, mlp, sep)
        rows_b = [tuple(v) for v, s in zip(seq_b.vectors.data, seq_b.segments)
                  if s == "audio"]
        rows_c = [tuple(v) for v, s in zip(seq_c.vectors.data, seq_c.segments)
                  if s == "audio"]
        assert sorted(rows_b) == sorted(rows_c)

    def test_connect_is_pure(self):
        rng = np.random.default_rng(11)
        grid = make_grid(rng, 3, 2, 4)
        cfg, mlp = build("time_major", t=3, f=2, d_enc=4)
        with tz.no_grad():
            a = connect(grid, cfg, mlp, tz.zeros((8,))).vectors.data
            b = connect(grid, cfg, mlp, tz.zeros((8,))).vectors.data
        assert np.array_equal(a, b)


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
        cfg = ConnectorConfig(variant="time_major", d_enc=d, grid_t=1, grid_f=1,
                              d_model=d, hidden_mult=4)
        mlp = ConnectorMlp(cfg, np.random.default_rng(12))
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
        check_gradients(lambda: tz.tsum(tz.mul(mlp_forward(x, mlp), w)), leaves)

    def test_input_dim_mismatch(self):
        cfg, mlp = build("concatenation", t=2, f=2, d_enc=3)
        with pytest.raises(ShapeError):
            mlp_forward(Tensor(np.ones((4, 5))), mlp)


class TestConfig:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ContractError):
            ConnectorConfig(variant="qformer")

    def test_bad_sep_position_rejected(self):
        with pytest.raises(ContractError):
            ConnectorConfig(sep_position="middle")

    def test_sep_embedding_shape_checked(self):
        rng = np.random.default_rng(16)
        cfg, mlp = build("time_major", t=2, f=2, d_enc=3)
        with pytest.raises(ShapeError, match="separator"):
            connect(make_grid(rng, 2, 2, 3), cfg, mlp, tz.zeros((5,)))
