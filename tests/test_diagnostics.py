"""eRank, covariance, cosine similarity, state distances, scaling bench."""

import os
from pathlib import Path

import numpy as np
import pytest

from mac import diagnostics, pipeline, ssd
from mac import tensor as tz
from mac.diagnostics import (
    FeatureMatrix,
    erank,
    erank_of_tokens,
    mean_pairwise_cosine,
    normalized_covariance,
    scaling_bench,
    state_update_distances,
)
from mac.tensor import ContractError

from conftest import fail_writes_part_way
from test_pipeline import tiny_captioner

ERANK_211 = 2.8284271247461900976033774484194  # exp(0.5 ln2 + 0.5 ln4) = 2^1.5


class TestNormalizedCovariance:
    def test_antipodal_pair_is_rank_one_projector(self):
        u = np.array([0.6, 0.8])
        cov = normalized_covariance(FeatureMatrix(np.stack([u, -u])))
        np.testing.assert_allclose(cov, np.outer(u, u), atol=1e-12)
        assert abs(np.trace(cov) - 1.0) < 1e-12
        assert np.linalg.matrix_rank(cov) == 1

    def test_symmetric_orthonormal_pair_gives_half_half(self):
        rows = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]])
        cov = normalized_covariance(FeatureMatrix(rows))
        np.testing.assert_allclose(cov, 0.5 * np.eye(2), atol=1e-12)

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((50, 16))
        cov = normalized_covariance(FeatureMatrix(rows))

        mean = rows.mean(axis=0)
        acc = np.zeros((16, 16))
        for i in range(50):
            u = rows[i] - mean
            u = u / np.linalg.norm(u)
            acc += np.outer(u, u)
        acc /= 50
        assert np.abs(cov - acc).max() <= 1e-12

    def test_trace_is_one(self):
        rng = np.random.default_rng(1)
        cov = normalized_covariance(FeatureMatrix(rng.standard_normal((30, 7))))
        assert abs(np.trace(cov) - 1.0) <= 1e-10

    def test_zero_norm_tokens_skipped_with_warning(self):
        mean_row = np.array([1.0, 2.0])
        rows = np.stack([mean_row + [1, 0], mean_row - [1, 0], mean_row])
        # third token equals the mean of... recompute: mean includes it; craft
        # directly: duplicate rows make centered-zero entries
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        with pytest.warns(UserWarning, match="skipped 1"):
            cov = normalized_covariance(FeatureMatrix(rows))
        assert abs(np.trace(cov) - 1.0) < 1e-12

    def test_all_identical_tokens_error(self):
        rows = np.ones((5, 3))
        with pytest.warns(UserWarning):
            with pytest.raises(ContractError, match="undefined"):
                normalized_covariance(FeatureMatrix(rows))

    def test_too_few_tokens(self):
        with pytest.raises(ContractError):
            normalized_covariance(FeatureMatrix(np.ones((1, 3))))


class TestErank:
    def test_rank_one_matrix(self):
        assert erank(np.outer([1.0, 2.0], [3.0, 4.0, 5.0])) == pytest.approx(1.0)

    def test_two_equal_singular_values(self):
        assert erank(np.diag([1.0, 1.0])) == pytest.approx(2.0)

    def test_spectrum_2_1_1(self):
        assert abs(erank(np.diag([2.0, 1.0, 1.0])) - ERANK_211) <= 1e-6

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 9))
        for c in (1e-4, 0.5, 3.0, 1e5):
            assert erank(c * m) == pytest.approx(erank(m), abs=1e-8)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((7, 7))
        q1, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        q2, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        assert abs(erank(q1 @ m @ q2) - erank(m)) <= 1e-8

    def test_zero_matrix_rejected(self):
        with pytest.raises(ContractError):
            erank(np.zeros((3, 3)))

    def test_range_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n, d = int(rng.integers(2, 20)), int(rng.integers(2, 12))
            value = erank(rng.standard_normal((n, d)))
            assert 1.0 - 1e-9 <= value <= min(n, d) + 1e-9

    def test_isotropic_gaussian_tokens_approach_dim(self):
        values = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            feats = FeatureMatrix(rng.standard_normal((4000, 8)))
            values.append(erank_of_tokens(feats))
        assert abs(np.mean(values) - 8.0) / 8.0 < 0.10

    def test_erank_of_tokens_centered_flag(self):
        rng = np.random.default_rng(5)
        feats = FeatureMatrix(rng.standard_normal((40, 6)))
        on_cov = erank_of_tokens(feats, on="covariance")
        on_raw = erank_of_tokens(feats, on="centered")
        assert on_cov != pytest.approx(on_raw)
        with pytest.raises(ContractError):
            erank_of_tokens(feats, on="other")


class TestCosine:
    def test_identical_tokens(self):
        rows = np.tile([1.0, 2.0, 3.0], (5, 1))
        assert mean_pairwise_cosine(FeatureMatrix(rows)) == pytest.approx(1.0)

    def test_orthogonal_pair(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert mean_pairwise_cosine(FeatureMatrix(rows)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_six_pairs(self):
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((4, 5))
        got = mean_pairwise_cosine(FeatureMatrix(rows))
        acc = []
        for i in range(4):
            for j in range(i + 1, 4):
                a, b = rows[i], rows[j]
                acc.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert abs(got - np.mean(acc)) <= 1e-12

    def test_range(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            value = mean_pairwise_cosine(FeatureMatrix(rng.standard_normal((10, 4))))
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12

    def test_too_few_usable(self):
        with pytest.warns(UserWarning):
            with pytest.raises(ContractError):
                mean_pairwise_cosine(FeatureMatrix(np.array([[1.0, 0.0], [0.0, 0.0]])))


class TestStateDistances:
    def test_zero_ssm_input_gives_zero_distances(self):
        cap, train, _ = tiny_captioner()
        for blk in cap.lm.blocks:
            blk.in_proj.base.data[:] = 0.0  # conv channels all zero -> x_ssm = 0
            blk.in_proj.adapter.up.data[:] = 0.0
            blk.conv_b.data[:] = 0.0
        mean_d, per_layer = state_update_distances(cap, train[0])
        assert mean_d.shape[0] > 0
        np.testing.assert_allclose(mean_d, 0.0, atol=1e-12)
        assert per_layer.shape[0] == len(cap.lm.blocks)

    def test_single_position_segment_empty_output(self):
        cap, train, _ = tiny_captioner(**{
            "audio.mel_frames": "8", "audio.patches": "8x16,1x8,1x1,1x1",
            "audio.channels": "8,8,8",
        })
        # grid collapses to 1x1 -> a single audio embedding (variant a)
        sample = pipeline.Sample(audio=train[0].audio, prompt="", caption=None)
        mean_d, per_layer = state_update_distances(cap, sample)
        assert mean_d.shape == (0,)

    def test_traced_distances_match_independent_rescan(self):
        # pure-numpy re-derivation of one block's recurrence
        cap, train, _ = tiny_captioner(**{"model.n_layers": "1"})
        sample = train[0]
        mean_d, per_layer = state_update_distances(cap, sample)

        with tz.no_grad():
            seq, _, _ = cap.build_sequence(sample, mode="infer")
        blk = cap.lm.blocks[0]
        x = seq.vectors.data[None, :, :]
        w = x / np.sqrt((x**2).mean(-1, keepdims=True) + 1e-5) * blk.res_norm.data

        def lora_mat(proj):
            return proj.base.data + proj.adapter.scale * (
                proj.adapter.down.data @ proj.adapter.up.data
            )

        proj = w @ lora_mat(blk.in_proj)
        cfg = cap.lm_cfg
        di, gn = cfg.d_inner, cfg.n_groups * cfg.d_state
        xbc = proj[:, :, di : di + cfg.conv_dim]
        dt_raw = proj[:, :, di + cfg.conv_dim :]
        padded = np.concatenate(
            [np.zeros((1, cfg.conv_width - 1, cfg.conv_dim)), xbc], axis=1
        )
        conv = np.zeros_like(xbc)
        for k in range(cfg.conv_width):
            conv += blk.conv_w.data[k] * padded[:, k : k + xbc.shape[1], :]
        conv += blk.conv_b.data
        conv = conv * (1.0 / (1.0 + np.exp(-conv)))
        xs = conv[:, :, :di].reshape(1, -1, cfg.n_heads, cfg.head_dim)
        bmat = conv[:, :, di : di + gn].reshape(1, -1, cfg.n_groups, cfg.d_state)
        cmat = conv[:, :, di + gn :]
        dt = np.logaddexp(0.0, dt_raw + blk.dt_bias.data)
        a = -np.exp(blk.log_a.data)

        n_audio = sum(1 for s in seq.segments if s in ("audio", "separator"))
        h = np.zeros((cfg.n_heads, cfg.head_dim, cfg.d_state))
        prev = h.copy()
        dists = []
        for t in range(n_audio):
            abar = np.exp(dt[0, t] * a)
            h = abar[:, None, None] * h + (
                dt[0, t][:, None, None]
                * bmat[0, t, 0][None, None, :]
                * xs[0, t][:, :, None]
            )
            if t > 0:
                dists.append(np.sqrt(((h - prev) ** 2).sum()))
            prev = h.copy()
        np.testing.assert_allclose(per_layer[0], dists, atol=1e-10)

    def test_per_head_mean_option(self):
        cap, train, _ = tiny_captioner()
        d_frob, _ = state_update_distances(cap, train[0], per_head_mean=False)
        d_head, _ = state_update_distances(cap, train[0], per_head_mean=True)
        assert d_frob.shape == d_head.shape
        assert not np.allclose(d_frob, d_head)


class TestScalingBench:
    def test_flop_ratio_is_exactly_two(self):
        for t in (256, 512, 4096):
            assert ssd.count_flops(2 * t, 16, 4, 16, "recurrent") == 2 * ssd.count_flops(
                t, 16, 4, 16, "recurrent"
            )

    def test_rows_and_slope_on_small_lengths(self):
        # unbatched scans, so this also runs every mode's lift at the API edge
        for mode in ssd.MODES:
            rows, slope = scaling_bench([32, 64, 128], mode=mode, repeats=1)
            assert [r[0] for r in rows] == [32, 64, 128]
            assert all(r[1] > 0 for r in rows)
            flops = [ssd.count_flops(t, 16, 4, 16, mode) for t in (32, 64, 128)]
            assert [r[2] for r in rows] == flops
            if mode != "convolutional":
                assert rows[1][2] == 2 * rows[0][2]  # analytic flops double

    def test_unsorted_lengths_rejected(self):
        with pytest.raises(ContractError):
            scaling_bench([64, 32])

    def test_decode_state_size_independent_of_history(self):
        cap, train, _ = tiny_captioner()
        with tz.no_grad():
            seq, _, _ = cap.build_sequence(train[0], mode="infer")
            embs = tz.reshape(seq.vectors, (1,) + seq.vectors.shape)
            _, states = cap.lm.forward(embs, mode="chunked", return_states=True)
            sizes_after_prefill = [s.ssm.h.size + s.conv_tail.size for s in states]
            for _ in range(7):
                step = tz.zeros((1, 1, cap.lm_cfg.d_model))
                _, states = cap.lm.forward(step, mode="recurrent", states=states,
                                           return_states=True)
            sizes_after_decode = [s.ssm.h.size + s.conv_tail.size for s in states]
        assert sizes_after_prefill == sizes_after_decode


class TestCsvEmission:
    def test_grid_csv_layout(self, tmp_path):
        path = str(tmp_path / "grid.csv")
        diagnostics.write_grid_csv(path, "erank", {
            ("nano", "concatenation"): 3.25,
            ("nano", "time_major"): 2.5,
            ("small", "concatenation"): 4.0,
        })
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "model,erank(concatenation),erank(time_major)"
        assert lines[1].startswith("nano,3.25")
        assert lines[2].startswith("small,4.0")
        assert "nan" in lines[2]

    def test_bench_csv(self, tmp_path):
        path = str(tmp_path / "bench.csv")
        diagnostics.write_bench_csv(path, [(32, 0.001, 1000)], 1.02)
        content = Path(path).read_text()
        assert "T,wall_time_s,analytic_flops" in content
        assert "fitted_slope" in content

    def test_failed_write_keeps_previous_csv(self, tmp_path, monkeypatch):
        bench, grid = str(tmp_path / "bench.csv"), str(tmp_path / "grid.csv")
        diagnostics.write_bench_csv(bench, [(32, 0.001, 1000)], 1.02)
        diagnostics.write_grid_csv(grid, "erank", {("nano", "concatenation"): 3.25})
        before = {p: Path(p).read_bytes() for p in (bench, grid)}

        fail_writes_part_way(monkeypatch)
        with pytest.raises(OSError, match="no space"):
            diagnostics.write_bench_csv(bench, [(32, 0.5, 1000), (64, 1.0, 2000)], 1.0)
        with pytest.raises(OSError, match="no space"):
            diagnostics.write_grid_csv(grid, "erank", {("small", "time_major"): 4.0})
        monkeypatch.undo()

        assert {p: Path(p).read_bytes() for p in (bench, grid)} == before
        assert sorted(os.listdir(tmp_path)) == ["bench.csv", "grid.csv"]
