"""CLI surface: subcommands, exit codes, error prefixes, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mac import cli, config as configmod

TINY_OVERRIDES = [
    "--set", "model.preset=custom",
    "--set", "model.n_layers=2",
    "--set", "model.d_model=32",
    "--set", "model.n_heads=4",
    "--set", "model.head_dim=8",
    "--set", "model.d_state=8",
    "--set", "audio.mel_frames=128",
    "--set", "audio.d_enc=16",
    "--set", "audio.channels=8,16,16",
    "--set", "data.n_train=4",
    "--set", "data.n_eval=2",
    "--set", "train.steps_per_epoch=2",
    "--set", "train.epochs_stage1=1",
    "--set", "train.epochs_stage2=1",
]


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasics:
    def test_dump_config_round_trips(self, capsys):
        code, out, _ = run_cli(["dump-config"], capsys)
        assert code == 0
        assert configmod.parse_text(out) == configmod.Config()

    def test_usage_error_exit_1(self, capsys):
        code, _, err = run_cli(["no-such-command"], capsys)
        assert code == 1
        assert err.startswith("error_code=usage")

    def test_config_error_exit_2(self, capsys):
        code, _, err = run_cli(["train", "--set", "model.bogus=1", "--out", "/tmp/x"],
                               capsys)
        assert code == 2
        assert err.startswith("error_code=config")

    def test_bad_model_dims_exit_2(self, tmp_path, capsys):
        custom = ["model.preset=custom"]
        for settings, key in ((["model.n_groups=0"], "model.n_groups"),
                              (["model.n_groups=3"], "model.n_groups"),
                              (["model.conv_width=0"], "model.conv_width"),
                              (custom + ["model.n_layers=0"], "model.n_layers"),
                              (custom + ["model.n_heads=0", "model.d_model=0"], "model.n_heads"),
                              (custom + ["model.head_dim=0", "model.d_model=0"], "model.head_dim"),
                              (custom + ["model.n_heads=0", "model.d_model=0"], "model.d_model")):
            setting = " ".join(settings)
            args = [a for s in settings for a in ("--set", s)]
            code, _, err = run_cli(["train"] + args + ["--out", str(tmp_path / "run")], capsys)
            assert code == 2, setting
            assert err.startswith("error_code=config") and key in err, err
        assert not (tmp_path / "run").exists()
        configmod.apply_overrides(configmod.Config(), ["model.conv_width=1"])  # still valid

    def test_runtime_error_exit_3(self, capsys):
        code, _, err = run_cli(["infer", "--checkpoint", "/nonexistent.ckpt",
                                "--wav", "/nonexistent.wav"], capsys)
        assert code == 3
        assert err.startswith("error_code=runtime")

    def test_interrupt_exit_3_claims_no_flush(self, tmp_path, capsys, monkeypatch):
        from mac import pipeline

        def interrupted(cfg, out_dir, tag=""):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "run_experiment", interrupted)
        code, _, err = run_cli(["train", "--out", str(tmp_path / "run")] + TINY_OVERRIDES,
                               capsys)
        assert code == 3
        assert err.startswith("error_code=interrupted")
        assert "nothing was flushed" in err
        assert "checkpoint flushed" not in err and "partial outputs" not in err

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "mac.cli", "dump-config"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "model.preset" in proc.stdout


class TestMakeData:
    def test_writes_wavs_and_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "corpus")
        code, stdout, _ = run_cli(["make-data", "--out", out, "--n", "5",
                                   "--seed", "1"], capsys)
        assert code == 0
        manifest = stdout.strip()
        assert os.path.exists(manifest)
        lines = Path(manifest).read_text().splitlines()
        assert len(lines) == 5
        from mac.audio import load_wav

        first_wav = os.path.join(out, "clip_0000.wav")
        assert load_wav(first_wav).shape == (160000,)


class TestTrainInferDiagnose:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("run"))
        code = cli.main(["train", "--out", out, "--seed", "7"] + TINY_OVERRIDES)
        assert code == 0
        return out

    def test_train_determinism_same_seed(self, trained, tmp_path, capsys):
        out2 = str(tmp_path / "again")
        code, _, _ = run_cli(["train", "--out", out2, "--seed", "7"] + TINY_OVERRIDES,
                             capsys)
        assert code == 0
        a = Path(trained, "metrics.csv").read_bytes()
        b = Path(out2, "metrics.csv").read_bytes()
        assert a == b

    def test_infer_prints_caption(self, trained, tmp_path, capsys):
        from mac import synth

        wav = str(tmp_path / "query.wav")
        from mac.audio import write_wav

        write_wav(wav, synth.render({"kind": "tone", "freq": 220.0, "seed": 0}))
        code, out, _ = run_cli([
            "infer", "--checkpoint", os.path.join(trained, "final.ckpt"),
            "--wav", wav,
            "--prompt", "Write an audio caption describing the sound",
        ], capsys)
        assert code == 0
        assert out.strip()  # a caption string on stdout

    def test_diagnose_erank_grid_csv(self, trained, tmp_path, capsys):
        out_csv = str(tmp_path / "erank.csv")
        code, stdout, _ = run_cli([
            "diagnose", "erank",
            "--checkpoint", os.path.join(trained, "final.ckpt"),
            "--dataset", "synthetic", "--n", "3", "--out", out_csv,
        ], capsys)
        assert code == 0
        lines = Path(out_csv).read_text().splitlines()
        assert lines[0].startswith("model,erank(")
        assert lines[1].startswith("custom,")

    def test_diagnose_cosine_and_state_dist(self, trained, tmp_path, capsys):
        ck = os.path.join(trained, "final.ckpt")
        cos_csv = str(tmp_path / "cos.csv")
        code, _, _ = run_cli(["diagnose", "cosine", "--checkpoint", ck,
                              "--n", "2", "--out", cos_csv], capsys)
        assert code == 0
        value = float(Path(cos_csv).read_text().splitlines()[1].split(",")[1])
        assert -1.0 <= value <= 1.0

        sd_csv = str(tmp_path / "sd.csv")
        code, _, _ = run_cli(["diagnose", "state-dist", "--checkpoint", ck,
                              "--n", "1", "--out", sd_csv], capsys)
        assert code == 0
        lines = Path(sd_csv).read_text().splitlines()
        assert lines[0] == "sample,position,distance"
        assert len(lines) >= 2  # tiny grid has 2 audio positions -> 1 distance
        assert float(lines[1].split(",")[2]) >= 0.0


class TestBench:
    def test_bench_csv_and_slope(self, tmp_path, capsys):
        out_csv = str(tmp_path / "bench.csv")
        code, stdout, _ = run_cli(["bench", "--mode", "chunked",
                                   "--lengths", "32,64,128", "--out", out_csv], capsys)
        assert code == 0
        assert "fitted log-log slope" in stdout
        assert os.path.exists(out_csv)

    def test_bad_lengths_usage_error(self, capsys):
        code, _, err = run_cli(["bench", "--lengths", "64,32"], capsys)
        assert code == 1
        assert "error_code=usage" in err
