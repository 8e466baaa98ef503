"""CLI surface: subcommands, exit codes, error prefixes, determinism."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mac import checkpoint, cli, config as configmod

TINY_OVERRIDES = [
    "--set", "model.n_layers=2",
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
        for settings, key in ((["model.n_groups=0"], "model.n_groups"),
                              (["model.n_groups=3"], "model.n_groups"),
                              (["model.conv_width=0"], "model.conv_width"),
                              (["model.n_layers=0"], "model.n_layers"),
                              (["model.n_heads=0"], "model.n_heads"),
                              (["model.head_dim=0"], "model.head_dim")):
            setting = " ".join(settings)
            args = [a for s in settings for a in ("--set", s)]
            code, _, err = run_cli(["train"] + args + ["--out", str(tmp_path / "run")], capsys)
            assert code == 2, setting
            assert err.startswith("error_code=config") and key in err, err
        assert not (tmp_path / "run").exists()
        configmod.apply_overrides(configmod.Config(), ["model.conv_width=1"])  # still valid

    def test_float_out_of_range_exit_2_names_key(self, tmp_path, capsys):
        for setting in ("train.lr_stage1=nan", "train.lr_stage1=inf", "train.lr_stage1=0",
                        "train.lr_stage2=nan", "train.lr_stage2=-1e-4", "train.clip_norm=nan",
                        "train.clip_norm=-1", "train.clip_norm=inf", "train.weight_decay=-1",
                        "train.weight_decay=nan", "train.beta1=2", "train.beta1=-0.1",
                        "train.beta2=1", "train.beta2=nan"):
            code, _, err = run_cli(["train", "--set", setting, "--out", str(tmp_path / "run")],
                                   capsys)
            assert code == 2, setting
            assert err.startswith(f"error_code=config {setting.split('=')[0]} must be"), err
        assert not (tmp_path / "run").exists()
        # the closed ends stay valid: 0 turns clipping and weight decay off
        configmod.apply_overrides(configmod.Config(), ["train.clip_norm=0",
                                                       "train.weight_decay=0", "train.beta1=0",
                                                       "train.beta2=0.999"])

    EPOCHS = ("train.warmup_epochs", "train.epochs_stage1", "train.epochs_stage2")
    NO_EPOCHS = [f"{key}=0" for key in EPOCHS]
    NEGATIVE_COUNTS = [(settings, key) for key in EPOCHS + ("data.n_eval",)
                       for settings in ([f"{key}=-1"], [f"{key}=-3"])]

    def test_counts_below_zero_or_no_epoch_are_config_errors(self):
        for settings, key in self.NEGATIVE_COUNTS + [(self.NO_EPOCHS, ", ".join(self.EPOCHS))]:
            with pytest.raises(configmod.ConfigError) as err:
                configmod.apply_overrides(configmod.Config(), settings)
            assert key in str(err.value), settings
        # the bounds themselves stay valid: one epoch in any stage, no eval clips
        for key in self.EPOCHS:
            configmod.apply_overrides(configmod.Config(),
                                      self.NO_EPOCHS + [f"{key}=1", "data.n_eval=0"])

    def test_counts_below_zero_or_no_epoch_exit_2(self, tmp_path, capsys):
        for settings, key in self.NEGATIVE_COUNTS + [(self.NO_EPOCHS, "must sum to at least 1")]:
            args = [a for s in settings for a in ("--set", s)]
            code, _, err = run_cli(["train"] + args + ["--out", str(tmp_path / "run")], capsys)
            assert code == 2, settings
            assert err.startswith("error_code=config") and key in err, err
        assert not (tmp_path / "run").exists()

    def test_nonpositive_encoder_width_exit_2(self, tmp_path, capsys):
        for channels in ("0,16,16", "-4,16,16", "8,16,0"):
            code, _, err = run_cli(["train", "--set", f"audio.channels={channels}",
                                    "--out", str(tmp_path / "run")], capsys)
            assert code == 2, channels
            assert err.startswith("error_code=config") and "audio.channels" in err, err
        assert not (tmp_path / "run").exists()

    def test_config_file_that_is_not_utf8_exit_2_names_file_and_byte(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"train.seed = 3\ndata.prompt = caf\xe9\n")
        code, _, err = run_cli(["train", "--config", str(path), "--out",
                                str(tmp_path / "run")], capsys)
        assert code == 2
        assert err.startswith(f"error_code=config {path}: line 2: byte 32: not UTF-8 text")
        assert not (tmp_path / "run").exists()

    def test_runtime_error_exit_3(self, capsys):
        code, _, err = run_cli(["infer", "--checkpoint", "/nonexistent.ckpt",
                                "--wav", "/nonexistent.wav"], capsys)
        assert code == 3
        assert err.startswith("error_code=runtime")

    def test_interrupt_exit_3_claims_no_flush(self, tmp_path, capsys, monkeypatch):
        from mac import pipeline

        def interrupted(cfg, out_dir):
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
        assert "model.n_layers = 4" in proc.stdout


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

    def test_infer_max_len_defaults_to_the_checkpoint_caption_length(self, trained, tmp_path,
                                                                     capsys):
        from mac import synth
        from mac.audio import write_wav

        wav = str(tmp_path / "query.wav")
        write_wav(wav, synth.render({"kind": "noise", "bursts": 3, "seed": 1}))
        tensors, config_text, meta = checkpoint.load(os.path.join(trained, "final.ckpt"))
        short = str(tmp_path / "short.ckpt")
        checkpoint.save(short, tensors, meta=meta, config_text=config_text.replace(
            "train.max_caption_len = 24", "train.max_caption_len = 2"))
        for extra, most in (([], 2), (["--max-len", "1"], 1), (["--max-len", "30"], 30)):
            code, out, _ = run_cli(["infer", "--checkpoint", short, "--wav", wav] + extra,
                                   capsys)
            assert code == 0
            assert 0 < len(out.split()) <= most, (extra, out)
        code, out, _ = run_cli(["infer", "--checkpoint", os.path.join(trained, "final.ckpt"),
                                "--wav", wav], capsys)
        assert len(out.split()) > 2  # the trained checkpoint's 24 lets the caption run on

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
        assert lines[1].startswith("2x32,")  # n_layers x (n_heads * head_dim)

    def test_csv_lines_end_in_a_bare_newline(self, trained, tmp_path, capsys):
        # a carriage return would survive in a shell's $(head -n 1 file)
        out_csv = tmp_path / "erank.csv"
        code, _, _ = run_cli(["diagnose", "erank",
                              "--checkpoint", os.path.join(trained, "final.ckpt"),
                              "--n", "2", "--out", str(out_csv)], capsys)
        assert code == 0
        for path in (out_csv, Path(trained, "metrics.csv")):
            blob = path.read_bytes()
            assert b"\r" not in blob and blob.endswith(b"\n"), path

    def test_diagnose_reads_a_manifest_without_captions(self, trained, tmp_path, capsys):
        import json

        from mac import synth

        manifest = Path(synth.write_corpus(str(tmp_path / "corpus"), 3, seed=2))
        records = [json.loads(line) for line in manifest.read_text().splitlines()]
        manifest.write_text("".join(json.dumps({"wav": r["wav"]}) + "\n" for r in records))
        out_csv = str(tmp_path / "erank.csv")
        code, _, err = run_cli(["diagnose", "erank",
                                "--checkpoint", os.path.join(trained, "final.ckpt"),
                                "--dataset", str(manifest), "--n", "3", "--out", out_csv],
                               capsys)
        assert code == 0, err
        assert Path(out_csv).read_text().splitlines()[1].startswith("2x32,")

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

    def test_state_dist_replaces_existing_csv_whole(self, trained, tmp_path, capsys):
        sd_csv = tmp_path / "sd.csv"
        sd_csv.write_text("stale,row,here\n" * 500)
        code, _, _ = run_cli(["diagnose", "state-dist", "--checkpoint",
                              os.path.join(trained, "final.ckpt"), "--n", "2",
                              "--out", str(sd_csv)], capsys)
        assert code == 0
        lines = sd_csv.read_text().splitlines()
        assert lines[0] == "sample,position,distance"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]  # 1 distance each
        assert os.listdir(tmp_path) == ["sd.csv"]

    def test_state_dist_rejects_more_than_one_checkpoint(self, trained, tmp_path, capsys):
        ck = os.path.join(trained, "final.ckpt")
        sd_csv = tmp_path / "sd.csv"
        code, _, err = run_cli(["diagnose", "state-dist", "--checkpoint", ck,
                                "--checkpoint", ck, "--n", "1", "--out", str(sd_csv)], capsys)
        assert code == 1
        assert err.startswith("error_code=usage") and "--checkpoint" in err
        assert not sd_csv.exists()

    def test_erank_and_cosine_reject_two_checkpoints_in_one_cell(self, trained, tmp_path,
                                                                  capsys):
        # both checkpoints share (model size, connector.variant): one cell, two values
        ck = os.path.join(trained, "final.ckpt")
        other = str(tmp_path / "other.ckpt")
        shutil.copyfile(ck, other)
        for metric in ("erank", "cosine"):
            out_csv = tmp_path / f"{metric}.csv"
            code, _, err = run_cli(["diagnose", metric, "--checkpoint", ck, "--checkpoint",
                                    other, "--n", "2", "--out", str(out_csv)], capsys)
            assert code == 1
            assert err.startswith("error_code=usage") and ck in err and other in err
            assert not out_csv.exists()

    @pytest.mark.parametrize("key, value", [("diag.state_metric", "frobenius"),
                                            ("model.preset", "nano"),
                                            ("model.d_model", "64"),
                                            ("model.tie_embeddings", "true")])
    def test_bad_checkpoint_config_exit_2_names_file_line_and_key(self, trained, tmp_path,
                                                                  capsys, key, value):
        # keys that no longer exist: a checkpoint that lists one is refused
        tensors, config_text, meta = checkpoint.load(os.path.join(trained, "final.ckpt"))
        bad = str(tmp_path / "old.ckpt")
        checkpoint.save(bad, tensors, config_text=config_text + f"\n{key} = {value}", meta=meta)
        line = len(config_text.splitlines()) + 1
        for args in (["infer", "--checkpoint", bad, "--wav", "clip.wav"],
                     ["diagnose", "erank", "--checkpoint", bad, "--n", "1",
                      "--out", str(tmp_path / "erank.csv")]):
            code, _, err = run_cli(args, capsys)
            assert code == 2
            assert err.startswith(f"error_code=config {bad}: line {line}: "
                                  f"unknown config key '{key}'")

    def test_checkpoint_with_the_dropped_scan_keys_exit_2(self, trained, tmp_path, capsys):
        # the model's config once listed model.scan_mode and model.chunk_len
        # after model.n_groups; such a checkpoint is refused, not read with
        # the keys ignored
        tensors, config_text, meta = checkpoint.load(os.path.join(trained, "final.ckpt"))
        lines = config_text.splitlines()
        at = lines.index("model.n_groups = 1") + 1
        lines[at:at] = ["model.scan_mode = chunked", "model.chunk_len = 16"]
        old = str(tmp_path / "old.ckpt")
        checkpoint.save(old, tensors, config_text="\n".join(lines), meta=meta)
        code, _, err = run_cli(["infer", "--checkpoint", old, "--wav", "clip.wav"], capsys)
        assert code == 2
        assert err.startswith(f"error_code=config {old}: line {at + 1}: "
                              f"unknown config key 'model.scan_mode'; line {at + 2}: "
                              f"unknown config key 'model.chunk_len'")

    @pytest.mark.parametrize("fault, message", [
        ("rename", r"missing tensors \['lm\.blocks\.0\.skip'\]"),
        ("drop", r"missing tensors \['lm\.blocks\.0\.conv\.bias', .*\] and 1 more"),
        ("extra", r"unknown tensor 'lm\.extra'"),
        ("reshape", r"tensor lm\.blocks\.0\.skip: shape \(1, 4\) does not match model "
                    r"\(4,\)"),
    ])
    def test_checkpoint_tensor_faults_read_once_and_name_the_file(
            self, trained, tmp_path, capsys, monkeypatch, fault, message):
        tensors, config_text, meta = checkpoint.load(os.path.join(trained, "final.ckpt"))
        skip = tensors["lm.blocks.0.skip"]
        if fault == "rename":
            tensors["lm.blocks.0.skipp"] = tensors.pop("lm.blocks.0.skip")
        elif fault == "drop":
            for name in sorted(k for k in tensors if k.startswith("lm.blocks.0."))[:5]:
                del tensors[name]
        elif fault == "extra":
            tensors["lm.extra"] = skip
        else:
            tensors["lm.blocks.0.skip"] = skip.reshape(1, -1)
        bad = str(tmp_path / "bad.ckpt")
        checkpoint.save(bad, tensors, config_text=config_text, meta=meta)
        reads, load = [], checkpoint.load
        monkeypatch.setattr(checkpoint, "load", lambda path: reads.append(path) or load(path))
        code, _, err = run_cli(["infer", "--checkpoint", bad, "--wav", "clip.wav"], capsys)
        assert code == 3 and reads == [bad]
        assert re.fullmatch(f"error_code=runtime CheckpointError: {re.escape(bad)}: {message}\n",
                            err), err

    def test_infer_requires_wav(self, trained, capsys):
        code, _, err = run_cli(["infer", "--checkpoint",
                                os.path.join(trained, "final.ckpt")], capsys)
        assert code == 1 and "--wav" in err
        code, _, err = run_cli(["infer", "--checkpoint", os.path.join(trained, "final.ckpt"),
                                "--wav", "clip.wav", "--features", "grid.ckpt"], capsys)
        assert code == 1 and "unrecognized arguments: --features" in err


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

    @pytest.mark.parametrize("lengths, bad", [("64,abc", "'abc'"), ("0,64", "'0'"),
                                              ("64,-1", "'-1'"), (",", "','")])
    def test_lengths_must_be_integers_at_least_one(self, tmp_path, capsys, lengths, bad):
        out_csv = tmp_path / "bench.csv"
        code, _, err = run_cli(["bench", "--lengths", lengths, "--out", str(out_csv)], capsys)
        assert code == 1
        assert err.startswith(f"error_code=usage argument --lengths: {bad}")
        assert not out_csv.exists()


class TestClipCount:
    @pytest.mark.parametrize("command", ["erank", "cosine", "state-dist", "make-data"])
    @pytest.mark.parametrize("n", ["0", "-3", "two"])
    def test_n_below_one_is_usage_error(self, tmp_path, capsys, command, n):
        out = tmp_path / "out"
        # checked before any checkpoint is read, so none need exist
        args = (["make-data"] if command == "make-data" else
                ["diagnose", command, "--checkpoint", str(tmp_path / "m.ckpt")])
        code, _, err = run_cli(args + ["--n", n, "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith(f"error_code=usage argument --n: '{n}' is not an integer >= 1")
        assert not out.exists()


class TestCaptionLength:
    @pytest.mark.parametrize("max_len", ["0", "-1", "many"])
    def test_max_len_below_one_is_usage_error(self, tmp_path, capsys, max_len):
        # checked before the checkpoint or the clip is read, so neither need exist
        code, out, err = run_cli(["infer", "--checkpoint", str(tmp_path / "m.ckpt"),
                                  "--wav", str(tmp_path / "a.wav"), "--max-len", max_len],
                                 capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(
            f"error_code=usage argument --max-len: '{max_len}' is not an integer >= 1")
