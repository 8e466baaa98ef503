"""Tokenizer, config, sequence building, training, decoding, persistence."""

import os
from pathlib import Path

import numpy as np
import pytest

from mac import checkpoint, config as configmod, pipeline, ssd, synth
from mac import tensor as tz
from mac.pipeline import Captioner, Sample
from mac.tensor import ContractError
from mac.vocab import Vocab, VocabError

from conftest import fail_writes_part_way


def tiny_cfg(**over) -> configmod.Config:
    base = {
        "model.preset": "custom",
        "model.n_layers": "2",
        "model.d_model": "32",
        "model.n_heads": "4",
        "model.head_dim": "8",
        "model.d_state": "8",
        "model.lora_rank": "4",
        "audio.mel_frames": "128",
        "audio.d_enc": "16",
        "audio.channels": "8,16,16",
        "audio.patches": "8x4,4x2,2x2,1x1",
        "data.n_train": "4",
        "data.n_eval": "2",
        "train.steps_per_epoch": "2",
        "train.epochs_stage1": "1",
        "train.epochs_stage2": "1",
    }
    base.update({k: str(v) for k, v in over.items()})
    return configmod.apply_overrides(configmod.Config(), [f"{k}={v}" for k, v in base.items()])


def tiny_captioner(**over) -> tuple[Captioner, list[Sample], list[Sample]]:
    cfg = tiny_cfg(**over)
    train, evl = pipeline.corpus_samples(cfg)
    vocab = pipeline.build_vocab_for(cfg, train, evl)
    return Captioner(cfg, vocab), train, evl


class TestVocab:
    def test_specials_have_fixed_ids(self):
        v = Vocab.build(["hello world"])
        assert v.pad_id == 0 and v.bos_id == 1 and v.eos_id == 2 and v.sep_id == 3
        assert v.words[3] == "&&"

    def test_round_trip_identity(self):
        v = Vocab.build(["a steady low tone hums", "sharp clicks"])
        for text in ("a low tone", "sharp clicks hums", "&& a tone"):
            assert v.decode(v.encode(text)) == text

    def test_oov_rejected(self):
        v = Vocab.build(["known words"])
        with pytest.raises(VocabError, match="zebra"):
            v.encode("zebra")

    def test_size_cap(self):
        with pytest.raises(VocabError, match="exceeds"):
            Vocab.build([" ".join(f"w{i}" for i in range(600))], max_size=512)


class TestConfig:
    def test_dump_round_trips(self):
        cfg = configmod.Config()
        assert configmod.parse_text(configmod.dump(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(configmod.ConfigError, match="unknown config key"):
            configmod.parse_text("model.flux_capacitor = 9")

    def test_type_and_choice_errors_listed_exhaustively(self):
        text = "model.n_layers = soup\nmodel.scan_mode = warp\n"
        with pytest.raises(configmod.ConfigError) as err:
            configmod.parse_text(text)
        msg = str(err.value)
        assert "n_layers" in msg and "scan_mode" in msg

    def test_overrides_apply_after_file(self):
        cfg = configmod.parse_text("train.seed = 5\n")
        cfg = configmod.apply_overrides(cfg, ["train.seed=9", "model.lora_rank=16"])
        assert cfg["train.seed"] == 9 and cfg["model.lora_rank"] == 16

    def test_default_stage2_lr_is_stage1_over_ten(self):
        cfg = configmod.Config()
        assert cfg["train.lr_stage1"] / cfg["train.lr_stage2"] == pytest.approx(10.0)

    def test_cross_field_validation(self):
        with pytest.raises(configmod.ConfigError, match="not divisible"):
            configmod.parse_text("audio.mel_frames = 100\n")
        with pytest.raises(configmod.ConfigError, match="d_model"):
            configmod.parse_text("model.preset = custom\nmodel.d_model = 60\n")

    def test_values_with_spaces_survive(self):
        cfg = configmod.parse_text('data.prompt = Write an audio caption describing the sound\n')
        assert cfg["data.prompt"] == "Write an audio caption describing the sound"


class TestSequenceBuilding:
    def test_segment_order_audio_prompt_caption(self):
        cap, train, _ = tiny_captioner()
        seq, _, _ = cap.build_sequence(train[0], mode="train")
        order = {"audio": 0, "separator": 0, "prompt": 1, "caption": 2}
        ranks = [order[s] for s in seq.segments]
        assert ranks == sorted(ranks)
        assert seq.segments[0] in ("audio", "separator")
        assert seq.segments[-1] == "caption"

    def test_mask_counts_caption_plus_eos(self):
        cap, train, _ = tiny_captioner()
        for s in train:
            _, _, mask = cap.build_sequence(s, mode="train")
            assert int(mask.sum()) == len(cap.vocab.encode(s.caption)) + 1

    def test_prompt_tokenizes_deterministically(self):
        cap, _, _ = tiny_captioner()
        prompt = "Write an audio caption describing the sound"
        assert cap.vocab.encode(prompt) == cap.vocab.encode(prompt)
        assert len(cap.vocab.encode(prompt)) == 7

    def test_infer_mode_has_no_targets(self):
        cap, train, _ = tiny_captioner()
        seq, targets, mask = cap.build_sequence(train[0], mode="infer")
        assert mask.sum() == 0
        assert all(s in ("audio", "separator", "prompt") for s in seq.segments)

    def test_empty_caption_rejected_in_train_mode(self):
        cap, train, _ = tiny_captioner()
        bad = Sample(audio=train[0].audio, prompt=train[0].prompt, caption="")
        with pytest.raises(ContractError, match="empty caption"):
            cap.build_sequence(bad, mode="train")

    def test_loss_mask_ignores_prompt_positions(self):
        cap, train, _ = tiny_captioner()
        logits, targets, mask = cap.batch_forward(train[:2], mode="train")
        loss_a = tz.cross_entropy(logits, targets, mask).item()
        perturbed = targets.copy()
        perturbed[mask == 0] = 1  # scribble over every unmasked position
        loss_b = tz.cross_entropy(logits, perturbed, mask).item()
        assert loss_a == loss_b

    def test_teacher_forcing_matches_streaming_forward(self):
        cap, train, _ = tiny_captioner()
        with tz.no_grad():
            logits, targets, mask = cap.batch_forward(train[:1], mode="train")
            batch_loss = tz.cross_entropy(logits, targets, mask).item()

            seq, t2, m2 = cap.build_sequence(train[0], mode="train")
            states = None
            step_logits = []
            for t in range(len(seq.segments)):
                emb = tz.reshape(seq.vectors[t : t + 1, :], (1, 1, cap.lm_cfg.d_model))
                out, states = cap.lm.forward(emb, mode="recurrent", states=states,
                                             return_states=True)
                step_logits.append(out.data[0, 0])
            stream_loss = tz.cross_entropy(
                tz.Tensor(np.stack(step_logits)), t2, m2
            ).item()
        assert abs(batch_loss - stream_loss) <= 1e-8

    def test_separator_token_uses_trainable_embedding(self):
        cap, train, _ = tiny_captioner(**{"connector.variant": "time_major"})
        cap.sep_embedding.data[:] = 123.0
        seq, _, _ = cap.build_sequence(train[0], mode="infer")
        sep_rows = [v for v, s in zip(seq.vectors.data, seq.segments) if s == "separator"]
        assert sep_rows and all(np.all(r == 123.0) for r in sep_rows)
        # "&&" inside plain text resolves to the same trainable row
        emb = cap.embed_tokens(np.array([cap.vocab.sep_id]))
        assert np.all(emb.data == 123.0)


class TestTraining:
    def test_loss_decreases_on_toy_corpus(self):
        cap, train, _ = tiny_captioner()
        state = pipeline.make_train_state(cap)
        first = pipeline.train_step(state, train)
        for _ in range(60):
            last = pipeline.train_step(state, train)
        assert last < 0.5 * first

    def test_single_sample_memorization_greedy(self):
        cap, train, _ = tiny_captioner(**{"data.n_train": "1", "train.seed": "3"})
        state = pipeline.make_train_state(cap)
        for _ in range(220):
            loss = pipeline.train_step(state, train)
            if loss < 0.02:
                break
        assert pipeline.generate_greedy(cap, train[0], max_len=16) == train[0].caption

    def test_trainable_selection_contents(self):
        cap, _, _ = tiny_captioner(**{"train.encoder_trainable": "false"})
        chosen = cap.trainable_parameters()
        assert "sep_embedding" in chosen
        assert any(k.startswith("connector.") for k in chosen)
        assert all(not k.startswith("encoder.") for k in chosen)
        assert all(("lora" in k) for k in chosen if k.startswith("lm."))
        assert "lm.embedding" not in chosen

        cap, _, _ = tiny_captioner(**{"train.encoder_trainable": "true"})
        with_enc = cap.trainable_parameters()
        assert any(k.startswith("encoder.") for k in with_enc)

    def test_clip_caches_are_bounded_lru(self, monkeypatch):
        cap, train, evl = tiny_captioner(**{"train.encoder_trainable": "false"})
        clips = train + evl
        monkeypatch.setattr(pipeline, "CACHE_ENTRIES", 3)
        misses = []
        real_mel = pipeline.audiomod.melspectrogram
        monkeypatch.setattr(pipeline.audiomod, "melspectrogram",
                            lambda wave: misses.append(1) or real_mel(wave))
        for s in clips[:3] + clips[:1] + clips[3:5]:  # clip 0 used again, so clip 1 goes
            cap.audio_grid(s)
        assert len(cap._grid_cache) == len(cap._mel_cache) == 3
        assert len(misses) == 5
        cap.audio_grid(clips[0])  # kept: the last use made it recent
        assert len(misses) == 5
        cap.audio_grid(clips[1])  # evicted first, so rebuilt
        assert len(misses) == 6
        assert len(cap._grid_cache) == len(cap._mel_cache) == 3

    def test_frozen_encoder_weights_bit_invariant(self):
        cap, train, _ = tiny_captioner(**{"train.encoder_trainable": "false"})
        before = {k: t.data.copy() for k, t in cap.encoder.parameters().items()}
        state = pipeline.make_train_state(cap)
        for _ in range(3):
            pipeline.train_step(state, train)
        for k, t in cap.encoder.parameters().items():
            assert np.array_equal(t.data, before[k]), k

    def test_divergence_aborts_with_dump(self, tmp_path):
        cap, train, _ = tiny_captioner()
        state = pipeline.make_train_state(cap, dump_dir=str(tmp_path))
        cap.mlp.w1.data[:] = np.inf  # force a non-finite forward
        with pytest.raises(pipeline.TrainingDiverged) as err:
            with np.errstate(invalid="ignore", over="ignore"):
                pipeline.train_step(state, train)
        assert err.value.dump_path and os.path.exists(err.value.dump_path)


def mixed_prompt_samples(cap: Captioner, samples: list[Sample]) -> list[Sample]:
    """Each sample under both configured prompts, which differ in token count."""
    return [Sample(audio=s.audio, prompt=p, caption=c)
            for s in samples
            for p, c in ((cap.cfg["data.prompt"], s.caption),
                         (cap.cfg["data.classify_prompt"], s.label))]


class TestGeneration:
    def test_max_len_zero_empty(self):
        cap, train, _ = tiny_captioner()
        assert pipeline.generate_greedy(cap, train[0], max_len=0) == ""
        with tz.no_grad():
            seq, _, _ = cap.build_sequence(train[0], mode="infer")
        assert pipeline._decode_streaming(cap, [seq.vectors, seq.vectors], 0) == [[], []]

    def test_batched_streaming_equals_full_per_row(self):
        max_len = 8
        for mode in ssd.MODES:
            cap, train, _ = tiny_captioner(**{"model.scan_mode": mode})
            with tz.no_grad():
                prefixes = [cap.build_sequence(s, mode="infer")[0].vectors
                            for s in mixed_prompt_samples(cap, train)]
                batched = pipeline._decode_streaming(cap, prefixes, max_len)
                oracle = [pipeline._decode_full(cap, p, max_len) for p in prefixes]
            assert batched == oracle, mode
            # the list covers two prefix lengths, rows ending at <eos> before
            # max_len and rows cut at max_len
            assert len({p.shape[0] for p in prefixes}) == 2
            eos = cap.vocab.eos_id
            assert any(ids[-1] == eos and len(ids) < max_len for ids in batched), mode
            assert any(ids[-1] != eos and len(ids) == max_len for ids in batched), mode

    def test_evaluate_equals_per_sample_oracle(self):
        for mode in ssd.MODES:
            cap, train, evl = tiny_captioner(**{"model.scan_mode": mode})
            samples = mixed_prompt_samples(cap, train + evl)
            # give some samples the caption the model produces, so the exact
            # and F1 terms are not all zero
            for s in samples[::3]:
                s.caption = pipeline.generate_greedy(cap, s, max_len=8) or s.caption
            with tz.no_grad():
                logits, targets, mask = cap.batch_forward(samples)
            hits = ((logits.data.argmax(axis=-1) == targets) * (mask > 0)).sum()
            gens = [pipeline.generate_greedy(cap, s, max_len=8, streaming=False)
                    for s in samples]
            refs = [s.caption for s in samples]
            oracle = (float(hits) / float((mask > 0).sum()),
                      float(np.mean([pipeline.token_f1(g, r) for g, r in zip(gens, refs)])),
                      float(np.mean([g == r for g, r in zip(gens, refs)])))
            assert pipeline.evaluate(cap, samples, max_len=8) == oracle, mode
            assert 0.0 < oracle[2] < 1.0, mode

    def test_streaming_equals_full_recompute(self):
        # every scan mode prefills the stream itself, convolutional included
        for mode in ssd.MODES:
            for seed in (0, 1, 2):
                cap, train, _ = tiny_captioner(**{"train.seed": str(seed),
                                                  "model.scan_mode": mode})
                for s in train[:2]:
                    a = pipeline.generate_greedy(cap, s, max_len=10, streaming=True)
                    b = pipeline.generate_greedy(cap, s, max_len=10, streaming=False)
                    assert a == b, (mode, seed)

    def test_token_f1(self):
        assert pipeline.token_f1("a b c", "a b c") == 1.0
        assert pipeline.token_f1("a b", "c d") == 0.0
        assert pipeline.token_f1("", "a") == 0.0
        assert pipeline.token_f1("a x", "a y") == pytest.approx(0.5)


class TestCheckpoint:
    def test_save_load_forward_bit_identical(self, tmp_path):
        cap, train, _ = tiny_captioner()
        path = str(tmp_path / "full.ckpt")
        cap.save(path)
        back = pipeline.load_captioner(path)
        with tz.no_grad():
            a, _, _ = cap.batch_forward(train[:2])
            b, _, _ = back.batch_forward(train[:2])
        assert np.array_equal(a.data, b.data)

    def test_corrupted_payload_is_integrity_error(self, tmp_path):
        path = str(tmp_path / "trunc.ckpt")
        checkpoint.save(path, {"w": np.arange(16, dtype=np.float64)})
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-8])
        with pytest.raises(checkpoint.CheckpointError, match="integrity"):
            checkpoint.load(path)

    def test_version_mismatch(self, tmp_path):
        path = str(tmp_path / "vers.ckpt")
        checkpoint.save(path, {"w": np.zeros(3)})
        blob = Path(path).read_bytes().replace(b"MACCKPT 1", b"MACCKPT 9", 1)
        Path(path).write_bytes(blob)
        with pytest.raises(checkpoint.CheckpointError, match="version"):
            checkpoint.load(path)

    def test_adapter_checkpoint_loads_over_fresh_base(self, tmp_path):
        cap, train, _ = tiny_captioner()
        state = pipeline.make_train_state(cap)
        for _ in range(5):
            pipeline.train_step(state, train)
        path = str(tmp_path / "adapters.ckpt")
        cap.save(path, trainable_only=True)

        fresh = Captioner(cap.cfg, cap.vocab)  # same seed -> same frozen base
        fresh.load_tensors(path, subset_ok=True)
        with tz.no_grad():
            a, _, _ = cap.batch_forward(train[:2])
            b, _, _ = fresh.batch_forward(train[:2])
        assert np.array_equal(a.data, b.data)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = str(tmp_path / "model.ckpt")
        checkpoint.save(path, {"w": np.arange(16, dtype=np.float64)}, meta={"kind": "full"})
        before = Path(path).read_bytes()

        fail_writes_part_way(monkeypatch)
        with pytest.raises(OSError, match="no space"):
            checkpoint.save(path, {"w": np.zeros(64)}, meta={"kind": "other"})
        monkeypatch.undo()

        assert Path(path).read_bytes() == before
        tensors, _, meta = checkpoint.load(path)
        np.testing.assert_array_equal(tensors["w"], np.arange(16, dtype=np.float64))
        assert meta == {"kind": "full"}
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_meta_and_config_round_trip(self, tmp_path):
        path = str(tmp_path / "meta.ckpt")
        checkpoint.save(path, {"w": np.ones(2)}, config_text="a.b = 1\nc.d = x",
                        meta={"kind": "full"})
        tensors, cfg_text, meta = checkpoint.load(path)
        assert cfg_text == "a.b = 1\nc.d = x"
        assert meta["kind"] == "full"
        np.testing.assert_array_equal(tensors["w"], np.ones(2))


class TestExperiment:
    def test_run_emits_csv_and_checkpoint(self, tmp_path):
        cfg = tiny_cfg()
        rows = pipeline.run_experiment(cfg, str(tmp_path / "run"))
        assert len(rows) == 2  # one epoch per stage
        assert {r["stage"] for r in rows} == {"stage1", "stage2"}
        metrics = (tmp_path / "run" / "metrics.csv").read_text()
        assert metrics.splitlines()[0] == "epoch,stage,loss,token_acc,caption_f1,seed"
        assert os.path.exists(tmp_path / "run" / "final.ckpt")

    def test_failed_metrics_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "metrics.csv")
        row = {"epoch": 0, "stage": "stage1", "loss": 1.5, "token_acc": 0.25,
               "caption_f1": 0.5, "seed": 7}
        pipeline.write_metrics(path, [row])
        before = Path(path).read_bytes()

        fail_writes_part_way(monkeypatch)
        with pytest.raises(OSError, match="no space"):
            pipeline.write_metrics(path, [row, dict(row, epoch=1)])
        monkeypatch.undo()

        assert Path(path).read_bytes() == before
        assert os.listdir(tmp_path) == ["metrics.csv"]

    def test_same_seed_identical_csv(self, tmp_path):
        cfg = tiny_cfg()
        pipeline.run_experiment(cfg, str(tmp_path / "a"))
        pipeline.run_experiment(cfg, str(tmp_path / "b"))
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

    def test_warmup_stage_uses_classification_prompt(self, tmp_path):
        cfg = tiny_cfg(**{"train.warmup_epochs": 1})
        rows = pipeline.run_experiment(cfg, str(tmp_path / "warm"))
        assert rows[0]["stage"] == "warmup"

    def test_manifest_source(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        manifest = synth.write_corpus(corpus_dir, 6, seed=0)
        cfg = tiny_cfg(**{"data.source": "manifest", "data.manifest": manifest,
                          "data.n_train": 4, "data.n_eval": 2})
        train, evl = pipeline.corpus_samples(cfg)
        assert len(train) == 4 and len(evl) == 2
        assert all("wav" in s.audio for s in train)
        vocab = pipeline.build_vocab_for(cfg, train, evl)
        cap = Captioner(cfg, vocab)
        state = pipeline.make_train_state(cap)
        loss = pipeline.train_step(state, train)
        assert np.isfinite(loss)


class TestSynthCorpus:
    def test_deterministic(self):
        a = synth.make_corpus(10, seed=4)
        b = synth.make_corpus(10, seed=4)
        assert a == b
        wa = synth.render(a[0]["spec"])
        wb = synth.render(b[0]["spec"])
        assert np.array_equal(wa, wb)

    def test_first_eight_captions_distinct(self):
        records = synth.make_corpus(8, seed=0)
        captions = [r["caption"] for r in records]
        assert len(set(captions)) == 8

    def test_all_kinds_render_in_range(self):
        for rec in synth.make_corpus(14, seed=1):
            wave = synth.render(rec["spec"])
            assert wave.shape == (160000,)
            assert np.abs(wave).max() <= 1.0
            assert rec["label"]
