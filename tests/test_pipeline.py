"""Tokenizer, config, sequence building, training, decoding, persistence."""

import contextlib
import gc
import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from mac import checkpoint, config as configmod, pipeline, synth
from mac import tensor as tz
from mac.pipeline import Captioner, Sample
from mac.tensor import ContractError
from mac.vocab import Vocab, VocabError

from conftest import fail_writes_part_way


def tiny_cfg(**over) -> configmod.Config:
    base = {
        "model.n_layers": "2",
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


# a valid non-default value for each key that shapes the model
MODEL_KEY_VALUES = {
    "model.n_layers": "2", "model.n_heads": "2", "model.head_dim": "8",
    "model.d_state": "8", "model.n_groups": "2", "model.conv_width": "2",
    "model.lora_rank": "4", "audio.mel_frames": "512", "audio.d_enc": "32",
    "audio.channels": "8,16,32", "audio.patches": "8x4,4x2,2x2,2x1",
    "connector.variant": "time_major", "connector.hidden_mult": "2",
    "connector.sep_position": "suffix",
}
# the other model key: the vocabulary cap, not the model's shape
RUN_KEYS = ("model.max_vocab",)


def tiny_captioner(**over) -> tuple[Captioner, list[Sample], list[Sample]]:
    cfg = tiny_cfg(**over)
    train, evl = pipeline.corpus_samples(cfg)
    vocab = pipeline.build_vocab_for(cfg, train, evl)
    return Captioner(cfg, vocab), train, evl


class TestVocab:
    def test_specials_have_fixed_ids(self):
        v = Vocab.build(["hello world"])
        assert v.eos_id == 2 and v.sep_id == 3
        assert v.words[:4] == ["<pad>", "<bos>", "<eos>", "&&"]

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
        text = "model.n_layers = soup\nconnector.variant = warp\n"
        with pytest.raises(configmod.ConfigError) as err:
            configmod.parse_text(text)
        msg = str(err.value)
        assert "n_layers" in msg and "connector.variant" in msg

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
        with pytest.raises(configmod.ConfigError, match="model.n_groups"):
            configmod.parse_text("model.n_heads = 6\nmodel.n_groups = 4\n")

    def test_every_model_key_takes_effect(self):
        # each key that shapes the model, set alone to a valid non-default value,
        # changes the typed configs or the parameter shapes, and the dumped
        # config rebuilds the same model
        keys = [k for k in configmod.SCHEMA if k.split(".")[0] in ("model", "audio", "connector")]
        assert sorted(keys) == sorted([*MODEL_KEY_VALUES, *RUN_KEYS])
        vocab = Vocab.build(["a steady tone"])

        def built(cfg):
            params = Captioner(cfg, vocab).named_parameters()
            return configmod.model_configs(cfg, len(vocab)), {k: t.data for k, t in params.items()}

        def shapes(params):
            return {k: a.shape for k, a in params.items()}

        base_typed, base_params = built(configmod.Config())
        for key, value in MODEL_KEY_VALUES.items():
            cfg = configmod.apply_overrides(configmod.Config(), [f"{key}={value}"])
            assert cfg[key] != configmod.SCHEMA[key].default, key
            typed, params = built(cfg)
            assert typed != base_typed or shapes(params) != shapes(base_params), key
            typed_again, params_again = built(configmod.parse_text(configmod.dump(cfg)))
            assert typed_again == typed, key
            assert shapes(params_again) == shapes(params), key
            assert all(np.array_equal(params_again[k], a) for k, a in params.items()), key

    def test_values_with_spaces_survive(self):
        cfg = configmod.parse_text('data.prompt = Write an audio caption describing the sound\n')
        assert cfg["data.prompt"] == "Write an audio caption describing the sound"


class TestSequenceBuilding:
    def test_segment_order_audio_prompt_caption(self):
        cap, train, _ = tiny_captioner()
        seq, _, _ = cap.build_sequence(train, mode="train")
        order = {"audio": 0, "separator": 0, "prompt": 1, "caption": 2, "pad": 3}
        for row in seq.segments:
            ranks = [order[s] for s in row]
            assert ranks == sorted(ranks)
            assert row[0] in ("audio", "separator")
            assert "caption" in row
        assert (seq.segments[:, -1] == "caption").any()

    def test_mask_counts_caption_plus_eos(self):
        cap, train, _ = tiny_captioner()
        _, _, mask = cap.build_sequence(train, mode="train")
        assert [int(m) for m in mask.sum(axis=1)] == [
            len(cap.vocab.encode(s.caption)) + 1 for s in train]

    def test_prompt_tokenizes_deterministically(self):
        cap, _, _ = tiny_captioner()
        prompt = "Write an audio caption describing the sound"
        assert cap.vocab.encode(prompt) == cap.vocab.encode(prompt)
        assert len(cap.vocab.encode(prompt)) == 7

    def test_infer_mode_has_no_targets(self):
        cap, train, _ = tiny_captioner()
        seq, targets, mask = cap.build_sequence(train[:1], mode="infer")
        assert mask.sum() == 0 and targets.shape == mask.shape == (1, len(seq))
        assert all(s in ("audio", "separator", "prompt") for s in seq.segments[0])

    def test_empty_batch_is_contract_error(self):
        cap, _, _ = tiny_captioner()
        move_adapters(cap, 0)
        for mode in ("train", "infer"):
            with pytest.raises(ContractError, match="empty batch"):
                cap.build_sequence([], mode=mode)
        with pytest.raises(ContractError, match="empty batch"):
            pipeline.evaluate(cap, [])
        assert all(a.merged is None for a in adapters(cap))
        assert tz._grad_enabled

    def test_empty_caption_rejected_in_train_mode(self):
        cap, train, _ = tiny_captioner()
        bad = Sample(audio=train[0].audio, prompt=train[0].prompt, caption="")
        with pytest.raises(ContractError, match="empty caption"):
            cap.build_sequence([train[1], bad], mode="train")
        # a caption of whitespace has no tokens either, so no loss position
        bad.caption = " \t"
        with pytest.raises(ContractError, match="empty caption"):
            pipeline.evaluate(cap, [train[1], bad])

    def test_loss_mask_ignores_prompt_positions(self):
        cap, train, _ = tiny_captioner()
        logits, targets, mask, _ = cap.batch_forward(train[:2], mode="train")
        loss_a = tz.cross_entropy(logits, targets, mask).item()
        perturbed = targets.copy()
        perturbed[mask == 0] = 1  # scribble over every unmasked position
        loss_b = tz.cross_entropy(logits, perturbed, mask).item()
        assert loss_a == loss_b

    def test_teacher_forcing_matches_streaming_forward(self):
        cap, train, _ = tiny_captioner()
        with tz.no_grad():
            logits, targets, mask, _ = cap.batch_forward(train[:1], mode="train")
            batch_loss = tz.cross_entropy(logits, targets, mask).item()

            seq, t2, m2 = cap.build_sequence(train[:1], mode="train")
            states = None
            step_logits = []
            for t in range(len(seq)):
                emb = tz.Tensor(seq.vectors.data[:, t : t + 1])
                out, states = cap.lm.forward(emb, states=states, return_states=True)
                step_logits.append(out.data[0, 0])
            stream_loss = tz.cross_entropy(
                tz.Tensor(np.stack(step_logits)), t2, m2
            ).item()
        assert abs(batch_loss - stream_loss) <= 1e-8

    def test_separator_token_uses_trainable_embedding(self):
        cap, train, _ = tiny_captioner(**{"connector.variant": "time_major"})
        cap.sep_embedding.data[:] = 123.0
        seq, _, _ = cap.build_sequence(train[:1], mode="infer")
        sep_rows = [v for v, s in zip(seq.vectors.data[0], seq.segments[0]) if s == "separator"]
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

    @pytest.mark.parametrize("encoder", ["true", "false"])
    def test_trainable_flags_are_set_when_built(self, encoder):
        # a fresh captioner's taped forward records what trains, whether or
        # not anything asked which tensors those are; asking reads the flags
        cap, train, _ = tiny_captioner(**{"train.encoder_trainable": encoder})
        flagged = {n for n, t in cap.named_parameters().items() if t.requires_grad}
        logits, targets, mask, _ = cap.batch_forward(train[:2])
        grads = tz.cross_entropy(logits, targets, mask).backward()
        reached = {n for n, t in cap.named_parameters().items() if t in grads}
        assert set(cap.trainable_parameters()) == flagged
        assert reached and reached <= flagged
        assert any(n.startswith("encoder.") for n in reached) == (encoder == "true")

    @pytest.mark.parametrize("trainable, tape", [("false", True), ("true", False), ("true", True)],
                             ids=["false", "true", "tape"])
    def test_clip_caches_are_bounded_lru(self, monkeypatch, trainable, tape):
        """A frozen encoder, and a trainable one off the tape, read the same
        bounded grid cache and keep no mel rows; a trainable encoder on the
        tape keeps the mel rows in the same bounded way and no grid."""
        cap, train, evl = tiny_captioner(**{"train.encoder_trainable": trainable})
        with contextlib.nullcontext() if tape else tz.no_grad():
            self._check_bounded_lru(cap, train + evl, monkeypatch,
                                    on_tape=tape and trainable == "true")

    @staticmethod
    def _check_bounded_lru(cap, clips, monkeypatch, on_tape):
        monkeypatch.setattr(pipeline, "CACHE_ENTRIES", 3)
        kept, unused = ((cap._mel_cache, cap._grid_cache) if on_tape
                        else (cap._grid_cache, cap._mel_cache))
        misses, encoded = [], []
        real_mel, real_encode = pipeline.audiomod.melspectrogram, pipeline.audiomod.encode
        monkeypatch.setattr(pipeline.audiomod, "melspectrogram",
                            lambda wave: misses.append(1) or real_mel(wave))

        def encode(rows, encoder):
            out = real_encode(rows, encoder)
            encoded.append(out.shape[0])
            return out

        def order(*indices):
            return [pipeline._clip_key(clips[i]) for i in indices]

        monkeypatch.setattr(pipeline.audiomod, "encode", encode)
        # clip 0 is used again, so clip 1 goes first, then clip 2
        for batch in (clips[:3], clips[:1], clips[3:5]):
            assert cap.audio_tokens(batch).shape[0] == len(batch)
        assert list(kept) == order(0, 3, 4) and not unused
        assert len(misses) == 5
        # on the tape every call encodes its whole batch; off the tape each
        # miss is encoded once, alone, and a hit encodes nothing
        assert encoded == ([3, 1, 2] if on_tape else [1] * 5)
        cap.audio_tokens(clips[:1])  # kept: the last use made it recent
        assert len(misses) == 5 and encoded == ([3, 1, 2, 1] if on_tape else [1] * 5)
        tokens = cap.audio_tokens([clips[1], clips[0], clips[1]])  # 1 was evicted: rebuilt once
        assert len(misses) == 6 and encoded == ([3, 1, 2, 1, 3] if on_tape else [1] * 6)
        assert np.array_equal(tokens.data[0], tokens.data[2])
        assert list(kept) == order(4, 0, 1) and not unused
        # a batch larger than the caches still gets every clip's tokens
        tokens = cap.audio_tokens(clips[:5])
        assert tokens.shape[0] == 5 and len(kept) == 3 and not unused
        if not on_tape:  # its misses, 2 and 3, are encoded alone
            assert len(misses) == 8 and encoded == [1] * 8

    def test_cached_grid_follows_an_in_place_weight_edit(self):
        cap, train, _ = tiny_captioner(**{"train.encoder_trainable": "false"})
        fresh, _, _ = tiny_captioner(**{"train.encoder_trainable": "false"})
        with tz.no_grad():
            cap.audio_tokens(train[:2])  # fills the grid cache
            for c in (cap, fresh):
                c.encoder.layers[0][0].data *= 2
            assert np.array_equal(cap.audio_tokens(train[:2]).data,
                                  fresh.audio_tokens(train[:2]).data)
            # a NaN weight never equals its copy, so no grid outlives it
            bias = cap.encoder.layers[1][1].data
            kept, bias[0] = bias[0], np.nan
            assert np.isnan(cap.audio_tokens(train[:2]).data).any()
            bias[0] = kept
            assert np.array_equal(cap.audio_tokens(train[:2]).data,
                                  fresh.audio_tokens(train[:2]).data)

    def test_trainable_encoder_grids_are_reused_until_a_step(self, monkeypatch, tmp_path):
        cap, train, evl = tiny_captioner(**{"train.encoder_trainable": "true"})
        encoded = []
        real_encode = pipeline.audiomod.encode

        def encode(rows, encoder):
            out = real_encode(rows, encoder)
            encoded.append(out.shape[0])
            return out

        def fresh_evaluate(name):
            cap.save(str(tmp_path / name))
            return pipeline.evaluate(pipeline.load_captioner(str(tmp_path / name)), evl,
                                     max_len=6)

        monkeypatch.setattr(pipeline.audiomod, "encode", encode)
        first = pipeline.evaluate(cap, evl, max_len=6)
        assert pipeline.evaluate(cap, evl, max_len=6) == first
        assert encoded == [1] * len(evl)  # each eval clip is encoded once, alone
        assert fresh_evaluate("before.ckpt") == first
        state = pipeline.make_train_state(cap)
        pipeline.train_step(state, train)
        encoded.clear()
        after = pipeline.evaluate(cap, evl, max_len=6)
        assert encoded == [1] * len(evl)  # the step changed the weights: encoded again
        rows = [cap._clip_rows(s, keep=False) for s in evl]
        with tz.no_grad():
            assert np.array_equal(cap.audio_tokens(evl).data, real_encode(rows, cap.encoder).data)
        assert fresh_evaluate("after.ckpt") == after

    @pytest.mark.parametrize("encoder", ["true", "false"])
    def test_grids_encoded_one_by_one_equal_one_batch_encode(self, encoder):
        # each encoder row is computed on its own, so a clip encoded alone
        # gets the tokens it gets inside a batch, bit for bit
        cap, train, evl = tiny_captioner(**{"train.encoder_trainable": encoder,
                                            "data.n_train": "6"})
        clips = train + evl
        assert len(clips) == 8
        rows = [cap._clip_rows(s, keep=False) for s in clips]
        with tz.no_grad():
            batch = pipeline.audiomod.encode(rows, cap.encoder).data
            assert np.array_equal(cap.audio_tokens(clips).data, batch)  # all misses
            assert np.array_equal(cap.audio_tokens(clips).data, batch)  # all hits

    @pytest.mark.parametrize("encoder", ["true", "false"])
    @pytest.mark.parametrize("variant", ["concatenation", "time_major", "frequency_major"])
    def test_frozen_encoder_weights_bit_invariant(self, variant, encoder):
        # a step moves only what trains, and every trainable tensor gets a
        # gradient but the separator embedding on the layout with no separators
        cap, train, _ = tiny_captioner(**{"connector.variant": variant,
                                          "train.encoder_trainable": encoder})
        trainable = cap.trainable_parameters()
        before = {k: t.data.copy() for k, t in cap.named_parameters().items()}
        state = pipeline.make_train_state(cap)
        pipeline.train_step(state, train)
        frozen = [k for k in before if k not in trainable]
        assert any(k.startswith("encoder.") for k in frozen) == (encoder == "false")
        for k in frozen:
            assert np.array_equal(cap.named_parameters()[k].data, before[k]), k
        expect = sorted(k for k in trainable
                        if not (k == "sep_embedding" and variant == "concatenation"))
        assert sorted(state.last_grads) == expect

    def test_divergence_aborts_with_dump(self, tmp_path):
        cap, train, _ = tiny_captioner()
        state = pipeline.make_train_state(cap, dump_dir=str(tmp_path))
        cap.mlp.w1.data[:] = np.inf  # force a non-finite forward
        with pytest.raises(pipeline.TrainingDiverged) as err:
            with np.errstate(invalid="ignore", over="ignore"):
                pipeline.train_step(state, train)
        assert err.value.dump_path and os.path.exists(err.value.dump_path)

    def test_divergence_dump_replaces_existing_file_whole(self, tmp_path, monkeypatch):
        cap, train, _ = tiny_captioner()
        state = pipeline.make_train_state(cap, dump_dir=str(tmp_path))
        stale = tmp_path / "diverged_step0.txt"
        stale.write_text("stale line\n" * 500)
        cap.mlp.w1.data[:] = np.inf

        fail_writes_part_way(monkeypatch)  # a failed dump keeps the previous file
        with pytest.raises(OSError, match="no space"):
            with np.errstate(invalid="ignore", over="ignore"):
                pipeline.train_step(state, train)
        monkeypatch.undo()
        assert stale.read_text() == "stale line\n" * 500
        assert os.listdir(tmp_path) == ["diverged_step0.txt"]

        with pytest.raises(pipeline.TrainingDiverged) as err:
            with np.errstate(invalid="ignore", over="ignore"):
                pipeline.train_step(state, train)
        assert err.value.dump_path == str(stale)
        lines = stale.read_text().splitlines()
        assert lines[0] == "loss=nan step=0" and lines[1] == "recent_losses="
        assert len(lines) == 2 + len(state.optimizer.params)
        assert all(line.startswith("param ") for line in lines[2:])
        assert os.listdir(tmp_path) == ["diverged_step0.txt"]

    def test_divergence_dump_reports_the_last_steps_gradients(self, tmp_path):
        cap, train, _ = tiny_captioner()
        state = pipeline.make_train_state(cap, dump_dir=str(tmp_path))
        w1 = cap.mlp.w1.data.copy()

        def diverge() -> dict[str, str]:
            cap.mlp.w1.data[:] = np.inf
            with pytest.raises(pipeline.TrainingDiverged) as err:
                with np.errstate(invalid="ignore", over="ignore"):
                    pipeline.train_step(state, train)
            cap.mlp.w1.data[:] = w1
            lines = Path(err.value.dump_path).read_text().splitlines()
            assert lines[0] == f"loss=nan step={state.step}"
            return {line.split()[1]: line for line in lines if line.startswith("param ")}

        assert not any("|g|max=" in line for line in diverge().values())  # step 0: none yet
        pipeline.train_step(state, train)
        had_grad = set(state.last_grads)
        assert had_grad and had_grad != set(state.optimizer.params)  # sep_embedding gets none
        lines = diverge()
        assert set(lines) == set(state.optimizer.params)
        assert {name for name, line in lines.items() if "|g|max=" in line} == had_grad
        for name in had_grad:
            kept = np.abs(state.last_grads[name]).max()
            assert lines[name].endswith(f" |g|max={kept:.6g}"), lines[name]

    def test_divergence_dump_reports_the_last_steps_pre_clip_norm(self, tmp_path):
        # a cap far below the gradient norm, so every step clips
        cap, train, _ = tiny_captioner(**{"train.clip_norm": "1e-6"})
        state = pipeline.make_train_state(cap, dump_dir=str(tmp_path))
        assert state.last_grad_norm is None
        pipeline.train_step(state, train)
        kept = np.sqrt(sum(float((g**2).sum()) for g in state.last_grads.values()))
        assert state.last_grad_norm == pytest.approx(kept, rel=1e-12)
        assert state.last_grad_norm > 1e-3  # the norm before clipping, not after
        cap.mlp.w1.data[:] = np.inf
        with pytest.raises(pipeline.TrainingDiverged) as err:
            with np.errstate(invalid="ignore", over="ignore"):
                pipeline.train_step(state, train)
        lines = Path(err.value.dump_path).read_text().splitlines()
        assert lines[2] == f"grad_norm={state.last_grad_norm:.6g} step=0"


LAYOUTS = ("concatenation", "time_major", "frequency_major")


# prints the minor page faults of each of five warm train steps of the
# layout given as its argument
WARM_STEP_FAULTS = """
import resource, sys
from mac import config as configmod, pipeline
cfg = configmod.apply_overrides(configmod.Config(), ["connector.variant=" + sys.argv[1]])
train, evl = pipeline.corpus_samples(cfg)
assert len(train) == 8
state = pipeline.make_train_state(
    pipeline.Captioner(cfg, pipeline.build_vocab_for(cfg, train, evl)))
for _ in range(2):  # fills the mel cache and the optimizer moments
    pipeline.train_step(state, train)
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pipeline.train_step(state, train)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestStepMemory:
    """A training step keeps its leaf gradients until the next backward, and
    what a forward or an off-tape encode holds stays bounded."""

    @pytest.mark.parametrize("variant", ["concatenation", "time_major"])
    def test_kept_gradients_are_one_generation_of_pre_clip_leaves(self, variant, monkeypatch):
        cap, train, _ = tiny_captioner(**{"connector.variant": variant,
                                          "train.clip_norm": "1e-3"})
        state = pipeline.make_train_state(cap)
        steps = record_steps(monkeypatch)
        pipeline.train_step(state, train)
        kept = state.last_grads
        (stepped, _), = steps
        assert set(kept) == set(stepped)
        assert set(kept) <= set(cap.trainable_parameters())
        assert ("sep_embedding" in kept) == (variant != "concatenation")
        # kept before clipping: the optimizer stepped on the clipped ones
        assert grads_norm(kept) > 10 * 1e-3
        assert abs(grads_norm(stepped) - 1e-3) < 1e-9
        refs = [weakref.ref(g) for g in kept.values()]
        del kept, stepped, steps[:]
        # released before the next backward, whose gradients reuse the memory
        alive, real_backward = [], tz.Tensor.backward

        def backward(loss):
            gc.collect()
            alive.extend(r() is not None for r in refs)
            return real_backward(loss)

        monkeypatch.setattr(tz.Tensor, "backward", backward)
        pipeline.train_step(state, train)
        assert alive and not any(alive)

    @pytest.mark.parametrize("variant", ["concatenation", "time_major"])
    def test_an_unclipped_step_leaves_the_kept_gradients_as_they_were(self, variant,
                                                                     monkeypatch):
        # unclipped, the optimizer reads the kept arrays themselves, which the
        # divergence dump reports; an update in place would change its figures
        cap, train, _ = tiny_captioner(**{"connector.variant": variant,
                                          "train.clip_norm": "0"})
        state = pipeline.make_train_state(cap)
        steps = record_steps(monkeypatch)
        for _ in range(2):  # the second step starts from non-zero moments
            pipeline.train_step(state, train)
            stepped, on_entry = steps[-1]
            assert stepped.keys() == on_entry.keys() == state.last_grads.keys()
            for name, g in state.last_grads.items():
                assert stepped[name] is g, name
                assert g.dtype == on_entry[name].dtype, name
                assert g.tobytes() == on_entry[name].tobytes(), name

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="counts what glibc's allocator returns to the OS")
    @pytest.mark.parametrize("variant", ["time_major", "concatenation"])
    def test_warm_step_takes_few_page_faults(self, variant):
        # in a fresh interpreter, so heap state left by earlier tests cannot
        # reach the count; with glibc's thresholds left to move, 1000-5000
        # faults were common in a time_major step, varying with the checkout's
        # path and the time of day
        flags = ["-W", "error"] + (["-X", "dev"] if sys.flags.dev_mode else [])
        proc = subprocess.run([sys.executable, *flags, "-c", WARM_STEP_FAULTS, variant],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        faults = [int(f) for f in proc.stdout.split()]
        assert len(faults) == 5, proc.stdout
        assert max(faults) < 1000, faults

    def test_allocator_thresholds_are_set_once_and_checked(self, monkeypatch):
        calls = []

        class Libc:
            def __init__(self, result):
                self.result = result

            def mallopt(self, param, value):
                calls.append((param, value))
                return self.result

        monkeypatch.setattr(pipeline.platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda name: Libc(1))
        pipeline._fix_allocator.__wrapped__()
        # the trim threshold first: M_TRIM_THRESHOLD is -1, M_MMAP_THRESHOLD -3
        assert calls == [(-1, pipeline._TRIM_THRESHOLD), (-3, pipeline._MMAP_THRESHOLD)]
        assert pipeline._MMAP_THRESHOLD <= 32 << 20  # glibc rejects more on 64-bit hosts
        monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda name: Libc(0))
        with pytest.raises(OSError, match="M_TRIM_THRESHOLD"):
            pipeline._fix_allocator.__wrapped__()
        calls.clear()
        monkeypatch.setattr(pipeline.platform, "libc_ver", lambda: ("", ""))
        pipeline._fix_allocator.__wrapped__()
        assert not calls  # not glibc: nothing to set
        # make_train_state calls the cached helper, which runs once per process
        cap, _, _ = tiny_captioner()
        pipeline.make_train_state(cap)
        pipeline.make_train_state(cap)
        assert pipeline._fix_allocator.cache_info().currsize == 1

    # bytes a tiny training forward leaves alive for backward, by layout:
    # 1.02, 1.67 and 1.80 MB here; with the batch's patch rows concatenated
    # and the connector MLP as five nodes 1.57, 2.41 and 2.54 MB, with an
    # encoder that kept a copy of each layer's patches 1.74, 2.57 and
    # 2.70 MB, and with blocks that kept their sigmoids, gate-norm output and
    # scan products 2.31, 3.58 and 3.81 MB
    HELD_BYTES = {"concatenation": 1.17e6, "time_major": 1.87e6, "frequency_major": 2.02e6}

    # bytes held at backward entry in a warm nano step when the tape kept a
    # copy of the batch's patch rows and the connector MLP's five nodes
    ROWS_COPY_HELD = {"concatenation": 25.04e6, "time_major": 62.54e6}

    @pytest.mark.parametrize("variant", ["concatenation", "time_major"])
    def test_a_nano_step_holds_no_copy_of_its_patch_rows(self, variant, monkeypatch):
        # the encoder reads each clip's cached rows in place: what backward
        # walks is at least one batch of patch rows below a tape with a copy
        cfg = configmod.apply_overrides(configmod.Config(), [f"connector.variant={variant}"])
        train, evl = pipeline.corpus_samples(cfg)
        cap = Captioner(cfg, pipeline.build_vocab_for(cfg, train, evl))
        state = pipeline.make_train_state(cap)
        pipeline.train_step(state, train)  # fills the mel cache and the moments
        e = cap.enc_cfg
        rows_bytes = (len(train) * e.mel_frames * e.mel_bins
                      * np.dtype(np.float64).itemsize)  # 8 x 4096 x 32 x 8 B
        held, real_backward = [], tz.Tensor.backward

        def backward(loss):
            held.append(tracemalloc.get_traced_memory()[0])
            return real_backward(loss)

        monkeypatch.setattr(tz.Tensor, "backward", backward)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pipeline.train_step(state, train)
        finally:
            tracemalloc.stop()
        assert held[0] - before <= self.ROWS_COPY_HELD[variant] - rows_bytes, held[0] - before

    # slack over the grids the extra clips keep, for their cache entries and
    # keys: 4.2 kB was seen; the misses encoded as one batch held 11.9 MB more
    GRID_CACHE_SLACK = 32 * 1024

    @pytest.mark.parametrize("trainable, tape", [("true", False), ("false", True)],
                             ids=["off_tape", "frozen_on_tape"])
    def test_grid_cache_misses_hold_one_clip_at_a_time(self, trainable, tape):
        # at the nano encoder's geometry a clip's patch rows take 1 MB; 8
        # misses may hold what 2 do plus the 6 more grids the cache keeps
        cap, train, _ = tiny_captioner(**{"train.encoder_trainable": trainable,
                                          "audio.mel_frames": "1024", "audio.d_enc": "64",
                                          "audio.channels": "16,32,64"})
        # tones differ only in pitch, so every clip's render and mel cost the same
        clips = [Sample(audio={"synthetic": {"kind": "tone", "freq": 200.0 + 20 * i}},
                        prompt=train[0].prompt) for i in range(11)]
        e = cap.enc_cfg
        grid_bytes = e.grid_t * e.grid_f * e.d_enc * np.dtype(np.float64).itemsize
        peaks = []
        with contextlib.nullcontext() if tape else tz.no_grad():
            cap.audio_tokens(clips[10:])  # a first miss, outside the measurement
            tracemalloc.start()
            try:
                for batch in (clips[:2], clips[2:10]):
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    tokens = cap.audio_tokens(batch)
                    peaks.append(tracemalloc.get_traced_memory()[1] - before)
                    del tokens
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 6 * grid_bytes + self.GRID_CACHE_SLACK, (peaks, grid_bytes)

    @pytest.mark.parametrize("variant", LAYOUTS)
    def test_a_training_forward_holds_a_bounded_tape(self, variant):
        cap, train, _ = tiny_captioner(**{"connector.variant": variant})
        cap.batch_forward(train)  # fills the mel cache, which is not the tape
        tracemalloc.start()
        try:
            logits, targets, mask, _ = cap.batch_forward(train)
            loss = tz.cross_entropy(logits, targets, mask)
            held = tracemalloc.get_traced_memory()[0]  # what backward would walk
        finally:
            tracemalloc.stop()
        assert loss.requires_grad
        assert held < self.HELD_BYTES[variant], held


def record_steps(monkeypatch) -> list:
    """Wrap ``AdamW.step`` to record, per call, its argument and a copy of
    that argument's arrays taken on entry."""
    calls = []
    real_step = pipeline.optim.AdamW.step

    def step(self, grads):
        calls.append((grads, {name: g.copy() for name, g in grads.items()}))
        real_step(self, grads)

    monkeypatch.setattr(pipeline.optim.AdamW, "step", step)
    return calls


def grads_norm(grads: dict) -> float:
    """Global L2 norm of a name -> gradient array mapping."""
    return float(np.sqrt(sum((g.astype(np.float64) ** 2).sum() for g in grads.values())))


# layouts whose tiny-config prefixes are one partial scan chunk (8-9
# positions) and more than one chunk (24-25)
PREFIX_VARIANTS = ("concatenation", "time_major")


def mixed_prompt_samples(cap: Captioner, samples: list[Sample]) -> list[Sample]:
    """Each sample under both configured prompts, which differ in token count."""
    return [Sample(audio=s.audio, prompt=p, caption=c)
            for s in samples
            for p, c in ((cap.cfg["data.prompt"], s.caption),
                         (cap.cfg["data.classify_prompt"], s.label))]




def move_adapters(cap: Captioner, seed: int) -> None:
    """Give every LoRA ``up`` seeded nonzero values, so each merged weight
    differs from its base (a fresh adapter's ``up`` is zero)."""
    rng = np.random.default_rng(seed)
    for name, t in cap.lm.parameters().items():
        if name.endswith(".lora.up"):
            t.data[:] = 0.1 * rng.standard_normal(t.shape)


def adapters(cap: Captioner) -> list:
    return [proj.adapter for blk in cap.lm.blocks for proj in (blk.in_proj, blk.out_proj)]


class TestCaptionerGradient:
    """``train_step``'s loss differentiated through the whole captioner: the
    encoder (on the tape when trainable), connector and its gather, the
    separator rows and the "&&" token blend, sequence building, every
    block, the tied head and the masked cross-entropy, against central
    differences."""

    EPS = 1e-5  # central-difference step
    # an error is relative to max(|reverse|, |numeric|, FLOOR): below the
    # floor the rounding of the loss (about 1e-16 / EPS) is the error
    FLOOR = 1e-5
    TOL = 1e-4
    COORDS = 3  # sampled coordinates of each trainable tensor

    @pytest.mark.parametrize("variant", LAYOUTS)
    @pytest.mark.parametrize("encoder", ["true", "false"])
    def test_reverse_mode_matches_central_differences(self, variant, encoder):
        cap, train, _ = tiny_captioner(**{"connector.variant": variant,
                                          "train.encoder_trainable": encoder})
        move_adapters(cap, seed=7)  # with up = 0 every LoRA down's gradient is 0
        params = cap.trainable_parameters()
        assert any(n.startswith("encoder.") for n in params) == (encoder == "true")
        # a "&&" in a prompt puts the separator blend on every layout's tape
        batch = [Sample(audio=train[0].audio, prompt="&& " + train[0].prompt,
                        caption=train[0].caption), train[1]]

        def loss():
            logits, targets, mask, _ = cap.batch_forward(batch)
            return tz.cross_entropy(logits, targets, mask)

        grads = loss().backward()
        rng = np.random.default_rng(8)
        errors = {}
        for name, t in params.items():
            reverse = grads[t].reshape(-1)
            flat = t.data.reshape(-1)
            for i in rng.choice(flat.size, size=min(self.COORDS, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + self.EPS
                up = loss().item()
                flat[i] = orig - self.EPS
                down = loss().item()
                flat[i] = orig
                numeric = (up - down) / (2 * self.EPS)
                scale = max(abs(reverse[i]), abs(numeric), self.FLOOR)
                errors[f"{name}[{i}]"] = abs(reverse[i] - numeric) / scale
        worst = max(errors, key=errors.get)
        assert errors[worst] < self.TOL, (worst, errors[worst])


class TestGeneration:
    def test_max_len_zero_empty(self):
        cap, train, _ = tiny_captioner()
        assert pipeline.generate_greedy(cap, train[0], max_len=0) == ""
        with tz.no_grad():
            seq, _, _ = cap.build_sequence(train[:2], mode="infer")
        assert pipeline._decode_streaming(cap, seq.vectors, [len(seq)] * 2, 0) == [[], []]

    def test_batched_streaming_equals_full_per_row(self):
        # prefixes of 8/9 positions (concatenation: one partial chunk) and of
        # 24/25 (time_major: a chunk and a padded one), plus two rows cut to
        # 1 position, whose prefill runs the recurrence
        max_len = 8
        for variant in PREFIX_VARIANTS:
            cap, train, _ = tiny_captioner(**{"connector.variant": variant})
            move_adapters(cap, 1)
            with tz.no_grad():
                seq, _, _ = cap.build_sequence(mixed_prompt_samples(cap, train), mode="infer")
                ends = [int(e) for e in (seq.segments != "pad").sum(axis=1)]
                embs = tz.Tensor(np.concatenate([seq.vectors.data, seq.vectors.data[:2]]))
                lengths = ends + [1, 1]
                batched = pipeline._decode_streaming(cap, embs, lengths, max_len)
                oracle = [pipeline._decode_full(cap, tz.Tensor(embs.data[r : r + 1, :end]),
                                              max_len)
                          for r, end in enumerate(lengths)]
            assert batched == oracle, variant
            # the list covers two prefix lengths, rows ending at <eos> before
            # max_len and rows cut at max_len
            assert len(set(ends)) == 2
            eos = cap.vocab.eos_id
            assert any(ids[-1] == eos and len(ids) < max_len for ids in batched), variant
            assert any(ids[-1] != eos and len(ids) == max_len for ids in batched), variant

    def test_evaluate_equals_per_sample_oracle(self):
        for variant in LAYOUTS:
            cap, train, evl = tiny_captioner(**{"connector.variant": variant})
            move_adapters(cap, 2)
            samples = mixed_prompt_samples(cap, train + evl)
            # give some samples the caption the model produces, so the exact
            # and F1 terms are not all zero
            for s in samples[::3]:
                s.caption = pipeline.generate_greedy(cap, s, max_len=8) or s.caption
            with tz.no_grad():
                logits, targets, mask, _ = cap.batch_forward(samples)
            hits = ((logits.data.argmax(axis=-1) == targets) * (mask > 0)).sum()
            gens = [pipeline.generate_greedy(cap, s, max_len=8, streaming=False)
                    for s in samples]
            refs = [s.caption for s in samples]
            oracle = (float(hits) / float((mask > 0).sum()),
                      float(np.mean([pipeline.token_f1(g, r) for g, r in zip(gens, refs)])),
                      float(np.mean([g == r for g, r in zip(gens, refs)])))
            assert pipeline.evaluate(cap, samples, max_len=8) == oracle, variant
            assert 0.0 < oracle[2] < 1.0, variant
            # nothing to decode still scores the teacher-forced tokens
            assert pipeline.evaluate(cap, samples, max_len=0) == (oracle[0], 0.0, 0.0), variant

    def test_streaming_equals_full_recompute(self):
        # streaming merges each adapter once per call; the full re-forward
        # merges in every projection, so moved adapters make the two differ
        # wherever the merged weight does
        for variant in LAYOUTS:
            for seed in (0, 1, 2):
                cap, train, _ = tiny_captioner(**{"train.seed": str(seed),
                                                  "connector.variant": variant})
                move_adapters(cap, seed)
                for s in train[:2]:
                    a = pipeline.generate_greedy(cap, s, max_len=10, streaming=True)
                    b = pipeline.generate_greedy(cap, s, max_len=10, streaming=False)
                    assert a == b, (variant, seed)

    def test_token_f1(self):
        assert pipeline.token_f1("a b c", "a b c") == 1.0
        assert pipeline.token_f1("a b", "c d") == 0.0
        assert pipeline.token_f1("", "a") == 0.0
        assert pipeline.token_f1("a x", "a y") == pytest.approx(0.5)


class TestMergedDecode:
    """A decode call merges each LoRA projection once; nothing outlives it."""

    def test_no_merged_weight_after_evaluate_or_generate(self):
        cap, train, evl = tiny_captioner()
        move_adapters(cap, 0)
        pipeline.evaluate(cap, train + evl, max_len=6)
        assert all(a.merged is None for a in adapters(cap))
        pipeline.generate_greedy(cap, train[0], max_len=6)
        assert all(a.merged is None for a in adapters(cap))

    def test_no_merged_weight_after_a_step_raises(self, monkeypatch):
        cap, train, _ = tiny_captioner()
        real_forward = cap.lm.forward
        merged_in_step = []

        def forward(embs, states=None, return_states=False):
            if states is not None:  # a 1-token step, inside the merge
                merged_in_step.append(all(a.merged is not None for a in adapters(cap)))
                raise RuntimeError("step failed")
            return real_forward(embs, states=states, return_states=return_states)

        monkeypatch.setattr(cap.lm, "forward", forward)
        with pytest.raises(RuntimeError, match="step failed"):
            pipeline.generate_greedy(cap, train[0], max_len=6)
        assert merged_in_step == [True]
        assert all(a.merged is None for a in adapters(cap))
        assert tz._grad_enabled

    def test_training_after_evaluate_is_bit_identical(self):
        runs = []
        for evaluate_first in (False, True):
            cap, train, evl = tiny_captioner()
            move_adapters(cap, 4)
            if evaluate_first:
                pipeline.evaluate(cap, evl, max_len=6)
            state = pipeline.make_train_state(cap)
            losses = [pipeline.train_step(state, train) for _ in range(3)]
            up = {n: g for n, g in state.last_grads.items() if n.endswith("lora.up")}
            assert up and all(np.abs(g).max() > 0 for g in up.values())
            runs.append((losses, {n: p.data.copy() for n, p in state.optimizer.params.items()}))
        (losses_a, params_a), (losses_b, params_b) = runs
        assert losses_a == losses_b
        assert all(np.array_equal(params_a[n], params_b[n]) for n in params_a)

    @pytest.mark.parametrize("max_len", [1, 4, 12])
    def test_one_merge_per_projection_per_call(self, monkeypatch, max_len):
        cap, train, _ = tiny_captioner()
        merges = []
        real_merge = pipeline.blocks._merged_weight
        monkeypatch.setattr(pipeline.blocks, "_merged_weight",
                            lambda base, adapter: merges.append(1) or real_merge(base, adapter))
        with tz.no_grad():
            seq, _, _ = cap.build_sequence(mixed_prompt_samples(cap, train), mode="infer")
        lengths = [int(e) for e in (seq.segments != "pad").sum(axis=1)]
        assert len(set(lengths)) == 2  # two prefill groups in one call
        pipeline._decode_streaming(cap, seq.vectors, lengths, max_len)
        assert len(merges) == 2 * cap.cfg["model.n_layers"]

    def test_evaluate_prefills_each_prefix_once_and_merges_once(self, monkeypatch):
        cap, train, evl = tiny_captioner()
        move_adapters(cap, 3)
        samples = mixed_prompt_samples(cap, train + evl)
        merges, cold = [], []
        real_merge, real_forward = pipeline.blocks._merged_weight, pipeline.blocks.SsmLm.forward

        def forward(lm, embs, states=None, return_states=False):
            if states is None:  # a pass that starts at position 0
                cold.append(embs.shape[:2])
            return real_forward(lm, embs, states=states, return_states=return_states)

        monkeypatch.setattr(pipeline.blocks, "_merged_weight",
                            lambda base, adapter: merges.append(1) or real_merge(base, adapter))
        monkeypatch.setattr(pipeline.blocks.SsmLm, "forward", forward)
        pipeline.evaluate(cap, samples, max_len=6)
        assert len(merges) == 2 * cap.cfg["model.n_layers"]
        with tz.no_grad():
            _, _, mask = cap.build_sequence(samples)
        prefixes = mask.argmax(axis=1) + 1
        assert len(set(prefixes)) == 2  # two prefill groups in one call
        assert sorted(cold) == sorted((int((prefixes == p).sum()), int(p))
                                      for p in set(prefixes))


class TestCheckpoint:
    def test_save_load_forward_bit_identical(self, tmp_path):
        cap, train, _ = tiny_captioner()
        path = str(tmp_path / "full.ckpt")
        cap.save(path)
        back = pipeline.load_captioner(path)
        with tz.no_grad():
            a = cap.batch_forward(train[:2])[0]
            b = back.batch_forward(train[:2])[0]
        assert np.array_equal(a.data, b.data)

    def test_vocabulary_gap_is_checkpoint_error(self, tmp_path):
        cap, _, _ = tiny_captioner()
        path = str(tmp_path / "gap.ckpt")
        cap.save(path)
        tensors, config_text, meta = checkpoint.load(path)
        del meta["vocab.1"]
        checkpoint.save(path, tensors, config_text=config_text, meta=meta)
        with pytest.raises(checkpoint.CheckpointError,
                           match=f"{re.escape(path)}: vocabulary entry 'vocab.1' is missing"):
            pipeline.load_captioner(path)

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
        checkpoint.save(path, {"w": np.ones(2), "s": np.float64(3.0)},
                        config_text="a.b = 1\nc.d = x", meta={"kind": "full"})
        tensors, cfg_text, meta = checkpoint.load(path)
        assert cfg_text == "a.b = 1\nc.d = x"
        assert meta["kind"] == "full"
        np.testing.assert_array_equal(tensors["w"], np.ones(2))
        assert tensors["s"].shape == () and tensors["s"] == 3.0  # 0-d stays 0-d


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


    def test_training_manifest_record_without_caption_names_file_and_line(self, tmp_path):
        manifest = Path(synth.write_corpus(str(tmp_path / "corpus"), 3, seed=0))
        lines = manifest.read_text().splitlines()
        record = json.loads(lines[1])
        del record["caption"]
        lines[1] = json.dumps(record)
        manifest.write_text("\n".join(lines) + "\n")
        cfg = tiny_cfg(**{"data.source": "manifest", "data.manifest": str(manifest),
                          "data.n_train": 2, "data.n_eval": 1})
        where = re.escape(str(manifest))
        with pytest.raises(synth.ManifestError, match=f"{where} line 2: record has no 'caption'"):
            pipeline.corpus_samples(cfg)
        # reading it for inference still works: only training needs captions
        assert [r.get("caption") is None for r in synth.read_manifest(str(manifest))] == [
            False, True, False]


class TestSynthCorpus:
    def test_manifest_line_that_is_not_json_names_file_and_line(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text('{"wav": "a.wav", "caption": "a tone"}\n\n{"wav": "b.wav",\n')
        where = re.escape(str(manifest))
        with pytest.raises(synth.ManifestError, match=f"{where} line 3: not JSON"):
            synth.read_manifest(str(manifest))

    def test_manifest_record_without_wav_names_file_and_line(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text('{"wav": "a.wav", "caption": "a tone"}\n{"caption": "a chirp"}\n')
        where = re.escape(str(manifest))
        with pytest.raises(synth.ManifestError, match=f"{where} line 2: record has no 'wav'"):
            synth.read_manifest(str(manifest))

    @pytest.mark.parametrize("line, message", [
        (b'{"wav": 5, "caption": "a tone"}', "record's 'wav' is int, not a string"),
        (b'{"wav": "b.wav", "caption": ["a", "tone"]}', "record's 'caption' is list, not a string"),
        (b'{"wav": "b.wav", "caption": ""}', "record has no 'caption'"),
        (b'{"wav": "b\xe9.wav", "caption": "a tone"}', "byte 48: not UTF-8 text"),
    ])
    def test_manifest_record_faults_name_file_and_line(self, tmp_path, line, message):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_bytes(b'{"wav": "a.wav", "caption": "a tone"}\n' + line + b"\n")
        where = re.escape(str(manifest))
        with pytest.raises(synth.ManifestError, match=f"{where} line 2: {re.escape(message)}"):
            synth.read_manifest(str(manifest), required=("wav", "caption"))

    def test_interrupted_write_leaves_no_manifest_or_the_earlier_one(self, tmp_path,
                                                                      monkeypatch):
        real_render, real_replace = synth.render, os.replace
        calls = []

        def render(spec):
            calls.append(spec)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real_render(spec)

        def files(path):
            return {p.name: p.read_bytes() for p in Path(path).iterdir()}

        done = Path(synth.write_corpus(str(tmp_path / "done"), 4, seed=0))
        before = files(done.parent)
        assert sorted(before) == ["clip_0000.wav", "clip_0001.wav", "clip_0002.wav",
                                  "clip_0003.wav", "manifest.jsonl"]
        monkeypatch.setattr(synth, "render", render)
        with pytest.raises(KeyboardInterrupt):
            synth.write_corpus(str(tmp_path / "fresh"), 4, seed=1)
        assert os.listdir(tmp_path / "fresh") == []
        # a re-run stopped while rendering leaves the earlier corpus, clips too
        calls.clear()
        with pytest.raises(KeyboardInterrupt):
            synth.write_corpus(str(done.parent), 4, seed=1)
        assert files(done.parent) == before
        monkeypatch.setattr(synth, "render", real_render)

        # one stopped while moving clips into place leaves no manifest
        def replace(src, dst):
            if dst.endswith("clip_0002.wav"):
                raise KeyboardInterrupt
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(KeyboardInterrupt):
            synth.write_corpus(str(done.parent), 4, seed=1)
        assert sorted(files(done.parent)) == ["clip_0000.wav", "clip_0001.wav",
                                              "clip_0002.wav", "clip_0003.wav"]
        monkeypatch.setattr(os, "replace", real_replace)

        # a finished re-run names only its own clips
        synth.write_corpus(str(done.parent), 4, seed=1)
        fresh = Path(synth.write_corpus(str(tmp_path / "fresh"), 4, seed=1))
        assert files(done.parent) == files(fresh.parent) != before

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

    # numpy's small allocations in a render (the fade ramp, the rng, scalars)
    RENDER_SLACK = 16 * 1024

    def test_render_holds_at_most_one_more_waveform(self):
        # every kind builds its waveform in place; a chirp's phase takes one
        # more array of its size, the other kinds less
        specs = {}
        for rec in synth.make_corpus(14, seed=1):
            specs.setdefault(rec["spec"]["kind"], rec["spec"])
        assert sorted(specs) == ["chirp", "clicks", "noise", "overlap", "tone"]
        for kind, spec in specs.items():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                wave = synth.render(spec)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= 2 * wave.nbytes + self.RENDER_SLACK, (kind, peak / wave.nbytes)
