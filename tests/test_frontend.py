"""The batch front-end against the per-sample oracle in ``frontend_oracle``."""

import numpy as np
import pytest

from mac import pipeline
from mac import tensor as tz
from mac.connector import VARIANTS
from mac.pipeline import Sample

import frontend_oracle as oracle
from test_pipeline import tiny_captioner

LAYOUTS = [(v, p) for v in VARIANTS for p in ("prefix", "suffix")]


def captioner_and_samples(variant, sep_position="prefix", trainable="true"):
    """A tiny captioner and 8 distinct clips; odd ones take the shorter
    classification prompt and label, so prompts and captions vary in length.
    The first prompt holds a "&&", so every batch reads the separator from
    the token side too, on every layout."""
    cap, train, _ = tiny_captioner(**{
        "connector.variant": variant, "connector.sep_position": sep_position,
        "train.encoder_trainable": trainable, "data.n_train": 8,
    })
    samples = [s if i % 2 == 0 else
               Sample(audio=s.audio, prompt=cap.cfg["data.classify_prompt"], caption=s.label)
               for i, s in enumerate(train)]
    samples[0].prompt = samples[0].prompt.replace(" ", " && ", 1)
    return cap, samples


def gradients(cap, logits, targets, mask) -> dict:
    """Each trainable parameter's gradient by name; None where none reaches it."""
    grads = tz.cross_entropy(logits, targets, mask).backward()
    return {k: grads.get(p) for k, p in cap.trainable_parameters().items()}


def oracle_caption(cap, sample, max_len=8) -> str:
    """Greedy caption re-forwarded from the oracle's [audio, prompt] rows."""
    with tz.no_grad():
        vectors = oracle.build_sequence(cap, sample, "infer")[0]
        ids = pipeline._decode_full(cap, tz.reshape(vectors, (1,) + vectors.shape), max_len)
    return pipeline._caption_text(cap, ids)


def tape_nodes(loss) -> int:
    seen, todo = {id(loss)}, [loss]
    while todo:
        for parent, _ in todo.pop()._pairs:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


class TestBatchMatchesOracle:
    @pytest.mark.parametrize("variant,sep_position", LAYOUTS)
    @pytest.mark.parametrize("trainable", ["true", "false"])
    def test_logits_targets_masks_and_gradients(self, variant, sep_position, trainable):
        cap, samples = captioner_and_samples(variant, sep_position, trainable)
        for b in (1, 3, 8):
            for mode in ("train", "infer"):
                logits, targets, mask, seq = cap.batch_forward(samples[:b], mode)
                want_logits, want_targets, want_mask = oracle.batch_forward(cap, samples[:b], mode)
                assert np.array_equal(logits.data, want_logits.data), (b, mode)
                assert np.array_equal(targets, want_targets) and targets.dtype == np.int64
                assert np.array_equal(mask, want_mask) and mask.dtype == np.float64
                assert len(seq) == logits.shape[1]
                if mode == "infer":
                    continue
                got = gradients(cap, logits, targets, mask)
                want = gradients(cap, want_logits, want_targets, want_mask)
                assert got.keys() == want.keys()
                for name, g in want.items():
                    if g is None:  # the separator, in a layout without one
                        assert got[name] is None, name
                        continue
                    assert np.abs(got[name] - g).max() <= 1e-12 * np.abs(g).max(), (name, b)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_evaluate_and_greedy_captions_unchanged(self, variant):
        cap, samples = captioner_and_samples(variant)
        # give some samples the caption the model produces, so the exact and
        # F1 terms are not all zero
        for s in samples[::3]:
            s.caption = oracle_caption(cap, s) or s.caption
        with tz.no_grad():
            logits, targets, mask = oracle.batch_forward(cap, samples)
        gens = [oracle_caption(cap, s) for s in samples]
        hits = ((logits.data.argmax(axis=-1) == targets) * (mask > 0)).sum()
        want = (float(hits) / float((mask > 0).sum()),
                float(np.mean([pipeline.token_f1(g, s.caption) for g, s in zip(gens, samples)])),
                float(np.mean([g == s.caption for g, s in zip(gens, samples)])))
        assert pipeline.evaluate(cap, samples, max_len=8) == want
        assert 0.0 < want[2] < 1.0

        for s, caption in zip(samples, gens):
            assert pipeline.generate_greedy(cap, s, max_len=8, streaming=True) == caption
            assert pipeline.generate_greedy(cap, s, max_len=8, streaming=False) == caption


class TestBatchShape:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_training_tape_size_does_not_depend_on_batch(self, variant):
        cap, samples = captioner_and_samples(variant)
        counts = []
        for b in (1, 3, 8):
            logits, targets, mask, _ = cap.batch_forward(samples[:b])
            counts.append(tape_nodes(tz.cross_entropy(logits, targets, mask)))
        assert counts[0] == counts[1] == counts[2]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_the_sequence_is_one_gather(self, variant, monkeypatch):
        # audio rows, separators, "&&" tokens and padding are all indices of
        # one gather; nothing joins the segments on the tape
        cap, samples = captioner_and_samples(variant)
        calls = []
        for name in ("embedding", "concat"):
            def counted(*args, op=getattr(tz, name), name=name, **kwargs):
                calls.append(name)
                return op(*args, **kwargs)
            monkeypatch.setattr(tz, name, counted)
        seq, _, _ = cap.build_sequence(samples)
        assert calls == ["embedding"]
        assert seq.vectors.requires_grad

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_padded_positions_are_zero_rows_labelled_pad(self, mode):
        cap, samples = captioner_and_samples("time_major")
        cap.sep_embedding.data[:] = 2.5  # no separator row can look like padding
        with tz.no_grad():
            seq, targets, mask = cap.build_sequence(samples, mode)
        ends = [len(oracle.build_sequence(cap, s, mode)[1]) for s in samples]
        assert len(seq) == max(ends) > min(ends)
        for r, end in enumerate(ends):
            assert (seq.segments[r, end:] == "pad").all()
            assert not (seq.segments[r, :end] == "pad").any()
            assert np.all(seq.vectors.data[r, end:] == 0.0)
            assert np.all(np.abs(seq.vectors.data[r, :end]).max(axis=-1) > 0.0)
            assert not targets[r, end:].any() and not mask[r, end:].any()
