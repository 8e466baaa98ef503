"""Seeded mutations of valid config, manifest and checkpoint files.

Each test parses a few hundred copies of one valid file, each either cut
short or with 1-5 random bytes replaced. A copy may still parse. A copy that
fails must fail with its parser's typed error, and the message must name the
file and a place in it. A checkpoint's bytes are replaced only in its header
and manifest: a changed payload byte loads as a changed value, since the
format carries no checksum to detect it.
"""

import re

import numpy as np
import pytest

from mac import checkpoint, synth
from mac import config as configmod

N_MUTATIONS = 300


def mutations(blob: bytes, seed: int, editable: int | None = None):
    """N_MUTATIONS copies of blob: even ones truncated at a random length,
    odd ones with 1-5 random bytes replaced among the first ``editable``."""
    rng = np.random.default_rng(seed)
    editable = len(blob) if editable is None else editable
    for i in range(N_MUTATIONS):
        if i % 2 == 0:
            yield blob[: int(rng.integers(0, len(blob)))]
        else:
            out = bytearray(blob)
            for pos in rng.integers(0, editable, int(rng.integers(1, 6))):
                out[pos] = int(rng.integers(0, 256))
            yield bytes(out)


def failures(path, blob: bytes, parse, error, seed: int, editable: int | None = None):
    """The messages of the typed errors ``parse(path)`` raises on the
    mutations of blob written to path; any other exception propagates."""
    messages = []
    for mutated in mutations(blob, seed, editable):
        path.write_bytes(mutated)
        try:
            parse(str(path))
        except error as exc:
            messages.append(str(exc))
    return messages


def assert_located(messages, pattern: str):
    assert len(messages) >= N_MUTATIONS // 4  # the mutations do break the file
    unlocated = [m for m in messages if not re.match(pattern, m)]
    assert not unlocated, unlocated[:3]


def test_config_file_mutations_fail_as_located_config_errors(tmp_path):
    path = tmp_path / "run.cfg"
    blob = configmod.dump(configmod.Config()).encode("utf-8")
    path.write_bytes(blob)
    assert configmod.parse_file(str(path)) == configmod.Config()
    keys = "|".join(re.escape(key) for key in configmod.SCHEMA)
    messages = failures(path, blob, configmod.parse_file, configmod.ConfigError, seed=1)
    # a line, or for a value out of range the key that holds it
    assert_located(messages, rf"{re.escape(str(path))}: .*(line \d+|{keys})")


def test_manifest_mutations_fail_as_located_manifest_errors(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    blob = "".join(
        f'{{"wav": "clip_{i:04d}.wav", "caption": "a low tone hums", "label": "tone"}}\n'
        for i in range(6)).encode("utf-8")
    manifest.write_bytes(blob)
    assert len(synth.read_manifest(str(manifest), required=("wav", "caption"))) == 6
    messages = failures(manifest, blob,
                        lambda p: synth.read_manifest(p, required=("wav", "caption")),
                        synth.ManifestError, seed=2)
    assert_located(messages, rf"{re.escape(str(manifest))} line \d+: ")


def test_checkpoint_mutations_fail_as_located_checkpoint_errors(tmp_path):
    path = tmp_path / "model.ckpt"
    rng = np.random.default_rng(3)
    tensors = {"blocks.0.w": rng.standard_normal((3, 4)),
               "embedding": rng.standard_normal((5, 2)).astype(np.float32),
               "scale": np.float64(2.0)}
    checkpoint.save(str(path), tensors, config_text=configmod.dump(configmod.Config()),
                    meta={"vocab.0": "<pad>", "vocab.1": "tone"})
    blob = path.read_bytes()
    text_end = blob.index(b"\n") + 1 + int(blob[: blob.index(b"\n")].split()[2])
    back, _, _ = checkpoint.load(str(path))
    assert all(np.array_equal(back[k], v) for k, v in tensors.items())
    messages = failures(path, blob, checkpoint.load, checkpoint.CheckpointError, seed=4,
                        editable=text_end)
    assert_located(messages, rf"{re.escape(str(path))}: (header|manifest line \d+|payload): ")


@pytest.mark.parametrize("line, message", [
    (b"tensor w f8 3 0 x24", r"manifest line 2: w size 'x24' is not"),
    (b"tensor w f8 -3 0 24", r"manifest line 2: w shape '-3' is not"),
    (b"tensor w f8 3 0 24 \xff", r"manifest line 2: not UTF-8 text"),
    # a second entry of one name would replace the first without a word
    (b"tensor w f8 3 0 24\ntensor w f8 3 0 24", r"manifest line 3: repeated tensor 'w'"),
    (b"tensor w f8 3 0 24\nmeta kind head", r"manifest line 3: repeated meta key 'kind'"),
])
def test_checkpoint_manifest_faults_name_file_and_line(tmp_path, line, message):
    good = tmp_path / "good.ckpt"
    checkpoint.save(str(good), {"w": np.zeros(3)}, meta={"kind": "full"})
    head, rest = good.read_bytes().split(b"\n", 1)
    manifest = rest[: int(head.split()[2])]
    assert manifest.splitlines()[1] == b"tensor w f8 3 0 24"
    new = manifest.replace(b"tensor w f8 3 0 24", line)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"MACCKPT 1 %d\n" % len(new) + new + rest[len(manifest):])
    with pytest.raises(checkpoint.CheckpointError, match=f"{re.escape(str(bad))}: {message}"):
        checkpoint.load(str(bad))
