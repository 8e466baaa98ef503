"""The numerics fingerprint of ``tests/fingerprint.py`` is deterministic:
one cell run in two fresh processes gives the same JSON, so no hidden
state, such as a shared RNG or a cache, reaches the numbers it hashes."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("fingerprint.py")
CELL = "concatenation/trainable/fp32"


def test_one_cell_in_two_fresh_processes_gives_one_fingerprint(tmp_path):
    outs = [tmp_path / f"run{i}.json" for i in range(2)]
    runs = [subprocess.Popen([sys.executable, str(SCRIPT), "--cells", CELL, "--out", str(out)])
            for out in outs]
    assert [run.wait(timeout=120) for run in runs] == [0, 0]
    first, second = (out.read_bytes() for out in outs)
    assert first == second
    cell = json.loads(first)[CELL]
    assert len(cell["losses"]) == 3
    hashed = cell["sha256"]
    assert {"evaluate", "captions/streaming", "captions/full"} <= set(hashed)
    for name in ("param/lm.blocks.0.in_proj.base", "grad/0/lm.blocks.0.in_proj.lora.up",
                 "grad/2/encoder.layers.0.weight"):
        assert name in hashed
