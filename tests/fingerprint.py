"""A numerics fingerprint of the captioner, to state bit identity in one command.

Each cell is one layout x encoder (trainable or frozen) x precision, at the
nano defaults with a "&&" in the prompt and one BLAS thread. A cell builds
the seeded captioner, runs ``STEPS`` training steps on the training pool,
then ``evaluate`` on the eval set and greedy captions of the eval clips,
streaming and by full re-forward. The JSON holds, per cell, the losses and a
sha256 of every parameter after the steps, of every kept (pre-clip)
gradient of every step, of the ``evaluate`` triple and of each caption path.

    PYTHONPATH=src python tests/fingerprint.py --out fp.json [--cells A,B] [--keep DIR]
    python tests/fingerprint.py --compare DIR_A DIR_B

Two checkouts give equal JSON files exactly when every hashed number is
bit-identical. ``--keep DIR`` also saves each cell's arrays, and
``--compare`` prints, per tensor, the largest difference relative to the
tensor's largest magnitude, so a reassociation can be bounded as well.
``--reverse`` runs the cells in the opposite order: a run that gives the
same JSON shows that no cell's numbers depend on the cells run before it.
No fingerprint is kept in the repository: BLAS kernels differ between CPUs,
so a hash is only comparable on one host.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: the last bits move with the count

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mac import config, pipeline

STEPS = 3
PROMPT = "Write an audio caption && describing the sound"
CELLS = ["/".join(c) for c in itertools.product(
    ("concatenation", "time_major", "frequency_major"), ("trainable", "frozen"),
    ("fp64", "fp32"))]


def digest(value: np.ndarray) -> str:
    value = np.ascontiguousarray(value)
    text = f"{value.dtype.str} {value.shape} ".encode()
    return hashlib.sha256(text + value.tobytes()).hexdigest()


def run_cell(name: str) -> dict[str, np.ndarray]:
    """The cell's numbers by name: losses, parameters, kept gradients, the
    ``evaluate`` triple and both caption paths (as string arrays)."""
    variant, encoder, precision = name.split("/")
    cfg = config.apply_overrides(config.Config(), [
        f"connector.variant={variant}", f"train.encoder_trainable={encoder == 'trainable'}",
        f"train.precision={precision}", f"data.prompt={PROMPT}"])
    train, eval_ = pipeline.corpus_samples(cfg)
    cap = pipeline.Captioner(cfg, pipeline.build_vocab_for(cfg, train, eval_))
    state = pipeline.make_train_state(cap)
    out, losses = {}, []
    for step in range(STEPS):
        losses.append(pipeline.train_step(state, train[: cfg["train.batch_size"]]))
        out.update({f"grad/{step}/{k}": g for k, g in state.last_grads.items()})
    out["losses"] = np.array(losses)
    out.update({f"param/{k}": t.data for k, t in cap.named_parameters().items()})
    out["evaluate"] = np.array(pipeline.evaluate(cap, eval_))
    max_len = cfg["train.max_caption_len"]
    for path, streaming in (("streaming", True), ("full", False)):
        out[f"captions/{path}"] = np.array(
            [pipeline.generate_greedy(cap, s, max_len, streaming=streaming) for s in eval_])
    return out


def fingerprint(cells: list[str], keep: Path | None) -> dict:
    result = {}
    for name in cells:
        arrays = run_cell(name)
        if keep is not None:
            keep.mkdir(parents=True, exist_ok=True)
            np.savez(keep / f"{name.replace('/', '.')}.npz", **arrays)
        result[name] = {"losses": arrays["losses"].tolist(),
                        "sha256": {k: digest(v) for k, v in sorted(arrays.items())}}
    return dict(sorted(result.items()))


def _arrays(path: Path) -> dict[str, np.ndarray]:
    if not path.exists():
        return {}
    with np.load(path) as saved:
        return dict(saved)


def compare(a: Path, b: Path) -> int:
    """Print, per tensor of two --keep directories, the largest difference
    relative to the tensor's largest magnitude (string arrays: equal, or
    each entry that differs, A's then B's); -> the number of tensors that
    differ or are on one side only."""
    differ = 0
    for file in sorted({p.name for p in a.glob("*.npz")} | {p.name for p in b.glob("*.npz")}):
        left, right = _arrays(a / file), _arrays(b / file)
        for key in sorted(left.keys() | right.keys()):
            x, y = left.get(key), right.get(key)
            if x is None or y is None or x.shape != y.shape or x.dtype.kind != y.dtype.kind:
                same, text = False, "on one side only, or of another shape or kind"
            elif x.dtype.kind == "U":
                same = bool((x == y).all())
                text = "equal" if same else "differ: " + "; ".join(
                    f"[{i}] {str(x[i])!r} -> {str(y[i])!r}" for i in np.flatnonzero(x != y))
            else:
                gap = float(np.abs(x.astype(np.float64) - y).max(initial=0.0))
                scale = float(np.abs(x).max(initial=0.0))
                same, text = gap == 0, f"{gap / scale if scale else gap:.3e}"
            differ += not same
            print(f"{file} {key}: {text}")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cells", default=",".join(CELLS),
                        help="comma-separated cells, layout/encoder/precision")
    parser.add_argument("--reverse", action="store_true", help="run the cells in reverse order")
    parser.add_argument("--out", help="JSON file to write (default: stdout)")
    parser.add_argument("--keep", type=Path, help="also save each cell's arrays here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two --keep directories instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    cells = args.cells.split(",")
    unknown = [c for c in cells if c not in CELLS]
    if unknown:
        parser.error(f"unknown cells {unknown}; known: {CELLS}")
    text = json.dumps(fingerprint(cells[::-1] if args.reverse else cells, args.keep),
                      indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
