"""The benchmark's workloads and the closed loop that times them.

Each workload is driven by a single client through the public API of
``mac``: the next operation starts only after the previous one returned.
Inputs come from the workload seed alone. See README.md for why each
workload exists and which layers it is meant to stress.

A run is: ``prepare`` once (untimed), ``setup`` (timed), then timed
operations until the run's seconds are up and at least ``MIN_OPS`` are done,
then the output checks. Setups are timed in groups of ``SETUP_REPEATS``
back-to-back, at ``SETUP_POINTS`` points spread over the run; all but the
first build throwaway copies. Untraced runs give the end-to-end metrics,
their timings scaled by a reference kernel timed next to them; traced runs
alternate traced and untraced operations and give the per-layer metrics.
"""

from __future__ import annotations

import copy
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import numpy as np

import mac
from mac import config, pipeline, synth

from perfbench.tracer import Tracer, mac_targets

SETUP_POINTS = 5
SETUP_REPEATS = 3
# Timed operations are cut, in order, into blocks that last at least this
# long together; the reference kernel is timed after each block.
BLOCK_S = 1.0
# The reference kernel's compute steps and array sweeps, and the time the
# scaled figures assume it takes: op_ms and setup_s are what the program
# would take on a machine that runs the kernel in REF_S.
REF_STEPS = 500
REF_SWEEPS = 10
REF_S = 0.010
_REF_MATRIX = np.random.default_rng(0).standard_normal((32, 32))
_REF_VECTOR = np.random.default_rng(1).standard_normal(200_000)
# train_loss.end is the mean loss over these training steps (1-based), a
# fixed window so it does not depend on how fast the machine is.
LOSS_STEPS = (11, 20)
MIN_OPS = LOSS_STEPS[1]
# peak RSS is read after this many timed operations, so it does not grow
# with the number of operations a faster program fits into the run.
RSS_OPS = 20
# training steps of the caption workloads' served model; fewer leave the
# length of its captions, hence the cost of a caption, up to chance
SERVED_STEPS = 40
CAPTION_LEN = (8, 24)
DECODE_CHECKS = 4
CLIP_BLOCK = 256


def model_config(*overrides: str) -> config.Config:
    """The program's configuration: defaults, including ``train.seed``.

    The workload seed makes the inputs, not the initial weights: across
    weight seeds the loss and the length of greedy captions, hence their
    cost, spread by 9-15%, which would hide the changes the benchmark is
    meant to show.
    """
    return config.apply_overrides(config.Config(), list(overrides))


def input_samples(seed: int, n_eval: int) -> tuple[list, list]:
    """The seed's synthetic clips: (8-clip training pool, eval set)."""
    return pipeline.corpus_samples(model_config(f"train.seed={seed}", f"data.n_eval={n_eval}"))


def _mean_window(losses: list[float]) -> float:
    lo, hi = LOSS_STEPS
    return float(np.mean(losses[lo - 1 : hi]))


class TrainWorkload:
    """Repeated ``pipeline.train_step`` on the full 8-clip synthetic pool."""

    def __init__(self, variant: str, seed: int):
        self.cfg = model_config(f"connector.variant={variant}")
        self.seed = seed

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        train, eval_ = input_samples(self.seed, self.cfg["data.n_eval"])
        vocab = pipeline.build_vocab_for(self.cfg, train, eval_)
        self.state = pipeline.make_train_state(pipeline.Captioner(self.cfg, vocab))
        self.batch = train
        pipeline.train_step(self.state, self.batch)  # warm-up: fills the mel cache
        self.losses: list[float] = []

    def next_input(self):
        return self.batch

    def op(self, batch):
        return pipeline.train_step(self.state, batch)

    def check_op(self, batch, loss) -> tuple[int, bool]:
        self.losses.append(loss)
        return len(batch), math.isfinite(loss)

    def final_checks(self) -> list[bool]:
        return [_mean_window(self.losses) < self.losses[0]]


class CaptionWorkload:
    """A briefly trained captioner, saved and reloaded, then read-path calls.

    ``phase="caption"``: ``generate_greedy`` (streaming) on distinct clips
    never seen before, so every clip misses the mel cache.
    ``phase="evaluate"``: ``evaluate`` on a fixed 8-clip eval set, so every
    clip hits the mel cache after the warm-up.
    """

    def __init__(self, phase: str, seed: int, workdir: str):
        self.phase = phase
        self.seed = seed
        self.cfg = model_config()
        self.path = os.path.join(workdir, "captioner.ckpt")
        self.rng = np.random.default_rng(seed)

    def prepare(self) -> None:
        """Train the served model on the seed's clips (untimed).

        Training runs in a child process, so the peak RSS of this one is
        that of the read path alone.
        """
        child = subprocess.run(
            [sys.executable, "-m", "perfbench.workloads", str(self.seed), self.path],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            stdout=subprocess.PIPE, text=True, check=True, timeout=600)
        self.losses = json.loads(child.stdout)
        _, self.eval_set = input_samples(self.seed, 8)
        self.trained = pipeline.load_captioner(self.path)
        self.clips: list[dict] = []
        self.served = 0
        self.outputs: list[tuple[pipeline.Sample, int, str]] = []
        self.words: Counter = Counter()
        self.warm_clip = self._clip_block(-1)[0]

    def _clip_block(self, k: int) -> list[dict]:
        # make_corpus jitters only records past its 14 base configurations;
        # the block seed keeps every clip's spec, hence its cache key, new
        first = 14
        records = synth.make_corpus(first + CLIP_BLOCK, seed=(self.seed + 1) * 7919 + k + 1)
        return [r["spec"] for r in records[first:]]

    def setup(self) -> None:
        self.trained.save(self.path)
        self.cap = pipeline.load_captioner(self.path)
        if self.phase == "caption":
            self.op((self.warm_clip, CAPTION_LEN[1]))
        else:
            self.op(None)

    def next_input(self):
        if self.phase == "evaluate":
            return None
        if self.served == len(self.clips):
            self.clips.extend(self._clip_block(len(self.clips) // CLIP_BLOCK))
        self.served += 1
        max_len = int(self.rng.integers(CAPTION_LEN[0], CAPTION_LEN[1] + 1))
        return self.clips[self.served - 1], max_len

    def op(self, inp):
        if self.phase == "evaluate":
            return pipeline.evaluate(self.cap, self.eval_set)
        spec, max_len = inp
        sample = pipeline.Sample(audio={"synthetic": spec}, prompt=self.cfg["data.prompt"])
        return sample, pipeline.generate_greedy(self.cap, sample, max_len=max_len)

    def check_op(self, inp, out) -> tuple[int, bool]:
        if self.phase == "evaluate":
            ok = all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in out)
            return len(self.eval_set), ok
        (_, max_len), (sample, caption) = inp, out
        words = len(caption.split())
        self.outputs.append((sample, max_len, caption))
        self.words[words] += 1
        # decode steps: one per word, plus the <eos> step when it ended early
        return words + (words < max_len), 0 < words <= max_len

    def final_checks(self) -> list[bool]:
        """Streaming decode equals full re-forward decode on a seed-chosen subset."""
        if self.phase == "evaluate":
            return []
        pick = self.rng.choice(len(self.outputs), size=min(DECODE_CHECKS, len(self.outputs)),
                               replace=False)
        return [
            pipeline.generate_greedy(self.cap, sample, max_len=max_len, streaming=False) == caption
            for sample, max_len, caption in (self.outputs[i] for i in sorted(pick))
        ]


def train_served(seed: int, path: str) -> list[float]:
    """Train the caption workloads' model, save it to ``path``; -> losses."""
    cfg = model_config()
    train, eval_ = input_samples(seed, 8)
    state = pipeline.make_train_state(
        pipeline.Captioner(cfg, pipeline.build_vocab_for(cfg, train, eval_)))
    losses = [pipeline.train_step(state, train) for _ in range(SERVED_STEPS)]
    state.captioner.save(path)
    return losses


WORKLOADS = {
    "train_concat": lambda seed, wd: TrainWorkload("concatenation", seed),
    "train_time_major": lambda seed, wd: TrainWorkload("time_major", seed),
    "caption_decode": lambda seed, wd: CaptionWorkload("caption", seed, wd),
    "evaluate_repeat": lambda seed, wd: CaptionWorkload("evaluate", seed, wd),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_op(workload, inp):
    """-> (seconds, output or None when the call raised)."""
    start = time.perf_counter()
    try:
        out = workload.op(inp)
    except Exception:  # a failed operation is counted, not fatal
        took = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return took, None
    return time.perf_counter() - start, out


def reference_s() -> float:
    """Time a fixed piece of work that does not touch ``mac``.

    Half of it is small fp64 array operations and interpreter steps, the
    other half sweeps over arrays larger than the caches. The program
    slows down in the host's slow states by less than the first half
    alone does, and the mix tracks it more closely on every workload.
    """
    x = _REF_MATRIX
    start = time.perf_counter()
    for _ in range(REF_STEPS):
        x = np.tanh(x @ _REF_MATRIX * 0.3)
        acc = 0.0
        for v in x[0].tolist():
            acc += v * v
    for _ in range(REF_SWEEPS):
        y = _REF_VECTOR * 1.0001
        y += _REF_VECTOR
        y.sum()
    return time.perf_counter() - start


def _timed_setups(workload, keep: bool, tracer: Tracer | None = None) -> tuple[list[float], float]:
    """Time ``SETUP_REPEATS`` setups back to back, of throwaway copies.

    With ``keep`` the last one sets up ``workload`` itself, traced when a
    tracer is given. Garbage left by earlier operations is collected first,
    outside the timing, so every setup starts from a like heap.
    -> (setup seconds, mean reference kernel seconds before and after).
    """
    gc.collect()
    ref = reference_s()
    times = []
    for i in range(SETUP_REPEATS):
        last = keep and i == SETUP_REPEATS - 1
        target = workload if last else copy.copy(workload)
        gc.collect()
        start = time.perf_counter()
        if last and tracer is not None:
            with tracer.installed():
                target.setup()
        else:
            target.setup()
        times.append(time.perf_counter() - start)
    return times, (ref + reference_s()) / 2.0


class Blocks:
    """The timed operations, cut in order into blocks of at least ``BLOCK_S``.

    ``blocks`` holds (mean seconds per operation, items per second,
    reference kernel seconds right after the block). A short last block is
    kept only when it is the only one.
    """

    def __init__(self):
        self.blocks: list[tuple[float, float, float]] = []
        self._took, self._items, self._n = 0.0, 0, 0

    def add(self, seconds: float, items: int) -> None:
        self._took += seconds
        self._items += items
        self._n += 1
        if self._took >= BLOCK_S:
            self._close()

    def finish(self) -> None:
        if self._n and not self.blocks:
            self._close()

    def _close(self) -> None:
        self.blocks.append((self._took / self._n, self._items / self._took, reference_s()))
        self._took, self._items, self._n = 0.0, 0, 0


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str):
    """Run one workload; -> (metrics by name, attempted, failed, info)."""
    workload = WORKLOADS[name](seed, workdir)
    tracer = Tracer(mac_targets(mac)) if trace else None
    workload.prepare()

    # The first group of setups ends with the one that builds the state the
    # timed operations use. The later groups run on copies between
    # operations, spread over the run.
    setups = [_timed_setups(workload, True, tracer)]
    if tracer is not None:
        load_s = tracer.counts["checkpoint.load.s"]
        tracer.reset()

    op_s, plain_s = [], []
    blocks = Blocks()
    failed = ops = 0
    rss = None
    begin = time.perf_counter()
    while ops < MIN_OPS or len(setups) < SETUP_POINTS or time.perf_counter() - begin < seconds:
        now = time.perf_counter()
        if (ops >= RSS_OPS and len(setups) < SETUP_POINTS
                and now - begin >= seconds * len(setups) / SETUP_POINTS):
            setups.append(_timed_setups(workload, False))
        inp = workload.next_input()
        if tracer is not None and ops % 2 == 0:
            with tracer.installed(), tracer.op():
                took, out = _timed_op(workload, inp)
        else:
            took, out = _timed_op(workload, inp)
            plain_s.append(took)
        op_s.append(took)
        ops += 1
        count, ok = workload.check_op(inp, out) if out is not None else (0, False)
        blocks.add(took, count)
        failed += not ok
        if ops == RSS_OPS:
            rss = peak_rss_mb()
    blocks.finish()

    checks = workload.final_checks()
    attempted = ops + len(checks)
    failed += checks.count(False)

    info = {"ops": ops, "setup_s": [times for times, _ in setups],
            "peak_rss_mb.end": peak_rss_mb()}
    if isinstance(workload, CaptionWorkload) and workload.phase == "caption":
        info["caption_words"] = dict(sorted(workload.words.items()))
    if tracer is None:
        # On a shared host the CPU slows down by up to 1.7x, for stretches of
        # seconds to many minutes, and the wall times follow. Each block's
        # mean operation time and each group's fastest setup are scaled by
        # the reference kernel timed next to them, which the slowdown
        # stretches alike. Unscaled figures go to the metadata line.
        scaled = [mean_s * REF_S / ref for mean_s, _, ref in blocks.blocks]
        ms = [1000.0 * s for s in op_s]
        metrics = {
            "setup_s": statistics.median(min(times) * REF_S / ref for times, ref in setups),
            "op_ms": 1000.0 * statistics.median(scaled),
            "peak_rss_mb": rss,
            "train_loss.end": _mean_window(workload.losses),
        }
        info["blocks"] = len(blocks.blocks)
        info["op_ms.unscaled"] = 1000.0 * statistics.median(b[0] for b in blocks.blocks)
        info["reference_ms"] = 1000.0 * statistics.median(b[2] for b in blocks.blocks)
        info["items_per_s"] = statistics.median(b[1] for b in blocks.blocks)
        info["op_ms.p50"] = statistics.median(ms)
        # highest percentile with at least ten samples above it
        if len(ms) >= 20:
            pct = math.floor(100.0 * (1.0 - 10.0 / len(ms)))
            info[f"op_ms.p{pct}"] = float(np.percentile(ms, pct))
    else:
        metrics = layer_metrics(tracer, plain_s, load_s)
    return metrics, attempted, failed, info


SELF_MS_LAYERS = (
    "ssd.scan", "tensor.backward", "blocks.block_forward", "blocks.proj", "tensor.conv1d",
    "blocks.lm_forward", "audio.mel", "synth.render", "audio.encode", "connector.connect",
    "pipeline.build_sequence", "pipeline.batch_forward", "pipeline.embed_tokens",
    "tensor.cross_entropy", "optim.clip", "optim.adamw",
)
CALL_LAYERS = ("ssd.scan", "blocks.proj", "audio.mel", "audio.encode")


def layer_metrics(tracer: Tracer, plain_s: list[float], load_s: float) -> dict:
    """Per-operation figures from a traced run (times in ms per operation)."""
    n = len(tracer.op_s)
    op_total = sum(tracer.op_s)

    def per_op_ms(seconds: float) -> float:
        return 1000.0 * seconds / n

    out = {f"{layer}.self_ms": per_op_ms(tracer.self_s[layer]) for layer in SELF_MS_LAYERS}
    out.update({f"{layer}.calls": tracer.calls[layer] / n for layer in CALL_LAYERS})
    counts = tracer.counts
    out["ssd.scan.flops"] = counts["ssd.scan.flops"] / n
    out["tensor.tape_nodes"] = counts["tensor.tape_nodes"] / n
    out["pipeline.prefill.ms"] = per_op_ms(counts["pipeline.prefill.s"])
    out["pipeline.decode_step.ms"] = per_op_ms(counts["pipeline.decode_step.s"])
    out["pipeline.decode_steps"] = counts["pipeline.decode_steps"] / n
    connects = tracer.calls["connector.connect"]
    out["connector.out_len"] = counts["connector.out_len"] / connects if connects else 0.0
    builds = tracer.calls["pipeline.build_sequence"]
    out["pipeline.seq_len"] = counts["pipeline.seq_len"] / builds if builds else 0.0
    out["checkpoint.load.ms"] = 1000.0 * load_s
    out["trace.op_ms"] = per_op_ms(op_total)
    out["trace.coverage"] = sum(tracer.self_s.values()) / op_total
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(tracer.op_s) / statistics.median(plain_s) - 1.0)
    return out


if __name__ == "__main__":
    # python -m perfbench.workloads SEED PATH, run by CaptionWorkload.prepare
    print(json.dumps(train_served(int(sys.argv[1]), sys.argv[2])))
