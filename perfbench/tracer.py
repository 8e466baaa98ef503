"""Per-layer self times measured from outside the program.

The tracer replaces public functions and methods of ``mac`` with timing
wrappers and puts the originals back afterwards. This works because every
call site inside ``mac`` looks these names up through their module or class
at call time (``ssd.scan_chunked``, ``blk.forward``, ``self.lm.forward``,
the module-global ``lora_apply``), so no source file is edited.

A layer's self time is its wrapper's duration minus the time spent in
wrapped layers it called. A recursive call into the same layer (for example
``scan_chunked`` dispatching to ``scan_recurrent``) is not a new span.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans and counters for one traced run.

    ``targets`` is a list of ``(owner, attribute, layer, hook)``: ``owner``
    is a module or class of ``mac``, ``hook`` is ``None`` or a callable
    ``hook(tracer, seconds, result, *args, **kwargs)`` run after the span
    closes. Hook time counts as a child of the enclosing span, so it lands
    in no layer's self time; it stays in the operation's wall time.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.op_s: list[float] = []
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, attr, layer, hook in self.targets:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer, hook))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    @contextmanager
    def op(self):
        """Root span of one timed operation; its wall time goes to ``op_s``."""
        frame = ["op", 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.op_s.append(time.perf_counter() - start)
            self._stack.pop()

    def _wrap(self, fn, layer, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                stack.pop()
                self.self_s[layer] += took - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += took
            if hook is not None:
                hooked = time.perf_counter()
                hook(self, took, out, *args, **kwargs)
                if stack:
                    stack[-1][1] += time.perf_counter() - hooked
            return out

        return wrapper

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.op_s.clear()


# -- hooks --------------------------------------------------------------------


def scan_flops(ssd, mode: str):
    """Hook adding ``ssd.count_flops`` of one scan call, times its batch."""
    signature = {
        "chunked": inspect.signature(ssd.scan_chunked),
        "recurrent": inspect.signature(ssd.scan_recurrent),
        "convolutional": inspect.signature(ssd.scan_convolutional),
    }[mode]

    def hook(tracer, took, out, *args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        params = bound.arguments["params"]
        t, h, p, g, n = params.dims()
        batch = params.dt.shape[0] if params.batched else 1
        chunk_len = bound.arguments.get("chunk_len", ssd.DEFAULT_CHUNK)
        tracer.counts["ssd.scan.flops"] += batch * ssd.count_flops(t, n, h, p, mode, g, chunk_len)

    return hook


def tape_nodes(tracer, took, out, loss, *args, **kwargs):
    """Count the distinct tensors reachable from the loss, which is the tape
    ``Tensor.backward`` walks. The graph is still intact after the walk."""
    seen = {id(loss)}
    todo = [loss]
    while todo:
        node = todo.pop()
        for parent, _ in node._pairs:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    tracer.counts["tensor.tape_nodes"] += len(seen)


def lm_phase(tracer, took, out, lm, embs, *args, **kwargs):
    """Split decode-time ``SsmLm.forward`` calls into prefill and 1-token steps.

    Only decoding asks for carried states; training never does.
    """
    if not kwargs.get("return_states"):
        return
    if embs.shape[1] == 1:
        tracer.counts["pipeline.decode_step.s"] += took
        tracer.counts["pipeline.decode_steps"] += 1
    else:
        tracer.counts["pipeline.prefill.s"] += took


def connector_len(tracer, took, out, *args, **kwargs):
    tracer.counts["connector.out_len"] += len(out)


def sequence_len(tracer, took, out, *args, **kwargs):
    tracer.counts["pipeline.seq_len"] += len(out[0])


def checkpoint_load(tracer, took, out, *args, **kwargs):
    tracer.counts["checkpoint.load.s"] += took


def mac_targets(mac):
    """The layer boundaries of ``mac`` the benchmark traces."""
    ssd, blocks, pipeline = mac.ssd, mac.blocks, mac.pipeline
    return [
        (ssd, "scan_chunked", "ssd.scan", scan_flops(ssd, "chunked")),
        (ssd, "scan_recurrent", "ssd.scan", scan_flops(ssd, "recurrent")),
        (ssd, "scan_convolutional", "ssd.scan", scan_flops(ssd, "convolutional")),
        (mac.tensor.Tensor, "backward", "tensor.backward", tape_nodes),
        (mac.tensor, "conv1d_depthwise_causal", "tensor.conv1d", None),
        (mac.tensor, "cross_entropy", "tensor.cross_entropy", None),
        (blocks, "lora_apply", "blocks.proj", None),
        (blocks.MambaBlock, "forward", "blocks.block_forward", None),
        (blocks.SsmLm, "forward", "blocks.lm_forward", lm_phase),
        (mac.synth, "render", "synth.render", None),
        (mac.audio, "melspectrogram", "audio.mel", None),
        (mac.audio, "encode", "audio.encode", None),
        (mac.connector, "connect", "connector.connect", connector_len),
        (pipeline.Captioner, "embed_tokens", "pipeline.embed_tokens", None),
        (pipeline.Captioner, "build_sequence", "pipeline.build_sequence", sequence_len),
        (pipeline.Captioner, "batch_forward", "pipeline.batch_forward", None),
        (mac.optim, "clip_grad_norm", "optim.clip", None),
        (mac.optim.AdamW, "step", "optim.adamw", None),
        (mac.checkpoint, "load", "checkpoint.load", checkpoint_load),
    ]
