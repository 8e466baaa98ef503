"""Training and inference pipeline: samples, sequences, steps, persistence.

The sequence contract, for a batch of B samples: ``build_sequence`` returns
one padded batch, an ``EmbeddingSequence`` of [B, L, D] with segment labels
[B, L], plus targets and a loss mask of [B, L]. Row r is [audio, prompt,
caption] in train mode and [audio, prompt] in infer mode; every row's audio
segment has the same length, and past a row's end the vectors are zero and
labelled "pad". The vectors are one gather through one index map [B, L]:
each position names its row of one table, [token table; separator; zero
row; the connector's audio rows of all B clips], so the audio layout, the
"&&" separator tokens and the padding are indices, not taped ops.
Next-token targets are defined only over caption positions (plus the
closing <eos>), so padding never carries loss. Inference decodes
greedily, either by full re-forwarding or by carrying per-block streaming
state. Streaming decode takes many rows at once: rows with equal prefix
lengths share one prefill and then one recurrent step per token, and a row
that has finished keeps stepping, unrecorded, until its whole group is done.
``evaluate`` shares that prefill with its teacher-forced pass, which
continues from the prefill's states over the caption span, so each prefix
position runs through the LM once.

A Captioner keeps two per-clip caches, each of at most ``CACHE_ENTRIES``
clips with the least recently used dropped first: the mel image, which
depends on the clip alone, and the encoder grid. Every encode that no
gradient can reach (tape off, or a frozen encoder) reads the grid cache:
decoding, ``evaluate`` and the diagnostics. It encodes its misses one clip
at a time, each rendered, patched and encoded before the next is touched,
so its memory does not grow with the number of misses: an ``evaluate``
after an optimizer step misses on every eval clip. The grids equal a batch
encode's bit for bit, since each encoder row is computed on its own. A
cached grid is valid only while the encoder weights equal those that made
it; an optimizer step or an in-place edit of the weights clears the cache.
The mel cache holds each clip's first-layer patch rows in
``audio.patch_rows``' nested order, made by the clip's one transpose, so
every later encoder layer reads its patches as a view of the output below.
Only the encode that a gradient reaches (tape on, trainable encoder) fills
the mel cache, the one path that reads a clip's rows again; the others read
it but keep no miss. That encode hands ``audio.encode`` the cached arrays
themselves, one per clip, and its tape keeps them with no copy.

Training pins glibc's heap trim and mmap thresholds once per process
(``make_train_state``), so the memory one step frees is the memory the
next step reuses, whatever the order or size of its allocations.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import io
import os
import platform
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import audio as audiomod
from . import blocks, checkpoint, connector, optim, synth
from . import config as configmod
from . import tensor as tz
from .connector import SEG_CAPTION, SEG_PAD, SEG_PROMPT, EmbeddingSequence
from .tensor import ContractError, ShapeError, Tensor
from .vocab import Vocab

# entries kept in each of a Captioner's per-clip caches (least recently used
# goes first); far above the clips any one training or eval pass touches
CACHE_ENTRIES = 256

# glibc malloc thresholds that training pins (``_fix_allocator``), sized from
# the largest array a nano step allocates: the first encoder layer's output
# for a batch, 8 clips x 4096 rows x 16 channels of float64, 4 MiB. Every
# array up to 8 times that comes from the heap, not from its own mmap (32 MiB
# is also glibc's upper limit), and up to 32 times that, above the 57 MB a
# warm time_major step allocates and frees, may lie free at the heap top
# without being handed back to the OS.
_LARGEST_STEP_ARRAY = 8 * 4096 * 16 * 8
_MMAP_THRESHOLD = 8 * _LARGEST_STEP_ARRAY
_TRIM_THRESHOLD = 32 * _LARGEST_STEP_ARRAY
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters in glibc's malloc.h


def _cache_get(cache: OrderedDict, key: str):
    value = cache.get(key)
    if value is not None:
        cache.move_to_end(key)
    return value


def _cache_put(cache: OrderedDict, key: str, value) -> None:
    cache[key] = value
    if len(cache) > CACHE_ENTRIES:
        cache.popitem(last=False)


def _clip_key(sample: "Sample") -> str:
    return repr(sorted(sample.audio.items()))


@dataclass
class Sample:
    """One training/eval item; audio is a wav path or a synthetic clip spec."""

    audio: dict
    prompt: str
    caption: str | None = None
    label: str | None = None

    def __post_init__(self):
        keys = set(self.audio) & {"wav", "synthetic"}
        if len(keys) != 1:
            raise ContractError(
                f"sample audio must have exactly one of wav/synthetic, got {self.audio}"
            )


class TrainingDiverged(RuntimeError):
    def __init__(self, message: str, dump_path: str | None = None):
        super().__init__(message)
        self.dump_path = dump_path


class Captioner:
    """Audio encoder + connector + language model, wired per config."""

    def __init__(self, cfg: configmod.Config, vocab: Vocab):
        self.cfg = cfg
        self.vocab = vocab
        v = cfg.values
        self.lm_cfg, self.enc_cfg, self.conn_cfg = configmod.model_configs(cfg, len(vocab))
        rng = np.random.default_rng(v["train.seed"])
        self.lm = blocks.SsmLm(self.lm_cfg, rng)
        self.encoder = audiomod.CnnEncoder(self.enc_cfg, rng)
        self.mlp = connector.ConnectorMlp(self.conn_cfg, rng)
        self.sep_embedding = Tensor(
            rng.standard_normal(self.lm_cfg.d_model) / np.sqrt(self.lm_cfg.d_model)
        )
        # per clip: encoder grid [T_a, F_a, d_enc], valid while the flattened
        # encoder weights equal _grid_weights, filled off the tape; and the
        # mel image as patch rows, filled only by the encode on the tape
        self._grid_cache: OrderedDict[str, np.ndarray] = OrderedDict()
        self._grid_weights = np.empty(0)
        self._mel_cache: OrderedDict[str, np.ndarray] = OrderedDict()
        # the one float width of every parameter and clip row: each op takes its inputs'
        self.dtype = np.dtype(np.float32 if v["train.precision"] == "fp32" else np.float64)
        encoder = v["train.encoder_trainable"]
        for name, t in self.named_parameters().items():
            t.data = t.data.astype(self.dtype, copy=False)
            t.requires_grad = (name == "sep_embedding" or name.startswith("connector.")
                               or ".lora." in name or (encoder and name.startswith("encoder.")))

    # -- parameters ---------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        out = {"sep_embedding": self.sep_embedding}
        for prefix, part in (("lm", self.lm), ("encoder", self.encoder), ("connector", self.mlp)):
            for k, t in part.parameters().items():
                out[f"{prefix}.{k}"] = t
        return out

    def trainable_parameters(self) -> dict[str, Tensor]:
        """Exactly: LoRA adapters, connector, separator embedding, and the
        encoder when ``train.encoder_trainable``, as ``__init__`` flagged
        them. Everything else is frozen in place."""
        return {name: t for name, t in self.named_parameters().items() if t.requires_grad}

    # -- audio path -----------------------------------------------------------

    def audio_tokens(self, samples: list[Sample]) -> Tensor:
        """Encoder tokens [B, T_a, F_a, d_enc] of the samples' clips.

        One loop over the clips serves both cache rules. When a gradient can
        reach the encoder (the tape is recording and the encoder is
        trainable), it collects each clip's patch rows from the mel cache,
        keeping a miss's, and the encoder runs once on the tape over the
        list. Otherwise it takes each clip's grid from the grid cache and
        encodes a miss off the tape on its own, keeping no mel rows, so no
        encode holds more than one clip's patch rows and activations however
        many clips miss. A cached grid is valid only while the encoder
        weights equal the ones that made it: each such call compares them
        with a kept copy and clears the cache when they differ (NaN weights
        always differ).
        """
        on_tape = tz.grad_enabled() and self.cfg["train.encoder_trainable"]
        keys = [_clip_key(s) for s in samples]
        rows, grids = [], {}
        if not on_tape:
            weights = np.concatenate([t.data.ravel() for t in self.encoder.parameters().values()])
            if not np.array_equal(weights, self._grid_weights):
                self._grid_cache.clear()
                self._grid_weights = weights
            grids = {key: _cache_get(self._grid_cache, key) for key in keys}
        for key, sample in zip(keys, samples):
            if on_tape:
                rows.append(self._clip_rows(sample, keep=True))
            elif grids[key] is None:
                with tz.no_grad():
                    grids[key] = audiomod.encode([self._clip_rows(sample, keep=False)],
                                                 self.encoder).data[0]
                _cache_put(self._grid_cache, key, grids[key])
        if on_tape:
            return audiomod.encode(rows, self.encoder)
        return Tensor(np.stack([grids[key] for key in keys]))

    def _clip_rows(self, sample: Sample, keep: bool) -> np.ndarray:
        """One clip's first-layer patch rows, in ``audiomod.patch_rows``'
        nested order and the model's width, from the mel cache; a miss's
        rows, one transpose of its mel image, are cached only with ``keep``."""
        key = _clip_key(sample)
        rows = _cache_get(self._mel_cache, key)
        if rows is None:
            if "wav" in sample.audio:
                wave = audiomod.load_wav(sample.audio["wav"])
            else:
                wave = Tensor(synth.render(sample.audio["synthetic"]))
            mel = audiomod.melspectrogram(wave).pad_to(self.enc_cfg.mel_frames)
            rows = audiomod.patch_rows(mel, self.enc_cfg).astype(self.dtype, copy=False)
            if keep:
                _cache_put(self._mel_cache, key, rows)
        return rows

    def embed_tokens(self, ids: np.ndarray) -> Tensor:
        """Token table rows [..., D] for ids [...]; the reserved "&&" id reads
        the trainable separator embedding."""
        return self._gather(self._token_rows(ids))

    def _token_rows(self, ids) -> np.ndarray:
        """Token ids -> their rows of ``_gather``'s table: "&&" reads the
        separator, every other id its own row."""
        ids = np.asarray(ids, dtype=np.int64)
        return np.where(ids == self.vocab.sep_id, self.lm.embedding.shape[0], ids)

    def _gather(self, index: np.ndarray, audio: Tensor | None = None) -> Tensor:
        """Rows [..., D] at index [...] of one table: the V token rows, then
        the separator (row V), a zero row (V + 1) and the audio rows (from
        V + 2). The separator enters the tape only when index reads it, so an
        unread one gets no gradient and no weight decay."""
        n, d = self.lm.embedding.shape
        if self.sep_embedding.shape != (d,):
            raise ShapeError(f"separator embedding {self.sep_embedding.shape}, expected ({d},)")
        if index.max() < n:  # token rows only, as in a decode step without "&&"
            return tz.embedding([self.lm.embedding], index)
        sep = self.sep_embedding if (index == n).any() else Tensor(self.sep_embedding.data)
        tables = [self.lm.embedding, tz.reshape(sep, (1, d)),
                  tz.zeros((1, d), dtype=self.lm.embedding.dtype)]
        return tz.embedding(tables if audio is None else tables + [audio], index)

    # -- sequence building ------------------------------------------------------

    def build_sequence(self, samples: list[Sample], mode: str = "train"):
        """-> (EmbeddingSequence [B, L], targets [B, L] int64, loss mask [B, L] float).

        Train rows: [E_audio, E_prompt, E_caption]; position i is trained to
        predict position i+1's token over the caption span plus <eos>, so
        exactly len(caption)+1 positions of a row carry loss. Infer rows drop
        the caption and have no targets. L is the longest row; shorter rows
        end in zero vectors labelled "pad".

        The vectors are one gather (``_gather``) through one index map: the
        connector's audio map, the token rows ("&&" reads the separator) and
        the zero row for padding.
        """
        if mode not in ("train", "infer"):
            raise ContractError(f"unknown sequence mode {mode!r}")
        if not samples:
            raise ContractError("cannot build a sequence from an empty batch")
        prompts = [self.vocab.encode(s.prompt) for s in samples]
        captions = [[] for _ in samples]
        if mode == "train":
            captions = [self.vocab.encode(s.caption or "") for s in samples]
            if not all(captions):
                raise ContractError("training sample has an empty caption")

        aud = connector.connect(self.audio_tokens(samples), self.conn_cfg, self.mlp)
        l_a, n = len(aud), self.lm.embedding.shape[0]
        ends = np.array([len(p) + len(c) for p, c in zip(prompts, captions)])
        length = l_a + int(ends.max())
        index = np.full((len(samples), length), n + 1)  # the zero row
        index[:, :l_a] = np.where(aud.index == connector.SEP, n, aud.index + n + 2)
        segments = np.full((len(samples), length), SEG_PAD, dtype=object)
        segments[:, :l_a] = aud.segments
        targets = np.zeros((len(samples), length), dtype=np.int64)
        mask = np.zeros((len(samples), length), dtype=np.float64)
        for r, (prompt, caption) in enumerate(zip(prompts, captions)):
            index[r, l_a : l_a + ends[r]] = self._token_rows(prompt + caption)
            first = l_a + len(prompt)
            segments[r, l_a:first] = SEG_PROMPT
            segments[r, first : first + len(caption)] = SEG_CAPTION
            if caption:  # the last prompt position predicts word 1
                targets[r, first - 1 : first + len(caption)] = caption + [self.vocab.eos_id]
                mask[r, first - 1 : first + len(caption)] = 1.0
        return EmbeddingSequence(self._gather(index, aud.rows), segments), targets, mask

    # -- forward ------------------------------------------------------------

    def batch_forward(self, samples: list[Sample], mode: str = "train"):
        """Build one padded batch and run the LM once over it.

        -> (logits [B, L, V], targets [B, L], mask [B, L], the EmbeddingSequence)
        """
        seq, targets, mask = self.build_sequence(samples, mode)
        logits = self.lm.forward(seq.vectors)
        return logits, targets, mask, seq

    # -- persistence ------------------------------------------------------------

    def save(self, path: str) -> None:
        tensors = {k: t.data for k, t in self.named_parameters().items()}
        meta = {f"vocab.{i}": w for i, w in enumerate(self.vocab.words)}
        checkpoint.save(path, tensors, config_text=configmod.dump(self.cfg), meta=meta)


def load_captioner(path: str) -> Captioner:
    """Rebuild a Captioner from one read of a checkpoint (config, vocab and
    tensors); every error names the file."""
    tensors, config_text, meta = checkpoint.load(path)
    try:
        cfg = configmod.parse_text(config_text)
    except configmod.ConfigError as exc:
        raise configmod.ConfigError(f"{path}: {exc}") from exc
    keys = [f"vocab.{i}" for i in range(sum(1 for k in meta if k.startswith("vocab.")))]
    gaps = [k for k in keys if k not in meta]
    if gaps:
        raise checkpoint.CheckpointError(f"{path}: vocabulary entry {gaps[0]!r} is missing")
    model = Captioner(cfg, Vocab([meta[k] for k in keys]))
    params = model.named_parameters()
    missing = sorted(set(params) - set(tensors))
    if missing:
        more = f" and {len(missing) - 4} more" if len(missing) > 4 else ""
        raise checkpoint.CheckpointError(f"{path}: missing tensors {missing[:4]}{more}")
    for name, arr in tensors.items():
        if name not in params:
            raise checkpoint.CheckpointError(f"{path}: unknown tensor {name!r}")
        if params[name].shape != arr.shape:
            raise checkpoint.CheckpointError(
                f"{path}: tensor {name}: shape {arr.shape} does not match model "
                f"{params[name].shape}")
        params[name].data = arr.astype(model.dtype, copy=False)
    return model


# -- training -----------------------------------------------------------------


@dataclass
class TrainState:
    captioner: Captioner
    optimizer: optim.AdamW
    step: int = 0
    loss_history: list[float] = field(default_factory=list)
    dump_dir: str | None = None
    # the last step's leaf gradients by parameter name and their global L2
    # norm, both before clipping; None before the first step
    last_grads: dict[str, np.ndarray] = field(default_factory=dict)
    last_grad_norm: float | None = None


def make_train_state(captioner: Captioner, dump_dir: str | None = None) -> TrainState:
    _fix_allocator()
    v = captioner.cfg.values
    opt = optim.AdamW(
        captioner.trainable_parameters(),
        lr=v["train.lr_stage1"],
        betas=(v["train.beta1"], v["train.beta2"]),
        weight_decay=v["train.weight_decay"],
    )
    return TrainState(captioner, opt, dump_dir=dump_dir)


@functools.cache
def _fix_allocator() -> None:
    """Pin glibc's trim and mmap thresholds, once per process; elsewhere a
    no-op.

    By default glibc raises both with the largest mmapped block it frees:
    the mmap threshold to that block's size and the trim threshold to twice
    it. How much free heap top a step may leave before glibc hands it back
    to the OS, for the next step to fault in again, then follows the size
    of the step's largest array. Setting the thresholds turns that
    adjustment off: every array of a step comes from the heap, and the
    heap top stays mapped.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    libc = ctypes.CDLL(None)
    for name, param, value in (("M_TRIM_THRESHOLD", _M_TRIM_THRESHOLD, _TRIM_THRESHOLD),
                               ("M_MMAP_THRESHOLD", _M_MMAP_THRESHOLD, _MMAP_THRESHOLD)):
        if libc.mallopt(param, value) != 1:
            raise OSError(f"mallopt({name}, {value}) failed")


def train_step(state: TrainState, batch: list[Sample]) -> float:
    """One optimizer step of mean masked cross-entropy over the batch.

    The step's leaf gradients, which clipping and the optimizer read but
    never write, stay in ``state.last_grads`` until the next step's loss is
    known to be finite: the divergence dump of that step reports them. They
    are dropped before its backward, so its gradients can take their
    memory. They used to be kept through that backward to guard the heap
    top, whose release made a warm step fault; ``make_train_state`` now
    pins glibc's trim threshold, so no free hands memory back to the OS,
    and gradients kept across the backward only scatter its allocations
    and grow the heap.
    """
    cap = state.captioner
    logits, targets, mask, _ = cap.batch_forward(batch, mode="train")
    loss = tz.cross_entropy(logits, targets, mask)
    value = loss.item()
    if not np.isfinite(value):
        path = _write_divergence_dump(state, value)
        raise TrainingDiverged(f"non-finite loss {value} at step {state.step}", path)
    state.last_grads = {}
    leaves = loss.backward()
    state.last_grads = {name: leaves[p] for name, p in sorted(state.optimizer.params.items())
                        if p in leaves}
    grads, state.last_grad_norm = optim.clip_grad_norm(state.last_grads,
                                                       cap.cfg["train.clip_norm"])
    state.optimizer.step(grads)
    state.step += 1
    state.loss_history.append(value)
    return value


def _write_divergence_dump(state: TrainState, value: float) -> str | None:
    """Write the loss, recent losses, the last finished step's pre-clip
    gradient norm, and each trainable parameter's largest |weight| and, if it
    had one, its largest pre-clip |gradient| in that step; None when the
    state has no dump directory."""
    if state.dump_dir is None:
        return None
    os.makedirs(state.dump_dir, exist_ok=True)
    path = os.path.join(state.dump_dir, f"diverged_step{state.step}.txt")
    lines = [f"loss={value} step={state.step}",
             "recent_losses=" + ",".join(f"{x:.6g}" for x in state.loss_history[-20:])]
    if state.last_grad_norm is not None:
        lines.append(f"grad_norm={state.last_grad_norm:.6g} step={state.step - 1}")
    for name, t in sorted(state.optimizer.params.items()):
        line = f"param {name} |w|max={np.abs(t.data).max():.6g}"
        g = state.last_grads.get(name)
        if g is not None:
            line += f" |g|max={np.abs(g).max():.6g}"
        lines.append(line)
    checkpoint.write_atomic(path, "".join(f"{line}\n" for line in lines).encode("utf-8"))
    return path


# -- greedy decoding -------------------------------------------------------------


def generate_greedy(captioner: Captioner, sample: Sample, max_len: int,
                    streaming: bool = True) -> str:
    """Argmax decoding until <eos> or max_len tokens.

    Streaming mode carries per-block scan/conv state so each step costs
    O(1) in sequence length; it is the batched decoder run on one row. The
    non-streaming path re-forwards the whole growing sequence every step.
    Both produce identical tokens.
    """
    if max_len <= 0:
        return ""
    with tz.no_grad():
        seq, _, _ = captioner.build_sequence([sample], mode="infer")
        if streaming:
            ids = _decode_streaming(captioner, seq.vectors, [len(seq)], max_len)[0]
        else:
            ids = _decode_full(captioner, seq.vectors, max_len)
    return _caption_text(captioner, ids)


def _caption_text(cap: Captioner, ids: list[int]) -> str:
    return cap.vocab.decode([i for i in ids if i != cap.vocab.eos_id])


def _prefills(cap: Captioner, embs: Tensor, lengths):
    """One prefill per prefix length: yields (rows, logits, states) of an LM
    forward over the first ``length`` positions of those rows of embs
    [B, L, D], rows in order. Grouping by length means no row is padded."""
    groups: dict[int, list[int]] = {}
    for r, length in enumerate(lengths):
        groups.setdefault(int(length), []).append(r)
    for length, rows in groups.items():
        logits, states = cap.lm.forward(Tensor(embs.data[rows, :length]), return_states=True)
        yield rows, logits, states


def _decode_streaming(cap: Captioner, embs: Tensor, lengths, max_len: int) -> list[list[int]]:
    """Greedy ids for each row of embs [B, L, D], decoded from the row's
    first ``lengths[r]`` positions; in row order.

    Each prefix-length group has one prefill (``_prefills``), then
    ``_greedy`` for all its rows. Each LoRA projection is merged once for
    the whole call (``blocks.merged_lora``), so a step is one matmul per
    projection.
    """
    out: list[list[int]] = [[] for _ in lengths]
    with blocks.merged_lora(cap.lm):
        for rows, logits, states in _prefills(cap, embs, lengths):
            for r, ids in zip(rows, _greedy(cap, logits, states, max_len)):
                out[r] = ids
    return out


def _greedy(cap: Captioner, logits: Tensor, states: list, max_len: int) -> list[list[int]]:
    """Greedy ids for each row, continuing from the prefix's logits [n, T, V]
    and the per-block states after it: one recurrent step per token for all
    rows. A row stops recording at <eos> or max_len but keeps stepping until
    every row is done; each row's state has a fixed size, so a step over all
    rows costs little more than one over the live rows, and the states are
    never compacted."""
    out: list[list[int]] = [[] for _ in range(logits.shape[0])]
    if max_len <= 0:
        return out
    done = [False] * len(out)
    while True:
        nxt = _next_ids(logits.data[:, -1])
        for j, ids in enumerate(out):
            if not done[j]:
                ids.append(int(nxt[j]))
                done[j] = nxt[j] == cap.vocab.eos_id or len(ids) >= max_len
        if all(done):
            return out
        logits, states = cap.lm.forward(cap.embed_tokens(nxt[:, None]), states=states,
                                        return_states=True)


def _next_ids(logits: np.ndarray) -> np.ndarray:
    """Argmax ids of logits [..., V] but <pad> and <bos> (ids 0, 1): no text holds them."""
    return logits[..., 2:].argmax(axis=-1) + 2


def _decode_full(cap: Captioner, prefix: Tensor, max_len: int) -> list[int]:
    """Greedy ids for one prefix [1, L, D], re-forwarding every step (the oracle)."""
    ids: list[int] = []
    current = prefix
    while True:
        logits = cap.lm.forward(current)
        nxt = int(_next_ids(logits.data[0, -1]))
        ids.append(nxt)
        if nxt == cap.vocab.eos_id or len(ids) >= max_len:
            return ids
        current = tz.concat([current, cap.embed_tokens(np.array([[nxt]]))], axis=1)


# -- evaluation ---------------------------------------------------------------


def token_f1(generated: str, reference: str) -> float:
    """Bag-of-words F1 between two captions."""
    gen = generated.split()
    ref = reference.split()
    if not gen or not ref:
        return 0.0
    common = 0
    pool = list(ref)
    for w in gen:
        if w in pool:
            pool.remove(w)
            common += 1
    if common == 0:
        return 0.0
    precision = common / len(gen)
    recall = common / len(ref)
    return 2 * precision * recall / (precision + recall)


def evaluate(captioner: Captioner, samples: list[Sample], max_len: int | None = None):
    """-> (teacher-forced token accuracy, mean caption F1, exact-match rate).

    The train-mode batch is built once; its rows are grouped by prefix
    length ([audio, prompt]) and each group has one prefill (``_prefills``,
    as in streaming decode). Its last logit scores the first loss target;
    the teacher-forced pass continues from its states over the rest of the
    group's padded rows, and the captions are decoded from its last logits
    and states (``_greedy``). Each LoRA projection is merged once for the
    whole call.
    """
    if max_len is None:
        max_len = captioner.cfg["train.max_caption_len"]
    lm = captioner.lm
    hits = 0.0
    decoded: list[list[int]] = [[] for _ in samples]
    with blocks.merged_lora(lm):
        seq, targets, mask = captioner.build_sequence(samples, mode="train")
        # a row's first loss position is its last prompt position
        first, spans = mask.argmax(axis=1), mask.sum(axis=1).astype(np.int64)
        for rows, logits, states in _prefills(captioner, seq.vectors, first + 1):
            start = logits.shape[1] - 1
            stop = start + int(spans[rows].max())
            rest = lm.forward(Tensor(seq.vectors.data[rows, start + 1 : stop]), states=states)
            pred = np.concatenate([logits.data[:, -1:].argmax(axis=-1),
                                   rest.data.argmax(axis=-1)], axis=1)
            hits += float(((pred == targets[rows, start:stop])
                           * (mask[rows, start:stop] > 0)).sum())
            for r, ids in zip(rows, _greedy(captioner, logits, states, max_len)):
                decoded[r] = ids
    token_acc = hits / float((mask > 0).sum())
    f1s, exact = [], []
    for s, ids in zip(samples, decoded):
        gen = _caption_text(captioner, ids)
        f1s.append(token_f1(gen, s.caption or ""))
        exact.append(1.0 if gen == s.caption else 0.0)
    return token_acc, float(np.mean(f1s)), float(np.mean(exact))


# -- experiment driver ------------------------------------------------------------

METRICS_HEADER = ("epoch", "stage", "loss", "token_acc", "caption_f1", "seed")


def corpus_samples(cfg: configmod.Config) -> tuple[list[Sample], list[Sample]]:
    v = cfg.values
    n_train, n_eval = v["data.n_train"], v["data.n_eval"]
    if v["data.source"] == "synthetic":
        records = synth.make_corpus(n_train + n_eval, seed=v["train.seed"])
        samples = [
            Sample(audio={"synthetic": r["spec"]}, prompt=v["data.prompt"],
                   caption=r["caption"], label=r["label"])
            for r in records
        ]
    else:
        records = synth.read_manifest(v["data.manifest"], required=("wav", "caption"))
        if len(records) < n_train + n_eval:
            raise ContractError(
                f"manifest has {len(records)} records, need {n_train + n_eval}"
            )
        samples = [
            Sample(audio={"wav": r["wav"]}, prompt=v["data.prompt"],
                   caption=r["caption"], label=r.get("label"))
            for r in records[: n_train + n_eval]
        ]
    return samples[:n_train], samples[n_train:]


def build_vocab_for(cfg: configmod.Config, train: list[Sample], eval_: list[Sample]) -> Vocab:
    texts = [cfg["data.prompt"], cfg["data.classify_prompt"]]
    for s in train + eval_:
        if s.caption:
            texts.append(s.caption)
        if s.label:
            texts.append(s.label)
    return Vocab.build(texts, max_size=cfg["model.max_vocab"])


def run_experiment(cfg: configmod.Config, out_dir: str) -> list[dict]:
    """Full train/eval schedule; emits metrics.csv and final checkpoint.

    Stages: optional classification-prompt warmup, then two caption stages
    with the second learning rate a tenth of the first by default.
    Deterministic under a fixed seed at a fixed BLAS thread count: the last
    bits of a loss move with the count, which ``mac`` takes from
    ``MAC_NUM_THREADS`` (every core when it is unset).
    """
    os.makedirs(out_dir, exist_ok=True)
    v = cfg.values
    train, eval_ = corpus_samples(cfg)
    vocab = build_vocab_for(cfg, train, eval_)
    cap = Captioner(cfg, vocab)
    state = make_train_state(cap, dump_dir=out_dir)

    stages = []
    if v["train.warmup_epochs"] > 0:
        warm = [Sample(audio=s.audio, prompt=v["data.classify_prompt"],
                       caption=s.label, label=s.label) for s in train]
        stages.append(("warmup", v["train.warmup_epochs"], v["train.lr_stage1"], warm))
    stages.append(("stage1", v["train.epochs_stage1"], v["train.lr_stage1"], train))
    stages.append(("stage2", v["train.epochs_stage2"], v["train.lr_stage2"], train))

    rng = np.random.default_rng(v["train.seed"] + 1)
    rows = []
    epoch = 0
    for stage_name, epochs, lr, pool in stages:
        state.optimizer.lr = lr
        for _ in range(epochs):
            losses = []
            for _ in range(v["train.steps_per_epoch"]):
                idx = rng.choice(len(pool), size=min(v["train.batch_size"], len(pool)),
                                 replace=False)
                losses.append(train_step(state, [pool[i] for i in sorted(idx)]))
            token_acc, f1, _ = evaluate(cap, eval_ if eval_ else pool)
            rows.append({
                "epoch": epoch,
                "stage": stage_name,
                "loss": float(np.mean(losses)),
                "token_acc": token_acc,
                "caption_f1": f1,
                "seed": v["train.seed"],
            })
            epoch += 1

    write_metrics(os.path.join(out_dir, "metrics.csv"), rows)
    cap.save(os.path.join(out_dir, "final.ckpt"))
    checkpoint.write_atomic(os.path.join(out_dir, "config.txt"),
                            configmod.dump(cfg).encode("utf-8"))
    return rows


def write_metrics(path: str, rows: list[dict]) -> None:
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=METRICS_HEADER, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row[k]) for k in METRICS_HEADER})
    checkpoint.write_atomic(path, text.getvalue().encode("utf-8"))


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6f}"
    return value
