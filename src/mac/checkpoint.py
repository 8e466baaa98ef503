"""Self-describing tensor container: plain-text manifest + raw payload.

File layout:

    MACCKPT 1 <manifest_bytes>\n
    <manifest: utf-8 text>
    <payload: little-endian IEEE-754 tensor bytes at recorded offsets>

Manifest lines (order-preserving):

    meta <key> <value>
    config <verbatim config line>
    tensor <name> <f4|f8> <dim0,dim1,...> <offset> <nbytes>

Round trips are bit-identical; offsets, sizes and shape products are
validated on load, and a tensor name or meta key may appear only once.
Saves are atomic: the file at ``path`` is either the previous one or the
complete new one.
"""

from __future__ import annotations

import math
import os

import numpy as np

MAGIC = "MACCKPT"
VERSION = 1

_DTYPES = {"f4": np.dtype("<f4"), "f8": np.dtype("<f8")}


class CheckpointError(ValueError):
    """Malformed, truncated, or version-incompatible container."""


def _dtype_tag(dtype: np.dtype) -> str:
    for tag, dt in _DTYPES.items():
        if np.dtype(dtype) == dt or np.dtype(dtype).newbyteorder("=") == dt.newbyteorder("="):
            return tag
    raise CheckpointError(f"unsupported tensor dtype {dtype}")


def save(
    path: str,
    tensors: dict[str, np.ndarray],
    config_text: str = "",
    meta: dict[str, str] | None = None,
) -> None:
    entries = []
    blobs = []
    offset = 0
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], order="C")  # keeps a 0-d array 0-d
        tag = _dtype_tag(arr.dtype)
        raw = arr.astype(_DTYPES[tag], copy=False).tobytes()
        shape = ",".join(str(n) for n in arr.shape) if arr.ndim else "-"
        if " " in name or "\n" in name:
            raise CheckpointError(f"tensor name {name!r} contains whitespace")
        entries.append(f"tensor {name} {tag} {shape} {offset} {len(raw)}")
        blobs.append(raw)
        offset += len(raw)

    lines = []
    for key, value in (meta or {}).items():
        if "\n" in str(value) or " " in str(key):
            raise CheckpointError(f"meta entry {key!r} malformed")
        lines.append(f"meta {key} {value}")
    for cfg_line in config_text.splitlines():
        lines.append(f"config {cfg_line}")
    lines.extend(entries)
    manifest = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
    header = f"{MAGIC} {VERSION} {len(manifest)}\n".encode("ascii")
    write_atomic(path, b"".join([header, manifest, *blobs]))


def write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` beside ``path``, then swap it in: a failed write
    leaves any previous file at ``path`` untouched and no temp file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load(path: str) -> tuple[dict[str, np.ndarray], str, dict[str, str]]:
    """-> (tensors, config text, meta) of the checkpoint at ``path``. Every
    error is a CheckpointError naming the file and the header, the manifest
    line or the payload."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse(blob)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def _parse(blob: bytes) -> tuple[dict[str, np.ndarray], str, dict[str, str]]:
    nl = blob.find(b"\n")
    if nl < 0:
        raise CheckpointError("header: missing header line")
    header = blob[:nl].decode("ascii", errors="replace").split()
    if len(header) != 3 or header[0] != MAGIC:
        raise CheckpointError(f"header: bad magic: {header!r}")
    if header[1] != str(VERSION):
        raise CheckpointError(f"header: unsupported format version {header[1]} "
                              f"(expected {VERSION})")
    man_len = _count(header[2], "header: manifest length")

    man_start = nl + 1
    if len(blob) < man_start + man_len:
        raise CheckpointError(f"header: truncated manifest: {man_len} bytes announced, "
                              f"{len(blob) - man_start} present")
    manifest = blob[man_start : man_start + man_len]
    payload = blob[man_start + man_len :]
    try:
        text = manifest.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = manifest.count(b"\n", 0, exc.start) + 1
        raise CheckpointError(f"manifest line {line}: not UTF-8 text") from exc

    tensors: dict[str, np.ndarray] = {}
    config_lines: list[str] = []
    meta: dict[str, str] = {}
    expected_end = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        where = f"manifest line {lineno}"
        kind, _, rest = line.partition(" ")
        if kind == "meta":
            key, _, value = rest.partition(" ")
            if key in meta:
                raise CheckpointError(f"{where}: repeated meta key {key!r}")
            meta[key] = value
        elif kind == "config":
            config_lines.append(rest)
        elif kind == "tensor":
            parts = rest.split()
            if len(parts) != 5:
                raise CheckpointError(f"{where}: malformed tensor entry")
            name, tag, shape_s, off_s, nbytes_s = parts
            if name in tensors:
                raise CheckpointError(f"{where}: repeated tensor {name!r}")
            if tag not in _DTYPES:
                raise CheckpointError(f"{where}: unknown dtype {tag}")
            shape = () if shape_s == "-" else tuple(
                _count(n, f"{where}: {name} shape") for n in shape_s.split(","))
            off = _count(off_s, f"{where}: {name} offset")
            nbytes = _count(nbytes_s, f"{where}: {name} size")
            dt = _DTYPES[tag]
            if math.prod(shape) * dt.itemsize != nbytes:
                raise CheckpointError(
                    f"{where}: integrity error: {name} shape {shape} does not match "
                    f"{nbytes} bytes"
                )
            if off + nbytes > len(payload):
                raise CheckpointError(
                    f"{where}: integrity error: {name} extends past payload "
                    f"({off}+{nbytes} > {len(payload)})"
                )
            tensors[name] = np.frombuffer(payload[off : off + nbytes], dtype=dt).reshape(shape).copy()
            expected_end = max(expected_end, off + nbytes)
        else:
            raise CheckpointError(f"{where}: unknown entry kind {kind!r}")
    if expected_end != len(payload):
        raise CheckpointError(
            f"payload: integrity error: {len(payload)} bytes, manifest covers {expected_end}"
        )
    return tensors, "\n".join(config_lines), meta


def _count(text: str, what: str) -> int:
    """``text`` as a non-negative decimal integer, or a CheckpointError
    naming ``what``. 18 digits are more than any file needs and fewer than
    ``int`` refuses."""
    if text.isascii() and text.isdigit() and len(text) <= 18:
        return int(text)
    raise CheckpointError(f"{what} {text!r} is not a non-negative integer")
