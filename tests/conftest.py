"""Shared oracles and helpers for the test suite."""

from contextlib import contextmanager

import numpy as np
import pytest

from mac import checkpoint
from mac import tensor as tz


@pytest.fixture(autouse=True)
def _fp64_default():
    # oracle and equivalence tests run at 64-bit; tests that want fp32 opt in
    tz.set_default_dtype(np.float64)
    yield
    tz.set_default_dtype(np.float64)


@contextmanager
def using_dtype(dtype):
    """Temporarily switch the default float width."""
    prev = tz._default_dtype
    tz.set_default_dtype(dtype)
    try:
        yield
    finally:
        tz.set_default_dtype(prev)


def rel_err(a, b, floor: float = 1e-4) -> float:
    """Max elementwise relative error with an absolute floor for tiny values.

    The two arrays must have the same shape; two empty arrays differ by 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape, f"compared shapes differ: {a.shape} and {b.shape}"
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def numeric_grad(fn, leaf: tz.Tensor, eps: float = 1e-4, indices=None) -> np.ndarray:
    """Central finite differences of a scalar-valued fn wrt one leaf tensor."""
    flat = leaf.data.reshape(-1)
    indices = list(range(flat.size)) if indices is None else list(indices)
    out = np.zeros(len(indices))
    for j, i in enumerate(indices):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn().item()
        flat[i] = orig - eps
        down = fn().item()
        flat[i] = orig
        out[j] = (up - down) / (2 * eps)
    return out


def check_gradients(fn, leaves, eps: float = 1e-4, tol: float = 1e-4) -> float:
    """Reverse-mode vs central differences over every element of each leaf.

    fn must rebuild the graph on each call and return the scalar loss.
    Returns the worst relative error (asserts it is within tol).
    """
    for leaf in leaves:
        leaf.requires_grad = True
    loss = fn()
    grad_map = loss.backward()
    worst = 0.0
    for leaf in leaves:
        analytic = grad_map.get(leaf)
        assert analytic is not None, "leaf did not receive a gradient"
        numeric = numeric_grad(fn, leaf, eps=eps).reshape(leaf.shape)
        worst = max(worst, rel_err(analytic, numeric))
    assert worst < tol, f"gradient mismatch: max rel err {worst:.3e}"
    return worst


def recorded_nodes(*outputs: tz.Tensor) -> int:
    """Number of tape nodes (ops that recorded a parent) the outputs reach."""
    recorded, todo = set(), list(outputs)
    while todo:
        node = todo.pop()
        if node._pairs and id(node) not in recorded:
            recorded.add(id(node))
            todo.extend(parent for parent, _ in node._pairs)
    return len(recorded)


def fail_writes_part_way(monkeypatch) -> None:
    """Make every file ``checkpoint`` opens stop part-way through its first
    write, as a full disk would."""

    class FailsPartWay:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("no space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    real_open = open
    monkeypatch.setattr(checkpoint, "open", lambda p, mode: FailsPartWay(real_open(p, mode)),
                        raising=False)
