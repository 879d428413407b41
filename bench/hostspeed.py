"""Host-speed calibration for a shared, drifting machine.

On a shared host the speed one process sees drifts by tens of percent over
minutes, far more than the changes the benchmark must resolve. The
benchmark therefore times a fixed calibration pass next to its operations.
A pass calls no gesturegen code, so a change to gesturegen shows in full,
while host drift shows in both and is divided out:

    time at reference speed = measured time * (reference_s / pass time) ** elasticity

Drift does not slow every kind of code alike. Each workload uses the pass
that tracked its own operations best (the graph pass for train, the object
pass for generate and retarget), and an elasticity: how strongly its
operation times follow the pass time. For generate and retarget it is 1.
Train epochs follow the graph pass less than proportionally; 0.65 was
fitted on ten runs on the reference host and held on ten runs with other
seeds (interquartile spread of the median epoch time 6.5%, against 11% at
elasticity 1 and 20% unscaled).
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    v: np.ndarray


def object_work():
    """Small-object allocation, a frozen dataclass and tiny numpy calls."""
    acc = 0.0
    for i in range(100):
        v = np.array([i, i + 1.0, 2.0])
        p = _Point(float(i), float(i) * 0.5, v)
        acc += p.x + float(np.linalg.norm(np.cross(v, v[::-1])))
    return acc


class _Node:
    __slots__ = ("value", "grad", "parents", "back")

    def __init__(self, value, parents=(), back=None):
        self.value, self.grad, self.parents, self.back = value, None, parents, back

    def accumulate(self, g):
        self.grad = g if self.grad is None else self.grad + g


def _op(value, parents, local_grads):
    """A recorded node whose reverse rule maps the output gradient through
    ``local_grads`` (one function per parent)."""
    node = _Node(value, parents)

    def back(g):
        for parent, local in zip(parents, local_grads):
            parent.accumulate(local(g))

    node.back = back
    return node


def _matmul(a, w):
    return _op(a.value @ w, (a,), (lambda g: g @ w.T,))


def _add(a, b):
    return _op(a.value + b.value, (a, b), (lambda g: g, lambda g: g))


def _mul(a, b):
    return _op(a.value * b.value, (a, b), (lambda g: g * b.value, lambda g: g * a.value))


def _sigmoid(a):
    s = 1.0 / (1.0 + np.exp(-a.value))
    return _op(s, (a,), (lambda g: g * s * (1.0 - s),))


def _tanh(a):
    t = np.tanh(a.value)
    return _op(t, (a,), (lambda g: g * (1.0 - t * t),))


_RNG = np.random.default_rng(0)
_HIDDEN, _WORD, _ROWS, _STEPS = 64, 300, 16, 4
_W = [_RNG.normal(0.0, 0.05, size=(_WORD, _HIDDEN)) for _ in range(3)]
_U = [_RNG.normal(0.0, 0.05, size=(_HIDDEN, _HIDDEN)) for _ in range(3)]
_X = _RNG.normal(size=(_STEPS, _ROWS, _WORD))
_MINUS = -np.ones((_ROWS, _HIDDEN))


def graph_work():
    """Forward and reverse pass of a small GRU over a recorded graph of
    closures: the shape of the program's training step, in miniature."""
    h = _Node(np.zeros((_ROWS, _HIDDEN)))
    for t in range(_STEPS):
        x = _Node(_X[t])
        z = _sigmoid(_add(_matmul(x, _W[0]), _matmul(h, _U[0])))
        r = _sigmoid(_add(_matmul(x, _W[1]), _matmul(h, _U[1])))
        c = _tanh(_add(_matmul(x, _W[2]), _matmul(_mul(r, h), _U[2])))
        h = _add(h, _mul(z, _add(c, _mul(h, _Node(_MINUS)))))
    order, seen, stack = [], set(), [h]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            order.append(node)
            stack.extend(node.parents)
    h.grad = np.ones_like(h.value)
    for node in order:
        if node.back is not None and node.grad is not None:
            node.back(node.grad)
    return h


@dataclass(frozen=True)
class Calibration:
    work: object  # the pass: object_work or graph_work
    reference_s: float  # one pass on the reference host (2-vCPU x86-64, BLAS on one thread)
    elasticity: float = 1.0

    def one_pass(self) -> float:
        """Time one pass, in seconds, with the cyclic collector paused so the
        pass does not depend on how many objects the workload holds."""
        gc.disable()
        try:
            started = time.perf_counter()
            self.work()
            return time.perf_counter() - started
        finally:
            gc.enable()

    def median(self, passes: int) -> float:
        return statistics.median(self.one_pass() for _ in range(passes))

    def at_reference(self, seconds: float, pass_s: float) -> float:
        """Scale a time measured next to a ``pass_s`` pass to reference speed."""
        return seconds * (self.reference_s / pass_s) ** self.elasticity


def rolling(values, half: int) -> list:
    """Median of each value's neighbourhood of ``half`` values either side."""
    return [statistics.median(values[max(0, i - half) : i + half + 1]) for i in range(len(values))]
