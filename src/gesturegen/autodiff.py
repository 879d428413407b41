"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every operation records its inputs and a local backward rule on the output
tensor, so calling ``backward()`` on a scalar result propagates gradients to
all reachable leaves. Graph recording is skipped entirely when no operand
requires gradients, which keeps evaluation-mode passes cheap.

All data is float64; training and the finite-difference gradient contracts
rely on double precision.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfig


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backprop", "_param")

    def __init__(self, data, requires_grad=False, _parents=(), _backprop=None, _param=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backprop = _backprop
        self._param = _param

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph traversal ----------------------------------------------------

    def _toposort(self):
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))
        return order

    def backward(self):
        """Propagate d(self)/d(leaf) through the recorded graph.

        Returns the topologically sorted node list so callers can harvest
        leaf gradients. Node gradients are reset first, so repeated calls
        recompute the same values instead of accumulating.
        """
        if not self._parents:
            raise InvalidConfig("tensor has no recorded computation to differentiate")
        order = self._toposort()
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backprop is not None and node.grad is not None:
                node._backprop(node.grad)
        return order

    # -- indexing -----------------------------------------------------------

    def __getitem__(self, index):
        return take(self, index)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # Copy: g may be a view or an upstream grad buffer shared with
        # another operand of the same node.
        t.grad = np.array(g)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _wrap(value, parents, backprop):
    req = any(p.requires_grad for p in parents)
    if not req:
        return Tensor(value)
    return Tensor(value, requires_grad=True, _parents=tuple(parents), _backprop=backprop)


# -- arithmetic ---------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.data + b.data

    def backprop(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _wrap(out_val, (a, b), backprop)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.data * b.data

    def backprop(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _wrap(out_val, (a, b), backprop)


def matmul(a, b) -> Tensor:
    """np.matmul semantics for operands of ndim >= 2, broadcasting batch dims."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise InvalidConfig("matmul operands must have ndim >= 2")
    out_val = np.matmul(a.data, b.data)

    def backprop(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accumulate(a, _unbroadcast(ga, a.data.shape))
        _accumulate(b, _unbroadcast(gb, b.data.shape))

    return _wrap(out_val, (a, b), backprop)


# -- nonlinearities -----------------------------------------------------------


def tanh(x) -> Tensor:
    x = as_tensor(x)
    y = np.tanh(x.data)

    def backprop(g):
        _accumulate(x, g * (1.0 - y * y))

    return _wrap(y, (x,), backprop)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    y = 0.5 * (np.tanh(0.5 * x.data) + 1.0)  # numerically stable logistic

    def backprop(g):
        _accumulate(x, g * y * (1.0 - y))

    return _wrap(y, (x,), backprop)


def relu(x) -> Tensor:
    x = as_tensor(x)
    y = np.maximum(x.data, 0.0)

    def backprop(g):
        _accumulate(x, g * (x.data > 0.0))

    return _wrap(y, (x,), backprop)


def sqrt(x) -> Tensor:
    """Elementwise square root with subgradient 0 at exactly 0, so norms of
    identical consecutive poses do not produce NaNs."""
    x = as_tensor(x)
    y = np.sqrt(x.data)

    def backprop(g):
        with np.errstate(divide="ignore"):
            local = np.where(y > 0.0, 0.5 / np.where(y > 0.0, y, 1.0), 0.0)
        _accumulate(x, g * local)

    return _wrap(y, (x,), backprop)


def power(x, exponent: float) -> Tensor:
    """Elementwise x**exponent for a constant exponent."""
    x = as_tensor(x)
    y = np.power(x.data, exponent)

    def backprop(g):
        _accumulate(x, g * exponent * np.power(x.data, exponent - 1.0))

    return _wrap(y, (x,), backprop)


def softmax(x, axis=-1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backprop(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(x, y * (g - dot))

    return _wrap(y, (x,), backprop)


# -- reductions and reshaping -------------------------------------------------


def tsum(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)
    y = x.data.sum(axis=axis, keepdims=keepdims)

    def backprop(g):
        if axis is None:
            _accumulate(x, np.broadcast_to(g, x.data.shape))
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(g, x.data.shape))

    return _wrap(y, (x,), backprop)


def tmean(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)
    if axis is None:
        count = x.data.size
    else:
        count = x.data.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    y = x.data.reshape(shape)

    def backprop(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _wrap(y, (x,), backprop)


def concat(tensors, axis=-1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    y = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backprop(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    return _wrap(y, tuple(tensors), backprop)


def stack(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    y = np.stack([t.data for t in tensors], axis=axis)

    def backprop(g):
        for i, t in enumerate(tensors):
            _accumulate(t, np.take(g, i, axis=axis))

    return _wrap(y, tuple(tensors), backprop)


def take(x, index) -> Tensor:
    """Basic (non-fanned) indexing: each output element maps to one input."""
    x = as_tensor(x)
    y = x.data[index]

    def backprop(g):
        buf = np.zeros_like(x.data)
        buf[index] = g
        _accumulate(x, buf)

    return _wrap(y, (x,), backprop)


def dropout(x, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scaling happens at train time so evaluation passes
    need no correction."""
    x = as_tensor(x)
    if rate <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(np.float64) / (1.0 - rate)
    return mul(x, keep)


def transpose(x) -> Tensor:
    x = as_tensor(x)
    y = np.swapaxes(x.data, -1, -2)

    def backprop(g):
        _accumulate(x, np.swapaxes(g, -1, -2))

    return _wrap(y, (x,), backprop)
