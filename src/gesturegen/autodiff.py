"""The plain-array kernels of the seq2seq model and the lift net with their
hand-written backward rules, and a minimal reverse-mode tape.

The model's forward arithmetic lives in three kernels: `_affine` (x W^T + b
for a weight stored (out, in), read through its transpose), `_gru_cell`,
which writes what its backward rule reads into the buffers its caller
hands it, and `_attention`, which binds its operands and buffers once and
returns the step that fills them.
`_affine_backward`, `_gru_backward` and `_attend_backward` turn an output
gradient into input gradients and add each weight's gradient into the
accumulator they are given. The lift net's dense layers run on `_affine` and
`_affine_backward` as well. Each rule is the one the fused tape node of
that op had, with the same operations in the same order, so
`model.backward`, which chains them, gives the recorded graph's bits.
Nothing in training or evaluation records a graph.

The forward kernels are written for a batch-1 decoder step, whose cost is
numpy's per-call dispatch more than its arithmetic (about 50 calls on 64-
to 192-wide rows). Every operand comes cut: the caller binds each buffer
and view once per pass, so a step allocates nothing and slices nothing.
Every 2-D product goes through ``ndarray.dot``, with ``out`` where a buffer
is bound. Not ``np.dot``: in numpy 2 that is a
``numpy._ArrayFunctionDispatcher``, which runs a Python-level dispatcher on
every call. At (1, 64) x (64, 128) into ``out`` it took a median 1.49 us
against ``ndarray.dot``'s 1.25 us (2-vCPU x86-64, numpy 2.4.6, one OpenBLAS
thread), for the same bits. Not ``@``/``np.matmul`` either: that gufunc
dispatches about 0.5 us slower per call at batch 1 and makes the same BLAS
call. The kernels call ufuncs through module-level bindings and reduce with
``ufunc.reduce`` into bound rows, since ``ndarray.max`` and ``.sum`` go
through numpy's Python-level wrappers. The backward rules run at batch 64,
where dispatch is a negligible share of their cost, and keep the plain forms.

The tape here is the benchmark's probe: `Tensor` with the two ops `mul`
and `tsum` on recording tensors, which `bench/` runs through a traced
``Tensor.backward``. Each op records its inputs and a local backward rule
on the output tensor, so calling ``backward()`` on a scalar result adds
gradients into all reachable leaves, across calls, and frees each op
node's gradient once its rule has run. The general tape, with plain
operands, broadcasting and the fused nodes, is the tests' reference,
``tests/tape_oracle.py``, whose nodes are this `Tensor`.

All data is float64; training and the finite-difference gradient contracts
rely on double precision.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfig


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, data, requires_grad=False, _parents=(), _backprop=None, grad=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = grad
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backprop = _backprop

    @property
    def shape(self):
        return self.data.shape

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
                if id(parent) not in seen and isinstance(parent, Tensor) and parent.requires_grad:
                    stack.append((parent, False))
        return order

    def backward(self):
        """Add d(self)/d(leaf) into each reachable leaf's ``grad``: the
        array the leaf was built with, else its first gradient.

        Each op node's gradient goes to its backward rule and is dropped, so
        a second call adds the same gradients into the leaves again. Returns
        the topologically sorted node list.
        """
        if not self._parents:
            raise InvalidConfig("tensor has no recorded computation to differentiate")
        order = self._toposort()
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backprop is not None and node.grad is not None:
                g, node.grad = node.grad, None
                node._backprop(g)
        return order


def _accumulate(t: Tensor, g: np.ndarray):
    """Add g into t's gradient. A first gradient is kept as handed: each op
    hands a fresh array."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two recording tensors of one shape."""

    def backprop(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return Tensor(a.data * b.data, requires_grad=True, _parents=(a, b), _backprop=backprop)


def tsum(x: Tensor) -> Tensor:
    """The sum of a recording tensor's elements."""

    def backprop(g):
        _accumulate(x, np.full(x.data.shape, g))

    return Tensor(x.data.sum(), requires_grad=True, _parents=(x,), _backprop=backprop)


# -- the model's kernels and their backward rules --------------------------------

# What the forward kernels call, bound once (see the module docstring)
_matmul = np.matmul
_add, _subtract, _multiply, _divide, _tanh, _exp = np.add, np.subtract, np.multiply, np.divide, np.tanh, np.exp
_max_reduce, _sum_reduce = np.maximum.reduce, np.add.reduce
# 0-d operands: a Python float is converted to an array on every ufunc call
_HALF, _ONE = np.array(0.5), np.array(1.0)


def _affine(x, w_t, b=None, out=None):
    """x w_t (+ b) on plain arrays: one GEMM for a (B, in) x, into a fresh
    array or the C-contiguous buffer ``out`` with the same bits either way,
    and one over the flattened leading dims for a (B, s, in) x, into
    ``out``. The product is ``ndarray.dot``, not ``np.dot``, whose
    Python-level dispatcher runs on every call, and the bias add a bound
    ufunc: at batch 1 each call's dispatch is most of its cost (see the
    module docstring)."""
    if x.ndim == 2:
        out = x.dot(w_t, out)
    else:
        x.reshape(-1, x.shape[-1]).dot(w_t, out.reshape(-1, out.shape[-1]))
    if b is not None:
        _add(out, b, out)  # the product is fresh: add the bias in place
    return out


def _affine_backward(g, x, w, dw, db=None, with_dx=True):
    """The rule of ``_affine(x, w.T, b)`` for a weight w stored (out, in):
    adds the weight gradient into dw and the bias gradient into db (None:
    no bias), one GEMM each over the flattened leading dims of the (..., out)
    output gradient g. Returns the input gradient g w, or None when not
    ``with_dx`` (an input that takes none)."""
    x2 = x if x.ndim == 2 else x.reshape(-1, x.shape[-1])
    dw += (x2.T @ (g if g.ndim == 2 else g.reshape(-1, g.shape[-1]))).T
    if db is not None:
        db += g.sum(axis=tuple(range(g.ndim - 1)))
    return g @ w if with_dx else None


def _gru_blocks(u_t, b):
    """The (H, 2H) update-and-reset and (H, H) candidate blocks of U = u^T,
    and the bias b split the same way: ``_gru_cell``'s weight operands."""
    two = 2 * u_t.shape[0]
    return u_t[:, :two], u_t[:, two:], b[:two], b[two:]


def _gru_split(gx):
    """The (..., 2H) update-and-reset and (..., H) candidate columns of a
    (..., 3H) input projection: a ``_gru_cell`` step's ``gx``."""
    two = 2 * gx.shape[-1] // 3
    return gx[..., :two], gx[..., two:]


def _gru_slot(h_next, zr, c, rh):
    """A ``_gru_cell`` step's buffers: the (B, H) ``h_next``, the (B, 2H)
    stacked update and reset gates ``zr`` with its z and r views, the (B,
    H) candidate ``c`` and the C-contiguous (B, H) scratch ``rh`` for r*h,
    which may be ``h_next`` when that is C-contiguous too."""
    hidden = c.shape[-1]
    return h_next, zr, zr[:, :hidden], zr[:, hidden:], c, rh


def _gru_cell(gx, h, kernel, slot):
    """One GRU update, gates ordered update (z), reset (r), candidate:

        z = sigm((gx_z + h Uz) + bz);  r = sigm((gx_r + h Ur) + br)
        c = tanh((gx_c + (r*h) Uc) + bc);  h' = h + z * (c - h)

    from the step's input projection gx = x W^T as its ``_gru_split``
    columns, the (B, H) state h and the ``kernel``, the ``_gru_blocks`` of U
    and b (u stored gate-stacked, (3H, H)), into the ``_gru_slot`` buffers
    ``slot``: z and r into ``zr`` and c into ``c``, what ``_gru_backward``
    reads (it rebuilds r*h from r and h), both C-contiguous for
    ``ndarray.dot(..., out)``, r*h into ``rh``, and h' into ``h_next``,
    which only ufuncs write, so it may be a strided view. Each chain runs
    in place on the product that starts it, in the order above, and no
    buffer may be h. Every operand comes cut, so a step is numpy calls
    only."""
    gx_zr, gx_c = gx
    u_zr, u_c, b_zr, b_c = kernel
    h_next, zr, z, r, c, rh = slot
    h.dot(u_zr, zr)
    _add(gx_zr, zr, zr)
    _add(zr, b_zr, zr)
    _multiply(zr, _HALF, zr)  # overflow-free logistic: 0.5 * (tanh(0.5 * a) + 1)
    _tanh(zr, zr)
    _add(zr, _ONE, zr)
    _multiply(zr, _HALF, zr)
    _multiply(r, h, rh).dot(u_c, c)  # a strided r*h would cost ndarray.dot a copy
    _add(gx_c, c, c)
    _add(c, b_c, c)
    _tanh(c, c)
    _subtract(c, h, h_next)
    _multiply(h_next, z, h_next)
    _add(h_next, h, h_next)


def _gru_backward(g, h, u_zr, u_c, zr, c, du, db, keep=None, with_dh=True):
    """The rule of one ``_gru_cell`` step from state h with the stacked
    (B, 2H) update and reset gates zr and the candidate c it wrote, for the
    gradient g of its (B, H) output; rows where the (B,) bool mask ``keep``
    is False carried h unchanged (padded steps). The cell's r*h is
    recomputed here as the same one multiply. Adds the recurrent weight's
    gradient into du, stored (3H, H), and the bias's into db. Returns (the
    (B, 3H) input-projection gradient, the state gradient or None when not
    ``with_dh``)."""
    hidden = h.shape[-1]
    two = 2 * hidden
    z, r = zr[:, :hidden], zr[:, hidden:]
    g_carry = None
    if keep is not None:
        keep = keep[:, None]
        g_carry = np.where(keep, 0.0, g)
        g = np.where(keep, g, 0.0)
    d_pre = np.empty((len(h), 3 * hidden))
    d_c = g * z
    d_pre[:, two:] = d_c * (1.0 - c * c)
    d_rh = d_pre[:, two:] @ u_c.T
    d_pre[:, :hidden] = g * (c - h) * z * (1.0 - z)
    d_pre[:, hidden:two] = d_rh * h * r * (1.0 - r)
    d_h = None
    if with_dh:
        d_h = g - g * z + d_rh * r + d_pre[:, :two] @ u_zr.T
        if g_carry is not None:
            d_h += g_carry
    du[:two] += (h.T @ d_pre[:, :two]).T
    du[two:] += ((r * h).T @ d_pre[:, two:]).T
    db += d_pre.sum(axis=0)
    return d_pre, d_h


def _attention(projected, v_col, annotations, mask, query, t, weights, context):
    """Additive attention (Bahdanau et al. 2015) over s annotations, bound
    to its operands and buffers. Returns the step ``attend()``:

        t = tanh(query + projected);  scores = t v + mask
        weights = softmax(scores);  context = weights annotations

    from the (B, A) query projection state w_query^T in ``query``, the (B,
    s, A) annotation projection, the (A, 1) score column v, the (B, s, C)
    annotations and an optional (B, s) score mask (-inf gives a position
    weight exactly 0), into the C-contiguous (B, s, A) ``t`` and (B, s)
    ``weights``, which ``_attend_backward`` reads, and the (B, C)
    ``context``, which may be a strided view. The tanh and the softmax run
    in place on the sum and the scores; each view and the (B, 1) reduction
    row are cut here, once."""
    batch, s, att = projected.shape
    query3, context3, weights3 = query[:, None], context[:, None], weights[:, None]
    t2, scores, top = t.reshape(-1, att), weights.reshape(-1, 1), np.empty((batch, 1))

    def attend():
        _tanh(_add(query3, projected, t), t)
        t2.dot(v_col, scores)  # the (B * s, 1) scores, softmaxed in place into the weights
        if mask is not None:
            _add(weights, mask, weights)
        _subtract(weights, _max_reduce(weights, -1, None, top, True), weights)
        _exp(weights, weights)
        _divide(weights, _sum_reduce(weights, -1, None, top, True), weights)
        _matmul(weights3, annotations, context3)

    return attend


def _attend_backward(g, state, w_query_t, v, annotations, weights, t, dv, dw_query, with_dstate=True):
    """The rule of one ``_attention`` step on query state w_query_t, with the
    (A,) score vector v, for the gradient g of its (B, C) context. Adds the
    score vector's gradient into dv and the stored (A, H) query weight's
    into dw_query. Returns (the annotations' gradient, the projection's
    gradient, the state gradient or None when not ``with_dstate``)."""
    batch, s, att = t.shape
    d_annotations = weights[:, :, None] * g[:, None, :]
    g_w = np.matmul(annotations, g[:, :, None]).reshape(batch, s)
    d_scores = weights * (g_w - (g_w * weights).sum(axis=-1, keepdims=True))
    dv += (t.reshape(-1, att).T @ d_scores.reshape(-1, 1)).reshape(att)
    d_pre = d_scores[..., None] * v * (1.0 - t * t)
    d_q = d_pre.sum(axis=1)
    d_state = d_q @ w_query_t.T if with_dstate else None
    dw_query += (state.T @ d_q).T
    return d_annotations, d_pre, d_state

