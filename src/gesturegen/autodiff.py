"""The plain-array kernels of the seq2seq model and the lift net with their
hand-written backward rules, and a minimal reverse-mode tape.

The model's forward arithmetic lives in three kernels, `_affine` (x W^T + b
for a weight stored (out, in), read through its transpose), `_gru_cell` and
`_attend`, which return the intermediates their backward rules read.
`_affine_backward`, `_gru_backward` and `_attend_backward` turn an output
gradient into input gradients and add each weight's gradient into the
accumulator they are given, and `_gesture_loss` returns the training loss
with its gradient. The lift net's dense layers run on `_affine` and
`_affine_backward` as well. Each rule is the one the fused tape node of
that op had, with the same operations in the same order, so
`model.backward`, which chains them, gives the recorded graph's bits.
Nothing in training or evaluation records a graph.

The forward kernels are written for a batch-1 decoder step, whose cost is
numpy's per-call dispatch more than its arithmetic (about 60 calls on 64-
to 192-wide rows). They take every 2-D product through ``ndarray.dot`` or
``np.dot(..., out)``, not ``@``/``np.matmul``, a gufunc that dispatches
about 0.5 us slower per call at batch 1 and makes the same BLAS call, so
the same bits; they call ufuncs through module-level bindings and reduce
with ``ufunc.reduce``, since ``ndarray.max`` and ``.sum`` go through
numpy's Python-level wrappers. The backward rules run at batch 64, where
dispatch is a negligible share of their cost, and keep the plain forms.

The tape, which only the benchmark still names, is `Tensor` with the ops
`mul` and `tsum`: every op records its inputs and a local backward rule on
the output tensor, so calling ``backward()`` on a scalar result adds
gradients into all reachable leaves, across calls, and frees each op
node's gradient once its rule has run. An operand is a recording ``Tensor`` (requires_grad) or a plain value
that acts as a constant; an op none of whose operands records returns its
plain result and builds no graph object.

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


def _data(x):
    """An operand's value: a tensor's data, or the plain value itself."""
    return x.data if isinstance(x, Tensor) else x


def _records(*operands) -> bool:
    """Whether any operand is a recording tensor."""
    for x in operands:
        if isinstance(x, Tensor) and x.requires_grad:
            return True
    return False


def _accumulate(t, g: np.ndarray):
    """Add g into t's gradient; an operand that does not record takes none.
    A first gradient is kept as handed: each op hands a fresh array."""
    if not (isinstance(t, Tensor) and t.requires_grad):
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _wrap(value, parents, backprop):
    """A recorded op result; an op calls it only once an operand needs a gradient."""
    return Tensor(value, requires_grad=True, _parents=tuple(parents), _backprop=backprop)


def mul(a, b):
    """Elementwise product with numpy broadcasting; an operand's gradient is
    summed over the axes it was broadcast along."""
    av, bv = _data(a), _data(b)
    out_val = av * bv
    if not _records(a, b):
        return out_val

    def backprop(g):
        for t, other in ((a, bv), (b, av)):
            if _records(t):
                local, shape = g * other, t.data.shape
                lead = local.ndim - len(shape)
                axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n < local.shape[lead + i])
                _accumulate(t, local.sum(axis=axes, keepdims=True).reshape(shape) if axes else local)

    return _wrap(out_val, (a, b), backprop)


def tsum(x):
    total = _data(x).sum()
    if not _records(x):
        return total

    def backprop(g):
        _accumulate(x, np.full(x.data.shape, g))

    return _wrap(total, (x,), backprop)


# -- the model's kernels and their backward rules --------------------------------

# What the forward kernels call, bound once (see the module docstring)
_dot, _matmul = np.dot, np.matmul
_add, _subtract, _multiply, _divide, _tanh, _exp = np.add, np.subtract, np.multiply, np.divide, np.tanh, np.exp
_max_reduce, _sum_reduce = np.maximum.reduce, np.add.reduce
# 0-d operands: a Python float is converted to an array on every ufunc call
_HALF, _ONE = np.array(0.5), np.array(1.0)


def _affine(x, w_t, b=None, out=None):
    """x w_t (+ b) on plain arrays: one GEMM for a (B, in) x, and one over
    the flattened leading dims for a (B, s, in) x, into a fresh array or
    the C-contiguous buffer ``out``, with the same bits either way. The
    product is ``np.dot``, not the ``np.matmul`` gufunc, and the bias add a
    bound ufunc: at batch 1 each call's dispatch is most of its cost."""
    if out is not None:
        _dot(x.reshape(-1, x.shape[-1]), w_t, out.reshape(-1, out.shape[-1]))
    elif x.ndim == 2:
        out = x.dot(w_t)
    else:
        out = x.reshape(-1, x.shape[-1]).dot(w_t).reshape(x.shape[:-1] + w_t.shape[1:])
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


def _gru_cell(gxt, h, u_zr, u_c, b_zr, b_c, out=None):
    """One GRU update, gates ordered update (z), reset (r), candidate:

        z = sigm((gx_z + h Uz) + bz);  r = sigm((gx_r + h Ur) + br)
        c = tanh((gx_c + (r*h) Uc) + bc);  h' = h + z * (c - h)

    from the step's (B, 3H) input projection gx = x W^T, the (B, H) state h
    and the ``_gru_blocks`` of U and b (u stored gate-stacked, (3H, H)).
    Returns (h', z, r, c), what ``_gru_backward`` reads; it rebuilds r*h
    from r and h. Each chain runs in place on the product that starts it,
    in the order above, and h' is its own array, so c is kept. ``out`` is
    None (fresh arrays) or the C-contiguous (B, H), (B, 2H) and (B, H)
    buffers that h', the stacked z and r, and c are written into: the same
    operations either way, so the same bits."""
    hidden = h.shape[-1]
    two = 2 * hidden
    if out is None:
        zr = h.dot(u_zr)
    else:
        h_next, zr, c = out
        _dot(h, u_zr, zr)
    _add(gxt[:, :two], zr, zr)
    _add(zr, b_zr, zr)
    _multiply(zr, _HALF, zr)  # overflow-free logistic: 0.5 * (tanh(0.5 * a) + 1)
    _tanh(zr, zr)
    _add(zr, _ONE, zr)
    _multiply(zr, _HALF, zr)
    z, r = zr[:, :hidden], zr[:, hidden:]
    rh = _multiply(r, h)
    c = rh.dot(u_c) if out is None else _dot(rh, u_c, c)
    _add(gxt[:, two:], c, c)
    _add(c, b_c, c)
    _tanh(c, c)
    h_next = _subtract(c, h) if out is None else _subtract(c, h, h_next)
    _multiply(h_next, z, h_next)
    _add(h_next, h, h_next)
    return h_next, z, r, c


def _gru_backward(g, h, u_zr, u_c, gates, du, db, keep=None, with_dh=True):
    """The rule of one ``_gru_cell`` step from state h with gates (z, r, c),
    for the gradient g of its (B, H) output; rows where the (B,) bool mask
    ``keep`` is False carried h unchanged (padded steps). The cell's r*h is
    recomputed here as the same one multiply, so a caller keeps three gates,
    not four. Adds the recurrent weight's gradient into du, stored (3H, H),
    and the bias's into db. Returns (the (B, 3H) input-projection gradient,
    the state gradient or None when not ``with_dh``)."""
    z, r, c = gates
    hidden = h.shape[-1]
    two = 2 * hidden
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


def _attend(query, projected, v_col, annotations, mask):
    """Additive attention (Bahdanau et al. 2015) over s annotations:

        t = tanh(query + projected);  scores = t v + mask
        weights = softmax(scores);  context = weights annotations

    from the (B, A) query projection state w_query^T, the (B, s, A)
    annotation projection, the (A, 1) score column v, the (B, s, C)
    annotations and an optional (B, s) score mask (-inf gives a position
    weight exactly 0). Returns (context (B, C), weights (B, s), t (B, s,
    A)); ``_attend_backward`` reads the last two. The tanh and the softmax
    run in place on the fresh sum and scores."""
    batch, s, att = projected.shape
    t = _add(query.reshape(batch, 1, att), projected)
    _tanh(t, t)
    weights = t.reshape(-1, att).dot(v_col).reshape(batch, s)
    if mask is not None:
        _add(weights, mask, weights)
    _subtract(weights, _max_reduce(weights, -1, keepdims=True), weights)
    _exp(weights, weights)
    _divide(weights, _sum_reduce(weights, -1, keepdims=True), weights)
    context = _matmul(weights.reshape(batch, 1, s), annotations).reshape(batch, -1)
    return context, weights, t


def _attend_backward(g, state, w_query_t, v, annotations, weights, t, dv, dw_query, with_dstate=True):
    """The rule of one ``_attend`` call on query state w_query_t, with the
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


def _gesture_loss(p, target, alpha: float, beta: float):
    """The training loss of a (B, m, d) prediction against a (B, m, d)
    target array (formula in the ``training`` module docstring). Returns
    (total, mse, continuity, variance, d total / d p). Both round as the same
    loss composed of add / mul / sum / slice / sqrt ops does; a zero-length
    step has subgradient 0."""
    b, m, d = p.shape
    inv_n, inv_b, inv_steps, inv_m, inv_bd = 1.0 / p.size, 1.0 / b, 1.0 / (m - 1), 1.0 / m, 1.0 / (b * d)
    diff = p + -target
    mse = (diff * diff).sum() * inv_n
    steps = p[:, 1:] + p[:, :-1] * -1.0
    norms = np.sqrt((steps * steps).sum(axis=2))  # (B, m-1)
    continuity = (norms.sum(axis=1) * inv_steps).sum() * inv_b
    centered = p + p.sum(axis=1, keepdims=True) * inv_m * -1.0
    variance = ((centered * centered).sum(axis=1) * inv_m).sum() * inv_bd * -1.0
    total = (mse + continuity * alpha) + variance * beta
    # p's five contributions in the composed graph's order: mse, p[:, 1:]
    # and p[:, :-1] of the steps, centered, mean
    g_diff = inv_n * diff
    g_p = g_diff + g_diff
    local = np.where(norms > 0.0, 0.5 / np.where(norms > 0.0, norms, 1.0), 0.0)
    g_steps = ((alpha * inv_b * inv_steps) * local)[:, :, None] * steps
    g_steps = g_steps + g_steps
    g_p[:, 1:] += g_steps
    g_p[:, :-1] -= g_steps
    g_centered = (beta * -1.0 * inv_bd * inv_m) * centered
    g_centered = g_centered + g_centered
    g_p += g_centered
    g_p += g_centered.sum(axis=1, keepdims=True) * -1.0 * inv_m
    return total, float(mse), float(continuity), float(variance), g_p
