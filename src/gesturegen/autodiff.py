"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every operation records its inputs and a local backward rule on the output
tensor, so calling ``backward()`` on a scalar result adds gradients into
all reachable leaves, across calls, and frees each op node's gradient once
its rule has run. An operand is a recording ``Tensor`` (requires_grad)
or a plain value that acts as a constant; an op none of whose operands
records returns its plain result, an ndarray or a scalar, and builds no
graph object. The ops are the ones the seq2seq model records in training;
each weight enters as stored, an (out, in) array that ``linear``,
``gru_step`` and ``attention`` read through its transpose, so no op undoes
the storage layout. Their forward arithmetic lives in three plain kernels,
``_affine``, ``_gru_cell`` and ``_attend``, whose returns the backward
rules read; the model's evaluation pass calls the kernels directly, with
its weights bound once per pass, and never enters the tape. The lift net
trains on plain arrays with its own backward (lifting._train_step) and
records nothing.

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
        array the leaf was built with, else a copy of its first gradient.

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
    """Add g into t's gradient; an operand that does not record takes none."""
    if not (isinstance(t, Tensor) and t.requires_grad):
        return
    if t.grad is None:
        # Copy: g may be a view or an upstream grad buffer shared with
        # another operand of the same node.
        t.grad = np.array(g)
    else:
        t.grad += g


def _wrap(value, parents, backprop):
    """A recorded op result; an op calls it only once an operand needs a gradient."""
    return Tensor(value, requires_grad=True, _parents=tuple(parents), _backprop=backprop)


# -- arithmetic ---------------------------------------------------------------


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


def _affine(x, w_t, b=None):
    """x w_t (+ b) on plain arrays: one GEMM for a (B, in) x, and one over
    the flattened leading dims for a (B, s, in) x."""
    x2 = x if x.ndim == 2 else x.reshape(-1, x.shape[-1])
    out = x2 @ w_t
    if x.ndim != 2:
        out = out.reshape(x.shape[:-1] + w_t.shape[1:])
    return out if b is None else out + b


def linear(x, w, b=None):
    """x w^T (+ b) for a weight w in its stored (out, in) layout and an
    optional (out,) bias, through ``_affine``: one GEMM forward and one per
    operand backward."""
    xv, wv = _data(x), _data(w)
    out_val = _affine(xv, wv.T, None if b is None else _data(b))
    if not _records(x, w, b):
        return out_val

    def backprop(g):
        if _records(x):
            _accumulate(x, g @ wv)
        if _records(w):
            x2 = xv if xv.ndim == 2 else xv.reshape(-1, xv.shape[-1])
            _accumulate(w, (x2.T @ (g if g.ndim == 2 else g.reshape(-1, g.shape[-1]))).T)
        if _records(b):
            _accumulate(b, g.sum(axis=tuple(range(g.ndim - 1))))

    return _wrap(out_val, (x, w, b), backprop)


def _gru_blocks(u_t, b):
    """The (H, 2H) update-and-reset and (H, H) candidate blocks of U = u^T,
    and the bias b split the same way: ``_gru_cell``'s weight operands."""
    two = 2 * u_t.shape[0]
    return u_t[:, :two], u_t[:, two:], b[:two], b[two:]


def _gru_cell(gxt, h, u_zr, u_c, b_zr, b_c):
    """One GRU update on plain arrays (formula in ``gru_step``) from the
    step's (B, 3H) input projection, the (B, H) state and the
    ``_gru_blocks`` of U and b. Returns (h', z, r, r*h, c); the backward
    reads the last four."""
    hidden = h.shape[-1]
    two = 2 * hidden
    zr = 0.5 * (np.tanh(0.5 * ((gxt[:, :two] + h @ u_zr) + b_zr)) + 1.0)  # overflow-free logistic
    z, r = zr[:, :hidden], zr[:, hidden:]
    rh = r * h
    c = np.tanh((gxt[:, two:] + rh @ u_c) + b_c)
    return h + z * (c - h), z, r, rh, c


def gru_step(gx, h, u, b, t=None, keep=None):
    """One fused GRU update, gates ordered update (z), reset (r), candidate:

        z = sigm((gx_z + h Uz) + bz);  r = sigm((gx_r + h Ur) + br)
        c = tanh((gx_c + (r*h) Uc) + bc);  h' = h + z * (c - h)

    gx is the hoisted input projection x W^T, (B, 3H), or (B, s, 3H) read at
    time index t; h is (B, H); u is the gate-stacked recurrent weight as
    stored, (3H, H), read through its transpose U, and b the bias (3H,).
    Rows where the optional (B,) bool mask ``keep`` is False carry h
    unchanged (padded steps). The whole cell is one graph node with a
    hand-written backward.
    """
    gxt = _data(gx) if t is None else _data(gx)[:, t]
    hd, ud, bd = _data(h), _data(u).T, _data(b)
    hidden = hd.shape[-1]
    two = 2 * hidden
    u_zr, u_c, b_zr, b_c = _gru_blocks(ud, bd)
    out_val, z, r, rh, c = _gru_cell(gxt, hd, u_zr, u_c, b_zr, b_c)
    if keep is not None:
        keep = keep[:, None]
        out_val = np.where(keep, out_val, hd)
    if not _records(gx, h, u, b):
        return out_val

    def backprop(g):
        g_carry = None
        if keep is not None:
            g_carry = np.where(keep, 0.0, g)
            g = np.where(keep, g, 0.0)
        d_pre = np.empty_like(gxt)
        d_c = g * z
        d_pre[:, two:] = d_c * (1.0 - c * c)
        d_rh = d_pre[:, two:] @ u_c.T
        d_pre[:, :hidden] = g * (c - hd) * z * (1.0 - z)
        d_pre[:, hidden:two] = d_rh * hd * r * (1.0 - r)
        if _records(gx):
            if t is None:
                _accumulate(gx, d_pre)
            else:
                if gx.grad is None:
                    gx.grad = np.zeros_like(gx.data)
                gx.grad[:, t] += d_pre
        if _records(h):
            d_h = g - g * z + d_rh * r + d_pre[:, :two] @ u_zr.T
            if g_carry is not None:
                d_h += g_carry
            _accumulate(h, d_h)
        if _records(u):
            d_u = np.empty_like(ud)
            d_u[:, :two] = hd.T @ d_pre[:, :two]
            d_u[:, two:] = rh.T @ d_pre[:, two:]
            _accumulate(u, d_u.T)
        if _records(b):
            _accumulate(b, d_pre.sum(axis=0))

    return _wrap(out_val, (gx, h, u, b), backprop)


def gesture_loss(pred, target, alpha: float, beta: float):
    """The training loss of a (B, m, d) prediction against a (B, m, d)
    target array, one fused graph node (formula in the ``training`` module
    docstring). Returns (total, mse, continuity, variance): the total as a
    tensor when pred records, else a scalar, the terms as floats. The
    forward and the hand-written backward round as the same loss composed
    of add / mul / tsum / slice / sqrt nodes does, so both give the same
    bits; a zero-length step has subgradient 0.
    """
    p = _data(pred)
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
    if not _records(pred):
        return total, float(mse), float(continuity), float(variance)

    def backprop(g):
        # pred's five contributions in the composed graph's order: mse,
        # pred[:, 1:] and pred[:, :-1] of the steps, centered, mean
        g_diff = g * inv_n * diff
        g_pred = g_diff + g_diff
        local = np.where(norms > 0.0, 0.5 / np.where(norms > 0.0, norms, 1.0), 0.0)
        g_steps = ((g * alpha * inv_b * inv_steps) * local)[:, :, None] * steps
        g_steps = g_steps + g_steps
        g_pred[:, 1:] += g_steps
        g_pred[:, :-1] -= g_steps
        g_centered = (g * beta * -1.0 * inv_bd * inv_m) * centered
        g_centered = g_centered + g_centered
        g_pred += g_centered
        g_pred += g_centered.sum(axis=1, keepdims=True) * -1.0 * inv_m
        _accumulate(pred, g_pred)

    return _wrap(total, (pred,), backprop), float(mse), float(continuity), float(variance)


def _attend(query, projected, v_col, annotations, mask):
    """Additive attention on plain arrays (formula in ``attention``) from
    the (B, A) query projection, the (B, s, A) annotation projection, the
    (A, 1) score column, the (B, s, C) annotations and an optional (B, s)
    score mask. Returns (context (B, C), weights (B, s), t (B, s, A)); the
    backward reads the last two."""
    batch, s, att = projected.shape
    t = np.tanh(query.reshape(batch, 1, att) + projected)
    scores = (t.reshape(-1, att) @ v_col).reshape(batch, s)
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    context = np.matmul(weights.reshape(batch, 1, s), annotations).reshape(batch, -1)
    return context, weights, t


def attention(state, w_query, projected, v, annotations, mask=None):
    """Additive attention (Bahdanau et al. 2015) over s annotations, one
    fused graph node:

        t = tanh(state w_query^T + projected);  scores = t v + mask
        weights = softmax(scores);  context = weights annotations

    state is the (B, H) query, w_query the query weight as stored, (A, H),
    projected the precomputed (B, s, A) annotation projection, v the (A,)
    score vector and annotations (B, s, C). The optional (B, s) mask is added
    to the scores: -inf gives a position weight exactly 0. Returns (context
    (B, C), a tensor when an operand records, weights array (B, s)); the
    weights carry no graph. The forward and the hand-written backward round
    as the composed transpose / matmul / add / tanh / softmax / reshape
    graph does, so both give the same values (outer products keep a zero's
    sign where a k=1 matmul gives +0).
    """
    state_v, proj_v, v_v, ann_v = map(_data, (state, projected, v, annotations))
    w_query_v = _data(w_query).T
    batch, s, att = proj_v.shape
    context, weights, t = _attend(state_v @ w_query_v, proj_v, v_v.reshape(att, 1), ann_v, mask)
    if not _records(state, w_query, projected, v, annotations):
        return context, weights

    def backprop(g):
        _accumulate(annotations, weights[:, :, None] * g[:, None, :])
        g_w = np.matmul(ann_v, g[:, :, None]).reshape(batch, s)
        d_scores = weights * (g_w - (g_w * weights).sum(axis=-1, keepdims=True))
        _accumulate(v, (t.reshape(-1, att).T @ d_scores.reshape(-1, 1)).reshape(att))
        d_pre = d_scores[..., None] * v_v * (1.0 - t * t)
        _accumulate(projected, d_pre)
        d_q = d_pre.sum(axis=1)
        _accumulate(state, d_q @ w_query_v.T)
        _accumulate(w_query, (state_v.T @ d_q).T)

    return _wrap(context, (state, w_query, projected, v, annotations), backprop), weights


# -- reductions and reshaping -------------------------------------------------


def tsum(x):
    total = _data(x).sum()
    if not _records(x):
        return total

    def backprop(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape))

    return _wrap(total, (x,), backprop)


def tmean(x):
    return mul(tsum(x), 1.0 / _data(x).size)


def concat(tensors, axis=-1):
    values = [_data(t) for t in tensors]
    y = np.concatenate(values, axis=axis)
    if not _records(*tensors):
        return y

    def backprop(g):
        splits = np.cumsum([v.shape[axis] for v in values])[:-1]
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    return _wrap(y, tensors, backprop)


def stack(tensors, axis=0):
    y = np.stack([_data(t) for t in tensors], axis=axis)
    if not _records(*tensors):
        return y

    def backprop(g):
        for i, t in enumerate(tensors):
            _accumulate(t, np.take(g, i, axis=axis))

    return _wrap(y, tensors, backprop)


def dropout(x, rate: float, rng: np.random.Generator):
    """Inverted dropout: scaling happens at train time so evaluation passes
    need no correction."""
    if rate <= 0.0:
        return x
    keep = (rng.random(_data(x).shape) >= rate).astype(np.float64) / (1.0 - rate)
    return mul(x, keep)
