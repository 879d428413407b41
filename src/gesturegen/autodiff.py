"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every operation records its inputs and a local backward rule on the output
tensor, so calling ``backward()`` on a scalar result adds gradients into
all reachable leaves, across calls, and frees each op node's gradient once
its rule has run. An operand is a recording ``Tensor`` (requires_grad)
or a plain value that acts as a constant. An op none of whose operands
records returns its plain result, an ndarray or a scalar, so evaluation-mode
passes run on plain arrays and build no graph object. The ops are the
ones the seq2seq model records; the lift net trains on plain arrays with
its own backward (lifting._train_step) and records nothing.

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
    """Add g, summed back down to t's shape, into t's gradient; an operand
    that does not record takes none."""
    if not (isinstance(t, Tensor) and t.requires_grad):
        return
    g = _unbroadcast(g, t.data.shape)
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
    """A recorded op result; an op calls it only once an operand needs a gradient."""
    return Tensor(value, requires_grad=True, _parents=tuple(parents), _backprop=backprop)


# -- arithmetic ---------------------------------------------------------------


def add(a, b):
    out_val = _data(a) + _data(b)
    if not _records(a, b):
        return out_val

    def backprop(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _wrap(out_val, (a, b), backprop)


def mul(a, b):
    av, bv = _data(a), _data(b)
    out_val = av * bv
    if not _records(a, b):
        return out_val

    def backprop(g):
        _accumulate(a, g * bv)
        _accumulate(b, g * av)

    return _wrap(out_val, (a, b), backprop)


def matmul(a, b):
    """np.matmul semantics for operands of ndim >= 2, broadcasting batch dims.

    An N-d input times a 2-d weight runs as one 2-d GEMM over the flattened
    leading dims, forward and backward."""
    av, bv = _data(a), _data(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise InvalidConfig("matmul operands must have ndim >= 2")
    flat = av.ndim > 2 and bv.ndim == 2
    if flat:
        out_val = (av.reshape(-1, av.shape[-1]) @ bv).reshape(av.shape[:-1] + bv.shape[-1:])
    else:
        out_val = np.matmul(av, bv)
    if not _records(a, b):
        return out_val

    def backprop(g):
        if _records(a):
            _accumulate(a, np.matmul(g, np.swapaxes(bv, -1, -2)))
        if _records(b):
            if flat:
                gb = av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = np.matmul(np.swapaxes(av, -1, -2), g)
            _accumulate(b, gb)

    return _wrap(out_val, (a, b), backprop)


def gru_step(gx, h, u, b, t=None, keep=None):
    """One fused GRU update, gates ordered update (z), reset (r), candidate:

        z = sigm((gx_z + h Uz) + bz);  r = sigm((gx_r + h Ur) + br)
        c = tanh((gx_c + (r*h) Uc) + bc);  h' = h + z * (c - h)

    gx is the hoisted input projection x W, (B, 3H), or (B, s, 3H) read at
    time index t; h is (B, H); u is the gate-concatenated recurrent weight
    (H, 3H) and b the bias (3H,). Rows where the optional (B,) bool mask
    ``keep`` is False carry h unchanged (padded steps). The whole cell is one
    graph node with a hand-written backward.
    """
    gxt = _data(gx) if t is None else _data(gx)[:, t]
    hd, ud, bd = _data(h), _data(u), _data(b)
    hidden = hd.shape[-1]
    two = 2 * hidden
    u_zr, u_c = ud[:, :two], ud[:, two:]
    zr = 0.5 * (np.tanh(0.5 * ((gxt[:, :two] + hd @ u_zr) + bd[:two])) + 1.0)  # overflow-free logistic
    z, r = zr[:, :hidden], zr[:, hidden:]
    rh = r * hd
    c = np.tanh((gxt[:, two:] + rh @ u_c) + bd[two:])
    out_val = hd + z * (c - hd)
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
            _accumulate(u, d_u)
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


def attention(state, w_query_t, projected, v, annotations, mask=None):
    """Additive attention (Bahdanau et al. 2015) over s annotations, one
    fused graph node:

        t = tanh(state w_query_t + projected);  scores = t v + mask
        weights = softmax(scores);  context = weights annotations

    state is the (B, H) query, w_query_t the transposed query weight (H, A),
    projected the precomputed (B, s, A) annotation projection, v the (A,)
    score vector and annotations (B, s, C). The optional (B, s) mask is added
    to the scores: -inf gives a position weight exactly 0. Returns (context
    (B, C), a tensor when an operand records, weights array (B, s)); the
    weights carry no graph. The forward and the hand-written backward round
    as the composed matmul / add / tanh / softmax / reshape graph does, so
    both give the same values (outer products keep a zero's sign where a
    k=1 matmul gives +0).
    """
    state_v, w_query_v, proj_v, v_v, ann_v = map(_data, (state, w_query_t, projected, v, annotations))
    batch, s, att = proj_v.shape
    t = np.tanh((state_v @ w_query_v).reshape(batch, 1, att) + proj_v)
    scores = (t.reshape(-1, att) @ v_v.reshape(att, 1)).reshape(batch, s)
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    context = np.matmul(weights.reshape(batch, 1, s), ann_v).reshape(batch, -1)
    if not _records(state, w_query_t, projected, v, annotations):
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
        _accumulate(w_query_t, state_v.T @ d_q)

    return _wrap(context, (state, w_query_t, projected, v, annotations), backprop), weights


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


def transpose(x):
    y = np.swapaxes(_data(x), -1, -2)
    if not _records(x):
        return y

    def backprop(g):
        _accumulate(x, np.swapaxes(g, -1, -2))

    return _wrap(y, (x,), backprop)
