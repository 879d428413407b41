"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every operation records its inputs and a local backward rule on the output
tensor, so calling ``backward()`` on a scalar result propagates gradients to
all reachable leaves. An op whose operands need no gradient builds no
backward rule at all, which keeps evaluation-mode passes cheap.

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


def _const(value) -> Tensor:
    """An op result that records nothing, without Tensor.__init__'s array
    conversion: ``value`` is already the op's float64 result."""
    t = object.__new__(Tensor)
    t.data, t.grad, t.requires_grad, t._parents, t._backprop, t._param = value, None, False, (), None, None
    return t


def _wrap(value, parents, backprop):
    """A recorded op result; an op calls it only once an operand needs a gradient."""
    return Tensor(value, requires_grad=True, _parents=tuple(parents), _backprop=backprop)


# -- arithmetic ---------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.data + b.data
    if not (a.requires_grad or b.requires_grad):
        return _const(out_val)

    def backprop(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _wrap(out_val, (a, b), backprop)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.data * b.data
    if not (a.requires_grad or b.requires_grad):
        return _const(out_val)

    def backprop(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _wrap(out_val, (a, b), backprop)


def matmul(a, b) -> Tensor:
    """np.matmul semantics for operands of ndim >= 2, broadcasting batch dims.

    An N-d input times a 2-d weight runs as one 2-d GEMM over the flattened
    leading dims, forward and backward."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise InvalidConfig("matmul operands must have ndim >= 2")
    flat = a.data.ndim > 2 and b.data.ndim == 2
    if flat:
        out_val = (a.data.reshape(-1, a.data.shape[-1]) @ b.data).reshape(a.data.shape[:-1] + b.data.shape[-1:])
    else:
        out_val = np.matmul(a.data, b.data)
    if not (a.requires_grad or b.requires_grad):
        return _const(out_val)

    def backprop(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if b.requires_grad:
            if flat:
                gb = a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
            _accumulate(b, gb)

    return _wrap(out_val, (a, b), backprop)


def gru_step(gx, h, u, b, t=None, keep=None) -> Tensor:
    """One fused GRU update, gates ordered update (z), reset (r), candidate:

        z = sigm((gx_z + h Uz) + bz);  r = sigm((gx_r + h Ur) + br)
        c = tanh((gx_c + (r*h) Uc) + bc);  h' = h + z * (c - h)

    gx is the hoisted input projection x W, (B, 3H), or (B, s, 3H) read at
    time index t; h is (B, H); u is the gate-concatenated recurrent weight
    (H, 3H) and b the bias (3H,). Rows where the optional (B,) bool mask
    ``keep`` is False carry h unchanged (padded steps). The whole cell is one
    graph node with a hand-written backward.
    """
    gx, h, u, b = as_tensor(gx), as_tensor(h), as_tensor(u), as_tensor(b)
    hidden = h.data.shape[-1]
    two = 2 * hidden
    gxt = gx.data if t is None else gx.data[:, t]
    hd, ud, bd = h.data, u.data, b.data
    u_zr, u_c = ud[:, :two], ud[:, two:]
    zr = 0.5 * (np.tanh(0.5 * ((gxt[:, :two] + hd @ u_zr) + bd[:two])) + 1.0)  # overflow-free logistic
    z, r = zr[:, :hidden], zr[:, hidden:]
    rh = r * hd
    c = np.tanh((gxt[:, two:] + rh @ u_c) + bd[two:])
    out_val = hd + z * (c - hd)
    if keep is not None:
        keep = keep[:, None]
        out_val = np.where(keep, out_val, hd)
    if not (gx.requires_grad or h.requires_grad or u.requires_grad or b.requires_grad):
        return _const(out_val)

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
        if gx.requires_grad:
            if t is None:
                _accumulate(gx, d_pre)
            else:
                if gx.grad is None:
                    gx.grad = np.zeros_like(gx.data)
                gx.grad[:, t] += d_pre
        if h.requires_grad:
            d_h = g - g * z + d_rh * r + d_pre[:, :two] @ u_zr.T
            if g_carry is not None:
                d_h += g_carry
            _accumulate(h, d_h)
        if u.requires_grad:
            d_u = np.empty_like(ud)
            d_u[:, :two] = hd.T @ d_pre[:, :two]
            d_u[:, two:] = rh.T @ d_pre[:, two:]
            _accumulate(u, d_u)
        if b.requires_grad:
            _accumulate(b, d_pre.sum(axis=0))

    return _wrap(out_val, (gx, h, u, b), backprop)


def batch_norm(x, scale, shift, eps: float):
    """Train-mode batch normalization of (B, F) rows, one fused graph node:

        mu = mean(x);  c = x - mu;  var = mean(c * c)
        y = (c * (var + eps) ** -0.5) * scale + shift

    Statistics are per feature over the batch (population variance).
    Returns (y, mu, var) with mu and var as (1, F) arrays. The forward and
    the hand-written backward round as the composed mean / add / mul /
    power graph does, so both give the same bits.
    """
    x, scale, shift = as_tensor(x), as_tensor(scale), as_tensor(shift)
    inv_n = 1.0 / x.shape[0]
    mu = x.data.sum(axis=0, keepdims=True) * inv_n
    centered = x.data + mu * -1.0
    var = (centered * centered).sum(axis=0, keepdims=True) * inv_n
    var_eps = var + eps
    inv_std = np.power(var_eps, -0.5)
    normalized = centered * inv_std
    out_val = normalized * scale.data + shift.data
    if not (x.requires_grad or scale.requires_grad or shift.requires_grad):
        return _const(out_val), mu, var

    def backprop(g):
        _accumulate(shift, _unbroadcast(g, shift.data.shape))
        _accumulate(scale, _unbroadcast(g * normalized, scale.data.shape))
        g_norm = g * scale.data
        g_var = (g_norm * centered).sum(axis=0, keepdims=True) * -0.5 * np.power(var_eps, -1.5)
        g_sq_c = g_var * inv_n * centered
        g_centered = (g_norm * inv_std + g_sq_c) + g_sq_c
        _accumulate(x, g_centered + g_centered.sum(axis=0, keepdims=True) * -1.0 * inv_n)

    return _wrap(out_val, (x, scale, shift), backprop), mu, var


def gesture_loss(pred, target, alpha: float, beta: float):
    """The training loss of a (B, m, d) prediction against a (B, m, d)
    target array, one fused graph node (formula in the ``training`` module
    docstring). Returns (total, mse, continuity, variance): the total as a
    tensor, the terms as floats. The forward and the hand-written backward
    round as the same loss composed of add / mul / tsum / slice / sqrt
    nodes does, so both give the same bits; a zero-length step has
    subgradient 0.
    """
    pred = as_tensor(pred)
    b, m, d = pred.shape
    inv_n, inv_b, inv_steps, inv_m, inv_bd = 1.0 / pred.data.size, 1.0 / b, 1.0 / (m - 1), 1.0 / m, 1.0 / (b * d)
    diff = pred.data + -target
    mse = (diff * diff).sum() * inv_n
    steps = pred.data[:, 1:] + pred.data[:, :-1] * -1.0
    norms = np.sqrt((steps * steps).sum(axis=2))  # (B, m-1)
    continuity = (norms.sum(axis=1) * inv_steps).sum() * inv_b
    centered = pred.data + pred.data.sum(axis=1, keepdims=True) * inv_m * -1.0
    variance = ((centered * centered).sum(axis=1) * inv_m).sum() * inv_bd * -1.0
    total = (mse + continuity * alpha) + variance * beta
    if not pred.requires_grad:
        return _const(total), float(mse), float(continuity), float(variance)

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
    tensor (B, C), weights array (B, s)); the weights carry no graph. The
    forward and the hand-written backward round as the composed matmul /
    add / tanh / softmax / reshape graph does, so both give the same values
    (outer products keep a zero's sign where a k=1 matmul gives +0).
    """
    state, w_query_t, projected, v, annotations = map(as_tensor, (state, w_query_t, projected, v, annotations))
    batch, s, att = projected.shape
    t = np.tanh((state.data @ w_query_t.data).reshape(batch, 1, att) + projected.data)
    scores = (t.reshape(-1, att) @ v.data.reshape(att, 1)).reshape(batch, s)
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    context = np.matmul(weights.reshape(batch, 1, s), annotations.data).reshape(batch, -1)
    recording = state.requires_grad or w_query_t.requires_grad or projected.requires_grad or v.requires_grad
    if not (recording or annotations.requires_grad):
        return _const(context), weights

    def backprop(g):
        _accumulate(annotations, weights[:, :, None] * g[:, None, :])
        g_w = np.matmul(annotations.data, g[:, :, None]).reshape(batch, s)
        d_scores = weights * (g_w - (g_w * weights).sum(axis=-1, keepdims=True))
        _accumulate(v, (t.reshape(-1, att).T @ d_scores.reshape(-1, 1)).reshape(att))
        d_pre = d_scores[..., None] * v.data * (1.0 - t * t)
        _accumulate(projected, d_pre)
        d_q = d_pre.sum(axis=1)
        _accumulate(state, d_q @ w_query_t.data.T)
        _accumulate(w_query_t, state.data.T @ d_q)

    return _wrap(context, (state, w_query_t, projected, v, annotations), backprop), weights


# -- nonlinearities -----------------------------------------------------------


def relu(x) -> Tensor:
    x = as_tensor(x)
    y = np.maximum(x.data, 0.0)
    if not x.requires_grad:
        return _const(y)

    def backprop(g):
        _accumulate(x, g * (x.data > 0.0))

    return _wrap(y, (x,), backprop)


# -- reductions and reshaping -------------------------------------------------


def tsum(x) -> Tensor:
    x = as_tensor(x)
    total = x.data.sum()
    if not x.requires_grad:
        return _const(total)

    def backprop(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape))

    return _wrap(total, (x,), backprop)


def tmean(x) -> Tensor:
    x = as_tensor(x)
    return mul(tsum(x), 1.0 / x.data.size)


def concat(tensors, axis=-1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    y = np.concatenate([t.data for t in tensors], axis=axis)
    if not any(t.requires_grad for t in tensors):
        return _const(y)

    def backprop(g):
        splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    return _wrap(y, tuple(tensors), backprop)


def stack(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    y = np.stack([t.data for t in tensors], axis=axis)
    if not any(t.requires_grad for t in tensors):
        return _const(y)

    def backprop(g):
        for i, t in enumerate(tensors):
            _accumulate(t, np.take(g, i, axis=axis))

    return _wrap(y, tuple(tensors), backprop)


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
    if not x.requires_grad:
        return _const(y)

    def backprop(g):
        _accumulate(x, np.swapaxes(g, -1, -2))

    return _wrap(y, (x,), backprop)
