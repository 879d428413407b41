"""The autodiff tape that recorded seq2seq training before the model got a
hand-written backward, kept verbatim as the reference the train step is
checked against bit for bit (and the base of the tests' other reference
graphs): the recording helpers, which copy each node's first gradient, the
fused ops `linear`, `gru_step`, `attention` and `gesture_loss`, the plain
`mul`, `tsum`, `concat`, `stack` and `dropout` nodes, and the recorded
encoder and decoder passes. Nodes are `gesturegen.autodiff.Tensor`s; the
fused ops call the package's plain kernels, as they always did.
"""

import numpy as np

from gesturegen.autodiff import Tensor, _affine, _attend, _gru_blocks, _gru_cell


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


# -- ops ------------------------------------------------------------------------


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


def linear(x, w, b=None):
    """x w^T (+ b) for a weight w in its stored (out, in) layout and an
    optional (out,) bias, through ``_affine``: one GEMM forward and one per
    operand backward."""
    xv, wv = _data(x), _data(w)
    out = np.empty(xv.shape[:-1] + wv.shape[:1]) if xv.ndim == 3 else None
    out_val = _affine(xv, wv.T, None if b is None else _data(b), out)
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


def gru_step(gx, h, u, b, t=None, keep=None):
    """One fused GRU update (gx read at time index t when given); rows where
    the (B,) bool mask ``keep`` is False carry h unchanged."""
    gxt = _data(gx) if t is None else _data(gx)[:, t]
    hd, ud, bd = _data(h), _data(u).T, _data(b)
    hidden = hd.shape[-1]
    two = 2 * hidden
    u_zr, u_c, b_zr, b_c = _gru_blocks(ud, bd)
    out_val, zr, c = np.empty(hd.shape), np.empty((len(hd), two)), np.empty(hd.shape)
    _gru_cell(gxt, hd, u_zr, u_c, b_zr, b_c, out_val, zr, c)
    z, r = zr[:, :hidden], zr[:, hidden:]
    rh = r * hd  # the cell's r*h: the same one multiply
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
    """The training loss as one fused node: (total, mse, continuity,
    variance), the total a tensor when pred records."""
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


def attention(state, w_query, projected, v, annotations, mask=None):
    """Additive attention as one fused node: (context, a tensor when an
    operand records, weights array)."""
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


# -- the recorded seq2seq pass ----------------------------------------------------


def _operand(p):
    """A parameter as a recording leaf that adds into its store gradient."""
    return Tensor(p.value, requires_grad=True, grad=p.grad)


def _keep_masks(lengths, s: int) -> list:
    if lengths is None:
        return [None] * s
    return [None if bool(np.all(lengths > t)) else lengths > t for t in range(s)]


def _run_direction(cell, inputs, keep, reverse: bool):
    w, u, b = (_operand(p) for p in cell)
    gx = linear(inputs, w)
    batch, s, _ = inputs.shape
    h = np.zeros((batch, u.shape[1]))
    states = [None] * s
    for t in range(s - 1, -1, -1) if reverse else range(s):
        h = gru_step(gx, h, u, b, t=t, keep=keep[t])
        states[t] = h
    return stack(states, axis=1)


def encode_graph(model, inputs, lengths=None, rng=None, dropout_rate=0.0):
    """(B, s, word_dim) embedded words -> recorded annotations (B, s, 2H)."""
    keep = _keep_masks(lengths, inputs.shape[1])
    inputs = dropout(inputs, dropout_rate, rng)
    for fwd_cell, bwd_cell in model.encoder:
        fwd = _run_direction(fwd_cell, inputs, keep, reverse=False)
        bwd = _run_direction(bwd_cell, inputs, keep, reverse=True)
        inputs = concat([fwd, bwd], axis=-1)
    return inputs


def _unroll(model, step, seed_poses):
    h1 = h2 = np.zeros((seed_poses.shape[0], model.cfg.hidden))
    n = model.cfg.n_seed_poses
    for t in range(n):
        prev, h1, h2, _ = step(seed_poses[:, t], h1, h2, emit=t == n - 1)
    poses, rows = [], []
    for _ in range(model.cfg.n_output_poses):
        prev, h1, h2, weights = step(prev, h1, h2)
        poses.append(prev)
        rows.append(weights)
    return poses, rows


def rollout(model, seed_poses, annotations, projected, mask=None, rng=None, dropout_rate=0.0):
    """The recorded decoder: ((B, m, 10) poses tensor, (B, m, s) attention array)."""
    heads = (model.att_query, model.att_score, model.pre_w, model.pre_b, model.post_w, model.post_b)
    w_query, v, pre_w, pre_b, post_w, post_b = (_operand(p) for p in heads)
    (w1, u1, b1), (w2, u2, b2) = [[_operand(p) for p in cell] for cell in model.decoder]

    def step(prev_pose, h1, h2, emit=True):
        pre = linear(prev_pose, pre_w, pre_b)
        context, weights = attention(h2, w_query, projected, v, annotations, mask)
        x = dropout(concat([pre, context], axis=-1), dropout_rate, rng)
        h1 = gru_step(linear(x, w1), h1, u1, b1)
        h2 = gru_step(linear(h1, w2), h2, u2, b2)
        return linear(h2, post_w, post_b) if emit else None, h1, h2, weights

    poses, rows = _unroll(model, step, seed_poses)
    return stack(poses, axis=1), np.stack(rows, axis=1)


def forward_graph(model, embedded, seed_poses, rng=None, lengths=None, dropout_rate=0.0):
    """The recorded train-mode pass on a checked batch: (poses tensor, attention)."""
    batch, s, _ = embedded.shape
    mask = None
    if lengths is not None:
        lengths = np.asarray(lengths)
        if np.any(lengths < s):
            mask = np.where(np.arange(s) < lengths[:, None], 0.0, -np.inf)
    annotations = encode_graph(model, embedded, lengths, rng, dropout_rate)
    projected = linear(annotations, _operand(model.att_ann))
    return rollout(model, seed_poses, annotations, projected, mask, rng, dropout_rate)
