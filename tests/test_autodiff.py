"""Finite-difference checks for the tape's ops, the test-local reference
nodes and every backward rule of the model's kernels, a property of the
affine rule against the add / matmul / transpose graph it replaced, one
property over the rules against the fused tape nodes they were written
from, one property of the forward kernels against their `@` spelling,
plus graph semantics (re-running backward, no recorded graph)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tape_oracle as tape
from gesturegen import autodiff as ad
from gesturegen.autodiff import Tensor
from gesturegen.errors import InvalidConfig
from gesturegen.model import _dropout_scale


def _fd_check(build, shapes, seed=0, step=1e-6, tol=1e-6):
    """build(tensors) -> scalar Tensor; checks grads of every input against
    central differences of build on plain arrays."""
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=s) * 0.7 + 0.3 for s in shapes]
    tensors = [Tensor(v.copy(), requires_grad=True) for v in values]
    out = build(*tensors)
    out.backward()
    for v, t in zip(values, tensors):
        flat = v.reshape(-1)
        grad = t.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(build(*values))
            flat[i] = orig - step
            lo = float(build(*values))
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            assert abs(grad[i] - fd) <= tol * max(1.0, abs(fd)), (grad[i], fd)


def _fd_check_rule(rule, shapes, out_shape, seed=0, step=1e-6, tol=1e-6):
    """rule(g, *values) -> (output, [d sum(output * g) / d value for each
    value]) for a (B, ...) output gradient g (1.0 for a scalar output);
    checks each gradient against central differences."""
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=s) * 0.7 + 0.3 for s in shapes]
    g = rng.normal(size=out_shape) if out_shape else 1.0
    _, grads = rule(g, *values)
    for v, grad in zip(values, grads, strict=True):
        flat, grad = v.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float((rule(g, *values)[0] * g).sum())
            flat[i] = orig - step
            lo = float((rule(g, *values)[0] * g).sum())
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            assert abs(grad[i] - fd) <= tol * max(1.0, abs(fd)), (grad[i], fd)


# -- the backward rules, as rule(g, *inputs) -> (output, input gradients) ----------


def _linear_rule(g, x, w, b=None):
    dw, db = np.zeros_like(w), None if b is None else np.zeros_like(b)
    dx = ad._affine_backward(g, x, w, dw, db)
    out = np.empty(x.shape[:-1] + w.shape[:1]) if x.ndim == 3 else None  # a 3-d input goes into a buffer
    return ad._affine(x, w.T, b, out), [dx, dw] + ([] if b is None else [db])


def _gru_rule(t=None, keep=None):
    """A GRU step on gx read at time index t (None: gx is (B, 3H)), with
    the rows where keep is False carried, as the model's encoder runs it."""

    def rule(g, gx, h, u, b):
        u_zr, u_c, b_zr, b_c = ad._gru_blocks(u.T, b)
        out, zr, c = np.empty(h.shape), np.empty((len(h), 2 * h.shape[1])), np.empty(h.shape)
        ad._gru_cell(gx if t is None else gx[:, t], h, u_zr, u_c, b_zr, b_c, out, zr, c)
        if keep is not None:
            out = np.where(keep[:, None], out, h)
        du, db = np.zeros_like(u), np.zeros_like(b)
        d_pre, dh = ad._gru_backward(g, h, u_zr, u_c, zr, c, du, db, keep)
        d_gx = d_pre
        if t is not None:
            d_gx = np.zeros_like(gx)
            d_gx[:, t] += d_pre
        return out, [d_gx, dh, du, db]

    return rule


def _attention_rule(mask=None):
    def rule(g, state, w_query, projected, v, annotations):
        context, weights, t = ad._attend(state @ w_query.T, projected, v.reshape(-1, 1), annotations, mask)
        dw_query, dv = np.zeros_like(w_query), np.zeros_like(v)
        d_ann, d_proj, d_state = ad._attend_backward(g, state, w_query.T, v, annotations, weights, t, dv, dw_query)
        return context, [d_state, dw_query, d_proj, dv, d_ann]

    return rule


def _loss_rule(target, alpha, beta):
    def rule(g, p):
        total, *_, g_p = ad._gesture_loss(p, target, alpha, beta)
        return total, [g * g_p]

    return rule


# -- reference nodes ------------------------------------------------------------
# Graph nodes the engine no longer has, plain on plain operands like its ops,
# built on the tape oracle's recording helpers. The reference graphs below are
# composed of them: the add, matmul and transpose nodes the model recorded
# before the fused linear node, the attention before the fused attention node
# and the lift net's step before its hand-written backward.


def _add(a, b):
    # a + b with numpy broadcasting; each operand's gradient is summed over
    # the axes it was broadcast along.
    av, bv = tape._data(a), tape._data(b)
    y = av + bv
    if not tape._records(a, b):
        return y

    def backprop(g):
        for t in (a, b):
            if tape._records(t):
                shape = t.data.shape
                lead = g.ndim - len(shape)
                axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n < g.shape[lead + i])
                tape._accumulate(t, g.sum(axis=axes, keepdims=True).reshape(shape) if axes else g)

    return tape._wrap(y, (a, b), backprop)


def _matmul(a, b):
    # np.matmul semantics for operands of ndim >= 2, broadcasting batch dims;
    # an N-d input times a 2-d weight runs as one 2-d GEMM over the
    # flattened leading dims, forward and backward.
    av, bv = tape._data(a), tape._data(b)
    flat = av.ndim > 2 and bv.ndim == 2
    if flat:
        y = (av.reshape(-1, av.shape[-1]) @ bv).reshape(av.shape[:-1] + bv.shape[-1:])
    else:
        y = np.matmul(av, bv)
    if not tape._records(a, b):
        return y

    def backprop(g):
        if tape._records(a):
            tape._accumulate(a, np.matmul(g, np.swapaxes(bv, -1, -2)))
        if tape._records(b):
            if flat:
                gb = av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = np.matmul(np.swapaxes(av, -1, -2), g)
            tape._accumulate(b, gb)

    return tape._wrap(y, (a, b), backprop)


def _transpose(x):
    y = np.swapaxes(tape._data(x), -1, -2)
    if not tape._records(x):
        return y

    def backprop(g):
        tape._accumulate(x, np.swapaxes(g, -1, -2))

    return tape._wrap(y, (x,), backprop)


def test_add_broadcast():
    _fd_check(lambda a, b: ad.tsum(_add(a, b)), [(3, 4), (4,)])


def test_mul_broadcast():
    _fd_check(lambda a, b: ad.tsum(ad.mul(a, b)), [(2, 3, 4), (3, 4)])
    _fd_check(lambda a, b: ad.tsum(ad.mul(a, b)), [(3, 1), (2, 1, 4)])


def test_matmul_2d():
    _fd_check(lambda a, b: ad.tsum(_matmul(a, b)), [(3, 4), (4, 2)])


def test_matmul_batched():
    _fd_check(lambda a, b: ad.tsum(_matmul(a, b)), [(2, 3, 4), (2, 4, 2)])


def test_matmul_broadcast_batch():
    _fd_check(lambda a, b: ad.tsum(_matmul(a, b)), [(2, 3, 4), (4, 2)])


@pytest.mark.parametrize("bias", [False, True], ids=["no_bias", "bias"])
@pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)], ids=["2d", "3d"])
def test_linear(x_shape, bias):
    shapes = [x_shape, (2, 4)] + [(2,)] * bias
    _fd_check_rule(_linear_rule, shapes, x_shape[:-1] + (2,))


def _relu(x):
    # relu as a graph node, plain on plain operands: only the lift net's
    # reference graph in the tests needs it, so the engine has none.
    xv = tape._data(x)
    y = np.maximum(xv, 0.0)
    if not tape._records(x):
        return y

    def backprop(g):
        tape._accumulate(x, g * (xv > 0.0))

    return tape._wrap(y, (x,), backprop)


def test_tanh_sigmoid_relu():
    _fd_check(lambda a: ad.tsum(_relu(_add(a, 0.1))), [(5,)])


def test_gesture_loss_matches_finite_differences():
    target = np.random.default_rng(1).normal(size=(2, 4, 3))
    _fd_check_rule(_loss_rule(target, 0.7, 0.3), [(2, 4, 3)], ())


def test_gesture_loss_subgradient_at_zero_steps():
    total, mse, continuity, variance, grad = ad._gesture_loss(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), 0.7, 0.3)
    assert (mse, continuity, variance, float(total)) == (0.0, 0.0, 0.0, 0.0)
    assert np.all(np.isfinite(grad))
    assert np.array_equal(grad, np.zeros((2, 3, 4)))


def _sum_axis(x, axis, keepdims=False):
    # A sum over one axis as a graph node, plain on plain operands like the
    # engine's ops: tsum reduces whole tensors, and only reference
    # graphs in the tests need an axis.
    y = tape._data(x).sum(axis=axis, keepdims=keepdims)
    if not tape._records(x):
        return y

    def backprop(g):
        tape._accumulate(x, np.broadcast_to(g if keepdims else np.expand_dims(g, axis), x.shape))

    return tape._wrap(y, (x,), backprop)


def test_reductions():
    _fd_check(lambda a: ad.tsum(ad.mul(_sum_axis(a, 1), _sum_axis(a, 1))), [(3, 4)])
    _fd_check(lambda a: tape.tmean(ad.mul(a, a)), [(3, 4)])
    _fd_check(lambda a: ad.tsum(ad.mul(_sum_axis(a, 0, keepdims=True), a)), [(3, 4)])


def test_concat_stack_reshape_transpose():
    _fd_check(lambda a, b: ad.tsum(ad.mul(tape.concat([a, b], axis=1), 1.5)), [(2, 3), (2, 2)])
    _fd_check(lambda a, b: ad.tsum(ad.mul(tape.stack([a, b], axis=1), np.ones((2, 2, 3)) * 0.5)), [(2, 3), (2, 3)])
    _fd_check(lambda a: ad.tsum(ad.mul(_transpose(a), np.ones((3, 2)))), [(2, 3)])


def test_shared_subexpression_gradient():
    # y = sum(x * x + x): dy/dx = 2x + 1 with x reused by two ops
    x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    out = ad.tsum(_add(ad.mul(x, x), x))
    out.backward()
    assert np.allclose(x.grad, 2 * x.data + 1)


def test_backward_accumulates_into_leaves():
    x = Tensor(np.array([2.0]), requires_grad=True)
    out = ad.tsum(ad.mul(x, x))
    out.backward()
    first = x.grad.copy()
    out.backward()
    assert np.array_equal(x.grad, 2.0 * first)


def test_backward_frees_op_gradients():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    acc = np.full(2, 0.5)
    w = Tensor(np.array([3.0, 4.0]), requires_grad=True, grad=acc)
    order = ad.tsum(_add(ad.mul(x, w), _relu(w))).backward()
    assert [node for node in order if node._backprop is not None and node.grad is not None] == []
    assert w.grad is acc and np.array_equal(acc, [0.5 + 1.0 + 1.0, 0.5 - 2.0 + 1.0])
    assert np.array_equal(x.grad, [3.0, 4.0])


def test_no_recorded_graph():
    with pytest.raises(InvalidConfig, match="no recorded computation"):
        Tensor(np.ones(3), requires_grad=True).backward()


_KEEP = np.array([True, False, True])
_MASK = np.array([[0.0, 0.0, -np.inf], [0.0, 0.0, 0.0]])
_ATTENTION_SHAPES = [(2, 3), (4, 3), (2, 3, 4), (4,), (2, 3, 5)]

# case -> (engine op, call, input shapes)
_OP_CASES = {
    "mul": (ad.mul, ad.mul, [(2, 3, 4), (3, 4)]),
    "tsum": (ad.tsum, ad.tsum, [(3, 4)]),
}


def test_eval_mode_records_nothing():
    """Every engine op on plain arrays returns a plain float64 result, no
    Tensor, with the same bits as the recording path. With a recording
    tensor as its first operand and plain arrays for the rest, it records
    the same bits, and backward reaches that tensor and no other leaf."""
    ops = {name for name, f in vars(ad).items() if callable(f) and getattr(f, "__module__", "") == ad.__name__}
    assert {op.__name__ for op, *_ in _OP_CASES.values()} == {n for n in ops if n[0].islower()}
    rng = np.random.default_rng(0)
    for case, (_, call, shapes) in _OP_CASES.items():
        values = [rng.normal(size=shape) for shape in shapes]
        results = []
        for n_recording in (0, 1, len(values)):  # plain, mixed, all recording
            leaves = [Tensor(v, requires_grad=True) for v in values[:n_recording]]
            out = call(*leaves, *values[n_recording:])
            first, *arrays = out if isinstance(out, tuple) else (out,)
            assert not any(isinstance(a, Tensor) for a in arrays), case
            if not leaves:
                assert not isinstance(first, Tensor) and np.result_type(first) == np.float64, case
                results.append([first, *arrays])
                continue
            assert first.requires_grad, case
            results.append([first.data, *arrays])
            order = ad.tsum(first).backward()
            assert {id(node) for node in order if not node._parents} == set(map(id, leaves)), case
            assert all(leaf.grad.shape == leaf.shape for leaf in leaves), case
        for plain, *recorded in zip(*results):
            assert all(np.array_equal(plain, r) for r in recorded), case


def test_dropout_train_scaling():
    keep = _dropout_scale(np.random.default_rng(0).random((200, 50)) >= 0.1, 0.1)
    kept = keep[keep > 0]
    assert np.allclose(kept, 1.0 / 0.9)
    assert abs(keep.mean() - 1.0) < 0.02


@pytest.mark.parametrize(
    "t, keep",
    [(None, None), (1, None), (None, np.array([True, False, True])), (2, np.array([False, True, True]))],
    ids=["step", "time_index", "keep_mask", "time_index_keep_mask"],
)
def test_gru_step(t, keep):
    # gx, h, u (3H, H) as stored and b (3H,) for H = 2, a batch of 3, 4 timesteps
    gx_shape = (3, 6) if t is None else (3, 4, 6)
    _fd_check_rule(_gru_rule(t, keep), [gx_shape, (3, 2), (6, 2), (6,)], (3, 2))


def test_gru_step_matches_gate_formula_and_carries_masked_rows():
    rng = np.random.default_rng(4)
    gx, h, u, b = rng.normal(size=(3, 6)), rng.normal(size=(3, 2)), rng.normal(size=(6, 2)), rng.normal(size=6)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    z = sig(gx[:, :2] + h @ u[:2].T + b[:2])
    r = sig(gx[:, 2:4] + h @ u[2:4].T + b[2:4])
    c = np.tanh(gx[:, 4:] + (r * h) @ u[4:].T + b[4:])
    expected = (1.0 - z) * h + z * c
    assert np.allclose(_gru_rule()(np.zeros_like(h), gx, h, u, b)[0], expected, rtol=0, atol=1e-14)
    keep = np.array([True, False, True])
    out = _gru_rule(keep=keep)(np.zeros_like(h), gx, h, u, b)[0]
    assert np.array_equal(out[1], h[1])
    assert np.allclose(out[keep], expected[keep], rtol=0, atol=1e-14)


def test_matmul_nd_by_2d_one_operand_requires_grad():
    rng = np.random.default_rng(5)
    x, w, g = rng.normal(size=(4, 5, 3)), rng.normal(size=(3, 2)), rng.normal(size=(4, 5, 2))
    xt, wt = Tensor(x), Tensor(w, requires_grad=True)
    out = _matmul(xt, wt)
    assert np.allclose(out.data, np.matmul(x, w), rtol=0, atol=1e-14)
    ad.tsum(ad.mul(out, g)).backward()
    assert xt.grad is None
    assert np.allclose(wt.grad, np.einsum("bsi,bso->io", x, g), rtol=0, atol=1e-13)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w)
    ad.tsum(ad.mul(_matmul(xt, wt), g)).backward()
    assert wt.grad is None
    assert np.allclose(xt.grad, g @ w.T, rtol=0, atol=1e-13)


# -- fused attention ----------------------------------------------------------


def _tanh(x):
    y = np.tanh(x.data)

    def backprop(g):
        tape._accumulate(x, g * (1.0 - y * y))

    return tape._wrap(y, (x,), backprop)


def _softmax(x):
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def backprop(g):
        tape._accumulate(x, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return tape._wrap(y, (x,), backprop)


def _reshape(x, shape):
    def backprop(g):
        tape._accumulate(x, g.reshape(x.shape))

    return tape._wrap(x.data.reshape(shape), (x,), backprop)


def _composed_attention(state, w_query, projected, v, annotations, mask=None):
    # The per-step graph the decoder recorded before autodiff.attention fused
    # it into one node, kept as the reference; only it needs the tanh,
    # softmax and reshape nodes above, so the engine has none.
    batch, s, att = projected.shape
    query = _reshape(_matmul(state, _transpose(w_query)), (batch, 1, att))
    scores = _matmul(_tanh(_add(query, projected)), _reshape(v, (att, 1)))
    scores = _reshape(scores, (batch, s))
    if mask is not None:
        scores = _add(scores, mask)
    weights = _softmax(scores)
    context = _matmul(_reshape(weights, (batch, 1, s)), annotations)
    return _reshape(context, (batch, annotations.shape[-1])), weights.data


def _padding_mask(rng, batch, s):
    """(B, s) scores mask: 0 on each row's first 1..s positions, -inf after."""
    lengths = rng.integers(1, s + 1, size=batch)
    return np.where(np.arange(s) < lengths[:, None], 0.0, -np.inf)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "padding_mask"])
def test_attention_bit_equal_to_composed_graph(batch, masked):
    rng = np.random.default_rng(batch + 10 * masked)
    hidden, att, s = 5, 4, 6
    values = [
        rng.normal(size=(batch, hidden)),
        rng.normal(size=(att, hidden)),  # the query weight, as stored
        rng.normal(size=(batch, s, att)),
        rng.normal(size=att),
        rng.normal(size=(batch, s, 2 * hidden)),
    ]
    mask = _padding_mask(rng, batch, s) if masked else None
    g = rng.normal(size=(batch, 2 * hidden))
    state, w_query, projected, v, annotations = values
    weights = ad._attend(state @ w_query.T, projected, v.reshape(-1, 1), annotations, mask)[1]
    context, grads = _attention_rule(mask)(g, *values)
    results = [[context, weights] + grads]
    leaves = [Tensor(v, requires_grad=True) for v in values]
    context, weights = _composed_attention(*leaves, mask)
    ad.tsum(ad.mul(context, g)).backward()
    results.append([context.data, weights] + [leaf.grad for leaf in leaves])
    names = ["context", "weights", "state", "w_query", "projected", "v", "annotations"]
    for name, fused, composed in zip(names, *results):
        assert np.array_equal(fused, composed), name
    if masked:
        assert np.all(results[0][1][mask == -np.inf] == 0.0)


def _power(x, exponent):
    # Elementwise x**exponent for a constant exponent as a graph node: only
    # the batch-norm reference graph below needs it, so the engine has no
    # power op.
    def backprop(g):
        tape._accumulate(x, g * exponent * np.power(x.data, exponent - 1.0))

    return tape._wrap(np.power(x.data, exponent), (x,), backprop)


def _composed_batch_norm(x, scale, shift, eps):
    # The train-mode batch normalization the lift net recorded as graph
    # nodes before its training step got a hand-written backward, kept as
    # the reference.
    inv_n = 1.0 / x.shape[0]
    mu = ad.mul(_sum_axis(x, 0, keepdims=True), inv_n)
    centered = _add(x, ad.mul(mu, -1.0))
    var = ad.mul(_sum_axis(ad.mul(centered, centered), 0, keepdims=True), inv_n)
    inv_std = _power(_add(var, eps), -0.5)
    return _add(ad.mul(ad.mul(centered, inv_std), scale), shift), mu.data, var.data


# -- linear against the add, matmul and transpose nodes it replaced -----------


def _composed_linear(x, w, b=None):
    out = _matmul(x, _transpose(w))
    return out if b is None else _add(out, b)


@settings(max_examples=100, deadline=None)
@given(
    lead=st.lists(st.integers(1, 5), min_size=1, max_size=2),
    widths=st.lists(st.integers(1, 6), min_size=2, max_size=2),
    bias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# the toy encoder's first input projection: at this size x^T g and (g^T x)^T
# differ in bits, so only the product the reference forms matches it
@example(lead=[4, 16], widths=[300, 192], bias=False, seed=0)
def test_linear_bit_equal_to_composed_graph(lead, widths, bias, seed):
    """The affine kernel and its backward rule on a 2-d or 3-d input, with
    or without a bias, give the bits of the composed graph
    _add(_matmul(x, _transpose(w)), b), in the value and every gradient."""
    rng = np.random.default_rng(seed)
    (n_in, n_out), batch = widths, tuple(lead)
    values = [rng.normal(size=batch + (n_in,)), rng.normal(size=(n_out, n_in)), rng.normal(size=n_out)][: 2 + bias]
    g = rng.normal(size=batch + (n_out,))
    out, grads = _linear_rule(g, *values)
    leaves = [Tensor(v, requires_grad=True) for v in values]
    composed = _composed_linear(*leaves)
    ad.tsum(ad.mul(composed, g)).backward()
    for i, (rule, graph) in enumerate(zip([out, *grads], [composed.data] + [leaf.grad for leaf in leaves], strict=True)):
        assert np.array_equal(rule, graph), i


# -- one property over every backward rule ---------------------------------------


def _gru_step_case(rng, batch, hidden, steps, *_):
    t = int(rng.integers(steps)) if rng.random() < 0.5 else None
    keep = rng.random(batch) < 0.5 if rng.random() < 0.5 else None
    node = lambda gx, h, u, b: (tape.gru_step(gx, h, u, b, t=t, keep=keep),)
    gx_shape = (batch, 3 * hidden) if t is None else (batch, steps, 3 * hidden)
    shapes = [gx_shape, (batch, hidden), (3 * hidden, hidden), (3 * hidden,)]
    return _gru_rule(t, keep), [node], shapes, (batch, hidden)


def _gesture_loss_case(rng, batch, steps, dim, *_):
    target = rng.normal(size=(batch, steps + 1, dim))
    alpha, beta = rng.uniform(0.0, 1.0, size=2)
    node = lambda pred: tape.gesture_loss(pred, target, alpha, beta)
    return _loss_rule(target, alpha, beta), [node], [target.shape], ()


def _attention_case(masked):
    def case(rng, batch, hidden, att, s, width):
        mask = _padding_mask(rng, batch, s) if masked else None
        node = lambda *inputs: tape.attention(*inputs, mask)
        composed = lambda *inputs: _composed_attention(*inputs, mask)
        shapes = [(batch, hidden), (att, hidden), (batch, s, att), (att,), (batch, s, width)]
        return _attention_rule(mask), [node, composed], shapes, (batch, width)

    return case


# rule -> (rng, batch, four widths) -> (rule, reference graphs: the fused tape
# node the rule was written from and any composed graph before it, input
# shapes, output shape); a reference returns its output tensor first
_RULES = {
    "gru_step": _gru_step_case,
    "gesture_loss": _gesture_loss_case,
    "attention": _attention_case(masked=False),
    "attention_masked": _attention_case(masked=True),
}


def _assert_bit_equal(rule, references, shapes, out_shape, seed):
    """The rule and each reference graph give the same output bits and the
    same bits of every input's gradient."""
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=s) * 0.7 + 0.3 for s in shapes]
    g = rng.normal(size=out_shape) if out_shape else 1.0
    out, grads = rule(g, *values)
    for build in references:
        leaves = [Tensor(v, requires_grad=True) for v in values]
        ref = build(*leaves)[0]
        tape.tsum(tape.mul(ref, g)).backward() if out_shape else ref.backward()
        for i, (plain, graph) in enumerate(zip([out, *grads], [ref.data] + [leaf.grad for leaf in leaves], strict=True)):
            assert np.array_equal(plain, graph), i


@settings(max_examples=100, deadline=None)
@given(
    node=st.sampled_from(sorted(_RULES)),
    batch=st.integers(1, 5),
    widths=st.lists(st.integers(1, 6), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(node="attention", batch=1, widths=[3, 4, 5, 6], seed=0)
@example(node="attention", batch=4, widths=[3, 4, 5, 6], seed=1)
@example(node="attention_masked", batch=1, widths=[3, 4, 5, 6], seed=2)
@example(node="attention_masked", batch=4, widths=[3, 4, 5, 6], seed=3)
def test_fused_node_gradients_match_finite_differences(node, batch, widths, seed):
    """Every input's gradient by a backward rule matches central
    differences, and the rule gives the output and gradient bits of the
    fused tape node it was written from (and of the composed graph before
    that node, where there was one)."""
    rng = np.random.default_rng(seed)
    rule, references, shapes, out_shape = _RULES[node](rng, batch, *widths)
    _fd_check_rule(rule, shapes, out_shape, seed=seed)
    _assert_bit_equal(rule, references, shapes, out_shape, seed)


# -- the forward kernels against their `@` spelling ------------------------------
# The kernels take 2-D products through np.dot and reduce through bound
# ufuncs to save per-call dispatch at batch 1; these references spell the
# same operations with `@` and the ndarray methods, in the same order.


def _affine_at(x, w_t, b):
    out = (x.reshape(-1, x.shape[-1]) @ w_t).reshape(x.shape[:-1] + w_t.shape[1:])
    return out if b is None else out + b


def _gru_cell_at(gxt, h, u_zr, u_c, b_zr, b_c):
    hidden = h.shape[-1]
    two = 2 * hidden
    zr = 0.5 * (np.tanh(0.5 * ((gxt[:, :two] + h @ u_zr) + b_zr)) + 1.0)
    z, r = zr[:, :hidden], zr[:, hidden:]
    c = np.tanh((gxt[:, two:] + (r * h) @ u_c) + b_c)
    return h + z * (c - h), z, r, c


def _attend_at(query, projected, v_col, annotations, mask):
    batch, s, att = projected.shape
    t = np.tanh(query.reshape(batch, 1, att) + projected)
    scores = (t.reshape(-1, att) @ v_col).reshape(batch, s)
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    return np.matmul(weights.reshape(batch, 1, s), annotations).reshape(batch, -1), weights, t


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape and np.array_equal(a, b), i


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 4),
    words=st.integers(1, 5),
    widths=st.lists(st.integers(1, 48), min_size=2, max_size=2),
    hidden=st.integers(1, 24),
    att=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
# the toy model's batch-1 decode products: the first cell's input projection
# 1x192.192x192 with its 1x64.64x128 and 1x64.64x64 gate products and the
# 1x64.64x64 attention query, then the pre-linear 1x10.10x64
@example(batch=1, words=1, widths=[192, 192], hidden=64, att=64, seed=0)
@example(batch=1, words=7, widths=[10, 64], hidden=64, att=64, seed=1)
def test_forward_kernels_bit_equal_to_matmul_spelling(batch, words, widths, hidden, att, seed):
    """`_affine` (2-d input fresh and into ``out``, 3-d input into ``out``), `_gru_cell`
    (into its output buffers, on a time slice of a (B, s, 3H) projection)
    and `_attend` (with and without a padding mask, on a query formed by
    ``ndarray.dot``) give the bits of the same operations written with `@`."""
    rng = np.random.default_rng(seed)
    n_in, n_out = widths
    w_t, b = rng.normal(size=(n_out, n_in)).T, rng.normal(size=n_out)
    for x in (rng.normal(size=(batch, n_in)), rng.normal(size=(batch, words, n_in))):
        for bias in (None, b):
            want = _affine_at(x, w_t, bias)
            got = [ad._affine(x, w_t, bias, np.empty(want.shape))] + ([ad._affine(x, w_t, bias)] if x.ndim == 2 else [])
            _assert_same_bits(got, [want] * len(got))

    gx, h = rng.normal(size=(batch, words, 3 * hidden)), rng.normal(size=(batch, hidden))
    kernel = ad._gru_blocks(rng.normal(size=(3 * hidden, hidden)).T, rng.normal(size=3 * hidden))
    gxt = gx[:, int(rng.integers(words))]
    h_next, zr, c = np.empty((batch, hidden)), np.empty((batch, 2 * hidden)), np.empty((batch, hidden))
    ad._gru_cell(gxt, h, *kernel, h_next, zr, c)
    _assert_same_bits([h_next, zr[:, :hidden], zr[:, hidden:], c], _gru_cell_at(gxt, h, *kernel))

    w_query_t, v_col = rng.normal(size=(att, hidden)).T, rng.normal(size=(att, 1))
    projected, annotations = rng.normal(size=(batch, words, att)), rng.normal(size=(batch, words, 2 * hidden))
    for mask in (None, _padding_mask(rng, batch, words)):
        want = _attend_at(h @ w_query_t, projected, v_col, annotations, mask)
        _assert_same_bits(ad._attend(h.dot(w_query_t), projected, v_col, annotations, mask), want)
