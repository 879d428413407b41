"""Finite-difference checks for every autodiff primitive and the test-local
reference nodes, a property of `linear` against the add / matmul /
transpose graph it replaced, one property over the fused nodes'
hand-written backwards, plus graph semantics (re-running backward, no
recorded graph)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gesturegen import autodiff as ad
from gesturegen.autodiff import Tensor
from gesturegen.errors import InvalidConfig


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


# -- reference nodes ------------------------------------------------------------
# Graph nodes the engine no longer has, plain on plain operands like its ops.
# The reference graphs below are composed of them: the add, matmul and
# transpose nodes the model recorded before autodiff.linear fused them, the
# attention before autodiff.attention and the lift net's step before its
# hand-written backward.


def _add(a, b):
    # a + b with numpy broadcasting; each operand's gradient is summed over
    # the axes it was broadcast along.
    av, bv = ad._data(a), ad._data(b)
    y = av + bv
    if not ad._records(a, b):
        return y

    def backprop(g):
        for t in (a, b):
            if ad._records(t):
                shape = t.data.shape
                lead = g.ndim - len(shape)
                axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n < g.shape[lead + i])
                ad._accumulate(t, g.sum(axis=axes, keepdims=True).reshape(shape) if axes else g)

    return ad._wrap(y, (a, b), backprop)


def _matmul(a, b):
    # np.matmul semantics for operands of ndim >= 2, broadcasting batch dims;
    # an N-d input times a 2-d weight runs as one 2-d GEMM over the
    # flattened leading dims, forward and backward.
    av, bv = ad._data(a), ad._data(b)
    flat = av.ndim > 2 and bv.ndim == 2
    if flat:
        y = (av.reshape(-1, av.shape[-1]) @ bv).reshape(av.shape[:-1] + bv.shape[-1:])
    else:
        y = np.matmul(av, bv)
    if not ad._records(a, b):
        return y

    def backprop(g):
        if ad._records(a):
            ad._accumulate(a, np.matmul(g, np.swapaxes(bv, -1, -2)))
        if ad._records(b):
            if flat:
                gb = av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = np.matmul(np.swapaxes(av, -1, -2), g)
            ad._accumulate(b, gb)

    return ad._wrap(y, (a, b), backprop)


def _transpose(x):
    y = np.swapaxes(ad._data(x), -1, -2)
    if not ad._records(x):
        return y

    def backprop(g):
        ad._accumulate(x, np.swapaxes(g, -1, -2))

    return ad._wrap(y, (x,), backprop)


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
    _fd_check(lambda *operands: ad.tsum(ad.linear(*operands)), shapes)


def _relu(x):
    # relu as a graph node, plain on plain operands: only the lift net's
    # reference graph in the tests needs it, so the engine has none.
    xv = ad._data(x)
    y = np.maximum(xv, 0.0)
    if not ad._records(x):
        return y

    def backprop(g):
        ad._accumulate(x, g * (xv > 0.0))

    return ad._wrap(y, (x,), backprop)


def test_tanh_sigmoid_relu():
    _fd_check(lambda a: ad.tsum(_relu(_add(a, 0.1))), [(5,)])


def test_gesture_loss_matches_finite_differences():
    target = np.random.default_rng(1).normal(size=(2, 4, 3))
    _fd_check(lambda p: ad.gesture_loss(p, target, 0.7, 0.3)[0], [(2, 4, 3)])


def test_gesture_loss_subgradient_at_zero_steps():
    x = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
    total, mse, continuity, variance = ad.gesture_loss(x, np.zeros((2, 3, 4)), 0.7, 0.3)
    total.backward()
    assert (mse, continuity, variance, float(total.data)) == (0.0, 0.0, 0.0, 0.0)
    assert np.all(np.isfinite(x.grad))
    assert np.array_equal(x.grad, np.zeros((2, 3, 4)))


def _sum_axis(x, axis, keepdims=False):
    # A sum over one axis as a graph node, plain on plain operands like the
    # engine's ops: tsum and tmean reduce whole tensors, and only reference
    # graphs in the tests need an axis.
    y = ad._data(x).sum(axis=axis, keepdims=keepdims)
    if not ad._records(x):
        return y

    def backprop(g):
        ad._accumulate(x, np.broadcast_to(g if keepdims else np.expand_dims(g, axis), x.shape))

    return ad._wrap(y, (x,), backprop)


def test_reductions():
    _fd_check(lambda a: ad.tsum(ad.mul(_sum_axis(a, 1), _sum_axis(a, 1))), [(3, 4)])
    _fd_check(lambda a: ad.tmean(ad.mul(a, a)), [(3, 4)])
    _fd_check(lambda a: ad.tsum(ad.mul(_sum_axis(a, 0, keepdims=True), a)), [(3, 4)])


def test_concat_stack_reshape_transpose():
    _fd_check(lambda a, b: ad.tsum(ad.mul(ad.concat([a, b], axis=1), 1.5)), [(2, 3), (2, 2)])
    _fd_check(lambda a, b: ad.tsum(ad.mul(ad.stack([a, b], axis=1), np.ones((2, 2, 3)) * 0.5)), [(2, 3), (2, 3)])
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

# case -> (engine op, call, input shapes); a call returns the op's result,
# a tuple when the op returns plain arrays beside it
_OP_CASES = {
    "linear": (ad.linear, ad.linear, [(3, 4), (2, 4), (2,)]),
    "linear_no_bias": (ad.linear, ad.linear, [(3, 4), (2, 4)]),
    "linear_flat": (ad.linear, ad.linear, [(2, 3, 4), (2, 4), (2,)]),
    "mul": (ad.mul, ad.mul, [(2, 3, 4), (3, 4)]),
    "gru_step": (ad.gru_step, ad.gru_step, [(3, 6), (3, 2), (6, 2), (6,)]),
    "gru_step_time_keep": (
        ad.gru_step,
        lambda gx, h, u, b: ad.gru_step(gx, h, u, b, t=1, keep=_KEEP),
        [(3, 4, 6), (3, 2), (6, 2), (6,)],
    ),
    "gesture_loss": (ad.gesture_loss, lambda p: ad.gesture_loss(p, np.ones((2, 4, 3)), 0.7, 0.3), [(2, 4, 3)]),
    "attention": (ad.attention, ad.attention, _ATTENTION_SHAPES),
    "attention_masked": (ad.attention, lambda *x: ad.attention(*x, _MASK), _ATTENTION_SHAPES),
    "tsum": (ad.tsum, ad.tsum, [(3, 4)]),
    "tmean": (ad.tmean, ad.tmean, [(3, 4)]),
    "concat": (ad.concat, lambda a, b: ad.concat([a, b], axis=1), [(2, 3), (2, 2)]),
    "stack": (ad.stack, lambda a, b: ad.stack([a, b], axis=1), [(2, 3), (2, 3)]),
    "dropout": (ad.dropout, lambda x: ad.dropout(x, 0.5, np.random.default_rng(0)), [(4, 5)]),
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
    rng = np.random.default_rng(0)
    x = Tensor(np.ones((200, 50)), requires_grad=True)
    y = ad.dropout(x, 0.1, rng)
    kept = y.data[y.data > 0]
    assert np.allclose(kept, 1.0 / 0.9)
    assert abs(y.data.mean() - 1.0) < 0.02
    assert ad.dropout(x, 0.0, rng) is x


@pytest.mark.parametrize(
    "t, keep",
    [(None, None), (1, None), (None, np.array([True, False, True])), (2, np.array([False, True, True]))],
    ids=["step", "time_index", "keep_mask", "time_index_keep_mask"],
)
def test_gru_step(t, keep):
    # gx, h, u (3H, H) as stored and b (3H,) for H = 2, a batch of 3, 4 timesteps
    weights = np.arange(6.0).reshape(3, 2) * 0.3 - 0.7
    gx_shape = (3, 6) if t is None else (3, 4, 6)
    _fd_check(
        lambda gx, h, u, b: ad.tsum(ad.mul(ad.gru_step(gx, h, u, b, t=t, keep=keep), weights)),
        [gx_shape, (3, 2), (6, 2), (6,)],
    )


def test_gru_step_matches_gate_formula_and_carries_masked_rows():
    rng = np.random.default_rng(4)
    gx, h, u, b = rng.normal(size=(3, 6)), rng.normal(size=(3, 2)), rng.normal(size=(6, 2)), rng.normal(size=6)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    z = sig(gx[:, :2] + h @ u[:2].T + b[:2])
    r = sig(gx[:, 2:4] + h @ u[2:4].T + b[2:4])
    c = np.tanh(gx[:, 4:] + (r * h) @ u[4:].T + b[4:])
    expected = (1.0 - z) * h + z * c
    assert np.allclose(ad.gru_step(gx, h, u, b), expected, rtol=0, atol=1e-14)
    keep = np.array([True, False, True])
    out = ad.gru_step(gx, h, u, b, keep=keep)
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
        ad._accumulate(x, g * (1.0 - y * y))

    return ad._wrap(y, (x,), backprop)


def _softmax(x):
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def backprop(g):
        ad._accumulate(x, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return ad._wrap(y, (x,), backprop)


def _reshape(x, shape):
    def backprop(g):
        ad._accumulate(x, g.reshape(x.shape))

    return ad._wrap(x.data.reshape(shape), (x,), backprop)


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
    results = []
    for node in (ad.attention, _composed_attention):
        leaves = [Tensor(v, requires_grad=True) for v in values]
        context, weights = node(*leaves, mask)
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
        ad._accumulate(x, g * exponent * np.power(x.data, exponent - 1.0))

    return ad._wrap(np.power(x.data, exponent), (x,), backprop)


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
    recording=st.lists(st.booleans(), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
# the toy encoder's first input projection: at this size x^T g and (g^T x)^T
# differ in bits, so only the product the reference forms matches it
@example(lead=[4, 16], widths=[300, 192], bias=False, recording=[False, True, False], seed=0)
def test_linear_bit_equal_to_composed_graph(lead, widths, bias, recording, seed):
    """ad.linear on a 2-d or 3-d input, with or without a bias and with any
    subset of its operands recording, gives the bits of the composed graph
    _add(_matmul(x, _transpose(w)), b), in its value and every gradient."""
    rng = np.random.default_rng(seed)
    (n_in, n_out), batch = widths, tuple(lead)
    values = [rng.normal(size=batch + (n_in,)), rng.normal(size=(n_out, n_in)), rng.normal(size=n_out)][: 2 + bias]
    g = rng.normal(size=batch + (n_out,))
    results = []
    for build in (ad.linear, _composed_linear):
        operands = [Tensor(v, requires_grad=True) if r else v for v, r in zip(values, recording)]
        out = build(*operands)
        leaves = [t for t in operands if isinstance(t, Tensor)]
        if leaves:
            ad.tsum(ad.mul(out, g)).backward()
        results.append([ad._data(out)] + [leaf.grad for leaf in leaves])
    for i, (fused, composed) in enumerate(zip(*results, strict=True)):
        assert np.array_equal(fused, composed), i


# -- one property over every fused node ----------------------------------------


def _gru_step_case(rng, batch, hidden, steps, *_):
    t = int(rng.integers(steps)) if rng.random() < 0.5 else None
    keep = rng.random(batch) < 0.5 if rng.random() < 0.5 else None
    node = lambda gx, h, u, b: (ad.gru_step(gx, h, u, b, t=t, keep=keep),)
    gx_shape = (batch, 3 * hidden) if t is None else (batch, steps, 3 * hidden)
    return node, None, [gx_shape, (batch, hidden), (3 * hidden, hidden), (3 * hidden,)], (batch, hidden)


def _gesture_loss_case(rng, batch, steps, dim, *_):
    target = rng.normal(size=(batch, steps + 1, dim))
    alpha, beta = rng.uniform(0.0, 1.0, size=2)
    return lambda pred: ad.gesture_loss(pred, target, alpha, beta), None, [target.shape], ()


def _attention_case(masked):
    def case(rng, batch, hidden, att, s, width):
        mask = _padding_mask(rng, batch, s) if masked else None
        node = lambda *inputs: ad.attention(*inputs, mask)
        composed = lambda *inputs: _composed_attention(*inputs, mask)
        shapes = [(batch, hidden), (att, hidden), (batch, s, att), (att,), (batch, s, width)]
        return node, composed, shapes, (batch, width)

    return case


# node -> (rng, batch, four widths) -> (node, its composed reference graph or
# None, input shapes, output shape); node and reference return the output
# tensor first, then any plain arrays
_FUSED_NODES = {
    "gru_step": _gru_step_case,
    "gesture_loss": _gesture_loss_case,
    "attention": _attention_case(masked=False),
    "attention_masked": _attention_case(masked=True),
}


def _assert_bit_equal(node, composed, shapes, weights, seed):
    """The node and its composed reference give the same output bits and
    the same bits of every input's gradient."""
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=s) * 0.7 + 0.3 for s in shapes]
    results = []
    for build in (node, composed):
        leaves = [Tensor(v, requires_grad=True) for v in values]
        out, *arrays = build(*leaves)
        ad.tsum(ad.mul(out, weights)).backward()
        results.append([out.data, *arrays, *(leaf.grad for leaf in leaves)])
    for i, (fused, reference) in enumerate(zip(*results, strict=True)):
        assert np.array_equal(fused, reference), i


@settings(max_examples=100, deadline=None)
@given(
    node=st.sampled_from(sorted(_FUSED_NODES)),
    batch=st.integers(1, 5),
    widths=st.lists(st.integers(1, 6), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(node="attention", batch=1, widths=[3, 4, 5, 6], seed=0)
@example(node="attention", batch=4, widths=[3, 4, 5, 6], seed=1)
@example(node="attention_masked", batch=1, widths=[3, 4, 5, 6], seed=2)
@example(node="attention_masked", batch=4, widths=[3, 4, 5, 6], seed=3)
def test_fused_node_gradients_match_finite_differences(node, batch, widths, seed):
    """Every input's gradient matches central differences; a node with a
    composed reference graph also matches its output and gradient bits."""
    rng = np.random.default_rng(seed)
    fused, composed, shapes, out_shape = _FUSED_NODES[node](rng, batch, *widths)
    weights = rng.normal(size=out_shape)
    _fd_check(lambda *inputs: ad.tsum(ad.mul(fused(*inputs)[0], weights)), shapes, seed=seed)
    if composed is not None:
        _assert_bit_equal(fused, composed, shapes, weights, seed)
