"""Finite-difference checks for every autodiff primitive, plus graph
semantics (re-running backward, no recorded graph)."""

import numpy as np
import pytest

from gesturegen import autodiff as ad
from gesturegen.autodiff import Tensor
from gesturegen.errors import InvalidConfig


def _fd_check(build, shapes, seed=0, step=1e-6, tol=1e-6):
    """build(tensors) -> scalar Tensor; checks grads of every input."""
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
            hi = float(build(*[Tensor(x) for x in values]).data)
            flat[i] = orig - step
            lo = float(build(*[Tensor(x) for x in values]).data)
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            assert abs(grad[i] - fd) <= tol * max(1.0, abs(fd)), (grad[i], fd)


def test_add_broadcast():
    _fd_check(lambda a, b: ad.tsum(ad.add(a, b)), [(3, 4), (4,)])


def test_mul_broadcast():
    _fd_check(lambda a, b: ad.tsum(ad.mul(a, b)), [(2, 3, 4), (3, 4)])


def test_matmul_2d():
    _fd_check(lambda a, b: ad.tsum(ad.matmul(a, b)), [(3, 4), (4, 2)])


def test_matmul_batched():
    _fd_check(lambda a, b: ad.tsum(ad.matmul(a, b)), [(2, 3, 4), (2, 4, 2)])


def test_matmul_broadcast_batch():
    _fd_check(lambda a, b: ad.tsum(ad.matmul(a, b)), [(2, 3, 4), (4, 2)])


def test_tanh_sigmoid_relu():
    _fd_check(lambda a: ad.tsum(ad.tanh(a)), [(5,)])
    _fd_check(lambda a: ad.tsum(ad.relu(ad.add(a, 0.1))), [(5,)])


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


def test_softmax():
    _fd_check(lambda a: ad.tsum(ad.mul(ad.softmax(a, axis=-1), np.arange(8.0).reshape(2, 4))), [(2, 4)])


def test_reductions():
    _fd_check(lambda a: ad.tsum(ad.mul(ad.tsum(a, axis=1), ad.tsum(a, axis=1))), [(3, 4)])
    _fd_check(lambda a: ad.tmean(ad.mul(a, a)), [(3, 4)])
    _fd_check(lambda a: ad.tsum(ad.mul(ad.tmean(a, axis=0, keepdims=True), a)), [(3, 4)])


def test_concat_stack_reshape_transpose():
    _fd_check(lambda a, b: ad.tsum(ad.mul(ad.concat([a, b], axis=1), 1.5)), [(2, 3), (2, 2)])
    _fd_check(lambda a, b: ad.tsum(ad.mul(ad.stack([a, b], axis=1), np.ones((2, 2, 3)) * 0.5)), [(2, 3), (2, 3)])
    _fd_check(lambda a: ad.tsum(ad.mul(ad.reshape(a, (6,)), np.arange(6.0))), [(2, 3)])
    _fd_check(lambda a: ad.tsum(ad.mul(ad.transpose(a), np.ones((3, 2)))), [(2, 3)])


def test_shared_subexpression_gradient():
    # y = sum(x * x + x): dy/dx = 2x + 1 with x reused by two ops
    x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    out = ad.tsum(ad.add(ad.mul(x, x), x))
    out.backward()
    assert np.allclose(x.grad, 2 * x.data + 1)


def test_backward_recomputes_not_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    out = ad.tsum(ad.mul(x, x))
    out.backward()
    first = x.grad.copy()
    out.backward()
    assert np.array_equal(x.grad, first)


def test_no_recorded_graph():
    with pytest.raises(InvalidConfig, match="no recorded computation"):
        Tensor(np.ones(3), requires_grad=True).backward()


def test_eval_mode_records_nothing():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = ad.matmul(a, b)
    assert not out.requires_grad
    assert out._parents == ()


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
    # gx, h, U (H, 3H) and b (3H,) for H = 2, a batch of 3, 4 timesteps
    weights = np.arange(6.0).reshape(3, 2) * 0.3 - 0.7
    gx_shape = (3, 6) if t is None else (3, 4, 6)
    _fd_check(
        lambda gx, h, u, b: ad.tsum(ad.mul(ad.gru_step(gx, h, u, b, t=t, keep=keep), weights)),
        [gx_shape, (3, 2), (2, 6), (6,)],
    )


def test_gru_step_matches_gate_formula_and_carries_masked_rows():
    rng = np.random.default_rng(4)
    gx, h, u, b = rng.normal(size=(3, 6)), rng.normal(size=(3, 2)), rng.normal(size=(2, 6)), rng.normal(size=6)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    z = sig(gx[:, :2] + h @ u[:, :2] + b[:2])
    r = sig(gx[:, 2:4] + h @ u[:, 2:4] + b[2:4])
    c = np.tanh(gx[:, 4:] + (r * h) @ u[:, 4:] + b[4:])
    expected = (1.0 - z) * h + z * c
    assert np.allclose(ad.gru_step(gx, h, u, b).data, expected, rtol=0, atol=1e-14)
    keep = np.array([True, False, True])
    out = ad.gru_step(gx, h, u, b, keep=keep).data
    assert np.array_equal(out[1], h[1])
    assert np.allclose(out[keep], expected[keep], rtol=0, atol=1e-14)


def test_matmul_nd_by_2d_one_operand_requires_grad():
    rng = np.random.default_rng(5)
    x, w, g = rng.normal(size=(4, 5, 3)), rng.normal(size=(3, 2)), rng.normal(size=(4, 5, 2))
    xt, wt = Tensor(x), Tensor(w, requires_grad=True)
    out = ad.matmul(xt, wt)
    assert np.allclose(out.data, np.matmul(x, w), rtol=0, atol=1e-14)
    ad.tsum(ad.mul(out, g)).backward()
    assert xt.grad is None
    assert np.allclose(wt.grad, np.einsum("bsi,bso->io", x, g), rtol=0, atol=1e-13)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w)
    ad.tsum(ad.mul(ad.matmul(xt, wt), g)).backward()
    assert wt.grad is None
    assert np.allclose(xt.grad, g @ w.T, rtol=0, atol=1e-13)
