import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturegen import autodiff as ad
from gesturegen.autodiff import Tensor
from gesturegen.errors import InvalidConfig
from gesturegen.model import (
    ModelConfig,
    _Attention,
    _Bag,
    _cell_step,
    _decode_step_graph,
    _encode_graph,
    backward,
    forward,
    forward_graph,
    init_model,
)
from gesturegen.training import Hyperparams, compute_loss_graph

TINY = ModelConfig(word_dim=7, hidden=4, att_dim=4, n_seed_poses=2, n_output_poses=3, dropout=0.1)


# Single-sequence runs of the graph builders that forward_graph is made of,
# without recording: one vector in, one vector out.


def cell_step(cell, x, h):
    """One GRU cell update of an (input,) vector and an (H,) state."""
    return _cell_step(_Bag(False), cell, Tensor(np.asarray(x)[None]), Tensor(np.asarray(h)[None])).data[0]


def gate(p, k):
    """Rows of gate k (0: update z, 1: reset r, 2: candidate h) of a
    gate-stacked cell parameter, as a writable view."""
    hidden = p.value.shape[0] // 3
    return p.value[k * hidden : (k + 1) * hidden]


def encode(model, words):
    """(2H,) annotation per word of a list of (word_dim,) vectors."""
    annotations = _encode_graph(model, _Bag(False), Tensor(np.stack(words)[None]))
    return list(annotations.data[0])


def attend(model, state, annotations):
    """(weights (s,), context (2H,)) for an (H,) query over (s, 2H) annotations."""
    attention = _Attention(model, _Bag(False), Tensor(np.asarray(annotations)[None]))
    weights, context = attention(Tensor(np.asarray(state)[None]))
    return weights.data[0], context.data[0]


def decode(model, prev_pose, hidden, annotations):
    """(pose, (h1', h2'), weights) of one decoder step from an (h1, h2) pair."""
    bag = _Bag(False)
    attention = _Attention(model, bag, Tensor(np.asarray(annotations)[None]))
    h1, h2 = (Tensor(np.asarray(h)[None]) for h in hidden)
    pose, h1, h2, weights = _decode_step_graph(
        model, bag, attention, Tensor(np.asarray(prev_pose)[None]), h1, h2, train=False, rng=None
    )
    return pose.data[0], (h1.data[0], h2.data[0]), weights.data[0]


@pytest.fixture(scope="module")
def tiny():
    return init_model(TINY, seed=42)


class TestInit:
    def test_deterministic(self):
        a = init_model(TINY, seed=5)
        b = init_model(TINY, seed=5)
        for (name, pa), (_, pb) in zip(a.store.items(), b.store.items()):
            assert np.array_equal(pa.value, pb.value), name

    def test_seed_changes_weights(self):
        a = init_model(TINY, seed=5)
        b = init_model(TINY, seed=6)
        assert any(not np.array_equal(pa.value, b.store[name].value) for name, pa in a.store.items())

    def test_shapes(self):
        model = init_model(ModelConfig(), seed=0)
        assert gate(model.store["enc.l0.fwd.w"], 0).shape == (200, 300)
        assert gate(model.store["enc.l1.bwd.u"], 2).shape == (200, 200)
        assert model.store["att.u_ann"].value.shape == (200, 400)
        assert gate(model.store["dec.l0.w"], 0).shape == (200, 600)
        assert model.store["dec.post.w"].value.shape == (10, 200)

    def test_biases_zero_weights_in_xavier_range(self):
        model = init_model(TINY, seed=1)
        assert np.array_equal(model.store["dec.pre.b"].value, np.zeros(4))
        w = gate(model.store["enc.l0.fwd.w"], 0)
        limit = np.sqrt(6.0 / (7 + 4))
        assert np.all(np.abs(w) <= limit)


class TestGruCell:
    def test_zero_params_halve_hidden(self, tiny):
        cell = init_model(TINY, seed=0).encoder[0][0]
        for p in cell:  # w, u, b: every gate of the cell
            p.value[...] = 0.0
        h = np.array([0.4, -0.8, 0.2, 1.0])
        out = cell_step(cell, np.zeros(7), h)
        assert np.array_equal(out, 0.5 * h)

    def test_saturated_update_gate(self):
        cell = init_model(TINY, seed=3).encoder[0][0]
        w, u, b = cell
        gate(b, 0)[...] = 50.0
        gate(w, 2)[...] = 0.0
        gate(u, 2)[...] = 0.0
        gate(b, 2)[...] = 0.0
        h = np.array([0.9, -0.5, 0.1, 0.7])
        out = cell_step(cell, np.ones(7) * 0.3, h)
        assert np.max(np.abs(out)) < 1e-12

    def test_hidden_stays_bounded(self):
        rng = np.random.default_rng(17)
        cfg = ModelConfig(word_dim=5, hidden=6, att_dim=4, n_seed_poses=2, n_output_poses=3)
        for trial in range(1000):
            model = init_model(cfg, seed=trial % 13)
            cell = model.encoder[0][0]
            for k in range(3):  # w_z, u_z, w_r, u_r, w_h, u_h
                for rows in (gate(cell[0], k), gate(cell[1], k)):
                    rows[...] = rng.normal(0, 2.0, rows.shape)
            h = rng.uniform(-1, 1, 6)
            for _ in range(3):
                h = cell_step(cell, rng.normal(0, 2.0, 5), h)
                assert np.all(np.abs(h) <= 1.0)

    def test_contraction_bound(self, tiny):
        # |h'|_inf <= max(|h|_inf, 1) for any parameters
        rng = np.random.default_rng(3)
        cell = tiny.encoder[0][0]
        for _ in range(200):
            h = rng.normal(0, 4.0, 4)
            out = cell_step(cell, rng.normal(0, 2.0, 7), h)
            assert np.max(np.abs(out)) <= max(np.max(np.abs(h)), 1.0) + 1e-12

    def test_shape_mismatch(self, tiny):
        with pytest.raises(InvalidConfig, match="word dim 6 != "):
            forward(tiny, np.zeros((3, 6)), np.zeros((2, 10)))


class TestEncoder:
    def test_annotation_shapes(self, tiny):
        rng = np.random.default_rng(0)
        for s in (1, 4):
            anns = encode(tiny, [rng.normal(size=7) for _ in range(s)])
            assert len(anns) == s
            assert all(a.shape == (8,) for a in anns)

    def test_empty_input(self, tiny):
        with pytest.raises(InvalidConfig, match="need at least one embedded word"):
            forward_graph(tiny, np.zeros((1, 0, 7)), np.zeros((1, 2, 10)))

    def test_deterministic(self, tiny):
        rng = np.random.default_rng(1)
        words = [rng.normal(size=7) for _ in range(3)]
        a = encode(tiny, words)
        b = encode(tiny, words)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_reversal_swaps_directions(self):
        # Oracle model: tie backward params to forward params per layer and
        # make the layer-2 input blocks (forward half, backward half) equal,
        # so reversing the words must reverse the annotations and swap their
        # forward/backward halves.
        model = init_model(ModelConfig(word_dim=5, hidden=3, att_dim=3, n_seed_poses=2, n_output_poses=2), seed=9)
        for layer in range(2):
            fwd, bwd = model.encoder[layer]
            for pb, pf in zip(bwd, fwd):
                pb.value[...] = pf.value
        hidden = 3
        for cell in model.encoder[1]:
            for k in range(3):
                w = gate(cell[0], k)
                w[:, hidden:] = w[:, :hidden]
        rng = np.random.default_rng(2)
        words = [rng.normal(size=5) for _ in range(4)]
        fwd_anns = encode(model, words)
        rev_anns = encode(model, words[::-1])
        for t in range(4):
            expected = np.concatenate([fwd_anns[3 - t][hidden:], fwd_anns[3 - t][:hidden]])
            assert np.allclose(rev_anns[t], expected, atol=1e-12)


class TestAttention:
    def test_single_annotation(self, tiny):
        ann = np.random.default_rng(0).normal(size=(1, 8))
        weights, context = attend(tiny, np.zeros(4), ann)
        assert np.allclose(weights, [1.0])
        assert np.allclose(context, ann[0])

    def test_identical_annotations_uniform(self, tiny):
        ann = np.tile(np.random.default_rng(1).normal(size=8), (5, 1))
        weights, _ = attend(tiny, np.ones(4) * 0.3, ann)
        assert np.max(np.abs(weights - 0.2)) < 1e-12

    def test_rows_sum_to_one_nonnegative(self, tiny):
        rng = np.random.default_rng(2)
        for _ in range(100):
            weights, _ = attend(tiny, rng.normal(size=4), rng.normal(size=(6, 8)))
            assert abs(weights.sum() - 1.0) < 1e-9
            assert np.all(weights >= 0)


class TestDecodeStep:
    def test_zero_model_outputs_post_bias(self):
        model = init_model(TINY, seed=0)
        for _, p in model.store.items():
            p.value[...] = 0.0
        model.post_b.value[...] = np.arange(10.0) * 0.1
        ann = np.random.default_rng(0).normal(size=(3, 8))
        pose, hidden, weights = decode(model, np.zeros(10), (np.zeros(4), np.zeros(4)), ann)
        assert np.allclose(pose, np.arange(10.0) * 0.1, atol=1e-15)

    def test_deterministic_and_shapes(self, tiny):
        rng = np.random.default_rng(5)
        ann = rng.normal(size=(4, 8))
        prev = rng.normal(size=10)
        hidden = (rng.normal(size=4), rng.normal(size=4))
        a = decode(tiny, prev, hidden, ann)
        b = decode(tiny, prev, hidden, ann)
        assert a[0].shape == (10,)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[2], b[2])
        assert a[1][0].shape == (4,) and a[1][1].shape == (4,)


class TestForward:
    def test_shapes_and_row_sums(self, tiny):
        rng = np.random.default_rng(6)
        poses, attn = forward(tiny, rng.normal(size=(5, 7)), rng.normal(size=(2, 10)))
        assert poses.shape == (3, 10)
        assert attn.shape == (3, 5)
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-9)

    def test_eval_bitwise_deterministic(self, tiny):
        rng = np.random.default_rng(7)
        emb, seeds = rng.normal(size=(4, 7)), rng.normal(size=(2, 10))
        p1, a1 = forward(tiny, emb, seeds)
        p2, a2 = forward(tiny, emb, seeds)
        assert np.array_equal(p1, p2) and np.array_equal(a1, a2)

    def test_seed_length_mismatch(self, tiny):
        rng = np.random.default_rng(8)
        with pytest.raises(InvalidConfig, match="seed poses, got 5"):
            forward(tiny, rng.normal(size=(4, 7)), rng.normal(size=(5, 10)))

    def test_empty_words(self, tiny):
        with pytest.raises(InvalidConfig, match="cannot run on an empty word sequence"):
            forward(tiny, np.zeros((0, 7)), np.zeros((2, 10)))

    def test_train_mode_dropout_changes_output(self, tiny):
        rng = np.random.default_rng(9)
        emb, seeds = rng.normal(size=(4, 7)), rng.normal(size=(2, 10))
        p_eval, _ = forward(tiny, emb, seeds)
        p_train = forward_graph(tiny, emb[None], seeds[None], train=True, rng=np.random.default_rng(0)).poses.data[0]
        assert not np.array_equal(p_eval, p_train)


class TestBackward:
    def test_zero_loss_zero_gradients(self, tiny):
        rng = np.random.default_rng(10)
        emb, seeds = rng.normal(size=(1, 3, 7)), rng.normal(size=(1, 2, 10))
        rollout = forward_graph(tiny, emb, seeds)
        target = rollout.poses.data.copy()  # pred == target, alpha = beta = 0
        h = Hyperparams(alpha=0.0, beta=0.0)
        _, total = compute_loss_graph(rollout.poses, target, h)
        tiny.store.zero_grads()
        backward(total)
        assert all(np.array_equal(p.grad, np.zeros_like(p.grad)) for _, p in tiny.store.items())

    def test_two_backward_passes_double(self, tiny):
        rng = np.random.default_rng(11)
        emb, seeds = rng.normal(size=(1, 3, 7)), rng.normal(size=(1, 2, 10))
        target = rng.normal(size=(1, 3, 10))
        rollout = forward_graph(tiny, emb, seeds)
        _, total = compute_loss_graph(rollout.poses, target, Hyperparams())
        tiny.store.zero_grads()
        backward(total)
        singles = {name: p.grad.copy() for name, p in tiny.store.items()}
        backward(total)
        for name, p in tiny.store.items():
            assert np.allclose(p.grad, 2.0 * singles[name], atol=1e-15), name

    def test_no_recorded_graph(self, tiny):
        with pytest.raises(InvalidConfig, match="loss is not the result of a recorded forward pass"):
            backward(Tensor(np.array(1.0), requires_grad=True))

    def test_finite_difference_subset(self, tiny):
        """Spot-check analytic gradients of the full loss on a few entries
        of every parameter; the full sweep runs in the acceptance suite."""
        rng = np.random.default_rng(12)
        emb = rng.normal(size=(1, 2, 7))
        seeds = rng.normal(size=(1, 2, 10)) * 0.3
        target = rng.normal(size=(1, 3, 10)) * 0.3
        h = Hyperparams()

        def loss_value():
            out = forward_graph(tiny, emb, seeds, record=False)
            return compute_loss_graph(out.poses, target, h)[0].total

        rollout = forward_graph(tiny, emb, seeds)
        _, total = compute_loss_graph(rollout.poses, target, h)
        tiny.store.zero_grads()
        backward(total)
        step = 1e-5
        for name, p in tiny.store.items():
            flat = p.value.reshape(-1)
            grad = p.grad.reshape(-1)
            for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + step
                hi = loss_value()
                flat[i] = orig - step
                lo = loss_value()
                flat[i] = orig
                fd = (hi - lo) / (2 * step)
                rel = abs(grad[i] - fd) / max(1e-6, abs(grad[i]), abs(fd))
                assert rel < 1e-4, (name, i, grad[i], fd)


PADDED = ModelConfig(word_dim=7, hidden=5, att_dim=4, n_seed_poses=2, n_output_poses=3, dropout=0.0)


def _padded_batch(rng, lengths, s):
    emb = np.zeros((len(lengths), s, 7))
    for row, length in enumerate(lengths):
        emb[row, :length] = rng.normal(size=(length, 7))
    return emb, rng.normal(size=(len(lengths), 2, 10)) * 0.3


class TestPaddedBatch:
    def test_loss_and_gradients_equal_group_weighted_sum(self):
        model = init_model(PADDED, seed=11)
        rng = np.random.default_rng(13)
        lengths = np.array([3, 1, 4, 3, 2, 4, 1])
        emb, seeds = _padded_batch(rng, lengths, 4)
        targets = rng.normal(size=(len(lengths), 3, 10)) * 0.3
        h = Hyperparams()

        rollout = forward_graph(model, emb, seeds, train=True, lengths=lengths, dropout=0.0)
        padded, total = compute_loss_graph(rollout.poses, targets, h)
        model.store.zero_grads()
        backward(total)
        padded_grads = {name: p.grad.copy() for name, p in model.store.items()}

        # one unpadded rollout per word count, weighted by its share of the batch
        model.store.zero_grads()
        grouped = 0.0
        for length in np.unique(lengths):
            rows = np.flatnonzero(lengths == length)
            out = forward_graph(model, emb[rows, :length], seeds[rows])
            breakdown, group_total = compute_loss_graph(out.poses, targets[rows], h)
            weight = len(rows) / len(lengths)
            backward(ad.mul(group_total, weight))
            grouped += weight * breakdown.total
        assert abs(padded.total - grouped) <= 1e-12 * abs(grouped)
        for name, p in model.store.items():
            scale = np.max(np.abs(p.grad))
            assert scale > 0.0, name
            assert np.max(np.abs(padded_grads[name] - p.grad)) <= 1e-12 * scale, name

    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 8), min_size=1, max_size=5),
        extra=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_eval_rows_equal_single_sequences(self, lengths, extra, seed):
        model = init_model(PADDED, seed=seed % 7)
        rng = np.random.default_rng(seed)
        s = max(lengths) + extra
        emb, seeds = _padded_batch(rng, lengths, s)
        out = forward_graph(model, emb, seeds, lengths=lengths, record=False)
        for row, length in enumerate(lengths):
            poses, attn = forward(model, emb[row, :length], seeds[row])
            assert np.max(np.abs(out.poses.data[row] - poses)) <= 1e-12
            assert np.max(np.abs(out.attn.data[row, :, :length] - attn)) <= 1e-12
            assert np.all(out.attn.data[row, :, length:] == 0.0)
        assert np.max(np.abs(out.attn.data.sum(axis=-1) - 1.0)) <= 1e-12

    def test_bad_lengths(self, tiny):
        with pytest.raises(InvalidConfig, match=r"lengths must be 2 word counts in \[1, 3\]"):
            forward_graph(tiny, np.zeros((2, 3, 7)), np.zeros((2, 2, 10)), lengths=[0, 3])
