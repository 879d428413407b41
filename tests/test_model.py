import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tape_oracle as tape
from gesturegen import autodiff as ad
from gesturegen.autodiff import Tensor
from gesturegen.config import Config
from gesturegen.model import (
    ModelConfig,
    Workspace,
    _cell_weights,
    _decoder,
    _encode,
    backward,
    forward,
    forward_graph,
    init_model,
)
from gesturegen.text import EmbeddingTable
from gesturegen.training import compute_loss_graph

TINY = ModelConfig(word_dim=7, hidden=4, att_dim=4, n_seed_poses=2, n_output_poses=3, dropout=0.1)


# Single-sequence runs of the plain kernels that forward is made of: one
# vector in, one vector out.


def cell_step(cell, x, h):
    """One GRU cell update of an (input,) vector and an (H,) state."""
    w_t, kernel = _cell_weights(cell)
    h = np.asarray(h, dtype=np.float64)[None]
    slot = ad._gru_slot(np.empty_like(h), np.empty((1, 2 * h.shape[1])), np.empty_like(h), np.empty_like(h))
    ad._gru_cell(ad._gru_split(ad._affine(np.asarray(x)[None], w_t)), h, kernel, slot)
    return slot[0][0]


def eval_record(model, batch, words):
    """An eval-mode record of its own for `_encode` or `_decoder` run alone."""
    return Workspace(model.cfg, batch, words, train=False).carve(batch, words)


def gate(p, k):
    """Rows of gate k (0: update z, 1: reset r, 2: candidate h) of a
    gate-stacked cell parameter, as a writable view."""
    hidden = p.value.shape[0] // 3
    return p.value[k * hidden : (k + 1) * hidden]


def embed(chunks):
    """`EmbeddingTable.embed` of word chunks given as (s_i, word_dim)
    arrays, each row the vector of a token of its own: the zero-padded
    batch and its lengths."""
    tokens = [[f"{i}.{j}" for j in range(len(c))] for i, c in enumerate(chunks)]
    entries = {t: row for ts, c in zip(tokens, chunks) for t, row in zip(ts, c)}
    return EmbeddingTable(dim=chunks[0].shape[1], entries=entries).embed(tokens)


def encode(model, words):
    """(2H,) annotation per word of a list of (word_dim,) vectors."""
    return list(_encode(model, np.stack(words)[None], np.array([len(words)]), eval_record(model, 1, len(words)))[0])


def project(model, annotations):
    """(s, 2H) annotations as a batch of one, with its (1, s, A) projection."""
    annotations = np.asarray(annotations)[None]
    projected = np.empty(annotations.shape[:2] + (model.cfg.att_dim,))
    return annotations, ad._affine(annotations, model.att_ann.value.T, None, projected)


def attend(model, state, annotations):
    """(weights (s,), context (2H,)) for an (H,) query over (s, 2H) annotations."""
    annotations, projected = project(model, annotations)
    query = np.asarray(state)[None] @ model.att_query.value.T
    context, weights, _ = tape.attend(query, projected, model.att_score.value.reshape(-1, 1), annotations)
    return weights[0], context[0]


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
        cfg = ModelConfig(word_dim=300, hidden=200, att_dim=200, n_seed_poses=10, n_output_poses=20, dropout=0.1)
        model = init_model(cfg, seed=0)
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
        cfg = ModelConfig(word_dim=5, hidden=6, att_dim=4, n_seed_poses=2, n_output_poses=3, dropout=0.1)
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


class TestEncoder:
    def test_annotation_shapes(self, tiny):
        rng = np.random.default_rng(0)
        for s in (1, 4):
            anns = encode(tiny, [rng.normal(size=7) for _ in range(s)])
            assert len(anns) == s
            assert all(a.shape == (8,) for a in anns)

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
        cfg = ModelConfig(word_dim=5, hidden=3, att_dim=3, n_seed_poses=2, n_output_poses=2, dropout=0.1)
        model = init_model(cfg, seed=9)
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
        poses, _ = _decoder(model, eval_record(model, 1, 3))(np.zeros((1, 2, 10)), *project(model, ann))
        assert np.allclose(poses[0], np.tile(np.arange(10.0) * 0.1, (3, 1)), atol=1e-15)

    def test_deterministic_and_shapes(self, tiny):
        rng = np.random.default_rng(5)
        own = project(tiny, rng.normal(size=(4, 8)))
        seeds = rng.normal(size=(1, 2, 10))
        rollout = _decoder(tiny, eval_record(tiny, 1, 4))  # both runs reuse one record
        (pa, aa), (pb, ab) = (rollout(seeds, *own) for _ in range(2))
        assert pa[0].shape == (3, 10) and aa[0].shape == (3, 4)
        assert np.array_equal(pa, pb) and np.array_equal(aa, ab)


class TestForward:
    def test_shapes_and_row_sums(self, tiny):
        rng = np.random.default_rng(6)
        [(poses, attn)] = forward(tiny, rng.normal(size=(1, 5, 7)), rng.normal(size=(2, 10)), [5])
        assert poses.shape == (3, 10)
        assert attn.shape == (3, 5)
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-9)

    def test_eval_bitwise_deterministic(self, tiny):
        rng = np.random.default_rng(7)
        emb, seeds = rng.normal(size=(4, 7)), rng.normal(size=(2, 10))
        [(p1, a1)] = forward(tiny, emb[None], seeds, [len(emb)])
        [(p2, a2)] = forward(tiny, emb[None], seeds, [len(emb)])
        assert np.array_equal(p1, p2) and np.array_equal(a1, a2)

    def test_eval_builds_no_graph_objects(self, tiny, monkeypatch):
        """Neither mode builds a Tensor: eval, a train step's pass, loss and
        backward, and the lift net."""
        from gesturegen.lifting import init_lift_params, lift_forward

        rng = np.random.default_rng(12)
        chunks, seeds = [rng.normal(size=(s, 7)) for s in (3, 1, 2)], rng.normal(size=(2, 10))
        lift, poses = init_lift_params(seed=0), rng.normal(size=(5, 14))
        embedded, lengths = embed(chunks)
        built = []
        init = Tensor.__init__
        monkeypatch.setattr(Tensor, "__init__", lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
        assert len(forward(tiny, embedded, seeds, lengths)) == 3 and len(built) == 0
        assert lift_forward(lift, poses).shape == (5, 7) and len(built) == 0
        train, _, run = forward_graph(tiny, chunks[0][None], seeds[None], [len(chunks[0])], rng=rng, dropout=0.1)
        backward(run, compute_loss_graph(train, rng.normal(size=train.shape), Config())[1])
        assert len(built) == 0
        tape.forward_graph(tiny, chunks[0][None], seeds[None])  # the counter sees a recorded pass
        assert len(built) > 0

    @settings(max_examples=25, deadline=None)
    @given(
        words=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        dims=st.sampled_from([(7, 4, 4), (5, 6, 3)]),
        n=st.integers(1, 4),
        m=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(words=[4], dims=(7, 4, 4), n=2, m=3, seed=11)
    @example(words=[5], dims=(300, 64, 64), n=10, m=20, seed=2)  # the toy generate shape
    @example(words=[4, 3, 4], dims=(300, 64, 64), n=10, m=20, seed=1)
    def test_equals_recorded_rollout(self, words, dims, n, m, seed):
        """Eval rows are bit-equal to the tape's recorded pass (the oracle)
        run at eval's shapes: the recorded encoder on the zero-padded chunk
        batch, then a batch-1 recorded rollout per chunk, seeded as eval
        seeds it. A one-chunk utterance is exactly the batch-1 train-mode
        pass, on the plain arrays and on the tape. (A GEMM row rounds
        differently in a batch of B and a batch of 1, so a several-chunk
        utterance is compared at its own batch shapes.)"""
        word_dim, hidden, att_dim = dims
        model = init_model(ModelConfig(word_dim, hidden, att_dim, n, m, dropout=0.1), seed=seed % 5)
        rng = np.random.default_rng(seed)
        chunks = [rng.normal(size=(s, word_dim)) for s in words]
        seeds = rng.normal(size=(n, 10))
        embedded, lengths = embed(chunks)
        rollouts = forward(model, embedded, seeds, lengths)
        if len(chunks) == 1:
            train_poses, train_attn, _ = forward_graph(model, chunks[0][None], seeds[None], words)
            recorded_poses, recorded_attn = tape.forward_graph(model, chunks[0][None], seeds[None])
            for plain in (train_poses[0], recorded_poses.data[0]):
                assert np.array_equal(rollouts[0][0], plain)
            for plain in (train_attn[0], recorded_attn[0]):
                assert np.array_equal(rollouts[0][1], plain)
        annotations = tape.encode_graph(model, embedded, lengths)
        projected = tape.linear(annotations, tape._operand(model.att_ann))
        for row, (s, (poses, attn)) in enumerate(zip(lengths, rollouts, strict=True)):
            own = annotations.data[row : row + 1, :s], projected.data[row : row + 1, :s]
            recorded_poses, recorded_attn = tape.rollout(model, seeds[None], *own)
            assert recorded_poses.requires_grad
            assert np.array_equal(poses, recorded_poses.data[0])
            assert np.array_equal(attn, recorded_attn[0])
            seeds = np.concatenate([seeds, poses])[-n:]

    def test_eval_rollout_op_counts(self, monkeypatch):
        """An eval rollout with n = 3 seed poses, m = 5 output poses and
        s = 4 words runs 35 linear maps: 4 encoder input projections (one
        per layer and direction), 1 annotation projection, 3 per decoder
        step (the pre-linear and the two cell input projections) and a
        post-linear for the m output steps and the last seed step, which
        feeds the first output step. The n - 1 earlier seed steps emit no
        pose."""
        cfg = ModelConfig(word_dim=7, hidden=4, att_dim=4, n_seed_poses=3, n_output_poses=5, dropout=0.1)
        model = init_model(cfg, seed=4)
        calls = []
        affine = ad._affine
        monkeypatch.setattr(ad, "_affine", lambda *args: calls.append(1) or affine(*args))
        rng = np.random.default_rng(12)
        forward(model, rng.normal(size=(1, 4, 7)), rng.normal(size=(3, 10)), [4])
        assert len(calls) == 35

    def test_train_mode_dropout_changes_output(self, tiny):
        rng = np.random.default_rng(9)
        emb, seeds = rng.normal(size=(4, 7)), rng.normal(size=(2, 10))
        [(p_eval, _)] = forward(tiny, emb[None], seeds, [len(emb)])
        rng = np.random.default_rng(0)
        p_train = forward_graph(tiny, emb[None], seeds[None], [len(emb)], rng=rng, dropout=tiny.cfg.dropout)[0][0]
        assert not np.array_equal(p_eval, p_train)


class TestBackward:
    def test_zero_loss_zero_gradients(self, tiny):
        rng = np.random.default_rng(10)
        emb, seeds = rng.normal(size=(1, 3, 7)), rng.normal(size=(1, 2, 10))
        poses, _, run = forward_graph(tiny, emb, seeds, [emb.shape[1]])
        target = poses.copy()  # pred == target, alpha = beta = 0
        h = Config(alpha=0.0, beta=0.0)
        _, g_poses = compute_loss_graph(poses, target, h)
        tiny.store.zero_grads()
        backward(run, g_poses)
        assert all(np.array_equal(p.grad, np.zeros_like(p.grad)) for _, p in tiny.store.items())

    def test_two_backward_passes_double(self, tiny):
        rng = np.random.default_rng(11)
        emb, seeds = rng.normal(size=(1, 3, 7)), rng.normal(size=(1, 2, 10))
        target = rng.normal(size=(1, 3, 10))
        poses, _, run = forward_graph(tiny, emb, seeds, [emb.shape[1]])
        _, g_poses = compute_loss_graph(poses, target, Config())
        tiny.store.zero_grads()
        backward(run, g_poses)
        singles = {name: p.grad.copy() for name, p in tiny.store.items()}
        backward(run, g_poses)
        for name, p in tiny.store.items():
            assert np.allclose(p.grad, 2.0 * singles[name], atol=1e-15), name

    def test_finite_difference_subset(self, tiny):
        """Spot-check analytic gradients of the full loss on a few entries
        of every parameter; the full sweep runs in the acceptance suite."""
        rng = np.random.default_rng(12)
        emb = rng.normal(size=(1, 2, 7))
        seeds = rng.normal(size=(1, 2, 10)) * 0.3
        target = rng.normal(size=(1, 3, 10)) * 0.3
        h = Config()

        def loss_value():
            [(poses, _)] = forward(tiny, emb, seeds[0], [emb.shape[1]])
            return compute_loss_graph(poses[None], target, h)[0].total

        poses, _, run = forward_graph(tiny, emb, seeds, [emb.shape[1]])
        _, g_poses = compute_loss_graph(poses, target, h)
        tiny.store.zero_grads()
        backward(run, g_poses)
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
TOY = ModelConfig(word_dim=300, hidden=64, att_dim=64, n_seed_poses=10, n_output_poses=20, dropout=0.1)


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
        h = Config()

        poses, _, run = forward_graph(model, emb, seeds, lengths=lengths)
        padded, g_poses = compute_loss_graph(poses, targets, h)
        model.store.zero_grads()
        backward(run, g_poses)
        padded_grads = {name: p.grad.copy() for name, p in model.store.items()}

        # one unpadded rollout per word count, weighted by its share of the batch
        model.store.zero_grads()
        grouped = 0.0
        for length in np.unique(lengths):
            rows = np.flatnonzero(lengths == length)
            poses, _, run = forward_graph(model, emb[rows, :length], seeds[rows], np.full(len(rows), length))
            breakdown, g_poses = compute_loss_graph(poses, targets[rows], h)
            weight = len(rows) / len(lengths)
            backward(run, g_poses * weight)
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
        out_poses, out_attn, _ = forward_graph(model, emb, seeds, lengths=lengths)
        for row, length in enumerate(lengths):
            [(poses, attn)] = forward(model, emb[row : row + 1, :length], seeds[row], [length])
            assert np.max(np.abs(out_poses[row] - poses)) <= 1e-12
            assert np.max(np.abs(out_attn[row, :, :length] - attn)) <= 1e-12
            assert np.all(out_attn[row, :, length:] == 0.0)
        assert np.max(np.abs(out_attn.sum(axis=-1) - 1.0)) <= 1e-12

    def test_gradients_pinned(self):
        # The bits of one train step's gradients on the padded dropout batch
        # above; a change to how gradients are summed must keep them.
        model = init_model(PADDED, seed=3)
        rng = np.random.default_rng(3)
        lengths = np.array([4, 2, 3])
        emb, seeds = _padded_batch(rng, lengths, 4)
        poses, _, run = forward_graph(model, emb, seeds, rng=rng, lengths=lengths, dropout=0.1)
        _, g_poses = compute_loss_graph(poses, rng.normal(size=(3, 3, 10)), Config())
        model.store.zero_grads()
        backward(run, g_poses)
        assert hashlib.sha256(model.store.grads.tobytes()).hexdigest() == "0ffd1f335552437bcb313b340201d3c73496c73724e931b50730cf3eb8328c01"

    def test_backward_leaves_its_record_intact(self):
        # backward rebuilds each decoder step's attention and first-cell
        # input from the record, partly in place: a second backward of the
        # same pass must read the record the first one did.
        model = init_model(PADDED, seed=5)
        rng = np.random.default_rng(5)
        lengths = np.array([4, 1, 3, 2])
        emb, seeds = _padded_batch(rng, lengths, 4)
        poses, _, run = forward_graph(model, emb, seeds, rng=rng, lengths=lengths, dropout=0.1)
        _, g_poses = compute_loss_graph(poses, rng.normal(size=(4, 3, 10)), Config())
        model.store.zero_grads()
        backward(run, g_poses)
        first = model.store.grads.copy()
        model.store.zero_grads()
        backward(run, g_poses)
        assert np.any(first != 0.0)
        assert first.tobytes() == model.store.grads.tobytes()

    def test_pass_at_the_workspace_shape_fills_both_arenas(self):
        # a dropout pass at the shape a workspace was made for carves every
        # entry of both arenas, in views that do not overlap
        lengths = np.array([4, 2, 3])
        emb, seeds = _padded_batch(np.random.default_rng(6), lengths, 4)
        ws = Workspace(PADDED, 3, 4)
        *_, run = forward_graph(init_model(PADDED, seed=6), emb, seeds, lengths, np.random.default_rng(6), 0.1, ws)
        views = list(run.record.values())
        for dtype, arena in ws._arenas.items():
            assert sum(v.nbytes for v in views if v.dtype == dtype) == arena.nbytes
        assert not any(np.shares_memory(a, b) for i, a in enumerate(views) for b in views[i + 1 :])

    def test_every_gru_cell_call_gets_its_output_buffers(self, monkeypatch):
        # both modes write every cell step into their record: each
        # _gru_cell call is handed C-contiguous zr, c and r*h buffers and
        # zr's z and r views, none of its four buffers is the state it
        # reads, and an encoder step's h' is its block of the record's
        # enc_out, the one copy of that state
        model = init_model(PADDED, seed=7)
        rng = np.random.default_rng(7)
        lengths = np.array([3, 1, 2])
        emb, seeds = _padded_batch(rng, lengths, 3)
        calls, records = [], []
        cell, carve = ad._gru_cell, Workspace.carve

        def spy(gx, h, kernel, slot):
            calls.append((h, slot))
            return cell(gx, h, kernel, slot)

        def spy_carve(ws, batch, words):
            records.append(carve(ws, batch, words))
            return records[-1]

        monkeypatch.setattr(ad, "_gru_cell", spy)
        monkeypatch.setattr(Workspace, "carve", spy_carve)
        forward_graph(model, emb, seeds, lengths, rng, 0.1)
        forward(model, emb, seeds[0], lengths)
        steps, encoder = PADDED.n_seed_poses + PADDED.n_output_poses, 2 * 2 * 3
        train = encoder + 2 * steps
        assert len(calls) == train + (encoder + 3 * 2 * steps)  # train, then eval's 3 chunks
        for h, (h_next, zr, z, r, c, rh) in calls:
            assert zr.flags.c_contiguous and c.flags.c_contiguous and rh.flags.c_contiguous
            assert not any(np.shares_memory(b, h) for b in (h_next, zr, c, rh))
            assert np.shares_memory(z, zr) and np.shares_memory(r, zr) and not np.shares_memory(z, r)
        assert len(records) == 2
        for record, block in zip(records, (calls[:encoder], calls[train : train + encoder])):
            assert all(np.shares_memory(slot[0], record["enc_out"]) for _, slot in block)

    def test_toy_gradients_pinned(self):
        # test_gradients_pinned at the toy training shape (criterion 6, the
        # train benchmark), where some changes to how a product is summed
        # move the gradient bits that the hidden-5 batch above keeps:
        # linear's weight gradient as g.T @ x instead of (x.T @ g).T, for one.
        model = init_model(TOY, seed=0)
        rng = np.random.default_rng(0)
        lengths = rng.integers(1, 7, size=64)
        emb = np.zeros((64, lengths.max(), 300))
        for row, length in enumerate(lengths):
            emb[row, :length] = rng.normal(0.0, 0.4, size=(length, 300))
        seeds = rng.normal(size=(64, 10, 10)) * 0.3
        poses, _, run = forward_graph(model, emb, seeds, rng=rng, lengths=lengths, dropout=0.1)
        _, g_poses = compute_loss_graph(poses, rng.normal(size=(64, 20, 10)) * 0.3, Config(alpha=0.01, beta=0.1))
        model.store.zero_grads()
        backward(run, g_poses)
        assert hashlib.sha256(model.store.grads.tobytes()).hexdigest() == "cfcada2b8cd607a21d8b5a31f26e3914df9c71fbfe7927cffb67cf97475c8fe3"

    @settings(max_examples=30, deadline=None)
    @given(
        batch=st.integers(1, 5),
        max_words=st.integers(1, 6),
        padded=st.booleans(),
        dropout=st.sampled_from([0.0, 0.1]),
        dims=st.sampled_from([(7, 5, 4), (6, 3, 5)]),
        n=st.integers(1, 3),
        m=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=3, max_words=4, padded=True, dropout=0.1, dims=(7, 5, 4), n=2, m=3, seed=3)
    # the toy training shape (criterion 6, the train benchmark)
    @example(batch=64, max_words=6, padded=True, dropout=0.1, dims=(300, 64, 64), n=10, m=20, seed=0)
    # the paper's widths (`Config()`: word 300, hidden 200, att 200)
    @example(batch=64, max_words=6, padded=True, dropout=0.1, dims=(300, 200, 200), n=10, m=20, seed=0)
    def test_train_step_equals_tape_oracle(self, batch, max_words, padded, dropout, dims, n, m, seed):
        """One train step (forward_graph, compute_loss_graph, backward) is
        bit-equal to the same step recorded on the tape (the oracle): poses,
        attention, loss terms, every byte of the store's gradients and the
        dropout rng's state afterwards."""
        word_dim, hidden, att_dim = dims
        model = init_model(ModelConfig(word_dim, hidden, att_dim, n, m, dropout=dropout), seed=seed % 7)
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, max_words + 1, size=batch) if padded else np.full(batch, max_words)
        emb = np.zeros((batch, int(lengths.max()), word_dim))
        for row, length in enumerate(lengths):
            emb[row, :length] = rng.normal(0.0, 0.4, size=(length, word_dim))
        seeds, targets = rng.normal(size=(batch, n, 10)) * 0.3, rng.normal(size=(batch, m, 10)) * 0.3
        cfg = Config(alpha=0.01, beta=0.1)

        results = []
        for recorded in (False, True):
            step_rng = np.random.default_rng(seed + 1)
            model.store.zero_grads()
            if recorded:
                poses, attn = tape.forward_graph(model, emb, seeds, step_rng, lengths if padded else None, dropout)
                total, *terms = tape.gesture_loss(poses, targets, cfg.alpha, cfg.beta)
                total.backward()
                poses, terms = poses.data, terms + [float(total.data)]
            else:
                poses, attn, run = forward_graph(model, emb, seeds, lengths, step_rng, dropout)
                breakdown, g_poses = compute_loss_graph(poses, targets, cfg)
                backward(run, g_poses)
                terms = [breakdown.mse, breakdown.continuity, breakdown.variance, breakdown.total]
            arrays = (poses, attn, model.store.grads)
            results.append(([a.tobytes() for a in arrays], terms, step_rng.bit_generator.state))
        assert results[0] == results[1]
