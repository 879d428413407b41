import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturegen import training
from gesturegen.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from gesturegen.config import Config
from gesturegen.corpus import DatasetRecord, WordSpan, synth_corpus
from gesturegen.errors import InvalidConfig
from gesturegen.lifting import init_lift_params, synth_pose3d_corpus, train_lift
from gesturegen.model import ModelConfig, backward, forward_graph, init_model
from gesturegen.pose import fit_pca
from gesturegen.text import EmbeddingTable
from gesturegen.training import (
    AdamState,
    TrainingPair,
    adam_step,
    clip_gradients,
    compute_loss_graph,
    make_training_pairs,
    train_model,
)


class TestHyperparams:
    def test_paper_defaults(self):
        h = Config()
        assert (h.alpha, h.beta, h.lr, h.batch_size) == (0.01, 1.0, 0.0001, 64)
        assert (h.dropout, h.epochs) == (0.1, 560)


def compute_loss(pred, target, h):
    """Loss breakdown of one (m, d) prediction against its targets."""
    return compute_loss_graph(np.asarray(pred)[None], np.asarray(target)[None], h)[0]


class TestComputeLoss:
    def test_constant_equal_sequences(self):
        seq = np.tile(np.arange(10.0), (4, 1))
        out = compute_loss(seq, seq.copy(), Config())
        assert (out.mse, out.continuity, out.variance, out.total) == (0.0, 0.0, 0.0, 0.0)

    def test_hand_continuity(self):
        # m=3: zero vector, e1, e1 -> (1 + 0) / 2
        pred = np.zeros((3, 10))
        pred[1, 0] = 1.0
        pred[2, 0] = 1.0
        out = compute_loss(pred, pred.copy(), Config())
        assert abs(out.continuity - 0.5) < 1e-12

    def test_hand_variance_and_total(self):
        # m=2, dim-1 values (0, 2): population variance 1 in that dimension
        pred = np.zeros((2, 10))
        pred[1, 0] = 2.0
        h = Config(alpha=0.01, beta=1.0)
        out = compute_loss(pred, pred.copy(), h)
        assert abs(out.variance - (-0.1)) < 1e-12
        assert abs(out.continuity - 2.0) < 1e-12
        assert abs(out.total - (out.mse + 0.01 * 2.0 + (-0.1))) < 1e-12
        assert out.mse == 0.0

    def test_identity_on_random_data(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h = Config(alpha=rng.uniform(0, 2), beta=rng.uniform(0, 2))
            pred = rng.normal(size=(6, 10))
            target = rng.normal(size=(6, 10))
            out = compute_loss(pred, target, h)
            assert abs(out.total - (out.mse + h.alpha * out.continuity + h.beta * out.variance)) < 1e-12
            assert out.mse >= 0 and out.continuity >= 0 and out.variance <= 0

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(5, 10))
        target = rng.normal(size=(5, 10))
        shift = rng.normal(size=10)
        h = Config()
        a = compute_loss(pred, target, h)
        b = compute_loss(pred + shift, target, h)
        assert abs(a.continuity - b.continuity) < 1e-12
        assert abs(a.variance - b.variance) < 1e-12
        assert abs(a.mse - b.mse) > 1e-6  # mse is not shift invariant

    def test_graph_matches_numeric(self):
        # the documented formula evaluated in plain numpy
        rng = np.random.default_rng(2)
        pred = rng.normal(size=(7, 10))
        target = rng.normal(size=(7, 10))
        h = Config(alpha=0.3, beta=0.7)
        mse = np.mean((pred - target) ** 2)
        continuity = np.mean(np.linalg.norm(np.diff(pred, axis=0), axis=1))
        variance = -np.mean(np.var(pred, axis=0))
        numeric_total = mse + h.alpha * continuity + h.beta * variance
        breakdown, _ = compute_loss_graph(pred[None], target[None], h)
        assert abs(numeric_total - breakdown.total) < 1e-12
        assert abs(mse - breakdown.mse) < 1e-12

    def test_batch_is_mean_of_sequences(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=(3, 5, 10))
        target = rng.normal(size=(3, 5, 10))
        h = Config(alpha=0.3, beta=0.7)
        batch, _ = compute_loss_graph(pred, target, h)
        singles = [compute_loss(pred[i], target[i], h) for i in range(3)]
        for term in ("mse", "continuity", "variance", "total"):
            assert abs(getattr(batch, term) - np.mean([getattr(s, term) for s in singles])) < 1e-12


class TestClipAndAdam:
    def _store(self):
        cfg = ModelConfig(word_dim=3, hidden=2, att_dim=2, n_seed_poses=1, n_output_poses=2, dropout=0.1)
        model = init_model(cfg, 0)
        return model.store

    def test_clip_cases(self):
        store = self._store()
        p = store["dec.post.b"]
        p.grad[...] = 0.0
        p.grad[0] = 7.2
        p.grad[1] = -12.0
        p.grad[2] = 3.3
        clip_gradients(store)
        assert p.grad[0] == 5.0
        assert p.grad[1] == -5.0
        assert p.grad[2] == 3.3

    def test_clip_idempotent(self):
        store = self._store()
        rng = np.random.default_rng(0)
        for _, p in store.items():
            p.grad[...] = rng.normal(0, 10, p.grad.shape)
        clip_gradients(store)
        snapshot = {name: p.grad.copy() for name, p in store.items()}
        clip_gradients(store)
        assert all(np.array_equal(p.grad, snapshot[name]) for name, p in store.items())

    def test_adam_zero_gradient(self):
        store = self._store()
        state = AdamState(store)
        before = {name: p.value.copy() for name, p in store.items()}
        store.zero_grads()
        adam_step(store, state, 1e-4)
        assert state.step_count == 1
        assert all(np.array_equal(p.value, before[name]) for name, p in store.items())

    def test_adam_first_step_closed_form(self):
        store = self._store()
        state = AdamState(store)
        p = store["dec.post.b"]
        start = p.value.copy()
        p.grad[...] = 0.0
        p.grad[0] = 1.0
        p.grad[1] = -0.5
        adam_step(store, state, 1e-4)
        delta = p.value - start
        # first step: m_hat = g, v_hat = g^2, so the step is -lr * sign-ish
        assert abs(delta[0] - (-1e-4)) < 1e-9
        assert abs(delta[1] - (+1e-4)) < 1e-9

    def test_adam_leaves_gradients(self):
        store = self._store()
        state = AdamState(store)
        p = store["dec.post.b"]
        p.grad[...] = 2.0
        adam_step(store, state, 1e-3)
        assert np.all(p.grad == 2.0)


def _reference_zero_grads(store):
    for _, p in store.items():
        p.grad[...] = 0.0


def _reference_clip_gradients(store):
    for _, p in store.items():
        np.clip(p.grad, -training.GRAD_CLIP, training.GRAD_CLIP, out=p.grad)


def _reference_adam_step(store, state, lr):
    """The per-parameter Adam update that ran before the store kept flat
    buffers; ``state`` holds the step count and one moment array per name."""
    state["t"] += 1
    t = state["t"]
    bias1 = 1.0 - training.ADAM_BETA1**t
    bias2 = 1.0 - training.ADAM_BETA2**t
    for name, p in store.items():
        m = state["first"][name]
        v = state["second"][name]
        m *= training.ADAM_BETA1
        m += (1.0 - training.ADAM_BETA1) * p.grad
        v *= training.ADAM_BETA2
        v += (1.0 - training.ADAM_BETA2) * (p.grad * p.grad)
        p.value -= lr * (m / bias1) / (np.sqrt(v / bias2) + training.ADAM_EPS)


def _bits(store, attr):
    return b"".join(getattr(p, attr).tobytes() for _, p in store.items())


def _same_random_grads(rng, a, b, scale):
    for (_, p), (_, q) in zip(a.items(), b.items()):
        p.grad[...] = q.grad[...] = rng.normal(0.0, scale, p.grad.shape)


# 80,306 values: two whole Adam blocks and a partial third
BLOCKS_CFG = ModelConfig(word_dim=40, hidden=40, att_dim=16, n_seed_poses=2, n_output_poses=3, dropout=0.1)


class TestFlatBuffersMatchPerParameterReference:
    @pytest.mark.parametrize("kind", ["seq2seq", "lift"])
    def test_three_steps_bit_equal(self, kind):
        make = (lambda: init_model(BLOCKS_CFG, seed=5).store) if kind == "seq2seq" else (lambda: init_lift_params(5).store)
        flat, ref = make(), make()
        if kind == "seq2seq":
            assert 2 * training._ADAM_BLOCK < flat.values.size < 3 * training._ADAM_BLOCK
        state = AdamState(flat)
        ref_state = {
            "t": 0,
            "first": {name: np.zeros_like(p.value) for name, p in ref.items()},
            "second": {name: np.zeros_like(p.value) for name, p in ref.items()},
        }
        rng = np.random.default_rng(11)
        for _ in range(3):
            _same_random_grads(rng, flat, ref, 1.0)
            flat.zero_grads()
            _reference_zero_grads(ref)
            assert _bits(flat, "grad") == _bits(ref, "grad")
            _same_random_grads(rng, flat, ref, 4.0)  # about a fifth of the entries beyond the clip bound
            clip_gradients(flat)
            _reference_clip_gradients(ref)
            assert _bits(flat, "grad") == _bits(ref, "grad")
            adam_step(flat, state, 1e-2)
            _reference_adam_step(ref, ref_state, 1e-2)
            assert _bits(flat, "value") == _bits(ref, "value")
            for moments, ref_moments in ((state.first, ref_state["first"]), (state.second, ref_state["second"])):
                assert moments.tobytes() == b"".join(m.tobytes() for m in ref_moments.values())
        assert state.step_count == ref_state["t"] == 3


def _record(n_frames, words):
    base = np.array(
        [[320, 110], [320, 190], [375, 190], [395, 255], [405, 320], [265, 190], [245, 255], [235, 320]],
        dtype=float,
    )
    rng = np.random.default_rng(0)
    frames = [base + rng.normal(0, 2.0, (8, 2)) for _ in range(n_frames)]
    return DatasetRecord(id="r0", frame_height=400, words=words, frames=frames)


@pytest.fixture(scope="module")
def small_pca():
    rng = np.random.default_rng(3)
    base = np.array(
        [[320, 110], [320, 190], [375, 190], [395, 255], [405, 320], [265, 190], [245, 255], [235, 320]],
        dtype=float,
    )
    poses = []
    from gesturegen.pose import normalize_pose

    for _ in range(40):
        poses.append(normalize_pose(base + rng.normal(0, 6.0, (8, 2))))
    return fit_pca(poses)


class TestMakeTrainingPairs:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 20), m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_corpus_pairs_have_words_and_n_plus_m_poses(self, small_pca, n, m, seed):
        # what training takes from its one producer: every pair has a word
        # and (n + m, k) poses, so train_model, its passes and the loss need
        # not check them again
        pairs = make_training_pairs(synth_corpus(seed, 3), small_pca, n=n, m=m)
        assert all(len(p.words) >= 1 for p in pairs)
        assert all(p.target_poses.shape == (n + m, small_pca.n_components) for p in pairs)

    def test_exact_window_one_pair(self, small_pca):
        rec = _record(30, [WordSpan("hello", 0.5, 1.0)])
        pairs = make_training_pairs([rec], small_pca, n=10, m=20)
        assert len(pairs) == 1
        assert pairs[0].words == ["hello"]
        assert pairs[0].target_poses.shape == (30, 10)

    def test_two_windows_with_stride_m(self, small_pca):
        rec = _record(50, [WordSpan("a", 0.0, 2.0), WordSpan("b", 2.0, 4.0)])
        pairs = make_training_pairs([rec], small_pca, n=10, m=20)
        assert len(pairs) == 2

    def test_short_record_no_pairs(self, small_pca):
        rec = _record(29, [WordSpan("a", 0.0, 2.0)])
        assert make_training_pairs([rec], small_pca, n=10, m=20) == []

    def test_no_words_dropped(self, small_pca):
        rec = _record(30, [])
        assert make_training_pairs([rec], small_pca, n=10, m=20) == []

    def test_words_follow_chunk_partition(self, small_pca):
        # 50 frames at 12 fps is 4.17 s; two words give one word per chunk,
        # so the first window trains on "early", the second on "later"
        rec = _record(50, [WordSpan("early", 0.0, 1.0), WordSpan("later", 3.0, 4.0)])
        pairs = make_training_pairs([rec], small_pca, n=10, m=20)
        assert pairs[0].words == ["early"]
        assert pairs[1].words == ["later"]

    def test_first_window_zero_seeded_like_generation(self, small_pca):
        rec = _record(50, [WordSpan("a", 0.0, 2.0), WordSpan("b", 2.0, 4.0)])
        pairs = make_training_pairs([rec], small_pca, n=10, m=20)
        assert np.array_equal(pairs[0].target_poses[:10], np.zeros((10, 10)))
        assert not np.array_equal(pairs[1].target_poses[:10], np.zeros((10, 10)))

    def test_seed_frames_are_preceding_ground_truth(self, small_pca):
        rec = _record(50, [WordSpan("a", 0.0, 2.0), WordSpan("b", 2.0, 4.0)])
        pairs = make_training_pairs([rec], small_pca, n=10, m=20)
        # the second window's seeds are the first window's last 10 targets
        assert np.array_equal(pairs[1].target_poses[:10], pairs[0].target_poses[20:])


def _toy_table(dim=6):
    rng = np.random.default_rng(4)
    vocab = ["wave", "point", "rest", "lift"]
    return EmbeddingTable(dim=dim, entries={w: rng.normal(size=dim) for w in vocab})


def _template_pairs(count, n, m, rng):
    """Pairs sampled from one smooth template so a tiny model can memorize."""
    t = np.arange(n + m) / 10.0
    template = np.zeros((n + m, 10))
    template[:, 0] = np.sin(2 * np.pi * 0.4 * t)
    template[:, 1] = 0.5 * np.cos(2 * np.pi * 0.4 * t)
    pairs = []
    for i in range(count):
        noise = rng.normal(0, 0.01, template.shape)
        pairs.append(TrainingPair(words=["wave", "point"], target_poses=template + noise))
    return pairs


class TestTrainModel:
    def test_deterministic_history(self):
        rng = np.random.default_rng(5)
        cfg = ModelConfig(word_dim=6, hidden=5, att_dim=5, n_seed_poses=2, n_output_poses=4, dropout=0.1)
        pairs = _template_pairs(6, 2, 4, rng)
        h = Config(epochs=3, lr=1e-3, batch_size=4, seed=7)
        m1, m2 = init_model(cfg, seed=1), init_model(cfg, seed=1)
        r1 = train_model(pairs, h, m1, _toy_table())
        r2 = train_model(pairs, h, m2, _toy_table())
        assert [b.total for b in r1.history] == [b.total for b in r2.history]
        for name, p in m1.store.items():
            assert np.array_equal(p.value, m2.store[name].value)

    def test_alpha_beta_zero_total_equals_mse(self):
        rng = np.random.default_rng(6)
        cfg = ModelConfig(word_dim=6, hidden=5, att_dim=5, n_seed_poses=2, n_output_poses=4, dropout=0.0)
        pairs = _template_pairs(5, 2, 4, rng)
        h = Config(alpha=0.0, beta=0.0, epochs=3, lr=1e-3, batch_size=8, dropout=0.0, seed=1)
        result = train_model(pairs, h, init_model(cfg, seed=2), _toy_table())
        for b in result.history:
            assert b.total == b.mse

    def test_overfit_single_template(self):
        # 10 pairs from one synthetic template, tiny model, 300 epochs:
        # the final mse must fall below 5% of the first epoch's mse.
        rng = np.random.default_rng(7)
        n, m = 3, 6
        cfg = ModelConfig(word_dim=6, hidden=16, att_dim=16, n_seed_poses=n, n_output_poses=m, dropout=0.0)
        pairs = _template_pairs(10, n, m, rng)
        h = Config(alpha=0.0, beta=0.0, epochs=300, lr=3e-3, batch_size=10, dropout=0.0, seed=3)
        result = train_model(pairs, h, init_model(cfg, seed=3), _toy_table())
        assert result.history[-1].mse < 0.05 * result.history[0].mse

    def test_epoch_callback(self):
        rng = np.random.default_rng(8)
        cfg = ModelConfig(word_dim=6, hidden=4, att_dim=4, n_seed_poses=2, n_output_poses=4, dropout=0.1)
        pairs = _template_pairs(4, 2, 4, rng)
        seen = []
        train_model(
            pairs,
            Config(epochs=2, lr=1e-3, batch_size=4, seed=0),
            init_model(cfg, seed=0),
            _toy_table(),
            on_epoch=lambda e, model, b: seen.append(e),
        )
        assert seen == [0, 1]

    def test_dropout_from_hyperparams_leaves_config(self):
        rng = np.random.default_rng(9)
        cfg = ModelConfig(word_dim=6, hidden=4, att_dim=4, n_seed_poses=2, n_output_poses=4, dropout=0.1)
        pairs = _template_pairs(4, 2, 4, rng)
        model = init_model(cfg, seed=0)
        h = Config(epochs=1, lr=1e-3, batch_size=4, dropout=0.3, seed=0)
        train_model(pairs, h, model, _toy_table())
        assert model.cfg == ModelConfig(word_dim=6, hidden=4, att_dim=4, n_seed_poses=2, n_output_poses=4, dropout=0.1)

    def test_non_finite_loss_is_named(self):
        rng = np.random.default_rng(10)
        cfg = ModelConfig(word_dim=6, hidden=4, att_dim=4, n_seed_poses=2, n_output_poses=4, dropout=0.0)
        model = init_model(cfg, seed=0)
        model.post_b.value[0] = np.inf
        with pytest.raises(InvalidConfig, match=r"^training diverged at epoch 0, batch 0: non-finite loss$"):
            train_model(_template_pairs(4, 2, 4, rng), Config(epochs=1, batch_size=2), model, _toy_table())

    def test_non_finite_gradient_is_named(self, monkeypatch):
        rng = np.random.default_rng(11)
        cfg = ModelConfig(word_dim=6, hidden=4, att_dim=4, n_seed_poses=2, n_output_poses=4, dropout=0.0)
        model = init_model(cfg, seed=0)
        calls = []

        def poisoned(run, g_poses):
            backward(run, g_poses)
            calls.append(1)
            if len(calls) == 4:  # epoch 1, batch 1 of two 2-pair batches
                model.store["enc.l0.fwd.u"].grad[2 * cfg.hidden, 0] = np.nan  # u_h[0, 0]

        monkeypatch.setattr(training, "backward", poisoned)
        with pytest.raises(InvalidConfig, match=r"^training diverged at epoch 1, batch 1: non-finite gradient$"):
            train_model(_template_pairs(4, 2, 4, rng), Config(epochs=2, batch_size=2), model, _toy_table())

    def test_memory_follows_the_batch(self):
        """An epoch of 4 batches peaks less than one batch's word vectors (8
        pairs x 5 words x 300 x 8 B = 96,000 B) above an epoch of 1: each
        batch looks its words up as it is built."""
        rng = np.random.default_rng(14)
        vocab = [f"w{i}" for i in range(20)]
        table = EmbeddingTable(dim=300, entries={w: rng.normal(size=300) for w in vocab})
        words = [[vocab[i] for i in rng.integers(0, len(vocab), 5)] for _ in range(32)]
        pairs = [TrainingPair(words=w, target_poses=rng.normal(size=(5, 10))) for w in words]
        cfg = ModelConfig(word_dim=300, hidden=8, att_dim=8, n_seed_poses=2, n_output_poses=3, dropout=0.1)

        def peak(count):
            model = init_model(cfg, seed=0)
            tracemalloc.start()
            try:
                train_model(pairs[:count], Config(epochs=1, batch_size=8), model, table)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(8)  # finish lazy imports before tracing
        assert peak(32) - peak(8) < 8 * 5 * 300 * 8

    def test_passes_without_a_workspace_share_nothing(self):
        """Two passes made without a workspace each make their own: the
        second leaves the first's record as it was, so backward on the first
        gives the gradient bytes of a pass made alone."""
        cfg = ModelConfig(word_dim=6, hidden=5, att_dim=4, n_seed_poses=2, n_output_poses=3, dropout=0.1)
        model = init_model(cfg, seed=2)
        rng = np.random.default_rng(2)
        lengths = np.array([3, 1, 2])
        emb, seeds, other = rng.normal(size=(3, 3, 6)), rng.normal(size=(3, 2, 10)), rng.normal(size=(3, 3, 6))
        target = rng.normal(size=(3, 3, 10))

        def gradients(*passes):
            model.store.zero_grads()
            step_rng = np.random.default_rng(8)
            runs = [forward_graph(model, e, seeds, lengths, rng=step_rng, dropout=0.1) for e in passes]
            poses, _, run = runs[0]
            backward(run, compute_loss_graph(poses, target, Config())[1])
            return model.store.grads.tobytes()

        alone = gradients(emb)
        assert np.any(model.store.grads != 0.0)
        assert gradients(emb, other) == alone

    def test_epoch_reuses_one_workspace(self, monkeypatch):
        """An epoch of batches of 4, 3 and 2 words that ends in a partial
        batch runs every pass on one workspace, and trains to the history
        and weight bytes that training gave when every pass allocated its
        own record."""
        rng = np.random.default_rng(15)
        vocab = [f"w{i}" for i in range(12)]
        table = EmbeddingTable(dim=6, entries={w: rng.normal(size=6) for w in vocab})
        pairs = [
            TrainingPair(words=[vocab[i] for i in rng.integers(0, 12, size=count)], target_poses=rng.normal(size=(6, 10)))
            for count in rng.integers(1, 6, size=11)
        ]
        model = init_model(ModelConfig(word_dim=6, hidden=5, att_dim=4, n_seed_poses=2, n_output_poses=4, dropout=0.1), 4)
        calls = []

        def spy(model, embedded, *args, workspace=None, **kwargs):
            calls.append((embedded.shape[:2], workspace))
            return forward_graph(model, embedded, *args, workspace=workspace, **kwargs)

        monkeypatch.setattr(training, "forward_graph", spy)
        result = train_model(pairs, Config(epochs=2, batch_size=4, dropout=0.1, seed=2), model, table)
        assert [shape for shape, _ in calls] == [(4, 4), (4, 3), (3, 2), (4, 3), (4, 4), (3, 4)]
        assert calls[0][1] is not None and all(ws is calls[0][1] for _, ws in calls)
        digest = hashlib.sha256(repr(result.history).encode() + model.store.values.tobytes()).hexdigest()
        assert digest == "44e89533a2f6b9cd8e555ec1ea4b89410dd6d75cf4b84fab2007b309ca912d29"


def _assert_packed(store):
    """Each value and grad is a view of ``store.values`` or ``store.grads``
    at consecutive offsets in layout order, and the buffers hold
    nothing else."""
    offset = 0
    for name, p in store.items():
        assert p.grad.shape == p.value.shape, name
        for view, flat in ((p.value, store.values), (p.grad, store.grads)):
            assert np.shares_memory(view, flat) and view.flags.c_contiguous, name
            assert view.ctypes.data == flat.ctypes.data + offset * flat.itemsize, name
        offset += p.value.size
    assert store.values.shape == store.grads.shape == (offset,)
    assert store.values.dtype == store.grads.dtype == np.float64


class TestParamStoreLayout:
    def test_init_packs_both_stores(self):
        _assert_packed(init_model(BLOCKS_CFG, seed=1).store)
        _assert_packed(init_lift_params(seed=1).store)

    def test_load_checkpoint_packs_both_stores(self, tmp_path):
        ck = Checkpoint(config={"seed": 1}, model=init_model(BLOCKS_CFG, seed=1), lift=init_lift_params(seed=2))
        save_checkpoint(ck, tmp_path / "model.ggck")
        loaded = load_checkpoint(tmp_path / "model.ggck")
        for store, saved in ((loaded.model.store, ck.model.store), (loaded.lift.store, ck.lift.store)):
            _assert_packed(store)
            assert store.values.tobytes() == saved.values.tobytes()

    def test_training_keeps_the_views(self):
        cfg = ModelConfig(word_dim=6, hidden=5, att_dim=5, n_seed_poses=2, n_output_poses=4, dropout=0.1)
        model = init_model(cfg, seed=1)
        start = model.store.values.copy()
        h = Config(epochs=2, lr=1e-3, batch_size=4, seed=7)
        train_model(_template_pairs(6, 2, 4, np.random.default_rng(5)), h, model, _toy_table())
        _assert_packed(model.store)
        assert not np.array_equal(model.store.values, start)
        _assert_packed(train_lift(synth_pose3d_corpus(seed=3, size=8), Config(lift_steps=3)).store)

    def test_init_memory_is_buffers_plus_one_draw(self):
        """Building a store holds at most the values buffer, the grads
        buffer and one Xavier draw: each draw lands in its view in place."""
        cfg = ModelConfig(word_dim=300, hidden=128, att_dim=128, n_seed_poses=10, n_output_poses=20, dropout=0.1)
        init_model(BLOCKS_CFG)  # finish lazy imports before tracing
        tracemalloc.start()
        try:
            model = init_model(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.store.values.size > 900_000
        largest_draw = model.store["dec.l0.w"].value.nbytes // 3  # one gate block of the widest cell
        assert peak <= 2 * model.store.values.nbytes + largest_draw + 64 * 1024

    def test_load_checkpoint_draws_no_weights(self, tmp_path, monkeypatch):
        ck = Checkpoint(config={"seed": 1}, model=init_model(BLOCKS_CFG, seed=1), lift=init_lift_params(seed=2))
        save_checkpoint(ck, tmp_path / "model.ggck")

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded = load_checkpoint(tmp_path / "model.ggck")
        assert loaded.model.store.values.tobytes() == ck.model.store.values.tobytes()
        assert loaded.lift.store.values.tobytes() == ck.lift.store.values.tobytes()

    def test_load_memory_is_file_plus_buffers(self, tmp_path):
        """A load holds the file's bytes and the two stores' buffers; every
        array goes from the file bytes straight into its view."""
        cfg = ModelConfig(word_dim=300, hidden=64, att_dim=64, n_seed_poses=10, n_output_poses=20, dropout=0.1)
        ck = Checkpoint(config={"seed": 1}, model=init_model(cfg, seed=1), lift=init_lift_params(seed=2))
        path = tmp_path / "model.ggck"
        save_checkpoint(ck, path)
        load_checkpoint(path)  # finish lazy imports before tracing
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.model.store.values.size == 302_090  # the toy model
        buffers = sum(store.values.nbytes + store.grads.nbytes for store in (loaded.model.store, loaded.lift.store))
        assert peak <= path.stat().st_size + buffers + 256 * 1024
