"""Acceptance suite: every release criterion in one module, one scoreboard
line per criterion (collected here, printed by the terminal-summary hook
in conftest after the run).

The expensive toy-scale training is a session fixture shared by the
learnability and continuity criteria; everything else runs from scratch.
"""

import statistics
import time

import numpy as np
import pytest

from gesturegen import autodiff as ad
from gesturegen import lifting
from gesturegen.baselines import bleu_score, manual_baseline, nn_baseline, random_baseline
from gesturegen.checkpoint import load_checkpoint, save_checkpoint
from gesturegen.cli import main
from gesturegen.config import Config
from gesturegen.corpus import corpus_vocabulary, synth_corpus
from gesturegen.kinematics import ANGLE_NAMES, compute_joint_angles, forward_kinematics
from gesturegen.lifting import (
    depth_targets,
    init_lift_params,
    lift_mse,
    lift_pass,
    synth_pose3d_corpus,
    train_lift,
)
from gesturegen.model import ModelConfig, backward, forward, forward_graph, init_model
from gesturegen.pose import (
    GESTURE_DIM,
    L_WRIST,
    POSE_DIM,
    R_WRIST,
    decode_pose,
    encode_pose,
    fit_pca,
    normalize_pose,
)
from gesturegen.synthesis import DEFAULT_FPS, TimedPoseTrack, align_track, generate_gesture, plan_chunks, save_track_csv
from gesturegen.text import EmbeddingTable
from gesturegen.training import compute_loss_graph, make_training_pairs, train_model

from test_baselines import oracle_bleu
from test_model import attend, cell_step
from test_training import compute_loss


_SCOREBOARD = []


def scoreboard(line):
    """Record a criterion verdict; the terminal-summary hook in conftest
    prints the collected lines after the run, outside pytest's capture."""
    _SCOREBOARD.append(line)
    print(line)


def _rel_err(a, b):
    return abs(a - b) / max(1e-6, abs(a), abs(b))


# -- criterion 1: analytic gradients on a miniature model ---------------------


def test_criterion_1_gradient_check():
    started = time.perf_counter()
    cfg = ModelConfig(word_dim=7, hidden=4, att_dim=4, n_seed_poses=2, n_output_poses=3, dropout=0.0)
    model = init_model(cfg, seed=1)
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(1, 2, 7))
    seeds = rng.normal(size=(1, 2, 10)) * 0.3
    target = rng.normal(size=(1, 3, 10)) * 0.3
    h = Config()  # the full loss: mse + 0.01 continuity + 1.0 variance

    def loss_value():
        [(poses, _)] = forward(model, emb, seeds[0], [emb.shape[1]])
        return compute_loss(poses, target[0], h).total

    pred, _, run = forward_graph(model, emb, seeds, [emb.shape[1]])
    _, g_pred = compute_loss_graph(pred, target, h)
    model.store.zero_grads()
    backward(run, g_pred)

    step = 1e-5
    worst = 0.0
    checked = 0
    for name, p in model.store.items():
        flat = p.value.reshape(-1)
        grad = p.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_value()
            flat[i] = orig - step
            lo = loss_value()
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            worst = max(worst, _rel_err(grad[i], fd))
            checked += 1
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 60.0
    scoreboard(
        f"[acceptance 1] {'PASS' if ok else 'FAIL'} — gradient check: {checked} parameters, "
        f"worst relative error {worst:.2e} (< 1e-4), runtime {elapsed:.1f}s (< 60s)"
    )
    assert worst < 1e-4
    assert elapsed < 60.0


# -- criterion 2: loss identities ---------------------------------------------


def test_criterion_2_loss_identities():
    h = Config()
    seq = np.tile(np.linspace(-1, 1, GESTURE_DIM), (4, 1))
    zero = compute_loss(seq, seq.copy(), h)
    exact_zero = (zero.mse, zero.continuity, zero.variance) == (0.0, 0.0, 0.0)

    pred3 = np.zeros((3, GESTURE_DIM))
    pred3[1, 0] = 1.0
    pred3[2, 0] = 1.0
    cont = compute_loss(pred3, pred3.copy(), h).continuity

    pred2 = np.zeros((2, GESTURE_DIM))
    pred2[1, 0] = 2.0
    var = compute_loss(pred2, pred2.copy(), h).variance

    ok = exact_zero and abs(cont - 0.5) < 1e-12 and abs(var - (-0.1)) < 1e-12
    scoreboard(
        f"[acceptance 2] {'PASS' if ok else 'FAIL'} — loss identities: constant case exactly zero: {exact_zero}, "
        f"continuity {cont!r} (0.5 ± 1e-12), variance {var!r} (-0.1 ± 1e-12)"
    )
    assert exact_zero
    assert abs(cont - 0.5) < 1e-12
    assert abs(var - (-0.1)) < 1e-12


# -- criterion 3: chunk-planning arithmetic ------------------------------------


def test_criterion_3_planning_arithmetic():
    tokens = [f"w{i}" for i in range(25)]
    plan = plan_chunks(tokens, 15.0, n=10, m=20)
    cfg = ModelConfig(word_dim=8, hidden=6, att_dim=6, n_seed_poses=10, n_output_poses=20, dropout=0.1)
    model = init_model(cfg, seed=0)
    table = EmbeddingTable(dim=8, entries={})  # unknown words embed to zero
    track, _ = generate_gesture(model, plan, table)
    aligned = align_track(track, 15.0)
    ok = plan.words_per_chunk == 4 and len(plan.chunks) == 7 and len(track) == 140 and len(aligned) == 180
    scoreboard(
        f"[acceptance 3] {'PASS' if ok else 'FAIL'} — 25 words / 15 s: {plan.words_per_chunk} words per chunk "
        f"(=4), {len(plan.chunks)} inference chunks (=7), {len(track)} raw frames, {len(aligned)} aligned (=180)"
    )
    assert plan.words_per_chunk == 4
    assert len(plan.chunks) == 7
    assert len(aligned) == 180


# -- criterion 4: pose-basis properties ----------------------------------------


def test_criterion_4_pose_basis():
    rng = np.random.default_rng(2)
    basis = np.linalg.qr(rng.normal(size=(POSE_DIM, POSE_DIM)))[0][:, :GESTURE_DIM].T
    coeffs = rng.normal(size=(200, GESTURE_DIM)) * np.linspace(3.0, 0.3, GESTURE_DIM)
    offset = rng.normal(size=POSE_DIM)
    data = offset + coeffs @ basis
    model = fit_pca([row.reshape(8, 2) for row in data])

    gram_err = float(np.max(np.abs(model.components @ model.components.T - np.eye(GESTURE_DIM))))

    # independent oracle: SVD of the centered data matrix
    centered = data - data.mean(axis=0)
    rows = np.linalg.svd(centered, full_matrices=False)[2][:GESTURE_DIM].copy()
    for row in rows:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    oracle_err = float(np.max(np.abs(model.components - rows)))

    round_trip = 0.0
    for _ in range(100):
        c = rng.uniform(-0.9, 0.9, GESTURE_DIM)
        pose = decode_pose(model, c)
        round_trip = max(round_trip, float(np.max(np.abs(encode_pose(model, pose) - c))))

    mean_code = float(np.max(np.abs(encode_pose(model, model.mean.reshape(8, 2)))))
    decode_err = float(np.max(np.abs(decode_pose(model, np.zeros(GESTURE_DIM)).reshape(-1) - model.mean)))

    ok = gram_err < 1e-10 and oracle_err < 1e-8 and round_trip < 1e-8 and mean_code < 1e-10 and decode_err == 0.0
    scoreboard(
        f"[acceptance 4] {'PASS' if ok else 'FAIL'} — pose basis: orthonormality {gram_err:.1e} (<1e-10), "
        f"oracle agreement {oracle_err:.1e} (<1e-8), round-trip {round_trip:.1e} (<1e-8), "
        f"encode(mean) {mean_code:.1e}, decode(0)=mean err {decode_err:.1e}"
    )
    assert gram_err < 1e-10
    assert oracle_err < 1e-8
    assert round_trip < 1e-8
    assert mean_code < 1e-10
    assert decode_err == 0.0


# -- criterion 5: attention and recurrent-cell invariants ----------------------


def test_criterion_5_attention_gru_invariants():
    rng = np.random.default_rng(3)
    cfg = ModelConfig(word_dim=5, hidden=6, att_dim=4, n_seed_poses=2, n_output_poses=3, dropout=0.1)

    worst_sum = 0.0
    model = init_model(cfg, seed=4)
    for _ in range(1000):
        ann = rng.normal(size=(int(rng.integers(1, 9)), 12))
        weights, _ = attend(model, rng.normal(size=6), ann)
        worst_sum = max(worst_sum, abs(weights.sum() - 1.0))
        assert np.all(weights >= 0)

    # shift invariance on the model's attention path: a finite (1, s) mask
    # against the same mask plus a constant
    worst_shift = 0.0
    fixed = np.random.default_rng(5)
    state, ann = fixed.normal(size=(1, 6)), fixed.normal(size=(1, 8, 12))
    query, v = model.att_query.value, model.att_score.value
    for _ in range(1000):
        mask = rng.normal(size=(1, int(rng.integers(2, 9))))
        words = ann[:, : mask.shape[1]]
        inputs = (state @ query.T, words @ model.att_ann.value.T, v.reshape(-1, 1), words)
        a = ad._attend(*inputs, mask)[1]
        b = ad._attend(*inputs, mask + rng.normal())[1]
        worst_shift = max(worst_shift, float(np.max(np.abs(a - b))))

    bounded = True
    for trial in range(1000):
        cell = init_model(cfg, seed=trial % 17).encoder[0][0]
        h = rng.uniform(-1, 1, 6)
        h = cell_step(cell, rng.normal(0, 2.0, 5), h)
        bounded = bounded and bool(np.all(np.abs(h) <= 1.0))

    zero_cell = init_model(cfg, seed=0).encoder[0][0]
    for p in zero_cell:
        p.value[...] = 0.0
    h0 = np.array([0.3, -0.9, 0.0, 1.0, -0.2, 0.5])
    halved = np.array_equal(cell_step(zero_cell, np.zeros(5), h0), 0.5 * h0)

    ok = worst_sum < 1e-9 and worst_shift < 1e-12 and bounded and halved
    scoreboard(
        f"[acceptance 5] {'PASS' if ok else 'FAIL'} — 1000-case suites: attention row sums off by "
        f"{worst_sum:.1e} (<1e-9), shift invariance {worst_shift:.1e} (<1e-12), hidden bounded: {bounded}, "
        f"zero-parameter cell halves state: {halved}"
    )
    assert worst_sum < 1e-9
    assert worst_shift < 1e-12
    assert bounded and halved


# -- toy system (shared by criteria 6, 7, 12) ----------------------------------

TOY_EPOCHS = 40


@pytest.fixture(scope="session")
def toy_system():
    records = synth_corpus(seed=100, n_sentences=500)
    train_recs, test_recs = records[:400], records[400:]
    pca = fit_pca([normalize_pose(f) for rec in train_recs for f in rec.frames])
    rng = np.random.default_rng(0)
    table = EmbeddingTable(dim=300, entries={t: rng.normal(0.0, 0.4, 300) for t in corpus_vocabulary()})
    pairs = make_training_pairs(train_recs, pca, 10, 20)
    cfg = ModelConfig(word_dim=300, hidden=64, att_dim=64, n_seed_poses=10, n_output_poses=20, dropout=0.1)
    model = init_model(cfg, seed=0)
    h = Config(alpha=0.01, beta=0.1, lr=1e-3, batch_size=64, dropout=0.1, epochs=TOY_EPOCHS, seed=0)
    started = time.perf_counter()
    train_model(pairs, h, model, table)
    train_seconds = time.perf_counter() - started
    return {
        "model": model,
        "pca": pca,
        "table": table,
        "test_records": test_recs,
        "train_seconds": train_seconds,
    }


def _wrist_spread(pca, frames):
    best = 0.0
    for row in frames:
        pose = decode_pose(pca, row)
        best = max(best, float(np.linalg.norm(pose[L_WRIST] - pose[R_WRIST])))
    return best


def test_criterion_6_toy_learnability(toy_system):
    model, pca, table = toy_system["model"], toy_system["pca"], toy_system["table"]
    test_recs = toy_system["test_records"]
    train_seconds = toy_system["train_seconds"]

    test_pairs = make_training_pairs(test_recs, pca, 10, 20)
    se_model = se_base = count = 0.0
    for p in test_pairs:
        emb, lengths = table.embed([p.words])
        [(pred, _)] = forward(model, emb, p.target_poses[:10], lengths)
        target = p.target_poses[10:]
        se_model += float(np.sum((pred - target) ** 2))
        se_base += float(np.sum(target**2))  # the mean pose is the zero vector
        count += target.size
    ratio = se_model / se_base

    bigs, smalls = [], []
    for rec in test_recs:
        tokens = [w.surface for w in rec.words]
        plan = plan_chunks(tokens, rec.duration, 10, 20)
        track, _ = generate_gesture(model, plan, table)
        spread = _wrist_spread(pca, track.frames)
        if "big" in tokens:
            bigs.append(spread)
        elif "small" in tokens:
            smalls.append(spread)
    paired = min(len(bigs), len(smalls))
    wins = sum(1 for b, s in zip(bigs, smalls) if b > s)
    win_rate = wins / paired

    ok = train_seconds < 1800 and ratio <= 0.7 and win_rate >= 0.8
    scoreboard(
        f"[acceptance 6] {'PASS' if ok else 'FAIL'} — toy training {train_seconds:.0f}s (<1800s); held-out mse "
        f"{se_model / count:.4f} vs mean-pose baseline {se_base / count:.4f} (ratio {ratio:.3f}, need <=0.70); "
        f"big>small wrist spread in {wins}/{paired} pairs ({100 * win_rate:.0f}%, need >=80%)"
    )
    assert train_seconds < 1800
    assert ratio <= 0.7
    assert win_rate >= 0.8


def test_criterion_7_chunk_continuity(toy_system):
    model, pca, table = toy_system["model"], toy_system["pca"], toy_system["table"]
    test_recs = toy_system["test_records"][:50]
    within, boundary = [], []
    m = model.cfg.n_output_poses
    for rec in test_recs:
        tokens = [w.surface for w in rec.words]
        plan = plan_chunks(tokens, rec.duration, 10, 20)
        track, _ = generate_gesture(model, plan, table)
        disp = np.linalg.norm(np.diff(track.frames, axis=0), axis=1)
        for t in range(len(disp)):
            (boundary if (t + 1) % m == 0 else within).append(disp[t])
    within = np.array(within)
    boundary = np.array(boundary)
    p95 = float(np.percentile(within, 95))
    mean_boundary = float(boundary.mean())
    ok = mean_boundary <= p95
    scoreboard(
        f"[acceptance 7] {'PASS' if ok else 'FAIL'} — chunk continuity over {len(test_recs)} sentences: "
        f"boundary displacement mean {mean_boundary:.4f} <= within-chunk p95 {p95:.4f} "
        f"({len(boundary)} boundaries, {len(within)} within-chunk steps)"
    )
    assert mean_boundary <= p95


# -- criterion 8: retargeting round trip ----------------------------------------


def _angle_between(a, b):
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return float(np.arctan2(np.linalg.norm(np.cross(a, b)), np.dot(a, b)))


def test_criterion_8_retargeting_round_trip():
    from gesturegen.pose import L_ELBOW, L_SHOULDER, R_ELBOW, R_SHOULDER

    poses = synth_pose3d_corpus(seed=3, size=1000)
    worst = 0.0
    angles = compute_joint_angles(poses)
    fixed = [ANGLE_NAMES.index(name) for name in ("head_pitch", "l_wr_yaw", "r_wr_yaw")]
    zeros_ok = bool(np.all(angles[:, fixed] == 0.0))
    for pose, rebuilt in zip(poses, forward_kinematics(angles)):
        for shoulder, elbow, wrist in ((L_SHOULDER, L_ELBOW, L_WRIST), (R_SHOULDER, R_ELBOW, R_WRIST)):
            worst = max(worst, _angle_between(pose[elbow] - pose[shoulder], rebuilt[elbow] - rebuilt[shoulder]))
            worst = max(worst, _angle_between(pose[wrist] - pose[elbow], rebuilt[wrist] - rebuilt[elbow]))
    ok = worst < 1e-6 and zeros_ok
    scoreboard(
        f"[acceptance 8] {'PASS' if ok else 'FAIL'} — FK(IK(p)) on 1000 poses: worst arm-direction error "
        f"{worst:.2e} rad (<1e-6); head pitch and wrist yaws identically zero: {zeros_ok}"
    )
    assert worst < 1e-6
    assert zeros_ok


# -- criterion 9: depth-lift network --------------------------------------------


def test_criterion_9_lift_network():
    # batchnorm unit statistics in train mode; pre-activation variance is
    # kept well above the epsilon guard (1e-5) so its bias stays below the
    # 1e-6 tolerance being asserted
    params = init_lift_params(seed=2)
    rng = np.random.default_rng(2)
    x = rng.normal(0, 20.0, size=(64, 14)) + 1.5
    _, _, norms = lift_pass(params, x, train=True)
    normalized = norms[0][3]  # the first layer's, before scale and shift
    bn_mean = float(np.max(np.abs(normalized.mean(axis=0))))
    bn_var = float(np.max(np.abs(normalized.var(axis=0) - 1.0)))

    # finite differences against the training step's analytic gradients
    # (train-mode batchnorm, running buffers restored before each loss)
    fd_params = init_lift_params(seed=5)
    xs = rng.normal(size=(4, 14))
    target = rng.normal(size=(4, 7))
    running = {name: buf.copy() for name, buf in fd_params.running.items()}

    def loss_value():
        for name, buf in running.items():
            fd_params.running[name][...] = buf
        out = lift_pass(fd_params, xs, train=True)[0]
        return float(np.mean((out - target) ** 2))

    fd_params.store.zero_grads()
    lifting._train_step(fd_params, xs, target)
    worst_grad = 0.0
    step = 1e-5
    for name, p in fd_params.store.items():
        flat = p.value.reshape(-1)
        grad = p.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_value()
            flat[i] = orig - step
            lo = loss_value()
            flat[i] = orig
            worst_grad = max(worst_grad, _rel_err(grad[i], (hi - lo) / (2 * step)))

    # learnability on the synthetic 3D corpus
    train_set = synth_pose3d_corpus(seed=15, size=50)
    held_out = synth_pose3d_corpus(seed=16, size=50)
    lift = train_lift(train_set, Config(lift_steps=2000, seed=0))
    baseline = float(np.mean(depth_targets(held_out) ** 2))
    model_mse = lift_mse(lift, held_out)
    lift_ratio = model_mse / baseline

    ok = bn_mean < 1e-6 and bn_var < 1e-6 and worst_grad < 1e-4 and lift_ratio < 0.25
    scoreboard(
        f"[acceptance 9] {'PASS' if ok else 'FAIL'} — batchnorm mean {bn_mean:.1e} var dev {bn_var:.1e} (<1e-6); "
        f"gradient check worst {worst_grad:.1e} (<1e-4); held-out depth mse {model_mse:.4f} = "
        f"{100 * lift_ratio:.1f}% of zero baseline {baseline:.4f} (<25%)"
    )
    assert bn_mean < 1e-6
    assert bn_var < 1e-6
    assert worst_grad < 1e-4
    assert lift_ratio < 0.25


# -- criterion 10: baselines ----------------------------------------------------

BLEU_HAND_CASES = [
    (["the", "cat", "sat"], ["the", "cat", "sat", "down"]),
    (["the", "cat", "sat", "down"], ["the", "cat", "sat", "down"]),  # identical -> 1.0
    (["dog"], ["the", "cat"]),  # disjoint -> 0.0
    (["the", "the", "the"], ["the", "cat"]),
    (["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "e"]),
    (["a", "b", "c", "d", "e"], ["e", "d", "c", "b", "a"]),
    (["a", "b"], ["a", "b", "c", "d", "e", "f"]),
    (["a", "b", "c", "d", "e", "f"], ["a", "b"]),
    (["x"], ["x"]),
    (["x", "y"], ["y", "x"]),
    (["u", "v", "w"], ["u", "w", "v"]),
    (["u", "u", "v"], ["u", "v"]),
    (["p", "q", "r", "s"], ["p", "q", "r"]),
    (["p", "q", "r"], ["p", "q", "r", "s", "t"]),
    (["m", "n"], ["m", "n"]),
    (["m", "n", "m", "n"], ["m", "n", "o", "m", "n"]),
    (["z"], ["z", "z", "z"]),
    (["z", "z", "z"], ["z"]),
    (["a", "c", "b", "d"], ["a", "b", "c", "d"]),
    (["hold", "it", "in", "your", "hand"], ["hold", "it", "in", "your", "hand"]),
]


def test_criterion_10_baselines(tmp_path):
    worst = 0.0
    for cand, ref in BLEU_HAND_CASES:
        worst = max(worst, abs(bleu_score(cand, ref) - oracle_bleu(cand, ref)))
    identical = bleu_score(["a", "b", "c", "d"], ["a", "b", "c", "d"]) == 1.0
    disjoint = bleu_score(["q"], ["z"]) == 0.0

    records = synth_corpus(seed=7, n_sentences=10)
    pca = fit_pca([normalize_pose(f) for rec in records[:5] for f in rec.frames[::4]])
    target = records[4]
    query = [w.surface for w in target.words]
    nn_track = nn_baseline(query, records, pca, chunk_len=len(query))
    expected = np.stack([encode_pose(pca, normalize_pose(f)) for f in target.frames])
    verbatim = np.array_equal(nn_track.frames, expected)

    rand_track = random_baseline(records, pca, 7.3, np.random.default_rng(1))
    rand_ok = abs(rand_track.duration - 7.3) <= 1.0 / DEFAULT_FPS

    authored = TimedPoseTrack(frames=np.random.default_rng(2).normal(size=(20, 10)))
    path = tmp_path / "manual.csv"
    save_track_csv(authored, path)
    manual_track = manual_baseline(path, 4.6)
    manual_ok = abs(manual_track.duration - 4.6) <= 1.0 / DEFAULT_FPS

    ok = worst < 1e-12 and identical and disjoint and verbatim and rand_ok and manual_ok
    scoreboard(
        f"[acceptance 10] {'PASS' if ok else 'FAIL'} — BLEU vs oracle on {len(BLEU_HAND_CASES)} hand cases, "
        f"worst diff {worst:.1e}; identical->1.0: {identical}; disjoint->0.0: {disjoint}; nearest-neighbor "
        f"verbatim match: {verbatim}; random/manual duration within one frame: {rand_ok}/{manual_ok}"
    )
    assert worst < 1e-12
    assert identical and disjoint and verbatim and rand_ok and manual_ok


# -- criterion 11: reproducibility ----------------------------------------------


def test_criterion_11_reproducibility(tmp_path):
    root = tmp_path
    corpus = root / "corpus.jsonl"
    emb = root / "emb.txt"
    ck = root / "ck.ggck"
    assert main(["synth-corpus", "--sentences", "10", "--seed", "5", "--out", str(corpus),
                 "--embeddings-out", str(emb), "--out-dir", str(root / "out")]) == 0
    assert main(["fit-pca", "--dataset", str(corpus), "--checkpoint", str(ck), "--out-dir", str(root / "out")]) == 0

    train_args = ["train", "--dataset", str(corpus), "--embeddings", str(emb), "--checkpoint", str(ck),
                  "--epochs", "2", "--hidden", "12", "--att-dim", "12", "--lr", "0.002", "--seed", "7",
                  "--out-dir", str(root / "out"), "--history", str(root / "history.csv")]
    assert main(train_args) == 0
    first_ck = ck.read_bytes()
    first_history = (root / "history.csv").read_bytes()
    assert main(["fit-pca", "--dataset", str(corpus), "--checkpoint", str(ck), "--out-dir", str(root / "out")]) == 0
    assert main(train_args) == 0
    train_identical = first_ck == ck.read_bytes() and first_history == (root / "history.csv").read_bytes()

    assert main(["lift-train", "--checkpoint", str(ck), "--lift-steps", "30", "--lift-corpus-size", "20",
                 "--seed", "7", "--out-dir", str(root / "out")]) == 0

    text = "now we hold the big idea about people together again"
    gen_args = lambda out, attn: ["generate", "--checkpoint", str(ck), "--text", text, "--duration", "6.0",
                                  "--out", out, "--attention", attn, "--out-dir", str(root / "out")]
    assert main(gen_args(str(root / "t1.csv"), str(root / "a1.csv"))) == 0
    assert main(gen_args(str(root / "t2.csv"), str(root / "a2.csv"))) == 0
    gen_identical = (root / "t1.csv").read_bytes() == (root / "t2.csv").read_bytes() and (
        root / "a1.csv"
    ).read_bytes() == (root / "a2.csv").read_bytes()

    ret_args = lambda out: ["retarget", "--checkpoint", str(ck), "--track", str(root / "t1.csv"),
                            "--out", out, "--out-dir", str(root / "out")]
    assert main(ret_args(str(root / "r1.csv"))) == 0
    assert main(ret_args(str(root / "r2.csv"))) == 0
    ret_identical = (root / "r1.csv").read_bytes() == (root / "r2.csv").read_bytes()

    # checkpoint round trip is bit-exact
    loaded = load_checkpoint(ck)
    save_checkpoint(loaded, root / "resaved.ggck")
    ck_identical = ck.read_bytes() == (root / "resaved.ggck").read_bytes()

    ok = train_identical and gen_identical and ret_identical and ck_identical
    scoreboard(
        f"[acceptance 11] {'PASS' if ok else 'FAIL'} — byte-identical reruns: train {train_identical}, "
        f"generate {gen_identical}, retarget {ret_identical}; checkpoint round-trip bit-exact: {ck_identical}"
    )
    assert train_identical and gen_identical and ret_identical and ck_identical


# -- criterion 12: informational latency -----------------------------------------


def test_criterion_12_latency_report(toy_system):
    model, table = toy_system["model"], toy_system["table"]
    vocab = corpus_vocabulary()
    rng = np.random.default_rng(9)
    tokens = [vocab[i] for i in rng.integers(0, len(vocab), size=25)]
    plan = plan_chunks(tokens, 15.0, 10, 20)
    generate_gesture(model, plan, table)  # warm caches
    times = []
    for _ in range(5):  # one call reports host drift more than the code
        started = time.perf_counter()
        generate_gesture(model, plan, table)
        times.append(time.perf_counter() - started)
    scoreboard(
        f"[acceptance 12] INFO — 25-word sentence, {len(plan.chunks)} inferences: median {statistics.median(times):.3f} s "
        f"of 5 calls ({min(times):.3f}-{max(times):.3f} s) on one CPU core (reference report: 0.14 s); not gated"
    )
