"""The benchmark's workloads: ``train``, ``generate`` and ``retarget``.

Each workload has a set-up (builds the seeded inputs and the program state
they need), a closed-loop measurement (one client, one thread, the next
operation starts when the previous one returns), and a fingerprint (a
digest of the output bytes for one fixed seeded input, taken before and
after measuring to show that reruns are byte-identical).

The benchmark calls every layer through its module attribute
(``synthesis.plan_chunks(...)``), so a traced run that swaps those
attributes for timed wrappers sees the same calls an untraced run makes.
"""

from __future__ import annotations

import hashlib
import math
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gesturegen import autodiff, checkpoint, corpus, kinematics, lifting, pose, synthesis, text, training
from gesturegen import model as seq2seq
from gesturegen.errors import GestureGenError
from hostspeed import Calibration, graph_work, object_work, rolling
from spans import Target

# The criterion-6 toy fixture: 500 synthetic sentences, 400 for training,
# a 300-d table, hidden 64, att 64, batch 64, lr 1e-3, beta 0.1, dropout 0.1.
TOY_SENTENCES = 500
TOY_TRAIN = 400
TOY_MODEL = dict(word_dim=300, hidden=64, att_dim=64, n_seed_poses=10, n_output_poses=20, dropout=0.1)
TOY_HYPER = dict(alpha=0.01, beta=0.1, lr=1e-3, batch_size=64, dropout=0.1, seed=0)

WORDS_PER_MINUTE = 160.0
MIN_WORDS, MAX_WORDS = 3, 60
RETARGET_SENTENCES = 100  # 80 fit the pose space, 20 are held out for tracks
RETARGET_TRACKS = 24
MIN_TRACK_S, MAX_TRACK_S = 2.0, 60.0
LIFT_CORPUS = 400  # the lift-train command's default corpus size
EPOCH_PASSES = 50  # calibration passes at each epoch boundary
ROLLING_HALF = 10

# How each workload's operation times follow host speed (see hostspeed.py).
TRAIN_CALIBRATION = Calibration(graph_work, 0.0015, elasticity=0.65)
OBJECT_CALIBRATION = Calibration(object_work, 0.004)  # generate and retarget

# Humanoid joint ranges in radians, applied to every retargeted frame.
JOINT_LIMITS = {
    "head_pitch": (-0.67, 0.51),
    "head_yaw": (-2.08, 2.08),
    "l_sh_pitch": (-2.08, 2.08),
    "l_sh_roll": (-0.31, 1.32),
    "l_el_roll": (0.0, 2.4),
    "l_el_yaw": (-2.08, 2.08),
    "l_wr_yaw": (-1.82, 1.82),
    "r_sh_pitch": (-2.08, 2.08),
    "r_sh_roll": (-1.32, 0.31),
    "r_el_roll": (0.0, 2.4),
    "r_el_yaw": (-2.08, 2.08),
    "r_wr_yaw": (-1.82, 1.82),
}


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def digest(*parts) -> str:
    """sha256 over arrays (raw float64 bytes), strings and bytes."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode("utf-8")
        elif not isinstance(part, bytes):
            part = np.ascontiguousarray(part, dtype="<f8").tobytes()
        h.update(part)
    return h.hexdigest()


@dataclass
class Measurement:
    latencies: list = field(default_factory=list)  # seconds per completed operation
    passes: list = field(default_factory=list)  # calibration pass time next to each
    units: float = 0.0  # throughput units of the completed operations
    attempted: int = 0
    failed: int = 0  # raised a GestureGenError or failed an output check
    wrong: int = 0  # failed an output check
    calibration: Calibration = OBJECT_CALIBRATION  # closed loops; train sets its own
    half: int = ROLLING_HALF  # neighbours either side whose passes give an operation's host speed

    def scaled(self) -> list:
        """Latencies at reference host speed."""
        near = rolling(self.passes, self.half)
        return [self.calibration.at_reference(t, p) for t, p in zip(self.latencies, near)]


def _closed_loop(seconds, next_input, run_op, check, span, op_name) -> Measurement:
    """Run operations back to back until ``seconds`` have passed (at least
    one). ``run_op`` returns the output; ``check(input, output)`` returns
    (ok, units). A calibration pass follows every completed operation."""
    m = Measurement()
    deadline = time.perf_counter() + seconds
    while True:
        item = next_input()
        m.attempted += 1
        try:
            with span(op_name):
                started = time.perf_counter()
                out = run_op(item)
                elapsed = time.perf_counter() - started
        except GestureGenError:
            m.failed += 1
        else:
            with span("bench.check"):
                ok, units = check(item, out)
            if ok:
                with span("bench.calibrate"):
                    m.passes.append(m.calibration.one_pass())
                m.latencies.append(elapsed)
                m.units += units
            else:
                m.failed += 1
                m.wrong += 1
        if time.perf_counter() >= deadline:
            return m


# -- train --------------------------------------------------------------------


@dataclass
class TrainState:
    seed: int
    pairs: list
    table: object
    model: object
    epoch_s: float = math.inf  # median epoch time of the last measurement

    def rewind(self):
        """Every train_model call already starts from the same shuffle."""


def setup_train(seed: int, work_dir: Path):
    records = corpus.synth_corpus(seed, TOY_SENTENCES)[:TOY_TRAIN]
    pca = pose.fit_pca([pose.normalize_pose(f) for rec in records for f in rec.frames])
    pairs = training.make_training_pairs(records, pca, TOY_MODEL["n_seed_poses"], TOY_MODEL["n_output_poses"])
    rng = np.random.default_rng(seed)
    table = text.EmbeddingTable(dim=300, entries={t: rng.normal(0.0, 0.4, 300) for t in corpus.corpus_vocabulary()})
    net = seq2seq.init_model(seq2seq.ModelConfig(**TOY_MODEL), seed=seed)
    words = "|".join(" ".join(p.words) for p in pairs)
    return TrainState(seed, pairs, table, net), digest(pca.components, words, *(p.target_poses for p in pairs))


def measure_train(st: TrainState, seconds: float, span=nullcontext) -> Measurement:
    """Whole epochs of ``train_model``, as many as fit in ``seconds`` at the
    last measured epoch time (one when none is known). One operation is one
    epoch; its throughput units are training pairs. Host speed is calibrated
    at every epoch boundary, outside the epoch's time."""
    epochs = max(1, round(seconds / st.epoch_s))
    h = training.Hyperparams(epochs=epochs, **TOY_HYPER)
    marks = []  # (epoch end, next epoch start, loss, calibration after the epoch)

    def on_epoch(epoch, net, breakdown):
        ended = time.perf_counter()
        with span("bench.calibrate"):
            after = TRAIN_CALIBRATION.median(EPOCH_PASSES)
        marks.append((ended, time.perf_counter(), breakdown.total, after))

    m = Measurement(attempted=epochs, calibration=TRAIN_CALIBRATION, half=0)  # each epoch has its own calibration
    with span("bench.calibrate"):
        before = TRAIN_CALIBRATION.median(EPOCH_PASSES)
    try:
        with span("op.train"):
            started = time.perf_counter()
            training.train_model(st.pairs, h, st.model, st.table, on_epoch=on_epoch)
    except GestureGenError:
        m.failed += epochs - len(marks)
    for ended, resumed, total, after in marks:
        if math.isfinite(total):
            m.latencies.append(ended - started)
            m.passes.append((before + after) / 2)
            m.units += len(st.pairs)
        else:
            m.failed += 1
            m.wrong += 1
        started, before = resumed, after
    if m.latencies:
        st.epoch_s = percentile(m.latencies, 50)
    return m


def _first_batches(st: TrainState, count: int):
    """The pairs of the first ``count`` batches of an epoch, and one-epoch
    hyperparameters."""
    h = training.Hyperparams(epochs=1, **TOY_HYPER)
    order = np.random.default_rng(h.seed).permutation(len(st.pairs))[: count * h.batch_size]
    return [st.pairs[i] for i in order], h


def fingerprint_train(st: TrainState) -> str:
    """One epoch of two batches from a fresh model: losses and weights."""
    pairs, h = _first_batches(st, 2)
    net = seq2seq.init_model(seq2seq.ModelConfig(**TOY_MODEL), seed=st.seed)
    result = training.train_model(pairs, h, net, st.table)
    return digest(repr(result.history), *(p.value for _, p in net.store.items()))


def tape_peak_mb(st: TrainState) -> float:
    """tracemalloc peak over one optimizer step (one batch) on a fresh
    model: dominated by the recorded graph."""
    batch, h = _first_batches(st, 1)
    net = seq2seq.init_model(seq2seq.ModelConfig(**TOY_MODEL), seed=st.seed)
    tracemalloc.start()
    try:
        training.train_model(batch, h, net, st.table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


# -- generate -----------------------------------------------------------------


def criterion_12_utterance():
    """The 25-word, 15-second plan of acceptance criterion 12."""
    vocab = corpus.corpus_vocabulary()
    rng = np.random.default_rng(9)
    return [vocab[i] for i in rng.integers(0, len(vocab), size=25)], 15.0


def utterance_stream(seed: int):
    """Endless seeded utterances. Each cycle is the criterion-12 plan then
    every word count from 3 to 60 once, in a seeded order, with words drawn
    from the corpus vocabulary and durations at about 160 words per minute
    (+-15% jitter). Covering every count once per cycle keeps the work mix
    the same across seeds."""
    vocab = corpus.corpus_vocabulary()
    rng = np.random.default_rng(seed)
    fixed = criterion_12_utterance()
    while True:
        yield fixed
        for count in rng.permutation(np.arange(MIN_WORDS, MAX_WORDS + 1)):
            words = [vocab[i] for i in rng.integers(0, len(vocab), size=int(count))]
            duration = len(words) * 60.0 / WORDS_PER_MINUTE * rng.uniform(0.85, 1.15)
            yield words, float(duration)


@dataclass
class GenerateState:
    seed: int
    model: object
    table: object
    track_path: Path
    attention_path: Path
    stream: object = None

    def rewind(self):
        """Restart the utterance stream, so that measurements see the same
        inputs however many operations the warm-up ran."""
        self.stream = utterance_stream(self.seed)


def setup_generate(seed: int, work_dir: Path):
    """Embedding file, toy-config model through a checkpoint round trip, and
    the table read back. The model keeps its seeded initial weights: a
    rollout costs the same whatever the weights are."""
    work_dir.mkdir(parents=True, exist_ok=True)
    emb_path = work_dir / "embeddings.txt"
    text.write_synthetic_embeddings(corpus.corpus_vocabulary(), emb_path, dim=TOY_MODEL["word_dim"], seed=seed)
    ck_path = work_dir / "model.ggck"
    net = seq2seq.init_model(seq2seq.ModelConfig(**TOY_MODEL), seed=seed)
    ref = {"path": emb_path.name, "sha256": text.file_sha256(emb_path)}
    checkpoint.save_checkpoint(checkpoint.Checkpoint(config={}, model=net, embedding_ref=ref), ck_path)
    loaded = checkpoint.load_checkpoint(ck_path)
    table = text.load_embedding_table(emb_path)
    state = GenerateState(seed, loaded.model, table, work_dir / "track.csv", work_dir / "attention.csv")
    state.rewind()
    return state, digest(ck_path.read_bytes(), emb_path.read_bytes())


def _generate_once(st: GenerateState, utterance):
    words, duration = utterance
    cfg = st.model.cfg
    plan = synthesis.plan_chunks(words, duration, cfg.n_seed_poses, cfg.n_output_poses)
    track, maps = synthesis.generate_gesture(st.model, plan, st.table)
    aligned = synthesis.align_track(track, duration)
    synthesis.save_track_csv(aligned, st.track_path)
    attention = synthesis.export_attention(maps, plan.chunks, st.attention_path)
    return aligned, attention


def _check_generate(utterance, out):
    _, duration = utterance
    aligned, attention = out
    ok = (
        len(aligned) == math.ceil(duration * synthesis.DEFAULT_FPS)
        and bool(np.isfinite(aligned.frames).all())
        and bool(np.isfinite(attention).all())
        and float(np.abs(attention.sum(axis=1) - 1.0).max()) <= 1e-9
    )
    return ok, duration


def measure_generate(st: GenerateState, seconds: float, span=nullcontext) -> Measurement:
    """One operation is one utterance, plan to attention file; its
    throughput units are seconds of speech covered."""
    return _closed_loop(
        seconds, lambda: next(st.stream), lambda u: _generate_once(st, u), _check_generate, span, "op.generate"
    )


def fingerprint_generate(st: GenerateState) -> str:
    _generate_once(st, criterion_12_utterance())
    return digest(st.track_path.read_bytes(), st.attention_path.read_bytes())


# -- retarget -----------------------------------------------------------------


@dataclass
class RetargetState:
    pca: object
    lift: object
    tracks: list  # track CSV paths, in seeded order
    out_path: Path
    next_index: int = 0

    def rewind(self):
        self.next_index = 0


def track_lengths(rng, count: int = RETARGET_TRACKS) -> list:
    """Frame counts of ``count`` tracks, one per equal slice of
    [2 s, 60 s] at a seeded point of the slice's middle fifth, in seeded
    order: the spread of lengths, and so the latency percentiles, are the
    same for every seed."""
    seconds = [MIN_TRACK_S + (MAX_TRACK_S - MIN_TRACK_S) * (i + rng.uniform(0.4, 0.6)) / count for i in range(count)]
    return [int(round(seconds[i] * synthesis.DEFAULT_FPS)) for i in rng.permutation(count)]


def setup_retarget(seed: int, work_dir: Path):
    work_dir.mkdir(parents=True, exist_ok=True)
    records = corpus.synth_corpus(seed, RETARGET_SENTENCES)
    split = RETARGET_SENTENCES * 4 // 5
    pca = pose.fit_pca([pose.normalize_pose(f) for rec in records[:split] for f in rec.frames])
    held_out = np.stack([pose.encode_pose(pca, pose.normalize_pose(f)) for rec in records[split:] for f in rec.frames])
    rng = np.random.default_rng(seed)
    paths = []
    for i, frames in enumerate(track_lengths(rng)):
        start = int(rng.integers(len(held_out)))
        rows = held_out[(start + np.arange(frames)) % len(held_out)]
        path = work_dir / f"track{i:02d}.csv"
        synthesis.save_track_csv(synthesis.TimedPoseTrack(rows), path)
        paths.append(path)
    lift = lifting.train_lift(lifting.synth_pose3d_corpus(seed, LIFT_CORPUS), lifting.LiftTrainConfig(seed=seed))
    ck_path = work_dir / "lift.ggck"
    checkpoint.save_checkpoint(checkpoint.Checkpoint(config={}, pca=pca, lift=lift), ck_path)
    loaded = checkpoint.load_checkpoint(ck_path)
    state = RetargetState(loaded.pca, loaded.lift, paths, work_dir / "angles.csv")
    return state, digest(ck_path.read_bytes(), *(p.read_bytes() for p in paths))


def _retarget_once(st: RetargetState, path):
    track = synthesis.load_track_csv(path)
    angles = lifting.retarget_track(track, st.pca, st.lift, JOINT_LIMITS)
    kinematics.save_angles_csv(angles, st.out_path)
    return track, angles


def _check_retarget(path, out):
    track, angles = out
    ok = angles.frames.shape == (len(track), 12) and bool(np.isfinite(angles.frames).all())
    return ok, len(track)


def measure_retarget(st: RetargetState, seconds: float, span=nullcontext) -> Measurement:
    """One operation is one track, CSV in to angle CSV out; its throughput
    units are frames."""

    def next_track():
        path = st.tracks[st.next_index % len(st.tracks)]
        st.next_index += 1
        return path

    return _closed_loop(seconds, next_track, lambda p: _retarget_once(st, p), _check_retarget, span, "op.retarget")


def fingerprint_retarget(st: RetargetState) -> str:
    _retarget_once(st, st.tracks[0])
    return digest(st.out_path.read_bytes())


# -- registry -----------------------------------------------------------------


def _target(owner, attr, counter=None) -> Target:
    if isinstance(owner, type):
        name = f"{owner.__module__.removeprefix('gesturegen.')}.{owner.__qualname__}.{attr}"
    else:
        name = f"{owner.__name__.removeprefix('gesturegen.')}.{attr}"
    return Target(owner, attr, name, counter)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object  # (seed, work_dir) -> (state, digest of the set-up's outputs)
    measure: object  # (state, seconds, span) -> Measurement
    fingerprint: object  # state -> digest of one fixed operation's output bytes
    calibration: Calibration  # the host-speed pass that tracks this workload
    setup_targets: tuple
    targets: tuple  # layers traced while measuring


WORKLOADS = {
    "train": Workload(
        "train",
        setup_train,
        measure_train,
        fingerprint_train,
        TRAIN_CALIBRATION,
        (
            _target(corpus, "synth_corpus"),
            _target(pose, "fit_pca"),
            _target(training, "make_training_pairs"),
        ),
        (
            _target(training, "train_model"),
            _target(training, "forward_graph", lambda args, out: args[1].shape[0]),
            _target(training, "compute_loss_graph"),
            _target(training, "backward"),
            _target(autodiff.Tensor, "backward", lambda args, order: len(order)),
            _target(training, "clip_gradients"),
            _target(training, "adam_step"),
        ),
    ),
    "generate": Workload(
        "generate",
        setup_generate,
        measure_generate,
        fingerprint_generate,
        OBJECT_CALIBRATION,
        (
            _target(checkpoint, "save_checkpoint"),
            _target(checkpoint, "load_checkpoint"),
            _target(text, "load_embedding_table"),
        ),
        (
            _target(synthesis, "plan_chunks"),
            _target(synthesis, "generate_gesture"),
            _target(synthesis, "forward"),
            _target(synthesis, "align_track"),
            _target(synthesis, "save_track_csv"),
            _target(synthesis, "export_attention"),
        ),
    ),
    "retarget": Workload(
        "retarget",
        setup_retarget,
        measure_retarget,
        fingerprint_retarget,
        OBJECT_CALIBRATION,
        (
            _target(corpus, "synth_corpus"),
            _target(pose, "fit_pca"),
            _target(lifting, "train_lift"),
            _target(checkpoint, "save_checkpoint"),
            _target(checkpoint, "load_checkpoint"),
        ),
        (
            _target(synthesis, "load_track_csv"),
            _target(lifting, "retarget_track"),
            _target(lifting, "decode_pose"),
            _target(lifting, "lift_forward"),
            _target(lifting, "assemble_pose3d"),
            _target(lifting, "compute_joint_angles"),
            _target(lifting, "clamp_angles"),
            _target(kinematics, "save_angles_csv"),
        ),
    ),
}


# -- per-layer metrics --------------------------------------------------------

# metric -> (unit, span name, quantity, per). quantity: total or self time,
# calls, or the span's work count; per: call (of that span), step (optimizer
# step, one adam_step call), op (benchmark operation) or frame (one
# decode_pose call). A layer the workload does not call reads 0.
PER_LAYER = {
    "corpus.synth_ms": ("ms", "corpus.synth_corpus", "total", "call"),
    "pose.fit_pca_ms": ("ms", "pose.fit_pca", "total", "call"),
    "training.make_pairs_ms": ("ms", "training.make_training_pairs", "total", "call"),
    "checkpoint.save_ms": ("ms", "checkpoint.save_checkpoint", "total", "call"),
    "checkpoint.load_ms": ("ms", "checkpoint.load_checkpoint", "total", "call"),
    "text.table_load_ms": ("ms", "text.load_embedding_table", "total", "call"),
    "lifting.train_ms": ("ms", "lifting.train_lift", "total", "call"),
    "model.forward_ms_per_step": ("ms", "training.forward_graph", "total", "step"),
    "model.grad_harvest_ms_per_step": ("ms", "training.backward", "self", "step"),
    "autodiff.backward_ms_per_step": ("ms", "autodiff.Tensor.backward", "total", "step"),
    "autodiff.graph_nodes_per_step": ("count", "autodiff.Tensor.backward", "count", "step"),
    "training.loss_ms_per_step": ("ms", "training.compute_loss_graph", "total", "step"),
    "training.clip_ms_per_step": ("ms", "training.clip_gradients", "total", "step"),
    "training.adam_ms_per_step": ("ms", "training.adam_step", "total", "step"),
    "training.step_self_ms": ("ms", "training.train_model", "self", "step"),
    "training.forward_calls_per_step": ("count", "training.forward_graph", "calls", "step"),
    "training.rows_per_forward": ("count", "training.forward_graph", "count", "call"),
    "model.rollout_ms": ("ms", "synthesis.forward", "total", "call"),
    "model.rollouts_per_utterance": ("count", "synthesis.forward", "calls", "op"),
    "synthesis.plan_us": ("us", "synthesis.plan_chunks", "total", "call"),
    "synthesis.generate_self_ms": ("ms", "synthesis.generate_gesture", "self", "call"),
    "synthesis.align_ms": ("ms", "synthesis.align_track", "total", "call"),
    "synthesis.track_write_ms": ("ms", "synthesis.save_track_csv", "total", "call"),
    "synthesis.attention_write_ms": ("ms", "synthesis.export_attention", "total", "call"),
    "synthesis.track_read_ms": ("ms", "synthesis.load_track_csv", "total", "call"),
    "pose.decode_us_per_frame": ("us", "lifting.decode_pose", "total", "frame"),
    "lifting.lift_ms_per_track": ("ms", "lifting.lift_forward", "total", "call"),
    "lifting.assemble_us_per_frame": ("us", "lifting.assemble_pose3d", "total", "frame"),
    "lifting.retarget_self_ms": ("ms", "lifting.retarget_track", "self", "call"),
    "kinematics.ik_us_per_frame": ("us", "lifting.compute_joint_angles", "total", "frame"),
    "kinematics.clamp_us_per_frame": ("us", "lifting.clamp_angles", "total", "frame"),
    "kinematics.angles_write_ms": ("ms", "kinematics.save_angles_csv", "total", "call"),
}

_SCALE = {"ms": 1e-6, "us": 1e-3, "count": 1.0}


def layer_metrics(stats) -> dict:
    """Per-layer values from ``spans.summarize`` output (0 when absent)."""

    def calls(name):
        return stats[name].calls if name in stats else 0

    per = {
        "step": calls("training.adam_step"),
        "op": sum(s.calls for n, s in stats.items() if n.startswith("op.")),
        "frame": calls("lifting.decode_pose"),
    }
    out = {}
    for metric, (unit, span_name, quantity, denominator) in PER_LAYER.items():
        s = stats.get(span_name)
        count = calls(span_name) if denominator == "call" else per[denominator]
        if s is None or count == 0:
            out[metric] = 0.0
            continue
        value = {"total": s.total_ns, "self": s.self_ns, "calls": s.calls, "count": s.count}[quantity]
        out[metric] = value * _SCALE[unit] / count
    return out
