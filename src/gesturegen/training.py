"""Loss, optimizer, training-pair construction, and the training loop.

The loss is a weighted sum of three terms over the m generated poses:
mean squared error against the targets, mean consecutive-pose distance
(continuity), and the negative per-dimension temporal variance (rewarding
dynamic motion):

    total = mse + alpha * continuity + beta * variance
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidConfig, open_for_write
from .model import ParamStore, Seq2SeqModel, backward, forward_graph
from .pose import encode_pose, normalize_pose

# Adam's decay rates and denominator guard: the defaults of Kingma & Ba 2015
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Hyperparams:
    alpha: float = 0.01  # continuity weight
    beta: float = 1.0  # variance weight
    lr: float = 0.0001
    batch_size: int = 64
    clip_lo: float = -5.0
    clip_hi: float = 5.0
    dropout: float = 0.1
    epochs: int = 560
    seed: int = 0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise InvalidConfig("alpha and beta must be non-negative")
        if self.lr <= 0:
            raise InvalidConfig("lr must be positive")
        if self.clip_lo >= self.clip_hi:
            raise InvalidConfig("clip_lo must be below clip_hi")
        if self.batch_size < 1 or self.epochs < 0:
            raise InvalidConfig("batch_size must be >= 1 and epochs >= 0")


@dataclass
class LossBreakdown:
    mse: float
    continuity: float
    variance: float
    total: float


@dataclass
class TrainingPair:
    """Words paired with n seed poses followed by m target poses."""

    words: list
    target_poses: np.ndarray  # (n + m, gesture_dim)

    def __post_init__(self):
        if not self.words:
            raise InvalidConfig("training pair needs at least one word")
        object.__setattr__(self, "target_poses", np.asarray(self.target_poses, dtype=np.float64))


class AdamState:
    """Per-parameter moment accumulators for bias-corrected Adam."""

    def __init__(self, store: ParamStore):
        self.step_count = 0
        self.first = {name: np.zeros_like(p.value) for name, p in store.items()}
        self.second = {name: np.zeros_like(p.value) for name, p in store.items()}


def compute_loss_graph(pred: Tensor, target: np.ndarray, h: Hyperparams):
    """Differentiable loss for a (B, m, d) prediction tensor, averaged over
    the batch. Returns (LossBreakdown, total tensor)."""
    target = np.asarray(target, dtype=np.float64)
    if pred.shape[1] < 2:
        raise InvalidConfig("need at least 2 poses per sequence")
    if pred.shape != target.shape:
        raise InvalidConfig(f"prediction {pred.shape} vs target {target.shape}")
    m = pred.shape[1]
    diff = ad.add(pred, -target)
    mse = ad.tmean(ad.mul(diff, diff))
    steps = ad.add(pred[:, 1:, :], ad.mul(pred[:, :-1, :], -1.0))
    norms = ad.sqrt(ad.tsum(ad.mul(steps, steps), axis=2))  # (B, m-1)
    continuity = ad.tmean(ad.mul(ad.tsum(norms, axis=1), 1.0 / (m - 1)))
    centered = ad.add(pred, ad.mul(ad.tmean(pred, axis=1, keepdims=True), -1.0))
    per_dim_var = ad.tmean(ad.mul(centered, centered), axis=1)  # (B, d) population variance
    variance = ad.mul(ad.tmean(per_dim_var), -1.0)
    total = ad.add(ad.add(mse, ad.mul(continuity, h.alpha)), ad.mul(variance, h.beta))
    breakdown = LossBreakdown(
        mse=float(mse.data), continuity=float(continuity.data), variance=float(variance.data), total=float(total.data)
    )
    return breakdown, total


def clip_gradients(store: ParamStore, lo: float, hi: float):
    """Clamp every gradient entry into [lo, hi], in place. Idempotent."""
    for _, p in store.items():
        np.clip(p.grad, lo, hi, out=p.grad)


def adam_step(store: ParamStore, state: AdamState, lr: float):
    """Standard bias-corrected Adam update. Gradients are left untouched;
    the caller decides when to clear them."""
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    for name, p in store.items():
        m = state.first.get(name)
        v = state.second.get(name)
        if m is None or m.shape != p.value.shape:
            raise InvalidConfig(f"Adam state does not match parameter {name}")
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * p.grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (p.grad * p.grad)
        p.value -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


def make_training_pairs(records, pca, n: int, m: int, stride: int | None = None) -> list[TrainingPair]:
    """Build training pairs the way chunked generation consumes them.

    Each record's words are partitioned into inference chunks with the
    planning formula at the record's own duration; chunk i owns the m
    output frames [i*m, (i+1)*m), and its n seed frames are the ground
    truth immediately before that span. The first chunk is seeded with the
    mean pose (zero vectors), the same cold start generation uses. Records
    shorter than n + m frames yield nothing; `stride` overrides the frame
    step between windows (default m, the generation-aligned spacing).
    """
    from .synthesis import plan_chunks

    if stride is None:
        stride = m
    if stride < 1:
        raise InvalidConfig("stride must be >= 1")
    pairs = []
    for rec in records:
        if not rec.words or len(rec.frames) < n + m:
            continue
        chunks = plan_chunks([w.surface for w in rec.words], rec.duration, n, m).chunks
        coeffs = encode_pose(pca, normalize_pose(rec.frames))
        total = coeffs.shape[0]
        for start in range(0, total - m + 1, stride):
            chunk = chunks[min(start // m, len(chunks) - 1)]
            if not chunk:
                continue
            seeds = np.zeros((n, coeffs.shape[1]))
            lo = max(0, start - n)
            if start > 0:
                seeds[n - (start - lo) :] = coeffs[lo:start]
            pairs.append(TrainingPair(words=list(chunk), target_poses=np.concatenate([seeds, coeffs[start : start + m]])))
    return pairs


@dataclass
class TrainResult:
    model: Seq2SeqModel
    history: list = field(default_factory=list)  # per-epoch LossBreakdown


def _check_finite(store: ParamStore, loss: float, epoch: int, batch: int):
    if not np.isfinite(loss):
        what = "loss"
    elif not all(np.isfinite(p.grad).all() for _, p in store.items()):
        what = "gradient"
    else:
        return
    raise InvalidConfig(f"training diverged at epoch {epoch}, batch {batch}: non-finite {what}")


def train_model(
    pairs: list[TrainingPair],
    h: Hyperparams,
    model: Seq2SeqModel,
    table,
    on_epoch=None,
) -> TrainResult:
    """Seeded shuffle, fixed-size batches (last partial batch kept), one
    zero-padded train-mode rollout per batch with ground-truth seed poses,
    loss on the m outputs, backward, clip, Adam step. Deterministic for a
    fixed seed when run single-threaded. Dropout runs at ``h.dropout``;
    ``model.cfg`` is not changed.

    A non-finite loss or gradient raises InvalidConfig naming the
    (0-based) epoch and batch. ``on_epoch(epoch_index, model, breakdown)``
    runs after every epoch, for checkpointing.
    """
    if not pairs:
        raise InvalidConfig("no training pairs")
    n = model.cfg.n_seed_poses
    m = model.cfg.n_output_poses
    for p in pairs:
        if p.target_poses.shape[0] != n + m:
            raise InvalidConfig(f"pair has {p.target_poses.shape[0]} poses, expected {n + m}")

    embedded = [np.stack([table.lookup(w) for w in p.words]) for p in pairs]
    lengths = np.array([e.shape[0] for e in embedded])
    rng = np.random.default_rng(h.seed)
    state = AdamState(model.store)
    history = []

    for epoch in range(h.epochs):
        perm = rng.permutation(len(pairs))
        sums = np.zeros(4)
        for bstart in range(0, len(perm), h.batch_size):
            batch = perm[bstart : bstart + h.batch_size]
            words = lengths[batch]
            emb = np.zeros((len(batch), words.max(), embedded[0].shape[1]))
            for row, i in enumerate(batch):
                emb[row, : words[row]] = embedded[i]
            seeds = np.stack([pairs[i].target_poses[:n] for i in batch])
            targets = np.stack([pairs[i].target_poses[n:] for i in batch])
            model.store.zero_grads()
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # _check_finite reports these
                rollout = forward_graph(
                    model, emb, seeds, train=True, rng=rng, lengths=words, dropout=h.dropout
                )
                breakdown, total = compute_loss_graph(rollout.poses, targets, h)
                backward(total)
            _check_finite(model.store, breakdown.total, epoch, bstart // h.batch_size)
            clip_gradients(model.store, h.clip_lo, h.clip_hi)
            adam_step(model.store, state, h.lr)
            sums += np.array([breakdown.mse, breakdown.continuity, breakdown.variance, breakdown.total]) * len(batch)
        means = sums / len(pairs)
        breakdown = LossBreakdown(
            mse=float(means[0]), continuity=float(means[1]), variance=float(means[2]), total=float(means[3])
        )
        history.append(breakdown)
        if on_epoch is not None:
            on_epoch(epoch, model, breakdown)
    return TrainResult(model=model, history=history)


def write_history_csv(history, path):
    with open_for_write(path, "history file") as fh:
        fh.write("epoch,mse,continuity,variance,total\n")
        for i, b in enumerate(history):
            fh.write(f"{i},{b.mse!r},{b.continuity!r},{b.variance!r},{b.total!r}\n")
