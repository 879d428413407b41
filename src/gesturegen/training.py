"""Loss, optimizer, training-pair construction, and the training loop.

The loss, `compute_loss_graph` with its gradient, is a weighted sum of
three terms over the m generated poses: mean squared error against the
targets, mean consecutive-pose distance (continuity), and the negative
per-dimension temporal variance (rewarding dynamic motion):

    total = mse + alpha * continuity + beta * variance
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Config
from .errors import InvalidConfig, write_rows
from .model import ParamStore, Seq2SeqModel, Workspace, backward, forward_graph
from .pose import encode_pose, normalize_pose
from .synthesis import plan_chunks

# Adam's decay rates and denominator guard: the defaults of Kingma & Ba 2015
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP = 5.0  # bound on every gradient entry before the Adam step
_ADAM_BLOCK = 32768  # values per adam_step pass: 256 KB an array, so its temporaries stay in L2

Hyperparams = Config  # bench/workloads.py is its only user; the next benchmark change drops it


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


class AdamState:
    """Bias-corrected Adam moments: two flat arrays laid out like the store's ``values``."""

    def __init__(self, store: ParamStore):
        self.step_count = 0
        self.first = np.zeros_like(store.values)
        self.second = np.zeros_like(store.values)


def compute_loss_graph(p, target: np.ndarray, cfg: Config):
    """The loss of a (B, m, d) prediction array p against a (B, m, d) target
    array, averaged over the batch, with the weights ``cfg.alpha`` and
    ``cfg.beta``. Returns (LossBreakdown, d total / d p), the gradient that
    `model.backward` takes. Both round as the same loss composed of add /
    mul / sum / slice / sqrt ops does; a zero-length step has subgradient 0."""
    if p.shape[1] < 2:
        raise InvalidConfig("need at least 2 poses per sequence")
    alpha, beta = cfg.alpha, cfg.beta
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
    # p's five contributions in the composed graph's order: mse, p[:, 1:]
    # and p[:, :-1] of the steps, centered, mean
    g_diff = inv_n * diff
    g_p = g_diff + g_diff
    local = np.where(norms > 0.0, 0.5 / np.where(norms > 0.0, norms, 1.0), 0.0)
    g_steps = ((alpha * inv_b * inv_steps) * local)[:, :, None] * steps
    g_steps = g_steps + g_steps
    g_p[:, 1:] += g_steps
    g_p[:, :-1] -= g_steps
    g_centered = (beta * -1.0 * inv_bd * inv_m) * centered
    g_centered = g_centered + g_centered
    g_p += g_centered
    g_p += g_centered.sum(axis=1, keepdims=True) * -1.0 * inv_m
    return LossBreakdown(mse=float(mse), continuity=float(continuity), variance=float(variance), total=float(total)), g_p


def clip_gradients(store: ParamStore):
    """Clamp every gradient entry into [-GRAD_CLIP, GRAD_CLIP], in place. Idempotent."""
    np.clip(store.grads, -GRAD_CLIP, GRAD_CLIP, out=store.grads)


def adam_step(store: ParamStore, state: AdamState, lr: float):
    """Standard bias-corrected Adam update, one _ADAM_BLOCK slice of the flat buffers at a time.
    Gradients are left untouched; the caller decides when to clear them."""
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    for lo in range(0, store.values.size, _ADAM_BLOCK):
        block = slice(lo, lo + _ADAM_BLOCK)
        g, m, v = store.grads[block], state.first[block], state.second[block]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        store.values[block] -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


def make_training_pairs(records, pca, n: int, m: int) -> list[TrainingPair]:
    """Build training pairs the way chunked generation consumes them.

    Each record's words are partitioned into inference chunks with the
    planning formula at the record's own duration; chunk i owns the m
    output frames [i*m, (i+1)*m), and its n seed frames are the ground
    truth immediately before that span. The first chunk is seeded with the
    mean pose (zero vectors), the same cold start generation uses. Records
    shorter than n + m frames yield nothing.
    """
    pairs = []
    for rec in records:
        if not rec.words or len(rec.frames) < n + m:
            continue
        chunks = plan_chunks([w.surface for w in rec.words], rec.duration, n, m).chunks
        coeffs = encode_pose(pca, normalize_pose(rec.frames))
        total = coeffs.shape[0]
        for start in range(0, total - m + 1, m):
            chunk = chunks[min(start // m, len(chunks) - 1)]
            seeds = np.zeros((n, coeffs.shape[1]))
            lo = max(0, start - n)
            if start > 0:
                seeds[n - (start - lo) :] = coeffs[lo:start]
            pairs.append(TrainingPair(words=list(chunk), target_poses=np.concatenate([seeds, coeffs[start : start + m]])))
    return pairs


@dataclass
class TrainResult:
    history: list = field(default_factory=list)  # per-epoch LossBreakdown


def _check_finite(store: ParamStore, loss: float, where: str):
    """Refuse a non-finite loss or gradient after the training step ``where``."""
    if not np.isfinite(loss):
        what = "loss"
    elif not np.isfinite(store.grads).all():
        what = "gradient"
    else:
        return
    raise InvalidConfig(f"training diverged at {where}: non-finite {what}")


def _train_step(pairs: list[TrainingPair], cfg: Config, model: Seq2SeqModel, table, rng, ws: Workspace):
    """One batch's embedding, forward pass (its record in ``ws``), loss and
    backward into the store's cleared gradients; returns its LossBreakdown.
    What the step makes outside ``ws`` (the word batch, poses, the loss
    gradient, the record's views) is gone when it returns, before the next
    batch is built."""
    n = model.cfg.n_seed_poses
    emb, words = table.embed([p.words for p in pairs])
    known = np.stack([p.target_poses for p in pairs])
    seeds, targets = known[:, :n], known[:, n:]
    model.store.zero_grads()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # _check_finite reports these
        poses, _, run = forward_graph(model, emb, seeds, words, rng=rng, dropout=cfg.dropout, workspace=ws)
        del emb  # with dropout the record keeps its own dropped-out copy: the word batch goes before backward
        breakdown, g_poses = compute_loss_graph(poses, targets, cfg)
        backward(run, g_poses)
    return breakdown


def train_model(pairs: list[TrainingPair], cfg: Config, model: Seq2SeqModel, table, on_epoch=None) -> TrainResult:
    """Seeded shuffle, fixed-size batches (last partial batch kept), one
    zero-padded train-mode rollout per batch with ground-truth seed poses,
    loss on the m outputs, backward, clip, Adam step. Deterministic for a
    fixed seed when run single-threaded. ``cfg`` gives the loss weights,
    ``lr``, ``batch_size``, ``dropout``, ``epochs`` and ``seed``;
    ``model.cfg`` is not changed.

    Each batch embeds its words with ``table.embed`` as it is built, and every
    pass keeps its record in one `model.Workspace` that the run makes once
    (up to ``batch_size`` rows of the pairs' longest word count) and owns:
    each step's forward pass overwrites the last step's record, which is
    never freed between steps. So what training holds beyond the pairs and
    the model is one step deep and follows the batch size, not the number
    of pairs.

    A non-finite loss or gradient raises InvalidConfig naming the
    (0-based) epoch and batch. ``on_epoch(epoch_index, model, breakdown)``
    runs after every epoch, for checkpointing.
    """
    if not pairs:
        raise InvalidConfig("no training pairs")
    rng = np.random.default_rng(cfg.seed)
    state = AdamState(model.store)
    ws = Workspace(model.cfg, min(cfg.batch_size, len(pairs)), max(len(p.words) for p in pairs))
    history = []

    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(pairs))
        sums = np.zeros(4)
        for bstart in range(0, len(perm), cfg.batch_size):
            batch = perm[bstart : bstart + cfg.batch_size]
            breakdown = _train_step([pairs[i] for i in batch], cfg, model, table, rng, ws)
            _check_finite(model.store, breakdown.total, f"epoch {epoch}, batch {bstart // cfg.batch_size}")
            clip_gradients(model.store)
            adam_step(model.store, state, cfg.lr)
            sums += np.array([breakdown.mse, breakdown.continuity, breakdown.variance, breakdown.total]) * len(batch)
        means = sums / len(pairs)
        breakdown = LossBreakdown(
            mse=float(means[0]), continuity=float(means[1]), variance=float(means[2]), total=float(means[3])
        )
        history.append(breakdown)
        if on_epoch is not None:
            on_epoch(epoch, model, breakdown)
    return TrainResult(history=history)


def write_history_csv(history, path):
    rows = np.array([[b.mse, b.continuity, b.variance, b.total] for b in history]).reshape(-1, 4)
    header = "epoch,mse,continuity,variance,total"
    write_rows(path, "history file", rows, header=header, labels=map(str, range(len(rows))))
