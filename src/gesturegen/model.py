"""Sequence-to-sequence gesture network.

A two-layer bidirectional GRU encoder reads embedded words; an additive
attention scorer and a two-layer GRU decoder with pre/post linear layers
emit gesture vectors autoregressively. The decoder is warmed on seed poses,
then generates a fixed number of poses, each feeding the next step. Of the
warm-up steps only the last runs the post-linear layer: its pose feeds the
first generated step, and no step reads the others'.

`forward_graph` records the graph for training through the autodiff ops,
and `backward` adds a recorded loss's gradients into the store. `forward`
(eval) records nothing: it binds each weight's transpose, gate blocks and
bias slices once per pass and runs the same steps in the same order on
plain arrays through the kernels the ops are built on (`autodiff._affine`,
`_gru_cell`, `_attend`), so its results equal the recorded pass's values
bit for bit. `forward` encodes all word chunks of an utterance in one
batch, then decodes them in order, each seeded with the last poses of the
one before; `_unroll` holds the decoder's seed-then-emit schedule for both.

A GRU cell is three parameters with the update (z), reset (r) and
candidate (h) gates stacked along rows: `w (3H, in)`, `u (3H, H)` and
`b (3H,)`. Every weight enters a pass as stored: each linear map is one
`autodiff.linear` node (x W^T + b), and a cell step is one graph node
(`autodiff.gru_step`, hand-written backward) fed `u` as stored; the encoder
projects all timesteps' inputs with one `linear` per layer and direction
before the recurrence. A decoder step's attention is one graph node too
(`autodiff.attention`), fed the query weight as stored and the annotation
projection made once per pass; `_rollout` binds the attention and decoder
weights and biases once per rollout, `_decoder` once per eval pass. A
batch of word sequences of different lengths runs as one zero-padded
rollout: padded steps carry the encoder state in both directions and get
attention weight exactly 0, so every row equals its own unpadded rollout.

`build_model` lays a model's parameters out once, in one `ParamStore`;
`stored_arrays` views that layout in checkpoint order, into which
`init_model` draws and from which a checkpoint saves and loads, drawing nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidConfig
from .pose import GESTURE_DIM


class Parameter:
    """A weight array with a same-shaped gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray, grad: np.ndarray):
        self.value, self.grad = value, grad


class ParamStore:
    """Uniquely named parameters laid out once from a (name, shape) list:
    two flat float64 buffers ``values`` and ``grads``, allocated zeroed, and
    per parameter a value and a grad view of them at the same offsets, in
    layout order. A build fills the value views in place; nothing rebinds them."""

    def __init__(self, layout):
        ends = np.cumsum([0] + [math.prod(shape) for _, shape in layout])
        self.values = np.zeros(ends[-1])
        self.grads = np.zeros(ends[-1])  # calloc: pages stay unmapped until a gradient is written
        self._params: dict[str, Parameter] = {}
        for (name, shape), start, end in zip(layout, ends, ends[1:]):
            if name in self._params:
                raise InvalidConfig(f"duplicate parameter name: {name}")
            views = (flat[start:end].reshape(shape) for flat in (self.values, self.grads))
            self._params[name] = Parameter(*views)

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def items(self):
        return self._params.items()

    def zero_grads(self):
        self.grads[...] = 0.0


@dataclass
class ModelConfig:
    """The checkpoint header's model record; Config.model_config builds it."""

    word_dim: int
    hidden: int
    att_dim: int
    n_seed_poses: int
    n_output_poses: int
    dropout: float
    gesture_dim: int = GESTURE_DIM


@dataclass
class Seq2SeqModel:
    cfg: ModelConfig
    store: ParamStore
    encoder: list  # [layer][direction] -> cell (w, u, b)
    decoder: list  # [layer] -> cell (w, u, b)
    att_query: Parameter
    att_ann: Parameter
    att_score: Parameter
    pre_w: Parameter
    pre_b: Parameter
    post_w: Parameter
    post_b: Parameter


def _xavier(rng, view: np.ndarray):
    """Fill an (out, in) view with Xavier-uniform draws."""
    limit = np.sqrt(6.0 / sum(view.shape))
    view[...] = rng.uniform(-limit, limit, size=view.shape)


def build_model(cfg: ModelConfig) -> Seq2SeqModel:
    """The model's parameter layout, every value zero: `init_model` draws
    the weights into it and `load_checkpoint` fills it from a file."""
    hidden, ann_dim = cfg.hidden, 2 * cfg.hidden
    enc = [(f"enc.l{layer}.fwd", f"enc.l{layer}.bwd") for layer in range(2)]

    def gates(prefix, in_size):
        return [(f"{prefix}.w", (3 * hidden, in_size)), (f"{prefix}.u", (3 * hidden, hidden)), (f"{prefix}.b", (3 * hidden,))]

    # the decoder's first cell reads the pre-linear output concatenated with the context
    store = ParamStore(
        [e for layer, pair in enumerate(enc) for c in pair for e in gates(c, (cfg.word_dim, ann_dim)[layer])]
        + [("att.w_query", (cfg.att_dim, hidden)), ("att.u_ann", (cfg.att_dim, ann_dim)), ("att.v_score", (cfg.att_dim,))]
        + [("dec.pre.w", (hidden, cfg.gesture_dim)), ("dec.pre.b", (hidden,)), *gates("dec.l0", hidden + ann_dim)]
        + [*gates("dec.l1", hidden), ("dec.post.w", (cfg.gesture_dim, hidden)), ("dec.post.b", (cfg.gesture_dim,))]
    )

    def cell(prefix):
        return tuple(store[f"{prefix}.{kind}"] for kind in "wub")

    heads = ("att.w_query", "att.u_ann", "att.v_score", "dec.pre.w", "dec.pre.b", "dec.post.w", "dec.post.b")
    encoder, decoder = [[cell(c) for c in pair] for pair in enc], [cell("dec.l0"), cell("dec.l1")]
    return Seq2SeqModel(cfg, store, encoder, decoder, *(store[name] for name in heads))  # in field order


def stored_arrays(model: Seq2SeqModel) -> list:
    """(name, view) of every parameter array in checkpoint order: layout
    order, with each GRU cell's gate-stacked w, u and b expanded into the
    row views w_z, u_z, b_z, w_r, ..., b_h at the cell's position."""
    hidden = model.cfg.hidden
    cells = {name.removesuffix(".u") for name, _ in model.store.items() if name.endswith(".u")}
    arrays = []
    for name, p in model.store.items():
        cell, kind = name.rsplit(".", 1)
        if cell not in cells:
            arrays.append((name, p.value))
        elif kind == "w":  # a cell lays out w, u, b together
            rows = [(q, model.store[f"{cell}.{q}"].value) for q in "wub"]
            arrays += [(f"{cell}.{q}_{gate}", v[k * hidden : (k + 1) * hidden]) for k, gate in enumerate("zrh") for q, v in rows]
    return arrays


def init_model(cfg: ModelConfig, seed: int = 0) -> Seq2SeqModel:
    """Build a model with Xavier-uniform weights and zero biases.

    The draws run in `stored_arrays` order, one per weight view, so equal
    seeds give bit-identical models.
    """
    model = build_model(cfg)
    rng = np.random.default_rng(seed)
    for name, view in stored_arrays(model):
        if name.rsplit(".", 1)[1] not in ("b", "b_z", "b_r", "b_h"):
            _xavier(rng, np.atleast_2d(view))  # v_score draws as one (1, A) row
    return model


def _operand(p: Parameter):
    """A parameter as a recording leaf that adds into its store gradient."""
    return Tensor(p.value, requires_grad=True, grad=p.grad)


def _cell_weights(cell):
    """A GRU cell's plain operands, bound once per eval pass: w^T, then the
    `autodiff._gru_cell` weight operands."""
    w, u, b = (p.value for p in cell)
    return (w.T, *ad._gru_blocks(u.T, b))


def _keep_masks(lengths, s: int) -> list:
    """Per step t, the (B,) rows whose sequence still runs at t, or None
    when every row does (lengths None: no padding)."""
    if lengths is None:
        return [None] * s
    return [None if bool(np.all(lengths > t)) else lengths > t for t in range(s)]


def _run_direction(cell, inputs, keep, reverse: bool):
    """(B, s, in) inputs -> (B, s, H) states, recorded. One input projection
    for every step, then the fused recurrence; keep[t] (None: every row)
    masks the rows whose sequence has ended, which carry their state."""
    w, u, b = (_operand(p) for p in cell)
    gx = ad.linear(inputs, w)
    batch, s, _ = inputs.shape
    h = np.zeros((batch, u.shape[1]))
    states = [None] * s
    for t in range(s - 1, -1, -1) if reverse else range(s):
        h = ad.gru_step(gx, h, u, b, t=t, keep=keep[t])
        states[t] = h
    return ad.stack(states, axis=1)


def _encode_graph(model, inputs: np.ndarray, lengths=None, rng=None, dropout=0.0):
    """(B, s, word_dim) embedded words -> annotations (B, s, 2H), recorded.
    Row i has lengths[i] words followed by padding (None: no padding);
    padded steps carry the state in both directions, so the backward
    direction starts from zero at each row's last word."""
    keep = _keep_masks(lengths, inputs.shape[1])
    inputs = ad.dropout(inputs, dropout, rng)
    for fwd_cell, bwd_cell in model.encoder:
        fwd = _run_direction(fwd_cell, inputs, keep, reverse=False)
        bwd = _run_direction(bwd_cell, inputs, keep, reverse=True)
        inputs = ad.concat([fwd, bwd], axis=-1)
    return inputs


def _encode(model, inputs: np.ndarray, lengths=None) -> np.ndarray:
    """`_encode_graph` in eval, on `autodiff._gru_cell`: the same steps in
    the same order on plain arrays, each cell's weights bound once."""
    batch, s, _ = inputs.shape
    keep = _keep_masks(lengths, s)
    for layer in model.encoder:
        directions = []
        for cell, reverse in zip(layer, (False, True)):
            w_t, *kernel = _cell_weights(cell)
            gx = ad._affine(inputs, w_t)
            h = np.zeros((batch, model.cfg.hidden))
            states = [None] * s
            for t in range(s - 1, -1, -1) if reverse else range(s):
                out = ad._gru_cell(gx[:, t], h, *kernel)[0]
                h = out if keep[t] is None else np.where(keep[t][:, None], out, h)
                states[t] = h
            directions.append(np.stack(states, axis=1))
        inputs = np.concatenate(directions, axis=-1)
    return inputs


def _unroll(model, step, seed_poses: np.ndarray):
    """The decoder schedule: warm on the (B, n, 10) seed poses (only the
    last step computes a pose: it feeds the first emitted step), then emit
    m poses, each feeding the next. ``step(prev_pose, h1, h2, emit)``
    returns (pose or None, h1, h2, attention weights). Returns the m poses
    and the m attention rows as lists."""
    h1 = h2 = np.zeros((seed_poses.shape[0], model.cfg.hidden))
    n = model.cfg.n_seed_poses
    for t in range(n):
        prev, h1, h2, _ = step(seed_poses[:, t], h1, h2, emit=t == n - 1)
    poses, rows = [], []
    for _ in range(model.cfg.n_output_poses):
        prev, h1, h2, weights = step(prev, h1, h2)
        poses.append(prev)
        rows.append(weights)
    return poses, rows


def _rollout(model, seed_poses: np.ndarray, annotations, projected, mask=None, rng=None, dropout=0.0):
    """The recorded decoder on the `_unroll` schedule. A step, its weights
    bound once per rollout, is the pre-linear, attention of the top layer's
    previous state over the (B, s, 2H) annotations (scored through their
    (B, s, A) projection plus ``mask``: 0 on words, -inf on padding), the
    two GRU cells and, when it emits, the post-linear. Returns the (B, m,
    10) poses, a recorded tensor, and the (B, m, s) attention rows as a
    plain array (the loss never reads them)."""
    heads = (model.att_query, model.att_score, model.pre_w, model.pre_b, model.post_w, model.post_b)
    w_query, v, pre_w, pre_b, post_w, post_b = (_operand(p) for p in heads)
    (w1, u1, b1), (w2, u2, b2) = [[_operand(p) for p in cell] for cell in model.decoder]

    def step(prev_pose, h1, h2, emit=True):
        pre = ad.linear(prev_pose, pre_w, pre_b)
        context, weights = ad.attention(h2, w_query, projected, v, annotations, mask)
        x = ad.dropout(ad.concat([pre, context], axis=-1), dropout, rng)
        h1 = ad.gru_step(ad.linear(x, w1), h1, u1, b1)
        h2 = ad.gru_step(ad.linear(h1, w2), h2, u2, b2)
        return ad.linear(h2, post_w, post_b) if emit else None, h1, h2, weights

    poses, rows = _unroll(model, step, seed_poses)
    return ad.stack(poses, axis=1), np.stack(rows, axis=1)


def _decoder(model):
    """The eval rollout: `_rollout`'s step on `autodiff._attend` and
    `autodiff._gru_cell`, with every decoder weight bound once per pass.
    Returns rollout(seed_poses, annotations, projected) -> ((B, m, 10)
    poses, (B, m, s) attention), both plain arrays."""
    w_query_t, v_col = model.att_query.value.T, model.att_score.value.reshape(-1, 1)
    pre_t, pre_b, post_t, post_b = model.pre_w.value.T, model.pre_b.value, model.post_w.value.T, model.post_b.value
    (w1_t, *cell1), (w2_t, *cell2) = (_cell_weights(cell) for cell in model.decoder)

    def rollout(seed_poses, annotations, projected):
        def step(prev_pose, h1, h2, emit=True):
            pre = ad._affine(prev_pose, pre_t, pre_b)
            context, weights, _ = ad._attend(h2 @ w_query_t, projected, v_col, annotations, None)
            x = np.concatenate([pre, context], axis=-1)
            h1 = ad._gru_cell(ad._affine(x, w1_t), h1, *cell1)[0]
            h2 = ad._gru_cell(ad._affine(h1, w2_t), h2, *cell2)[0]
            return ad._affine(h2, post_t, post_b) if emit else None, h1, h2, weights

        poses, rows = _unroll(model, step, seed_poses)
        return np.stack(poses, axis=1), np.stack(rows, axis=1)

    return rollout


def pad_words(chunks):
    """Zero-pad (s_i, word_dim) word sequences into one (B, max s_i,
    word_dim) batch; returns it and the (B,) word counts."""
    lengths = np.array([len(c) for c in chunks])
    batch = np.zeros((len(chunks), lengths.max(), chunks[0].shape[1]))
    for row, c in enumerate(chunks):
        batch[row, : len(c)] = c
    return batch, lengths


def _check_inputs(model, embedded: np.ndarray, seed_poses: np.ndarray):
    """Refuse a (B, s, word_dim) word batch or (B, n, gesture_dim) seed batch of the wrong shape."""
    if embedded.ndim != 3 or embedded.shape[1] < 1:
        raise InvalidConfig("need at least one embedded word")
    if embedded.shape[2] != model.cfg.word_dim:
        raise InvalidConfig(f"word dim {embedded.shape[2]} != {model.cfg.word_dim}")
    if seed_poses.ndim != 3 or seed_poses.shape[1] != model.cfg.n_seed_poses:
        raise InvalidConfig(
            f"expected {model.cfg.n_seed_poses} seed poses, got {seed_poses.shape[1] if seed_poses.ndim == 3 else 'malformed'}"
        )
    if seed_poses.shape[2] != model.cfg.gesture_dim:
        raise InvalidConfig(f"seed pose width {seed_poses.shape[2]} != {model.cfg.gesture_dim}")


def forward_graph(
    model: Seq2SeqModel,
    embedded: np.ndarray,
    seed_poses: np.ndarray,
    rng: np.random.Generator | None = None,
    lengths=None,
    dropout: float = 0.0,
):
    """Batched train-mode rollout: (poses, attention) as `_rollout` returns
    them, poses a recorded tensor. embedded: (B, s, word_dim); seed_poses:
    (B, n, 10).

    ``lengths`` (B,) gives each row's word count when rows are zero-padded
    to s (None: every row has s words); each row's result equals its own
    unpadded rollout. Dropout at rate ``dropout`` drops the first GRU
    layer inputs of both encoder and decoder, drawing its masks from ``rng``.
    """
    embedded = np.asarray(embedded, dtype=np.float64)
    seed_poses = np.asarray(seed_poses, dtype=np.float64)
    _check_inputs(model, embedded, seed_poses)
    batch, s, _ = embedded.shape
    mask = None
    if lengths is not None:
        lengths = np.asarray(lengths)
        if lengths.shape != (batch,) or np.any(lengths < 1) or np.any(lengths > s):
            raise InvalidConfig(f"lengths must be {batch} word counts in [1, {s}]")
        if np.any(lengths < s):
            mask = np.where(np.arange(s) < lengths[:, None], 0.0, -np.inf)
    if rng is None and dropout > 0.0:
        raise InvalidConfig("dropout needs an rng")

    annotations = _encode_graph(model, embedded, lengths, rng, dropout)
    projected = ad.linear(annotations, _operand(model.att_ann))
    return _rollout(model, seed_poses, annotations, projected, mask, rng, dropout)


def forward(model, chunks, seed_poses):
    """Eval-mode rollout of an utterance: chunks is the list of its (s_i,
    word_dim) embedded word chunks, seed_poses the first chunk's (n, 10)
    seeds. Every chunk is encoded in one zero-padded batch; the decoder then
    runs chunk by chunk on that chunk's own s_i annotations, each chunk
    after the first seeded with the last n poses before it. Returns one
    (poses (m, 10), attention (m, s_i)) pair of plain arrays per chunk."""
    chunks = [np.asarray(c, dtype=np.float64) for c in chunks]
    seeds = np.asarray(seed_poses, dtype=np.float64)[None]
    if not chunks:
        raise InvalidConfig("need at least one embedded word")
    for c in chunks:
        if c.ndim != 2:
            raise InvalidConfig(f"embedded words must be (s, {model.cfg.word_dim})")
        _check_inputs(model, c[None], seeds)
    embedded, lengths = pad_words(chunks)
    annotations = _encode(model, embedded, lengths)
    projected = ad._affine(annotations, model.att_ann.value.T)
    rollout = _decoder(model)
    rollouts = []
    for row, s in enumerate(lengths):
        poses, attn = rollout(seeds, annotations[row : row + 1, :s], projected[row : row + 1, :s])
        rollouts.append((poses[0], attn[0]))
        seeds = np.concatenate([seeds, poses], axis=1)[:, -model.cfg.n_seed_poses :]
    return rollouts


def backward(loss: Tensor):
    """Reverse-mode pass: add d(loss)/d(parameter) into the store
    accumulator of every parameter the loss reaches.

    Gradients add up across calls until the caller clears them.
    """
    if not isinstance(loss, Tensor) or not loss._parents:
        raise InvalidConfig("loss is not the result of a recorded forward pass")
    loss.backward()
