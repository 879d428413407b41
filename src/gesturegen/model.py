"""Sequence-to-sequence gesture network.

A two-layer bidirectional GRU encoder reads embedded words; an additive
attention scorer and a two-layer GRU decoder with pre/post linear layers
emit gesture vectors autoregressively. The decoder is warmed on seed poses
(their outputs are not emitted), then generates a fixed number of poses,
each feeding the next step.

Every pass runs through one set of autodiff graph builders: `forward_graph`
records the graph for training, `forward` runs the same builders without
recording and returns plain arrays, and `backward` harvests parameter
gradients from a recorded loss.

A GRU cell is three parameters with the update (z), reset (r) and
candidate (h) gates stacked along rows: `w (3H, in)`, `u (3H, H)` and
`b (3H,)`. A cell step is one graph node (`autodiff.gru_step`, hand-written
backward) fed the transposed weights directly; the encoder projects all
timesteps' inputs with one matmul per layer and direction before the
recurrence. A batch of word sequences of different lengths runs as one
zero-padded rollout: padded steps carry the encoder state in both
directions and get attention weight exactly 0, so every row equals its own
unpadded rollout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidConfig


class Parameter:
    """A named weight array with a same-shaped gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


class ParamStore:
    """Ordered collection of uniquely named parameters."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def register(self, name: str, value: np.ndarray) -> Parameter:
        if name in self._params:
            raise InvalidConfig(f"duplicate parameter name: {name}")
        p = Parameter(name, value)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def items(self):
        return self._params.items()

    def zero_grads(self):
        for p in self._params.values():
            p.grad[...] = 0.0


@dataclass
class ModelConfig:
    word_dim: int = 300
    hidden: int = 200
    att_dim: int = 200
    gesture_dim: int = 10
    n_seed_poses: int = 10
    n_output_poses: int = 20
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("word_dim", "hidden", "att_dim", "gesture_dim", "n_seed_poses", "n_output_poses"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidConfig("dropout must be in [0, 1)")


@dataclass
class Seq2SeqModel:
    cfg: ModelConfig
    store: ParamStore
    encoder: list = field(default_factory=list)  # [layer][direction] -> cell (w, u, b)
    decoder: list = field(default_factory=list)  # [layer] -> cell (w, u, b)
    att_query: Parameter = None
    att_ann: Parameter = None
    att_score: Parameter = None
    pre_w: Parameter = None
    pre_b: Parameter = None
    post_w: Parameter = None
    post_b: Parameter = None


def _xavier(rng, out_dim, in_dim):
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def _register_cell(store, rng, prefix, input_size, hidden) -> tuple:
    """(w (3H, in), u (3H, H), b (3H,)) with the z, r, h gates stacked along
    rows; the Xavier draws run gate by gate, w before u."""
    draws = [(_xavier(rng, hidden, input_size), _xavier(rng, hidden, hidden)) for _ in "zrh"]
    w, u = (np.concatenate(blocks) for blocks in zip(*draws))
    return (
        store.register(f"{prefix}.w", w),
        store.register(f"{prefix}.u", u),
        store.register(f"{prefix}.b", np.zeros(3 * hidden)),
    )


def init_model(cfg: ModelConfig, seed: int = 0) -> Seq2SeqModel:
    """Build a model with Xavier-uniform weights and zero biases.

    Parameter registration order is fixed, so equal seeds give bit-identical
    models.
    """
    rng = np.random.default_rng(seed)
    store = ParamStore()
    model = Seq2SeqModel(cfg=cfg, store=store)

    ann_dim = 2 * cfg.hidden
    for layer in range(2):
        in_size = cfg.word_dim if layer == 0 else ann_dim
        both = []
        for direction in ("fwd", "bwd"):
            both.append(_register_cell(store, rng, f"enc.l{layer}.{direction}", in_size, cfg.hidden))
        model.encoder.append(both)

    model.att_query = store.register("att.w_query", _xavier(rng, cfg.att_dim, cfg.hidden))
    model.att_ann = store.register("att.u_ann", _xavier(rng, cfg.att_dim, ann_dim))
    model.att_score = store.register("att.v_score", _xavier(rng, 1, cfg.att_dim)[0])

    model.pre_w = store.register("dec.pre.w", _xavier(rng, cfg.hidden, cfg.gesture_dim))
    model.pre_b = store.register("dec.pre.b", np.zeros(cfg.hidden))
    dec_in = cfg.hidden + ann_dim  # pre-linear output concatenated with context
    model.decoder.append(_register_cell(store, rng, "dec.l0", dec_in, cfg.hidden))
    model.decoder.append(_register_cell(store, rng, "dec.l1", cfg.hidden, cfg.hidden))
    model.post_w = store.register("dec.post.w", _xavier(rng, cfg.gesture_dim, cfg.hidden))
    model.post_b = store.register("dec.post.b", np.zeros(cfg.gesture_dim))
    return model


class _Bag:
    """Per-pass cache mapping parameters to graph tensors, plain and
    transposed, so each parameter enters a pass's graph once."""

    def __init__(self, record: bool):
        self.record = record
        self._plain: dict[str, Tensor] = {}
        self._transposed: dict[str, Tensor] = {}

    def __call__(self, p: Parameter) -> Tensor:
        t = self._plain.get(p.name)
        if t is None:
            t = Tensor(p.value, requires_grad=self.record, _param=p if self.record else None)
            self._plain[p.name] = t
        return t

    def T(self, p: Parameter) -> Tensor:
        t = self._transposed.get(p.name)
        if t is None:
            t = ad.transpose(self(p))
            self._transposed[p.name] = t
        return t


def _cell_step(bag: _Bag, cell: tuple, x: Tensor, h: Tensor) -> Tensor:
    """One GRU update of a (B, input) step input: the input projection, then
    the fused gate step (`autodiff.gru_step`)."""
    w, u, b = cell
    return ad.gru_step(ad.matmul(x, bag.T(w)), h, bag.T(u), bag(b))


def _run_direction(bag, cell, inputs: Tensor, keep, reverse: bool) -> Tensor:
    """(B, s, in) inputs -> (B, s, H) states. One input matmul for every
    step, then the fused recurrence; keep[t] (None: every row) masks the
    rows whose sequence has ended, which carry their state."""
    w, u, b = cell
    gx = ad.matmul(inputs, bag.T(w))
    u, b = bag.T(u), bag(b)
    batch, s, _ = inputs.shape
    h = Tensor(np.zeros((batch, u.shape[0])))
    states = [None] * s
    for t in range(s - 1, -1, -1) if reverse else range(s):
        h = ad.gru_step(gx, h, u, b, t=t, keep=keep[t])
        states[t] = h
    return ad.stack(states, axis=1)


def _encode_graph(model, bag, inputs: Tensor, lengths=None, train=False, rng=None, dropout=0.0):
    """(B, s, word_dim) embedded words -> annotations (B, s, 2H). Row i has
    lengths[i] words followed by padding (None: no padding); padded steps
    carry the state in both directions, so the backward direction starts
    from zero at each row's last word."""
    s = inputs.shape[1]
    if lengths is None:
        keep = [None] * s
    else:
        keep = [None if bool(np.all(lengths > t)) else lengths > t for t in range(s)]
    if train:
        inputs = ad.dropout(inputs, dropout, rng)
    for fwd_cell, bwd_cell in model.encoder:
        fwd = _run_direction(bag, fwd_cell, inputs, keep, reverse=False)
        bwd = _run_direction(bag, bwd_cell, inputs, keep, reverse=True)
        inputs = ad.concat([fwd, bwd], axis=-1)
    return inputs


class _Attention:
    """Additive scorer with the annotation projection precomputed once.
    ``mask`` is a (B, s) array added to the scores: 0 on words, -inf on
    padding, so padded positions get weight exactly 0."""

    def __init__(self, model, bag, annotations: Tensor, mask=None):
        self.bag = bag
        self.model = model
        self.annotations = annotations  # (B, s, 2H)
        self.mask = mask
        self.projected = ad.matmul(annotations, bag.T(model.att_ann))  # (B, s, A)
        self.score_col = ad.reshape(bag(model.att_score), (model.cfg.att_dim, 1))

    def __call__(self, state: Tensor):
        batch, s, _ = self.annotations.shape
        query = ad.matmul(state, self.bag.T(self.model.att_query))  # (B, A)
        query = ad.reshape(query, (batch, 1, self.model.cfg.att_dim))
        scores = ad.matmul(ad.tanh(ad.add(query, self.projected)), self.score_col)  # (B, s, 1)
        scores = ad.reshape(scores, (batch, s))
        if self.mask is not None:
            scores = ad.add(scores, self.mask)
        weights = ad.softmax(scores, axis=-1)
        context = ad.matmul(ad.reshape(weights, (batch, 1, s)), self.annotations)
        return weights, ad.reshape(context, (batch, self.annotations.shape[-1]))


def _decode_step_graph(model, bag, attention, prev_pose, h1, h2, train=False, rng=None, dropout=0.0):
    pre = ad.add(ad.matmul(prev_pose, bag.T(model.pre_w)), bag(model.pre_b))
    weights, context = attention(h2)  # query with the top layer's previous state
    x = ad.concat([pre, context], axis=-1)
    if train:
        x = ad.dropout(x, dropout, rng)
    h1 = _cell_step(bag, model.decoder[0], x, h1)
    h2 = _cell_step(bag, model.decoder[1], h1, h2)
    pose = ad.add(ad.matmul(h2, bag.T(model.post_w)), bag(model.post_b))
    return pose, h1, h2, weights


@dataclass
class RolloutGraph:
    """Recorded forward pass: emitted poses (B, m, 10) and attention rows
    (B, m, s), both as graph tensors."""

    poses: Tensor
    attn: Tensor


def forward_graph(
    model: Seq2SeqModel,
    embedded: np.ndarray,
    seed_poses: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
    record: bool = True,
    lengths=None,
    dropout: float | None = None,
) -> RolloutGraph:
    """Batched rollout. embedded: (B, s, word_dim); seed_poses: (B, n, 10).

    Warms the decoder on the n seed poses (outputs unused except that the
    last one feeds the first emitted step), then emits m poses feeding each
    into the next step. ``lengths`` (B,) gives each row's word count when
    rows are zero-padded to s (None: every row has s words); each row's
    result equals its own unpadded rollout. Dropout (first GRU layer inputs
    of both encoder and decoder) at rate ``dropout`` (None: the model's
    configured rate) is active only when train=True.
    """
    embedded = np.asarray(embedded, dtype=np.float64)
    seed_poses = np.asarray(seed_poses, dtype=np.float64)
    if embedded.ndim != 3 or embedded.shape[1] < 1:
        raise InvalidConfig("need at least one embedded word")
    if embedded.shape[2] != model.cfg.word_dim:
        raise InvalidConfig(f"word dim {embedded.shape[2]} != {model.cfg.word_dim}")
    if seed_poses.ndim != 3 or seed_poses.shape[1] != model.cfg.n_seed_poses:
        raise InvalidConfig(
            f"expected {model.cfg.n_seed_poses} seed poses, got {seed_poses.shape[1] if seed_poses.ndim == 3 else 'malformed'}"
        )
    batch, s, _ = embedded.shape
    mask = None
    if lengths is not None:
        lengths = np.asarray(lengths)
        if lengths.shape != (batch,) or np.any(lengths < 1) or np.any(lengths > s):
            raise InvalidConfig(f"lengths must be {batch} word counts in [1, {s}]")
        if np.any(lengths < s):
            mask = np.where(np.arange(s) < lengths[:, None], 0.0, -np.inf)
        else:
            lengths = None
    if dropout is None:
        dropout = model.cfg.dropout
    if train and rng is None and dropout > 0.0:
        raise InvalidConfig("train-mode forward needs an rng for dropout")

    bag = _Bag(record)
    annotations = _encode_graph(model, bag, Tensor(embedded), lengths, train, rng, dropout)
    attention = _Attention(model, bag, annotations, mask)

    h1 = Tensor(np.zeros((batch, model.cfg.hidden)))
    h2 = Tensor(np.zeros((batch, model.cfg.hidden)))
    prev = None
    for t in range(model.cfg.n_seed_poses):
        prev, h1, h2, _ = _decode_step_graph(
            model, bag, attention, Tensor(seed_poses[:, t]), h1, h2, train, rng, dropout
        )
    poses, rows = [], []
    for _ in range(model.cfg.n_output_poses):
        prev, h1, h2, weights = _decode_step_graph(model, bag, attention, prev, h1, h2, train, rng, dropout)
        poses.append(prev)
        rows.append(weights)
    return RolloutGraph(poses=ad.stack(poses, axis=1), attn=ad.stack(rows, axis=1))


def forward(model, embedded_words, seed_poses):
    """Single-sequence eval-mode rollout. embedded_words: (s, word_dim);
    seed_poses: (n, 10). Returns (poses (m, 10), attention (m, s)) as plain
    arrays."""
    embedded = np.asarray(embedded_words, dtype=np.float64)
    if embedded.size == 0:
        raise InvalidConfig("cannot run on an empty word sequence")
    if embedded.ndim != 2:
        raise InvalidConfig(f"embedded words must be (s, {model.cfg.word_dim})")
    seeds = np.asarray(seed_poses, dtype=np.float64)
    out = forward_graph(model, embedded[None], seeds[None], record=False)
    return out.poses.data[0], out.attn.data[0]


def backward(loss: Tensor):
    """Reverse-mode pass: add d(loss)/d(parameter) into the store
    accumulator of every parameter the loss reaches.

    Gradients add up across calls until the caller clears them.
    """
    if not isinstance(loss, Tensor) or not loss._parents:
        raise InvalidConfig("loss is not the result of a recorded forward pass")
    order = loss.backward()
    for node in order:
        if node._param is not None and node.grad is not None:
            node._param.grad += node.grad
