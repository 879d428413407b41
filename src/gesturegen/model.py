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

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.value.shape})"


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

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def items(self):
        return self._params.items()

    def names(self):
        return list(self._params)

    def zero_grads(self):
        for p in self._params.values():
            p.grad[...] = 0.0


@dataclass
class GruCellParams:
    """Gate parameters of one GRU cell: update (z), reset (r), candidate (h)."""

    w_z: Parameter
    u_z: Parameter
    b_z: Parameter
    w_r: Parameter
    u_r: Parameter
    b_r: Parameter
    w_h: Parameter
    u_h: Parameter
    b_h: Parameter

    @property
    def hidden_size(self) -> int:
        return self.b_z.value.shape[0]


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
    encoder: list = field(default_factory=list)  # [layer][direction] -> GruCellParams
    decoder: list = field(default_factory=list)  # [layer] -> GruCellParams
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


def _register_cell(store, rng, prefix, input_size, hidden) -> GruCellParams:
    kwargs = {}
    for gate in ("z", "r", "h"):
        kwargs[f"w_{gate}"] = store.register(f"{prefix}.w_{gate}", _xavier(rng, hidden, input_size))
        kwargs[f"u_{gate}"] = store.register(f"{prefix}.u_{gate}", _xavier(rng, hidden, hidden))
        kwargs[f"b_{gate}"] = store.register(f"{prefix}.b_{gate}", np.zeros(hidden))
    return GruCellParams(**kwargs)


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
    """Per-pass cache mapping parameters to graph tensors (and transposes)."""

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


def _cell_step(bag: _Bag, cell: GruCellParams, x: Tensor, h: Tensor) -> Tensor:
    """z = sigm(Wz x + Uz h + bz); r = sigm(Wr x + Ur h + br);
    cand = tanh(Wh x + Uh (r*h) + bh); h' = h + z * (cand - h)."""
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, bag.T(cell.w_z)), ad.matmul(h, bag.T(cell.u_z))), bag(cell.b_z)))
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, bag.T(cell.w_r)), ad.matmul(h, bag.T(cell.u_r))), bag(cell.b_r)))
    cand = ad.tanh(
        ad.add(ad.add(ad.matmul(x, bag.T(cell.w_h)), ad.matmul(ad.mul(r, h), bag.T(cell.u_h))), bag(cell.b_h))
    )
    return ad.add(h, ad.mul(z, ad.add(cand, ad.mul(h, -1.0))))


def _run_direction(bag, cell, inputs, reverse: bool):
    batch = inputs[0].shape[0]
    h = Tensor(np.zeros((batch, cell.hidden_size)))
    states = [None] * len(inputs)
    order = range(len(inputs) - 1, -1, -1) if reverse else range(len(inputs))
    for t in order:
        h = _cell_step(bag, cell, inputs[t], h)
        states[t] = h
    return states


def _encode_graph(model, bag, inputs, train, rng):
    """inputs: list of (B, word_dim) tensors -> annotations tensor (B, s, 2H)."""
    if train:
        inputs = [ad.dropout(x, model.cfg.dropout, rng) for x in inputs]
    layer_in = inputs
    for layer, (fwd_cell, bwd_cell) in enumerate(model.encoder):
        fwd = _run_direction(bag, fwd_cell, layer_in, reverse=False)
        bwd = _run_direction(bag, bwd_cell, layer_in, reverse=True)
        layer_in = [ad.concat([f, b], axis=-1) for f, b in zip(fwd, bwd)]
    return ad.stack(layer_in, axis=1)


class _Attention:
    """Additive scorer with the annotation projection precomputed once."""

    def __init__(self, model, bag, annotations: Tensor):
        self.bag = bag
        self.model = model
        self.annotations = annotations  # (B, s, 2H)
        self.projected = ad.matmul(annotations, bag.T(model.att_ann))  # (B, s, A)
        self.score_col = ad.reshape(bag(model.att_score), (model.cfg.att_dim, 1))

    def __call__(self, state: Tensor):
        batch, s, _ = self.annotations.shape
        query = ad.matmul(state, self.bag.T(self.model.att_query))  # (B, A)
        query = ad.reshape(query, (batch, 1, self.model.cfg.att_dim))
        scores = ad.matmul(ad.tanh(ad.add(query, self.projected)), self.score_col)  # (B, s, 1)
        weights = ad.softmax(ad.reshape(scores, (batch, s)), axis=-1)
        context = ad.matmul(ad.reshape(weights, (batch, 1, s)), self.annotations)
        return weights, ad.reshape(context, (batch, self.annotations.shape[-1]))


def _decode_step_graph(model, bag, attention, prev_pose, h1, h2, train, rng):
    pre = ad.add(ad.matmul(prev_pose, bag.T(model.pre_w)), bag(model.pre_b))
    weights, context = attention(h2)  # query with the top layer's previous state
    x = ad.concat([pre, context], axis=-1)
    if train:
        x = ad.dropout(x, model.cfg.dropout, rng)
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
) -> RolloutGraph:
    """Batched rollout. embedded: (B, s, word_dim); seed_poses: (B, n, 10).

    Warms the decoder on the n seed poses (outputs unused except that the
    last one feeds the first emitted step), then emits m poses feeding each
    into the next step. Dropout (first GRU layer inputs of both encoder and
    decoder) is active only when train=True.
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
    if train and rng is None and model.cfg.dropout > 0.0:
        raise InvalidConfig("train-mode forward needs an rng for dropout")

    batch, s, _ = embedded.shape
    bag = _Bag(record)
    word_inputs = [Tensor(embedded[:, t]) for t in range(s)]
    annotations = _encode_graph(model, bag, word_inputs, train, rng)
    attention = _Attention(model, bag, annotations)

    h1 = Tensor(np.zeros((batch, model.cfg.hidden)))
    h2 = Tensor(np.zeros((batch, model.cfg.hidden)))
    prev = None
    for t in range(model.cfg.n_seed_poses):
        prev, h1, h2, _ = _decode_step_graph(model, bag, attention, Tensor(seed_poses[:, t]), h1, h2, train, rng)
    poses, rows = [], []
    for _ in range(model.cfg.n_output_poses):
        prev, h1, h2, weights = _decode_step_graph(model, bag, attention, prev, h1, h2, train, rng)
        poses.append(prev)
        rows.append(weights)
    return RolloutGraph(poses=ad.stack(poses, axis=1), attn=ad.stack(rows, axis=1))


def forward(model, embedded_words, seed_poses, mode: str = "eval", rng=None):
    """Single-sequence rollout. embedded_words: (s, word_dim); seed_poses:
    (n, 10). Returns (poses (m, 10), attention (m, s)) as plain arrays."""
    if mode not in ("train", "eval"):
        raise InvalidConfig(f"unknown mode: {mode}")
    embedded = np.asarray(embedded_words, dtype=np.float64)
    if embedded.size == 0:
        raise InvalidConfig("cannot run on an empty word sequence")
    if embedded.ndim != 2:
        raise InvalidConfig(f"embedded words must be (s, {model.cfg.word_dim})")
    seeds = np.asarray(seed_poses, dtype=np.float64)
    out = forward_graph(model, embedded[None], seeds[None], train=(mode == "train"), rng=rng, record=False)
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
