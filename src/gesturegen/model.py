"""Sequence-to-sequence gesture network.

A two-layer bidirectional GRU encoder reads embedded words; an additive
attention scorer and a two-layer GRU decoder with pre/post linear layers
emit gesture vectors autoregressively. The decoder is warmed on seed poses,
then generates a fixed number of poses, each feeding the next step. Of the
warm-up steps only the last runs the post-linear layer: its pose feeds the
first generated step, and no step reads the others'.

One plain-array pass serves both modes: `_encode` and `_decoder` bind each
weight's transpose, GRU gate blocks and bias slices once per pass and run
the steps on the kernels `autodiff._affine`, `_gru_cell` and `_attend`.
`forward_graph` (train mode) adds dropout masks and keeps each step's
intermediates in a `TrainPass`, and `backward` walks that record in
reverse through the kernels' backward rules into the store's gradients;
nothing records a graph. The record leaves out what one step's backward
can rebuild cheaply, the decoder's attention (its tanh, weights and
context) and first-cell input; `backward` rebuilds each through the call
the forward step made it with (`autodiff._attend`, `_input_row`), so the
gradients keep their bits. What it keeps lives in a `Workspace` that
each pass overwrites with the same operations: `train_model` makes one
per run and owns it, `forward_graph` called without one makes its own,
and a `TrainPass` stays valid until the next pass on its workspace.
`forward` (eval) keeps nothing: it encodes all word chunks of an
utterance in one batch, then decodes them in order, each seeded with the
last poses of the one before.

A GRU cell is three parameters with the update (z), reset (r) and
candidate (h) gates stacked along rows: `w (3H, in)`, `u (3H, H)` and
`b (3H,)`. Every weight enters a pass as stored, read through its
transpose; the encoder projects all timesteps' inputs with one GEMM per
layer and direction before the recurrence, and a decoder step's attention
scores the annotation projection made once per pass. A batch of word
sequences of different lengths runs as one zero-padded rollout: padded
steps carry the encoder state in both directions and get attention weight
exactly 0, so every row equals its own unpadded rollout.

`build_model` lays a model's parameters out once, in one `ParamStore`;
`stored_arrays` views that layout in checkpoint order, into which
`init_model` draws and from which a checkpoint saves and loads, drawing nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
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


def _cell_weights(cell):
    """A GRU cell's plain operands, bound once per pass: w^T, then the
    `autodiff._gru_cell` weight operands."""
    w, u, b = (p.value for p in cell)
    return (w.T, *ad._gru_blocks(u.T, b))


def _record_size(cfg: ModelConfig, batch: int, words: int):
    """The (float64, bool) entries that a train-mode pass of ``batch`` rows
    of ``words`` words takes from its `Workspace`: the dropped-out words;
    per encoder layer its output and per direction a zero start state and
    each step's state and gates; the annotation projection; the decoder's
    zero start state, each step's two cells' states and gates, the poses of
    the m + 1 emitting steps and each step's dropout mask."""
    hidden, steps = cfg.hidden, cfg.n_seed_poses + cfg.n_output_poses
    encoder = words * cfg.word_dim + 2 * (2 * words * hidden + 2 * (4 * words + 1) * hidden)
    decoder = (8 * steps + 1) * hidden + (cfg.n_output_poses + 1) * cfg.gesture_dim
    return batch * (encoder + words * cfg.att_dim + decoder), batch * steps * 3 * hidden


class Workspace:
    """Where train-mode passes keep their record: a float64 and a bool
    arena, allocated once for up to ``batch`` rows of up to ``words``
    words, and the ``encoder`` and ``decoder`` step lists. `forward_graph`
    rewinds it and carves a C-contiguous view, in order, for every array
    its `TrainPass` keeps, so that pass stays valid until the next
    `forward_graph` on the workspace. Whoever makes one owns it:
    `train_model` one per run, `forward_graph` without one its own."""

    def __init__(self, cfg: ModelConfig, batch: int, words: int):
        floats, flags = _record_size(cfg, batch, words)
        self._arenas = {np.dtype(np.float64): np.empty(floats), np.dtype(bool): np.empty(flags, dtype=bool)}
        self.rewind()

    def rewind(self):
        """Start the next pass at the front of both arenas, with empty step lists."""
        self._used = dict.fromkeys(self._arenas, 0)
        self.encoder, self.decoder = [], []

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        """The next ``shape`` entries of the ``dtype`` arena, uninitialised."""
        dtype = np.dtype(dtype)
        start, arena = self._used[dtype], self._arenas[dtype]
        end = start + math.prod(shape)
        if end > arena.size:
            raise InvalidConfig("the batch does not fit the training workspace")
        self._used[dtype] = end
        return arena[start:end].reshape(shape)


def _empty(ws, shape, dtype=np.float64) -> np.ndarray:
    """An uninitialised array: a view of the `Workspace` ``ws``, or fresh without one."""
    return np.empty(shape, dtype) if ws is None else ws.take(shape, dtype)


def _zeros(ws, shape) -> np.ndarray:
    """Zeros: a view of the `Workspace` ``ws``, or fresh without one."""
    out = _empty(ws, shape)
    out[...] = 0.0
    return out


def _cell_buffers(ws, shape):
    """The (h', zr, c) buffers in ``ws`` of one `autodiff._gru_cell` step
    from a ``shape`` (B, H) state (None without ``ws``: fresh arrays)."""
    if ws is None:
        return None
    batch, hidden = shape
    return ws.take(shape), ws.take((batch, 2 * hidden)), ws.take(shape)


def _keep_masks(lengths, s: int) -> list:
    """Per step t, the (B,) rows whose sequence still runs at t, or None
    when every row does (lengths None: no padding)."""
    if lengths is None:
        return [None] * s
    return [None if bool(np.all(lengths > t)) else lengths > t for t in range(s)]


def _dropout_scale(keep: np.ndarray, rate: float) -> np.ndarray:
    """Inverted dropout's multiplier from the bool mask ``keep`` (drawn as
    ``rng.random(shape) >= rate``): 0 on dropped entries, 1 / (1 - rate)
    elsewhere, so evaluation passes need no correction. The forward pass
    and `backward` both build it here, so both read the same bits."""
    return keep.astype(np.float64) / (1.0 - rate)


def _input_row(pre, context, scale):
    """The decoder's first-cell input x: the (B, H) pre-linear output next
    to the (B, 2H) attention context, times the dropout multiplier
    ``scale`` (None: no dropout), as a (B, 3H) row. The rollout builds it
    here and `backward` rebuilds it here, so both read the same bits."""
    x = np.concatenate([pre, context], axis=-1)
    if scale is not None:
        x *= scale
    return x


def _encode(model, inputs: np.ndarray, lengths=None, ws=None) -> np.ndarray:
    """(B, s, word_dim) embedded words -> annotations (B, s, 2H): per layer
    and direction one input projection for every step, then the recurrence,
    each cell's weights bound once. Row i has lengths[i] words followed by
    padding (None: no padding); padded steps carry the state in both
    directions, so the backward direction starts from zero at each row's
    last word. In train mode (``ws`` a `Workspace`) each layer's output
    and each step's input state and gates go into views of ``ws``, and
    each layer appends (its input, per direction each step's (h, (z, r,
    c))) to ``ws.encoder``."""
    batch, s, _ = inputs.shape
    hidden = model.cfg.hidden
    keep = _keep_masks(lengths, s)
    for layer in model.encoder:
        states, kept = _empty(ws, (batch, s, 2 * hidden)), []  # the layer's output, filled step by step
        for cell, reverse, half in zip(layer, (False, True), (slice(hidden), slice(hidden, None))):
            w_t, *kernel = _cell_weights(cell)
            gx = ad._affine(inputs, w_t)
            h = _zeros(ws, (batch, hidden))
            steps = [None] * s
            for t in range(s - 1, -1, -1) if reverse else range(s):
                out, z, r, c = ad._gru_cell(gx[:, t], h, *kernel, _cell_buffers(ws, h.shape))
                if ws is not None:
                    steps[t] = (h, (z, r, c))
                if keep[t] is not None:
                    np.copyto(out, h, where=~keep[t][:, None])  # padded rows carry h
                h = out
                states[:, t, half] = h
            kept.append(steps)
        if ws is not None:
            ws.encoder.append((inputs, kept))
        inputs = states
    return inputs


def _decoder(model, mask=None, rng=None, dropout=0.0, ws=None):
    """The decoder, every weight bound once per pass. A step is the
    pre-linear, attention of the top layer's previous state over the (B, s,
    2H) annotations (scored through their (B, s, A) projection plus
    ``mask``: 0 on words, -inf on padding), dropout at rate ``dropout`` on
    the first cell's input (masks drawn from ``rng``), the two GRU cells
    and, when it emits, the post-linear. The decoder warms on the (B, n, 10)
    seed poses, where only the last step emits (its pose feeds the first
    output step), then emits m poses, each feeding the next. In train mode
    (``ws`` a `Workspace`) each step writes its dropout mask as bools, each
    cell's gates as (z, r, c) and output state and its emitted pose into
    views of ``ws``, and appends to ``ws.decoder`` its previous poses, its
    mask and each cell's input state, gates and output state; it keeps no
    attention tanh, weights or context and no first-cell input x, which
    `backward` rebuilds from these through `autodiff._attend` and
    `_input_row`. Returns
    rollout(seed_poses, annotations, projected) -> ((B, m, 10) poses, (B,
    m, s) attention)."""
    w_query_t, v_col = model.att_query.value.T, model.att_score.value.reshape(-1, 1)
    pre_t, pre_b, post_t, post_b = model.pre_w.value.T, model.pre_b.value, model.post_w.value.T, model.post_b.value
    (w1_t, *cell1), (w2_t, *cell2) = (_cell_weights(cell) for cell in model.decoder)
    n = model.cfg.n_seed_poses

    def rollout(seed_poses, annotations, projected):
        batch, m, hidden = seed_poses.shape[0], model.cfg.n_output_poses, model.cfg.hidden
        h1 = h2 = _zeros(ws, (batch, hidden))
        poses, rows = np.empty((batch, m, post_b.shape[0])), np.empty((batch, m, projected.shape[1]))
        for k in range(n + m):
            prev = seed_poses[:, k] if k < n else pose
            pre = ad._affine(prev, pre_t, pre_b)
            context, weights, t = ad._attend(h2.dot(w_query_t), projected, v_col, annotations, mask)
            keep = scale = None
            if dropout > 0.0:
                keep = _empty(ws, (batch, w1_t.shape[0]), bool)
                np.greater_equal(rng.random(keep.shape), dropout, out=keep)  # one draw per entry of x
                scale = _dropout_scale(keep, dropout)
            x = _input_row(pre, context, scale)
            out1 = out2 = None
            if ws is not None:
                out1, out2 = _cell_buffers(ws, h1.shape), _cell_buffers(ws, h2.shape)
            h1_next, z1, r1, c1 = ad._gru_cell(ad._affine(x, w1_t), h1, *cell1, out1)
            h2_next, z2, r2, c2 = ad._gru_cell(ad._affine(h1_next, w2_t), h2, *cell2, out2)
            if ws is not None:
                ws.decoder.append((prev, keep, h1, (z1, r1, c1), h1_next, h2, (z2, r2, c2), h2_next))
            h1, h2 = h1_next, h2_next
            if k >= n - 1:
                pose = ad._affine(h2, post_t, post_b, None if ws is None else ws.take((batch, post_b.shape[0])))
            if k >= n:
                poses[:, k - n] = pose
                rows[:, k - n] = weights
        return poses, rows

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


@dataclass
class TrainPass:
    """What `backward` reads of one `forward_graph` pass: the encoder's
    keep masks and per-layer record (see `_encode`), the annotations with
    their (B, s, A) attention projection and score mask (None: no
    padding), each decoder step's intermediates (see `_decoder`) and the
    dropout rate that turns the decoder's recorded bool masks back into
    multipliers. It keeps no float dropout multiplier, and per
    decoder step no (B, s, A) attention tanh, no attention weights or
    context and no (B, 3H) first-cell input: `backward` rebuilds each from
    what the record keeps, one step at a time, through the call the
    forward step made it with.

    Its arrays, bar the caller's word and seed batches and the small keep
    and score masks, are views of the pass's `Workspace`: the pass stays
    valid until the next `forward_graph` on that workspace."""

    model: Seq2SeqModel
    keep: list
    encoder: list
    annotations: np.ndarray
    projected: np.ndarray
    mask: np.ndarray | None
    decoder: list
    dropout: float


def forward_graph(
    model: Seq2SeqModel,
    embedded: np.ndarray,
    seed_poses: np.ndarray,
    rng: np.random.Generator | None = None,
    lengths=None,
    dropout: float = 0.0,
    workspace: Workspace | None = None,
):
    """Batched train-mode rollout: ((B, m, 10) poses, (B, m, s) attention,
    the `TrainPass` that `backward` reads). embedded: (B, s, word_dim);
    seed_poses: (B, n, 10).

    ``lengths`` (B,) gives each row's word count when rows are zero-padded
    to s (None: every row has s words); each row's result equals its own
    unpadded rollout. Dropout at rate ``dropout`` drops the first GRU
    layer inputs of both encoder and decoder, drawing its masks from ``rng``
    (the encoder's first, then one per decoder step).

    The record goes into ``workspace``, ending the pass made on it before;
    without one the pass makes its own. Poses and attention are fresh.
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

    ws = Workspace(model.cfg, batch, s) if workspace is None else workspace
    ws.rewind()
    if dropout > 0.0:
        scale = _dropout_scale(rng.random(embedded.shape) >= dropout, dropout)
        embedded = np.multiply(embedded, scale, out=ws.take(embedded.shape))
    annotations = _encode(model, embedded, lengths, ws)
    projected = ad._affine(annotations, model.att_ann.value.T, out=ws.take((batch, s, model.cfg.att_dim)))
    poses, attention = _decoder(model, mask, rng, dropout, ws)(seed_poses, annotations, projected)
    run = TrainPass(model, _keep_masks(lengths, s), ws.encoder, annotations, projected, mask, ws.decoder, dropout)
    return poses, attention, run


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


def _u_blocks(u: Parameter, b: Parameter):
    """The blocks of u^T that a GRU cell's backward rule reads."""
    return ad._gru_blocks(u.value.T, b.value)[:2]


def _sum(*terms):
    """The terms that are not None added left to right (None if none is)."""
    total = None
    for term in terms:
        if term is not None:
            total = term if total is None else total + term
    return total


def backward(run: TrainPass, g_poses: np.ndarray):
    """Reverse pass of a train-mode pass: given d(loss)/d(poses) for its
    (B, m, 10) poses, add d(loss)/d(parameter) into every parameter's store
    gradient. Gradients add up across calls until the caller clears them.

    Walks the decoder steps in reverse, then each encoder layer's two
    directions, each step's ops in reverse, through the backward rules in
    `autodiff`. Every weight, the annotations and their projection take
    their terms in reverse order of the forward ops that made them, and a
    top-layer decoder state that emits a pose sums (its next step's cell
    carry + its post-linear) + its next step's attention query: the order
    the recorded graph summed in, so the gradients are its bits. A decoder
    step's dropout multiplier is built once, for its rebuilt input and that
    input's gradient.
    """
    model = run.model
    n, hidden = model.cfg.n_seed_poses, model.cfg.hidden
    (w1, u1, b1), (w2, u2, b2) = model.decoder
    blocks1, blocks2 = _u_blocks(u1, b1), _u_blocks(u2, b2)
    w_query_t, v = model.att_query.value.T, model.att_score.value
    v_col, pre_t, pre_b = v.reshape(-1, 1), model.pre_w.value.T, model.pre_b.value
    d_ann = d_proj = d_pose = d_h1 = d_h2 = d_query = None  # what step k + 1 sent back to step k
    for k in range(len(run.decoder) - 1, -1, -1):
        prev, keep, h1, gates1, h1_next, h2, gates2, h2_next = run.decoder[k]
        d_post = None
        if k >= n - 1:
            g = d_pose if k < n else _sum(g_poses[:, k - n], d_pose)
            d_post = ad._affine_backward(g, h2_next, model.post_w.value, model.post_w.grad, model.post_b.grad)
        d_h2 = _sum(d_h2, d_post, d_query)
        d_pre2, d_h2 = ad._gru_backward(d_h2, h2, *blocks2, gates2, u2.grad, b2.grad, with_dh=k > 0)
        d_h1 = _sum(d_h1, ad._affine_backward(d_pre2, h1_next, w2.value, w2.grad))
        d_pre1, d_h1 = ad._gru_backward(d_h1, h1, *blocks1, gates1, u1.grad, b1.grad, with_dh=k > 0)
        context, weights, t = ad._attend(h2.dot(w_query_t), run.projected, v_col, run.annotations, run.mask)
        scale = None if keep is None else _dropout_scale(keep, run.dropout)
        x = _input_row(ad._affine(prev, pre_t, pre_b), context, scale)
        d_x = ad._affine_backward(d_pre1, x, w1.value, w1.grad)
        if scale is not None:
            d_x *= scale  # a fresh product
        d_ann_k, d_proj_k, d_query = ad._attend_backward(
            d_x[:, hidden:], h2, w_query_t, v, run.annotations, weights, t, model.att_score.grad, model.att_query.grad, k > 0
        )
        if d_ann is None:
            d_ann, d_proj = d_ann_k, d_proj_k
        else:
            d_ann += d_ann_k
            d_proj += d_proj_k
        d_pose = ad._affine_backward(d_x[:, :hidden], prev, model.pre_w.value, model.pre_w.grad, model.pre_b.grad, k >= n)
    d_out = d_ann
    d_out += ad._affine_backward(d_proj, run.annotations, model.att_ann.value, model.att_ann.grad)  # made first, added last

    s, halves = run.annotations.shape[1], (slice(hidden), slice(hidden, None))
    for depth, (inputs, directions) in reversed(list(enumerate(run.encoder))):
        d_in = None
        for (w, u, b), steps, half, reverse in zip(model.encoder[depth], directions, halves, (False, True)):
            blocks, d_gx, d_h = _u_blocks(u, b), np.zeros(inputs.shape[:2] + (3 * hidden,)), None
            for i, step in enumerate(range(s) if reverse else range(s - 1, -1, -1)):  # the forward steps in reverse
                h, gates = steps[step]
                g = _sum(d_out[:, step, half], d_h)
                d_pre, d_h = ad._gru_backward(g, h, *blocks, gates, u.grad, b.grad, run.keep[step], i < s - 1)
                d_gx[:, step] += d_pre  # added onto zeros, as the reference graph does
            d_in = _sum(d_in, ad._affine_backward(d_gx, inputs, w.value, w.grad, with_dx=depth > 0))
        d_out = d_in
