"""Sequence-to-sequence gesture network.

A two-layer bidirectional GRU encoder reads embedded words; an additive
attention scorer and a two-layer GRU decoder with pre/post linear layers
emit gesture vectors autoregressively. The decoder is warmed on seed poses,
then generates a fixed number of poses, each feeding the next step. Of the
warm-up steps only the last runs the post-linear layer: its pose feeds the
first generated step, and no step reads the others'.

One plain-array pass serves both modes and writes every step into one
record: `_record_shapes` names each array a pass keeps, and a `Workspace`
carves a pass's C-contiguous views of them out of a float64 and a bool
arena. `_encode` and `_decoder` bind each weight's transpose, gate blocks
and bias slices once per pass and run the steps on the kernels
`autodiff._affine`, `_gru_cell` and `_attend`; step t of a cell writes its
gates into the cell's slot t % depth and its state once: an encoder step
into its column block of the layer output, a decoder step into the slot.
The modes differ only in the table. A train record (`forward_graph`)
keeps every step, the dropped-out words and the dropout masks, and
`backward` walks it in reverse through the kernels' backward rules into
the store's gradients; nothing records a graph. It leaves out the
decoder's attention and first-cell input, which `backward` rebuilds
through the calls the forward step made (`autodiff._attend`,
`_input_row`), so the gradients keep their bits. An eval record
(`forward`) keeps one encoder slot, two decoder slots and one decoder
row: `forward` encodes all word chunks of an utterance in one batch, then
decodes them in order on that row, each seeded with the last poses of the
one before.

A GRU cell is three parameters with the update (z), reset (r) and
candidate (h) gates stacked along rows: `w (3H, in)`, `u (3H, H)` and
`b (3H,)`. Every weight enters a pass as stored, read through its
transpose; the encoder projects all timesteps' inputs with one GEMM per
layer and direction before the recurrence, and a decoder step's attention
scores the annotation projection made once per pass. Both modes take a
batch of word sequences of different lengths as `text.EmbeddingTable.embed`
makes it, zero-padded with its lengths, and run it as one rollout: padded
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


def _record_shapes(cfg: ModelConfig, batch: int, words: int, train: bool) -> dict:
    """The (shape, dtype) of each array that a pass of ``batch`` rows of
    ``words`` words keeps, by name, in arena order: the zero start state,
    the input projection ``gx`` that each encoder layer and direction fills
    in turn, each encoder layer's output (the one copy of its states), per
    cell and step its stacked (z, r) and candidate gates (``enc_*``,
    ``dec_*``) and a decoder cell's state, the annotation projection and
    the m + 1 emitted poses. A train record keeps every step, the
    dropped-out words and each decoder step's dropout mask as bools; an
    eval record keeps one step slot that all encoder cells share and two
    per decoder cell, in one row that every chunk reuses."""
    hidden, steps, f64 = cfg.hidden, cfg.n_seed_poses + cfg.n_output_poses, np.dtype(np.float64)
    if train:
        enc, dec, rows = (2, 2, words), steps, batch
    else:
        enc, dec, rows = (1, 1, 1), 2, 1
    shapes = {
        "zero": (batch, hidden),
        "gx": (batch, words, 3 * hidden),
        "enc_out": (2, batch, words, 2 * hidden),
        "enc_zr": (*enc, batch, 2 * hidden),
        "enc_c": (*enc, batch, hidden),
        "projected": (batch, words, cfg.att_dim),
        "dec_h": (2, dec, rows, hidden),
        "dec_zr": (2, dec, rows, 2 * hidden),
        "dec_c": (2, dec, rows, hidden),
        "pose": (cfg.n_output_poses + 1, rows, cfg.gesture_dim),
    }
    table = {name: (shape, f64) for name, shape in shapes.items()}
    if train:
        table |= {"words": ((batch, words, cfg.word_dim), f64), "keep": ((steps, batch, 3 * hidden), np.dtype(bool))}
    return table


class Workspace:
    """Where passes keep their record: a float64 and a bool arena for up to
    ``batch`` rows of up to ``words`` words of a train (``train``) or eval
    `_record_shapes` table. Each `carve` starts a pass at the front of both
    arenas, ending the last one. Whoever makes one owns it: `train_model`
    one per run, `forward_graph` without one and `forward` their own."""

    def __init__(self, cfg: ModelConfig, batch: int, words: int, train: bool = True):
        self._cfg, self._train = cfg, train
        sizes = dict.fromkeys((np.dtype(np.float64), np.dtype(bool)), 0)
        for shape, dtype in _record_shapes(cfg, batch, words, train).values():
            sizes[dtype] += math.prod(shape)
        self._arenas = {dtype: np.empty(size, dtype) for dtype, size in sizes.items()}

    def carve(self, batch: int, words: int) -> dict:
        """A pass's record for ``batch`` rows of ``words`` words: by name, a
        C-contiguous view of an arena per `_record_shapes` entry, cut in
        order from its front; every view is uninitialised but the zero
        state."""
        used, record = dict.fromkeys(self._arenas, 0), {}
        for name, (shape, dtype) in _record_shapes(self._cfg, batch, words, self._train).items():
            start, arena = used[dtype], self._arenas[dtype]
            used[dtype] = end = start + math.prod(shape)
            record[name] = arena[start:end].reshape(shape)
        record["zero"][...] = 0.0
        return record


def _keep_masks(lengths, s: int) -> list:
    """Per step t, the (B,) rows whose sequence still runs at t, or None
    when every row does."""
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


def _encode(model, inputs: np.ndarray, lengths, record) -> np.ndarray:
    """(B, s, word_dim) embedded words -> annotations (B, s, 2H), the last
    layer's ``enc_out`` in ``record``: per layer and direction one input
    projection for every step into ``gx``, then the recurrence, step t
    writing its gates into slot t % depth and its state once, into its
    column block ``enc_out[layer][:, t, half]``. Row i has lengths[i]
    words followed by padding; padded steps carry the state in both
    directions, so the backward direction starts from zero at each row's
    last word."""
    s = inputs.shape[1]
    hidden = model.cfg.hidden
    keep = _keep_masks(lengths, s)
    halves, gx = (slice(hidden), slice(hidden, None)), record["gx"]
    buffers = [record[k] for k in ("enc_zr", "enc_c")]  # eval: all cells share one slot
    for i, (layer, states) in enumerate(zip(model.encoder, record["enc_out"])):
        for d, (cell, reverse, half) in enumerate(zip(layer, (False, True), halves)):
            w_t, *kernel = _cell_weights(cell)
            ad._affine(inputs, w_t, None, gx)
            h, slots = record["zero"], list(zip(*(b[i % len(b), d % len(b[0])] for b in buffers)))
            for t in range(s - 1, -1, -1) if reverse else range(s):
                out, (zr, c) = states[:, t, half], slots[t % len(slots)]
                ad._gru_cell(gx[:, t], h, *kernel, out, zr, c)
                if keep[t] is not None:
                    np.copyto(out, h, where=~keep[t][:, None])  # padded rows carry h
                h = out
        inputs = states
    return inputs


def _decoder(model, record, mask=None, rng=None, dropout=0.0):
    """The decoder, every weight bound once per pass. A step is the
    pre-linear, attention of the top layer's previous state over the (B, s,
    2H) annotations (scored through their (B, s, A) projection plus
    ``mask``: 0 on words, -inf on padding), dropout at rate ``dropout`` on
    the first cell's input (masks drawn from ``rng`` into the record's
    ``keep``), the two GRU cells and, when it emits, the post-linear into
    the record's ``pose`` rows. The decoder warms on the (B, n, 10) seed
    poses, where only the last step emits (its pose feeds the first output
    step), then emits m poses, each feeding the next. Step k writes each
    cell's state and gates into slot k % depth of ``record``. Returns
    rollout(seed_poses, annotations, projected) -> (fresh (B, m, 10) poses,
    fresh (B, m, s) attention)."""
    w_query_t, v_col = model.att_query.value.T, model.att_score.value.reshape(-1, 1)
    pre_t, pre_b, post_t, post_b = model.pre_w.value.T, model.pre_b.value, model.post_w.value.T, model.post_b.value
    (w1_t, *cell1), (w2_t, *cell2) = (_cell_weights(cell) for cell in model.decoder)
    (h1s, h2s), (zr1s, zr2s), (c1s, c2s) = record["dec_h"], record["dec_zr"], record["dec_c"]
    steps, emitted = list(zip(h1s, zr1s, c1s, h2s, zr2s, c2s)), list(record["pose"])  # cut once, for every chunk
    n = model.cfg.n_seed_poses

    def rollout(seed_poses, annotations, projected):
        batch, m = seed_poses.shape[0], model.cfg.n_output_poses
        h1 = h2 = record["zero"][:batch]
        rows = np.empty((batch, m, projected.shape[1]))
        for k in range(n + m):
            h1_next, zr1, c1, h2_next, zr2, c2 = steps[k % len(steps)]
            prev = seed_poses[:, k] if k < n else pose
            pre = ad._affine(prev, pre_t, pre_b)
            context, weights, t = ad._attend(h2.dot(w_query_t), projected, v_col, annotations, mask)
            scale = None
            if dropout > 0.0:
                keep = record["keep"][k]
                np.greater_equal(rng.random(keep.shape), dropout, out=keep)  # one draw per entry of x
                scale = _dropout_scale(keep, dropout)
            x = _input_row(pre, context, scale)
            ad._gru_cell(ad._affine(x, w1_t), h1, *cell1, h1_next, zr1, c1)
            ad._gru_cell(ad._affine(h1_next, w2_t), h2, *cell2, h2_next, zr2, c2)
            h1, h2 = h1_next, h2_next
            if k >= n - 1:
                pose = ad._affine(h2, post_t, post_b, emitted[k - n + 1])
            if k >= n:
                rows[:, k - n] = weights
        return record["pose"][1:].swapaxes(0, 1).copy(), rows

    return rollout


def _check_word_dim(model, embedded: np.ndarray):
    """Refuse a (B, s, D) word batch whose width D is not the model's
    word_dim: an embedding table of the wrong width."""
    if embedded.shape[2] != model.cfg.word_dim:
        raise InvalidConfig(f"word dim {embedded.shape[2]} != {model.cfg.word_dim}")


@dataclass
class TrainPass:
    """What `backward` reads of one `forward_graph` pass: its train record
    (see `_record_shapes`), the encoder's first-layer input (the record's
    dropped-out words, or the caller's words without dropout), the caller's
    seed poses, the encoder's keep masks, the attention score mask (None: no
    padding) and the dropout rate. It stays valid until the next
    `forward_graph` on its `Workspace`."""

    model: Seq2SeqModel
    record: dict
    inputs: np.ndarray
    seed_poses: np.ndarray
    keep: list
    mask: np.ndarray | None
    dropout: float


def forward_graph(
    model: Seq2SeqModel,
    embedded: np.ndarray,
    seed_poses: np.ndarray,
    lengths,
    rng: np.random.Generator | None = None,
    dropout: float = 0.0,
    workspace: Workspace | None = None,
):
    """Batched train-mode rollout: ((B, m, 10) poses, (B, m, s) attention,
    the `TrainPass` that `backward` reads). embedded: (B, s, word_dim);
    seed_poses: (B, n, 10).

    ``lengths`` (B,) gives each row's word count, its words followed by
    zero padding to s; each row's result equals its own unpadded rollout.
    Dropout at rate ``dropout`` drops the first GRU layer inputs of both
    encoder and decoder, drawing its masks from ``rng`` (the encoder's
    first, then one per decoder step).

    The record goes into the train ``workspace``, ending its last pass;
    without one the pass makes its own. Poses and attention are fresh.
    """
    embedded = np.asarray(embedded, dtype=np.float64)
    seed_poses = np.asarray(seed_poses, dtype=np.float64)
    _check_word_dim(model, embedded)
    batch, s, _ = embedded.shape
    lengths, mask = np.asarray(lengths), None
    if np.any(lengths < s):
        mask = np.where(np.arange(s) < lengths[:, None], 0.0, -np.inf)

    record = (Workspace(model.cfg, batch, s) if workspace is None else workspace).carve(batch, s)
    if dropout > 0.0:
        scale = _dropout_scale(rng.random(embedded.shape) >= dropout, dropout)
        embedded = np.multiply(embedded, scale, out=record["words"])
    annotations = _encode(model, embedded, lengths, record)
    projected = ad._affine(annotations, model.att_ann.value.T, None, record["projected"])
    poses, attention = _decoder(model, record, mask, rng, dropout)(seed_poses, annotations, projected)
    return poses, attention, TrainPass(model, record, embedded, seed_poses, _keep_masks(lengths, s), mask, dropout)


def forward(model, embedded, seed_poses, lengths):
    """Eval-mode rollout of an utterance: embedded is the (B, s, word_dim)
    zero-padded batch of its B word chunks, ``lengths`` their (B,) word
    counts (`text.EmbeddingTable.embed` makes both), seed_poses the first
    chunk's (n, 10) seeds. Every chunk is encoded in one batch; the decoder
    then runs chunk by chunk on that chunk's own s_i annotations, each chunk
    after the first seeded with the last n poses before it. The record is
    one eval-mode `Workspace` that the call makes. Returns one (poses (m,
    10), attention (m, s_i)) pair of fresh arrays per chunk."""
    embedded, lengths = np.asarray(embedded, dtype=np.float64), np.asarray(lengths)
    seeds = np.asarray(seed_poses, dtype=np.float64)[None]
    _check_word_dim(model, embedded)
    batch, s = embedded.shape[:2]
    record = Workspace(model.cfg, batch, s, train=False).carve(batch, s)
    annotations = _encode(model, embedded, lengths, record)
    projected = ad._affine(annotations, model.att_ann.value.T, None, record["projected"])
    rollout = _decoder(model, record)
    rollouts = []
    for row, s in enumerate(lengths):
        poses, attn = rollout(seeds, annotations[row : row + 1, :s], projected[row : row + 1, :s])
        rollouts.append((poses[0], attn[0]))
        seeds = np.concatenate([seeds, poses], axis=1)[:, -model.cfg.n_seed_poses :]
    return rollouts


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
    model, record = run.model, run.record
    n, hidden = model.cfg.n_seed_poses, model.cfg.hidden
    (w1, u1, b1), (w2, u2, b2) = model.decoder
    blocks1, blocks2 = (_cell_weights(cell)[1:3] for cell in model.decoder)
    w_query_t, v = model.att_query.value.T, model.att_score.value
    v_col, pre_t, pre_b = v.reshape(-1, 1), model.pre_w.value.T, model.pre_b.value
    annotations, projected, zero = record["enc_out"][1], record["projected"], record["zero"]
    (h1s, h2s), (zr1s, zr2s), (c1s, c2s), pose_rows = record["dec_h"], record["dec_zr"], record["dec_c"], record["pose"]
    d_ann = d_proj = d_pose = d_h1 = d_h2 = d_query = None  # what step k + 1 sent back to step k
    for k in range(len(h1s) - 1, -1, -1):
        prev = run.seed_poses[:, k] if k < n else pose_rows[k - n]
        h1, h2 = (h1s[k - 1], h2s[k - 1]) if k > 0 else (zero, zero)
        d_post = None
        if k >= n - 1:
            g = d_pose if k < n else _sum(g_poses[:, k - n], d_pose)
            d_post = ad._affine_backward(g, h2s[k], model.post_w.value, model.post_w.grad, model.post_b.grad)
        d_h2 = _sum(d_h2, d_post, d_query)
        d_pre2, d_h2 = ad._gru_backward(d_h2, h2, *blocks2, zr2s[k], c2s[k], u2.grad, b2.grad, with_dh=k > 0)
        d_h1 = _sum(d_h1, ad._affine_backward(d_pre2, h1s[k], w2.value, w2.grad))
        d_pre1, d_h1 = ad._gru_backward(d_h1, h1, *blocks1, zr1s[k], c1s[k], u1.grad, b1.grad, with_dh=k > 0)
        context, weights, t = ad._attend(h2.dot(w_query_t), projected, v_col, annotations, run.mask)
        scale = _dropout_scale(record["keep"][k], run.dropout) if run.dropout > 0.0 else None
        x = _input_row(ad._affine(prev, pre_t, pre_b), context, scale)
        d_x = ad._affine_backward(d_pre1, x, w1.value, w1.grad)
        if scale is not None:
            d_x *= scale  # a fresh product
        d_ann_k, d_proj_k, d_query = ad._attend_backward(
            d_x[:, hidden:], h2, w_query_t, v, annotations, weights, t, model.att_score.grad, model.att_query.grad, k > 0
        )
        if d_ann is None:
            d_ann, d_proj = d_ann_k, d_proj_k
        else:
            d_ann += d_ann_k
            d_proj += d_proj_k
        d_pose = ad._affine_backward(d_x[:, :hidden], prev, model.pre_w.value, model.pre_w.grad, model.pre_b.grad, k >= n)
    d_out = d_ann
    d_out += ad._affine_backward(d_proj, annotations, model.att_ann.value, model.att_ann.grad)  # made first, added last

    s, halves = annotations.shape[1], (slice(hidden), slice(hidden, None))
    for depth, inputs in ((1, record["enc_out"][0]), (0, run.inputs)):
        d_in, states = None, record["enc_out"][depth]
        cells = zip(model.encoder[depth], record["enc_zr"][depth], record["enc_c"][depth], halves, (False, True))
        for (w, u, b), zrs, cs, half, reverse in cells:
            blocks, d_gx, d_h = _cell_weights((w, u, b))[1:3], np.zeros(inputs.shape[:2] + (3 * hidden,)), None
            for i, step in enumerate(range(s) if reverse else range(s - 1, -1, -1)):  # the forward steps in reverse
                h = zero if i == s - 1 else states[:, step + 1 if reverse else step - 1, half]  # the state the step started from
                g = _sum(d_out[:, step, half], d_h)
                d_pre, d_h = ad._gru_backward(g, h, *blocks, zrs[step], cs[step], u.grad, b.grad, run.keep[step], i < s - 1)
                d_gx[:, step] += d_pre  # added onto zeros, as the reference graph does
            d_in = _sum(d_in, ad._affine_backward(d_gx, inputs, w.value, w.grad, with_dx=depth > 0))
        d_out = d_in
