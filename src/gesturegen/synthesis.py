"""Long-text generation: chunk planning, chained inference, and timing.

The network emits a fixed number of poses per inference, so long text is
split into word chunks sized from the speech duration at 12 frames per
second. One model pass encodes every chunk of an utterance; each chunk's
decoding is seeded with the previous chunk's last poses so the concatenated
track stays continuous, and the final track is uniformly resampled to the
exact speech duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, open_for_write, read_rows, write_rows
from .model import Seq2SeqModel, forward

DEFAULT_FPS = 12.0  # the one frame rate of records, tracks and the decoder
MAX_SPEECH_SECONDS = 86400.0  # one day; align_track allocates frames per second of speech


@dataclass(frozen=True)
class ChunkPlan:
    words_per_chunk: int
    chunks: tuple  # tuple of token tuples, in order, partitioning the text


@dataclass(frozen=True)
class TimedPoseTrack:
    """Per-frame rows at DEFAULT_FPS: gesture vectors from synthesis, joint
    angles from retargeting."""

    frames: np.ndarray  # (T, gesture_dim) or (T, 12) joint angles

    def __post_init__(self):
        object.__setattr__(self, "frames", np.asarray(self.frames, dtype=np.float64))

    @property
    def duration(self) -> float:
        return self.frames.shape[0] / DEFAULT_FPS

    def __len__(self):
        return self.frames.shape[0]


def estimate_speech_duration(tokens, words_per_minute: float) -> float:
    """Duration stub standing in for a synthesizer-reported value; callers
    with a measured duration should pass it directly to plan_chunks."""
    if not tokens:
        raise InvalidConfig("cannot estimate duration of empty text")
    return len(tokens) * 60.0 / words_per_minute


def _check_duration(speech_duration: float):
    if not math.isfinite(speech_duration):
        raise InvalidConfig(f"speech duration must be finite, got {speech_duration}")
    if speech_duration <= 0:
        raise InvalidConfig(f"speech duration must be positive, got {speech_duration}")
    if speech_duration > MAX_SPEECH_SECONDS:
        raise InvalidConfig(f"speech duration must be at most {MAX_SPEECH_SECONDS:g} s, got {speech_duration}")


def plan_chunks(tokens, speech_duration: float, n: int, m: int) -> ChunkPlan:
    """Words per chunk: floor(S * (m + n) / DEFAULT_FPS / duration),
    clamped into [1, S] (the upper clamp comes first, so a tiny duration
    gives one chunk of all S words); the text splits into consecutive
    chunks of that size with the last one possibly shorter."""
    tokens = list(tokens)
    if not tokens:
        raise InvalidConfig("cannot plan chunks for empty text")
    _check_duration(speech_duration)
    total = len(tokens)
    size = max(1, math.floor(min(total, total * (m + n) * (1.0 / DEFAULT_FPS) / speech_duration)))
    chunks = tuple(tuple(tokens[i : i + size]) for i in range(0, total, size))
    return ChunkPlan(words_per_chunk=size, chunks=chunks)


def generate_gesture(model: Seq2SeqModel, plan: ChunkPlan, table):
    """Roll out every chunk of the plan with one `model.forward` call, which
    encodes the utterance's chunks once, as one batch.

    The first chunk is seeded with the mean pose (zero vectors); every later
    chunk is seeded with the previous chunk's last n generated poses.
    Returns (TimedPoseTrack, list of per-chunk attention matrices (m, s_i)).
    """
    if model is None:
        raise InvalidConfig("no model provided")
    seeds = np.zeros((model.cfg.n_seed_poses, model.cfg.gesture_dim))
    chunks = [np.stack([table.lookup(w) for w in chunk]) for chunk in plan.chunks]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # save_track_csv and export_attention report these
        rollouts = forward(model, chunks, seeds)
    return TimedPoseTrack(frames=np.concatenate([poses for poses, _ in rollouts])), [attn for _, attn in rollouts]


def align_track(track: TimedPoseTrack, speech_duration: float) -> TimedPoseTrack:
    """Uniformly rescale the track in time (linear interpolation) so it has
    ceil(duration * DEFAULT_FPS) frames. First and last poses are preserved
    exactly; a track already at the right length comes back unchanged."""
    if len(track) == 0:
        raise InvalidConfig("cannot align an empty track")
    _check_duration(speech_duration)
    target = int(math.ceil(speech_duration * DEFAULT_FPS))
    source = len(track)
    if target == source:
        return TimedPoseTrack(frames=track.frames.copy())
    if source == 1:
        return TimedPoseTrack(frames=np.repeat(track.frames, target, axis=0))
    if target == 1:
        return TimedPoseTrack(frames=track.frames[:1].copy())
    positions = np.linspace(0.0, source - 1, target)
    lo = np.floor(positions).astype(int)
    lo = np.minimum(lo, source - 2)
    frac = (positions - lo)[:, None]
    frames = (1.0 - frac) * track.frames[lo] + frac * track.frames[lo + 1]
    frames[0] = track.frames[0]
    frames[-1] = track.frames[-1]
    return TimedPoseTrack(frames=frames)


def assemble_attention(maps, chunks) -> np.ndarray:
    """Block-diagonal attention over the whole utterance: rows are generated
    frames in order, columns are words in order; entries outside a chunk's
    word span are zero. Every chunk has at least one word."""
    if len(maps) != len(chunks):
        raise InvalidConfig("one attention map per chunk required")
    total_rows = sum(m.shape[0] for m in maps)
    total_cols = sum(len(c) for c in chunks)
    out = np.zeros((total_rows, total_cols))
    r = c = 0
    for attn, chunk in zip(maps, chunks):
        rows, cols = attn.shape
        if not len(chunk):
            raise InvalidConfig("attention chunk has no words")
        if cols != len(chunk):
            raise InvalidConfig(f"attention has {cols} columns for a {len(chunk)}-word chunk")
        out[r : r + rows, c : c + cols] = attn
        r += rows
        c += cols
    return out


def export_attention(maps, chunks, path) -> np.ndarray:
    """Write the `assemble_attention` matrix as CSV: a header of word
    surfaces, then one row per generated frame. A chunk's rows are written
    as its own weights between runs of "0.0" for the words before and after
    it, the bytes `write_rows` gives for the dense matrix, so no zero outside
    a chunk is formatted. A non-finite weight is refused, naming its row,
    before the file is opened. Returns the dense matrix, which the benchmark
    checks."""
    matrix = assemble_attention(maps, chunks)
    first = 0
    for attn in maps:
        finite = np.isfinite(attn).all(axis=1)
        if not finite.all():
            raise InvalidConfig(f"attention file row {first + int(np.argmin(finite))} has non-finite values")
        first += len(attn)
    before, after = 0, matrix.shape[1]
    with open_for_write(path, "attention file") as fh:
        fh.write(",".join(w for chunk in chunks for w in chunk) + "\n")
        for attn, chunk in zip(maps, chunks):
            after -= len(chunk)
            prefix, suffix = "0.0," * before, ",0.0" * after
            fh.write("".join([prefix + ",".join(map(repr, row)) + suffix + "\n" for row in attn.tolist()]))
            before += len(chunk)
    return matrix


def save_track_csv(track: TimedPoseTrack, path, columns=None):
    """Track CSV: header t_s then the column names (default c1..cD), one
    row per frame. load_track_csv reads back every non-empty file written here.
    A frame with a non-finite value is refused before the file is opened."""
    if columns is None:
        columns = [f"c{i + 1}" for i in range(track.frames.shape[1])]
    times = [repr(i / DEFAULT_FPS) for i in range(len(track))]
    write_rows(path, "track file", track.frames, header=",".join(["t_s", *columns]), labels=times)


def load_track_csv(path) -> TimedPoseTrack:
    """A track CSV written by save_track_csv; its t_s column is ignored."""
    return TimedPoseTrack(frames=read_rows(path, "track file", header="t_s,", labels=True)[1])
