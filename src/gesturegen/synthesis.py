"""Long-text generation: chunk planning, chained inference, and timing.

The network emits a fixed number of poses per inference, so long text is
split into word chunks sized from the speech duration at 12 frames per
second. Each chunk's generation is seeded with the previous chunk's last
poses so the concatenated track stays continuous, and the final track is
uniformly resampled to the exact speech duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, MalformedFile, open_for_write
from .model import Seq2SeqModel, forward

DEFAULT_FPS = 12.0  # the one frame rate of records, tracks and the decoder
DEFAULT_WORDS_PER_MINUTE = 160.0
MAX_SPEECH_SECONDS = 86400.0  # one day; align_track allocates frames per second of speech


@dataclass(frozen=True)
class ChunkPlan:
    word_count: int
    words_per_chunk: int
    chunks: tuple  # tuple of token tuples, in order, partitioning the text
    speech_duration: float


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


def estimate_speech_duration(tokens, words_per_minute: float = DEFAULT_WORDS_PER_MINUTE) -> float:
    """Duration stub standing in for a synthesizer-reported value; callers
    with a measured duration should pass it directly to plan_chunks."""
    if not tokens:
        raise InvalidConfig("cannot estimate duration of empty text")
    if words_per_minute <= 0:
        raise InvalidConfig("speech rate must be positive")
    return len(tokens) * 60.0 / words_per_minute


def plan_chunks(tokens, speech_duration: float, n: int = 10, m: int = 20) -> ChunkPlan:
    """Words per chunk: floor(S * (m + n) / DEFAULT_FPS / duration),
    clamped into [1, S]; the text splits into consecutive chunks of that
    size with the last one possibly shorter."""
    tokens = list(tokens)
    if not tokens:
        raise InvalidConfig("cannot plan chunks for empty text")
    if not math.isfinite(speech_duration):
        raise InvalidConfig(f"speech duration must be finite, got {speech_duration}")
    if speech_duration <= 0:
        raise InvalidConfig(f"speech duration must be positive, got {speech_duration}")
    total = len(tokens)
    size = math.floor(total * (m + n) * (1.0 / DEFAULT_FPS) / speech_duration)
    size = max(1, min(size, total))
    chunks = tuple(tuple(tokens[i : i + size]) for i in range(0, total, size))
    return ChunkPlan(
        word_count=total, words_per_chunk=size, chunks=chunks, speech_duration=float(speech_duration)
    )


def generate_gesture(model: Seq2SeqModel, plan: ChunkPlan, table):
    """Run one inference per chunk and concatenate.

    The first chunk is seeded with the mean pose (zero vectors); every later
    chunk is seeded with the previous chunk's last n generated poses.
    Returns (TimedPoseTrack, list of per-chunk attention matrices (m, s_i)).
    """
    if model is None:
        raise InvalidConfig("no model provided")
    n = model.cfg.n_seed_poses
    dim = model.cfg.gesture_dim
    seeds = np.zeros((n, dim))
    all_frames = []
    maps = []
    for chunk in plan.chunks:
        embedded = np.stack([table.lookup(w) for w in chunk])
        poses, attn = forward(model, embedded, seeds)
        all_frames.append(poses)
        maps.append(attn)
        tail = np.concatenate([seeds, poses])[-n:]
        seeds = tail
    track = TimedPoseTrack(frames=np.concatenate(all_frames))
    return track, maps


def align_track(track: TimedPoseTrack, speech_duration: float) -> TimedPoseTrack:
    """Uniformly rescale the track in time (linear interpolation) so it has
    ceil(duration * DEFAULT_FPS) frames. First and last poses are preserved
    exactly; a track already at the right length comes back unchanged."""
    if len(track) == 0:
        raise InvalidConfig("cannot align an empty track")
    if not math.isfinite(speech_duration):
        raise InvalidConfig(f"speech duration must be finite, got {speech_duration}")
    if speech_duration > MAX_SPEECH_SECONDS:
        raise InvalidConfig(f"speech duration must be at most {MAX_SPEECH_SECONDS:g} s, got {speech_duration}")
    if speech_duration <= 0:
        raise InvalidConfig(f"speech duration must be positive, got {speech_duration}")
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
    word span are zero."""
    if len(maps) != len(chunks):
        raise InvalidConfig("one attention map per chunk required")
    total_rows = sum(m.shape[0] for m in maps)
    total_cols = sum(len(c) for c in chunks)
    out = np.zeros((total_rows, total_cols))
    r = c = 0
    for attn, chunk in zip(maps, chunks):
        rows, cols = attn.shape
        if cols != len(chunk):
            raise InvalidConfig(f"attention has {cols} columns for a {len(chunk)}-word chunk")
        out[r : r + rows, c : c + cols] = attn
        r += rows
        c += cols
    return out


def export_attention(maps, chunks, path) -> np.ndarray:
    """Write the assembled attention matrix as CSV with word-surface column
    headers. Returns the matrix. A non-finite entry is refused before the
    file is opened."""
    matrix = assemble_attention(maps, chunks)
    if not np.isfinite(matrix).all():
        raise InvalidConfig("attention matrix has non-finite values")
    words = [w for chunk in chunks for w in chunk]
    with open_for_write(path, "attention file") as fh:
        fh.write(",".join(words) + "\n")
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return matrix


def save_track_csv(track: TimedPoseTrack, path, columns=None):
    """Track CSV: header t_s then the column names (default c1..cD), one
    row per frame. load_track_csv reads back every non-empty file written here.
    A frame with a non-finite value is refused before the file is opened."""
    finite = np.isfinite(track.frames).all(axis=1)
    if not finite.all():
        raise InvalidConfig(f"track frame {int(np.argmin(finite))} has non-finite values")
    if columns is None:
        columns = [f"c{i + 1}" for i in range(track.frames.shape[1])]
    header = "t_s," + ",".join(columns)
    with open_for_write(path, "track file") as fh:
        fh.write(header + "\n")
        for i, row in enumerate(track.frames):
            fh.write(repr(float(i / DEFAULT_FPS)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def load_track_csv(path) -> TimedPoseTrack:
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            if not header.startswith("t_s,"):
                raise MalformedFile(f"{path}: missing t_s header")
            for line_no, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                try:
                    row = [float(f) for f in fields[1:]]
                except ValueError:
                    raise MalformedFile(f"{path}: non-numeric value on line {line_no}") from None
                if not all(map(math.isfinite, row)):
                    raise MalformedFile(f"{path}: non-finite value on line {line_no}")
                rows.append(row)
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedFile(f"cannot read track file: {exc}") from exc
    if not rows:
        raise MalformedFile(f"{path}: no frames")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise MalformedFile(f"{path}: inconsistent column counts")
    return TimedPoseTrack(frames=np.array(rows))
