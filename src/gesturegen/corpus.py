"""Dataset records, shot-curation filters, and the synthetic corpus.

A record holds a raw pixel-space pose track at synthesis.DEFAULT_FPS, one
(T, 8, 2) float64 array (y down, JOINT_NAMES order) in which an undetected
joint is a NaN row, with word-level transcript timestamps. Curation keeps
only shots that look like usable frontal upper-body footage: every joint
visible, figure large in frame, roughly frontal, at least five seconds
long, actually moving, and not jittering; each rule is one array
expression over the record.

The synthetic corpus generator stands in for real footage at desk scale:
a small template grammar where certain keywords drive parametric gesture
prototypes (arm spread for "big", hands drawn together for "small", a
widening arc for "all", a single-arm reach for "you"/"me"), rendered to
pixel-space pose frames at 12 fps with mild seeded wobble.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import finite_number
from .errors import InvalidConfig, MalformedFile, open_for_write
from .pose import HEAD, L_ELBOW, L_SHOULDER, L_WRIST, NECK, R_ELBOW, R_SHOULDER, R_WRIST, rowdot
from .synthesis import DEFAULT_FPS


@dataclass(frozen=True)
class WordSpan:
    surface: str
    t_start: float
    t_end: float

    def __post_init__(self):
        if not isinstance(self.surface, str) or not self.surface:
            raise InvalidConfig(f"word surface must be a non-empty string, got {self.surface!r}")
        if not (finite_number(self.t_start) and finite_number(self.t_end)):
            raise InvalidConfig(f"word {self.surface!r} needs finite times, got {self.t_start!r} to {self.t_end!r}")
        if self.t_end < self.t_start:
            raise InvalidConfig(f"word {self.surface!r} ends before it starts")


@dataclass
class DatasetRecord:
    id: str
    frame_height: float
    words: list  # of WordSpan, starts non-decreasing
    frames: np.ndarray  # (T, 8, 2) pixels, NaN rows for undetected joints

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise InvalidConfig(f"record id must be a non-empty string, got {self.id!r}")
        if not (finite_number(self.frame_height) and self.frame_height > 0):
            raise InvalidConfig(f"frame height must be a finite positive number, got {self.frame_height!r}")
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.shape[1:] != (8, 2) or len(self.frames) == 0:
            raise InvalidConfig(f"record needs (T >= 1, 8, 2) frames, got {self.frames.shape}")
        if np.isinf(self.frames).any():
            raise InvalidConfig("joint coordinates must be finite or NaN")
        absent = np.isnan(self.frames)
        if (absent[..., 0] != absent[..., 1]).any():
            raise InvalidConfig("a joint has exactly one NaN coordinate")
        starts = [w.t_start for w in self.words]
        if any(b < a for a, b in zip(starts, starts[1:])):
            raise InvalidConfig("word timestamps must be non-decreasing")

    @property
    def duration(self) -> float:
        return len(self.frames) / DEFAULT_FPS


# Shot-curation thresholds
MIN_SIZE_RATIO = 0.5  # mean upper-body height over frame height
MIN_FRONTAL_RATIO = 0.25  # shoulder width over upper-body height
MIN_DURATION = 5.0  # seconds
MIN_MOTION = 0.2  # mean inter-frame joint displacement, pixels
MAX_JITTER = 30.0  # 99th-percentile inter-frame displacement, pixels


def _norm(v):
    """Euclidean lengths of (..., 2) vectors."""
    return np.sqrt(rowdot(v, v))


def _first_violation(rec: DatasetRecord):
    frames = rec.frames
    if np.isnan(frames).any():
        return "visibility"
    neck = frames[:, NECK]
    wrist = np.maximum(_norm(frames[:, L_WRIST] - neck), _norm(frames[:, R_WRIST] - neck))
    heights = _norm(frames[:, HEAD] - neck) + wrist  # upper-body height per frame
    if heights.mean() <= MIN_SIZE_RATIO * rec.frame_height:
        return "size"
    widths = _norm(frames[:, L_SHOULDER] - frames[:, R_SHOULDER])
    if widths.mean() <= MIN_FRONTAL_RATIO * heights.mean():
        return "frontality"
    if rec.duration < MIN_DURATION:
        return "duration"
    disp = _norm(np.diff(frames, axis=0)).mean(axis=1)  # per frame pair
    if disp.mean() <= MIN_MOTION:
        return "motion"
    if np.percentile(disp, 99) >= MAX_JITTER:
        return "jitter"
    return None


def curate_shots(records):
    """Pure filter: returns (kept records in input order, entries), one
    (record id, kept, first violated rule or None) entry per input record.

    Rules are checked in a fixed order (visibility, size, frontality,
    duration, motion, jitter) and the first violation is reported.
    """
    kept = []
    entries = []
    for rec in records:
        rule = _first_violation(rec)
        if rule is None:
            kept.append(rec)
        entries.append((rec.id, rule is None, rule))
    return kept, entries


# -- synthetic corpus ---------------------------------------------------------

FRAME_HEIGHT = 400.0
WORD_DURATION = 0.4
LEAD_SILENCE = 0.3

# base skeleton, pixels, y down
_BASE = np.zeros((8, 2))
_BASE[NECK] = (320.0, 190.0)
_BASE[HEAD] = (320.0, 110.0)
_BASE[L_SHOULDER] = (375.0, 190.0)
_BASE[R_SHOULDER] = (265.0, 190.0)
_BASE[L_ELBOW] = (395.0, 255.0)
_BASE[R_ELBOW] = (245.0, 255.0)
_BASE[L_WRIST] = (405.0, 320.0)
_BASE[R_WRIST] = (235.0, 320.0)

STARTERS = ["now", "so", "well", "then", "today", "and"]
SUBJECTS = ["i", "we", "you", "they", "people"]
VERBS = ["think", "see", "hold", "make", "want", "show", "take"]
DETERMINERS = ["a", "the", "this", "that"]
SPREAD_KEYWORDS = ["big", "small", "all"]
NOUNS = ["idea", "world", "thing", "story", "hand", "dream", "plan"]
CONNECTORS = ["because", "about", "with", "together", "again", "more"]
FILLERS = ["really", "just", "very", "quite", "always"]
DEICTICS = ["you", "me"]


def corpus_vocabulary() -> list:
    vocab = set(
        STARTERS + SUBJECTS + VERBS + DETERMINERS + SPREAD_KEYWORDS + NOUNS + CONNECTORS + FILLERS + DEICTICS
    )
    return sorted(vocab)


def _bump(t, center, width):
    """Raised-cosine envelope in [0, 1] around `center`."""
    x = (t - center) / width
    out = np.zeros_like(t)
    mask = np.abs(x) < 1.0
    out[mask] = 0.5 * (1.0 + np.cos(np.pi * x[mask]))
    return out


_SPREAD_AMPLITUDE = {"big": 80.0, "small": -70.0, "all": 32.0}


def _render_frames(words, rng):
    """Pixel pose frames for a timed word list, driven by keyword
    prototypes plus an always-on beat oscillation and smooth wobble."""
    duration = LEAD_SILENCE * 2 + len(words) * WORD_DURATION
    count = int(round(duration * DEFAULT_FPS))
    t = np.arange(count) / DEFAULT_FPS
    offsets = np.zeros((count, 8, 2))

    for span in words:
        center = 0.5 * (span.t_start + span.t_end)
        if span.surface in _SPREAD_AMPLITUDE:
            amp = _SPREAD_AMPLITUDE[span.surface]
            # every spread burst rises and falls within one 20-frame
            # inference window so chunked generation can reproduce it
            width = 0.8
            env = _bump(t, center, width)
            offsets[:, L_WRIST, 0] += amp * env
            offsets[:, R_WRIST, 0] -= amp * env
            offsets[:, L_ELBOW, 0] += 0.55 * amp * env
            offsets[:, R_ELBOW, 0] -= 0.55 * amp * env
            offsets[:, L_WRIST, 1] -= 0.5 * abs(amp) * env
            offsets[:, R_WRIST, 1] -= 0.5 * abs(amp) * env
        elif span.surface in DEICTICS:
            env = _bump(t, center, 1.0)
            side = L_WRIST if rng.random() < 0.5 else R_WRIST
            elbow = L_ELBOW if side == L_WRIST else R_ELBOW
            offsets[:, side, 1] -= 45.0 * env
            offsets[:, elbow, 1] -= 18.0 * env

    # beat oscillation plus low-frequency wobble, seeded per record
    beat_phase = rng.uniform(0, 2 * np.pi)
    beat = np.sin(2 * np.pi * 0.8 * t + beat_phase)
    for joint, amp in ((L_WRIST, 6.0), (R_WRIST, 6.0), (L_ELBOW, 3.0), (R_ELBOW, 3.0), (HEAD, 1.5)):
        offsets[:, joint, 1] += amp * beat
    for joint in (L_WRIST, R_WRIST, L_ELBOW, R_ELBOW):
        for axis in (0, 1):
            freq = rng.uniform(0.15, 0.5)
            phase = rng.uniform(0, 2 * np.pi)
            offsets[:, joint, axis] += rng.uniform(1.0, 3.0) * np.sin(2 * np.pi * freq * t + phase)
    offsets += rng.normal(0.0, 0.4, size=offsets.shape)

    return _BASE + offsets


def _build_sentence(rng):
    def pick(pool):
        return pool[rng.integers(0, len(pool))]

    words = [pick(pool) for pool in (STARTERS, SUBJECTS, FILLERS, VERBS, DETERMINERS, SPREAD_KEYWORDS, NOUNS)]
    words += [pick(pool) for pool in (CONNECTORS, SUBJECTS, VERBS, DETERMINERS, NOUNS)]
    if rng.random() < 0.5:
        words.append(pick(FILLERS))
    if rng.random() < 0.5:
        words.extend([pick(CONNECTORS), pick(NOUNS)])
    return words


def synth_corpus(seed: int, n_sentences: int) -> list:
    """Deterministic synthetic dataset; every record passes curation."""
    if n_sentences < 1:
        raise InvalidConfig("need at least one sentence")
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_sentences):
        tokens = _build_sentence(rng)
        spans = [
            WordSpan(surface=w, t_start=LEAD_SILENCE + j * WORD_DURATION, t_end=LEAD_SILENCE + (j + 1) * WORD_DURATION)
            for j, w in enumerate(tokens)
        ]
        frames = _render_frames(spans, rng)
        records.append(
            DatasetRecord(id=f"synth-{i:04d}", frame_height=FRAME_HEIGHT, words=spans, frames=frames)
        )
    return records


# -- JSON Lines persistence ---------------------------------------------------


def save_records_jsonl(records, path):
    """One record per line: coordinates in pixels, y down; absent joints
    are null. Every line states "fps": DEFAULT_FPS, the only rate the reader
    accepts."""
    with open_for_write(path, "records file") as fh:
        for rec in records:
            obj = {
                "id": rec.id,
                "fps": DEFAULT_FPS,
                "frame_height": rec.frame_height,
                "words": [[w.surface, w.t_start, w.t_end] for w in rec.words],
                "frames": rec.frames.tolist(),
            }
            for t, j in zip(*np.nonzero(np.isnan(rec.frames[..., 0]))):
                obj["frames"][t][j] = None
            fh.write(json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n")


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


_ABSENT = [math.nan, math.nan]


def load_records_jsonl(path) -> list:
    records = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line, parse_constant=_reject_constant)
                    if obj["fps"] != DEFAULT_FPS:
                        raise ValueError(f"fps must be {DEFAULT_FPS:g}, got {obj['fps']!r}")
                    frames = [[_ABSENT if joint is None else joint for joint in f] for f in obj["frames"]]
                    records.append(
                        DatasetRecord(
                            id=obj["id"],
                            frame_height=obj["frame_height"],
                            words=[WordSpan(s, t0, t1) for s, t0, t1 in obj["words"]],
                            frames=frames,
                        )
                    )
                except (KeyError, ValueError, TypeError, OverflowError, InvalidConfig) as exc:
                    raise MalformedFile(f"{path}: bad record on line {line_no}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedFile(f"cannot read dataset: {exc}") from exc
    return records
