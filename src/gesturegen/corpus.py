"""Dataset records, shot-curation filters, and the synthetic corpus.

Records hold raw pixel-space pose tracks with word-level transcript
timestamps. Curation keeps only shots that look like usable frontal
upper-body footage: every joint visible, figure large in frame, roughly
frontal, at least five seconds long, actually moving, and not jittering.

The synthetic corpus generator stands in for real footage at desk scale:
a small template grammar where certain keywords drive parametric gesture
prototypes (arm spread for "big", hands drawn together for "small", a
widening arc for "all", a single-arm reach for "you"/"me"), rendered to
pixel-space pose frames at 12 fps with mild seeded wobble.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, MalformedFile, open_for_write
from .pose import (
    HEAD,
    L_ELBOW,
    L_SHOULDER,
    L_WRIST,
    NECK,
    R_ELBOW,
    R_SHOULDER,
    R_WRIST,
    RawPose,
)


@dataclass(frozen=True)
class WordSpan:
    surface: str
    t_start: float
    t_end: float


@dataclass
class DatasetRecord:
    id: str
    fps: float
    frame_height: float
    words: list  # of WordSpan, starts non-decreasing
    frames: list  # of RawPose

    def __post_init__(self):
        if self.fps <= 0:
            raise InvalidConfig("fps must be positive")
        if not self.frames:
            raise InvalidConfig("record needs at least one frame")
        starts = [w.t_start for w in self.words]
        if any(b < a for a, b in zip(starts, starts[1:])):
            raise InvalidConfig("word timestamps must be non-decreasing")

    @property
    def duration(self) -> float:
        return len(self.frames) / self.fps


@dataclass
class CurationThresholds:
    min_size_ratio: float = 0.5  # mean upper-body height over frame height
    min_frontal_ratio: float = 0.25  # shoulder width over upper-body height
    min_duration: float = 5.0  # seconds
    min_motion: float = 0.2  # mean inter-frame joint displacement, pixels
    max_jitter: float = 30.0  # 99th-percentile inter-frame displacement, pixels


@dataclass
class CurationReport:
    """One entry per input record: (record id, kept, first violated rule)."""

    entries: list = field(default_factory=list)

    def add(self, record_id, kept, rule=None):
        self.entries.append((record_id, kept, rule))


def _upper_body_height(frame: RawPose) -> float:
    neck = frame.joints[NECK]
    head = np.linalg.norm(frame.joints[HEAD] - neck)
    wrist = max(
        np.linalg.norm(frame.joints[L_WRIST] - neck),
        np.linalg.norm(frame.joints[R_WRIST] - neck),
    )
    return head + wrist


def _first_violation(rec: DatasetRecord, th: CurationThresholds):
    if not all(f.present.all() for f in rec.frames):
        return "visibility"
    heights = np.array([_upper_body_height(f) for f in rec.frames])
    if heights.mean() <= th.min_size_ratio * rec.frame_height:
        return "size"
    widths = np.array([np.linalg.norm(f.joints[L_SHOULDER] - f.joints[R_SHOULDER]) for f in rec.frames])
    if widths.mean() <= th.min_frontal_ratio * heights.mean():
        return "frontality"
    if rec.duration < th.min_duration:
        return "duration"
    if len(rec.frames) >= 2:
        stack = np.stack([f.joints for f in rec.frames])
        disp = np.linalg.norm(np.diff(stack, axis=0), axis=2).mean(axis=1)  # per frame pair
        if disp.mean() <= th.min_motion:
            return "motion"
        if np.percentile(disp, 99) >= th.max_jitter:
            return "jitter"
    else:
        return "motion"
    return None


def curate_shots(records, thresholds: CurationThresholds = CurationThresholds()):
    """Pure filter: returns (kept records in input order, CurationReport).

    Rules are checked in a fixed order (visibility, size, frontality,
    duration, motion, jitter) and the first violation is reported.
    """
    kept = []
    report = CurationReport()
    for rec in records:
        rule = _first_violation(rec, thresholds)
        if rule is None:
            kept.append(rec)
            report.add(rec.id, True)
        else:
            report.add(rec.id, False, rule)
    return kept, report


# -- synthetic corpus ---------------------------------------------------------

FRAME_HEIGHT = 400.0
CORPUS_FPS = 12.0
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
    count = int(round(duration * CORPUS_FPS))
    t = np.arange(count) / CORPUS_FPS
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

    return [RawPose.complete(_BASE + offsets[i]) for i in range(count)]


def _build_sentence(rng):
    def pick(pool):
        return pool[rng.integers(0, len(pool))]

    words = [
        pick(STARTERS),
        pick(SUBJECTS),
        pick(FILLERS),
        pick(VERBS),
        pick(DETERMINERS),
        pick(SPREAD_KEYWORDS),
        pick(NOUNS),
        pick(CONNECTORS),
        pick(SUBJECTS),
        pick(VERBS),
        pick(DETERMINERS),
        pick(NOUNS),
    ]
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
            DatasetRecord(id=f"synth-{i:04d}", fps=CORPUS_FPS, frame_height=FRAME_HEIGHT, words=spans, frames=frames)
        )
    return records


# -- JSON Lines persistence ---------------------------------------------------


def save_records_jsonl(records, path):
    """One record per line: coordinates in pixels, y down; absent joints
    are null."""
    with open_for_write(path, "records file") as fh:
        for rec in records:
            obj = {
                "id": rec.id,
                "fps": rec.fps,
                "frame_height": rec.frame_height,
                "words": [[w.surface, w.t_start, w.t_end] for w in rec.words],
                "frames": [
                    [([float(x), float(y)] if present else None) for (x, y), present in zip(f.joints, f.present)]
                    for f in rec.frames
                ],
            }
            fh.write(json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n")


def load_records_jsonl(path) -> list:
    records = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    frames = []
                    for joints in obj["frames"]:
                        arr = np.zeros((8, 2))
                        present = np.zeros(8, dtype=bool)
                        for j, entry in enumerate(joints):
                            if entry is not None:
                                arr[j] = entry
                                present[j] = True
                        frames.append(RawPose(arr, present))
                    records.append(
                        DatasetRecord(
                            id=obj["id"],
                            fps=obj["fps"],
                            frame_height=obj["frame_height"],
                            words=[WordSpan(s, t0, t1) for s, t0, t1 in obj["words"]],
                            frames=frames,
                        )
                    )
                except (KeyError, ValueError, TypeError, InvalidConfig) as exc:
                    raise MalformedFile(f"{path}: bad record on line {line_no}: {exc}") from exc
    except OSError as exc:
        raise MalformedFile(f"cannot read dataset: {exc}") from exc
    return records
