"""Comparison baselines and objective track diagnostics.

BLEU here is the single-reference variant used for chunk matching: a
geometric mean of modified n-gram precisions up to min(4, candidate
length), with add-one smoothing on orders >= 2 (chunks are short, so raw
higher-order counts often vanish), times the brevity penalty.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .pose import encode_pose, normalize_pose
from .synthesis import DEFAULT_FPS, TimedPoseTrack, align_track, load_track_csv


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_score(candidate, reference) -> float:
    """Similarity of candidate to reference in [0, 1]."""
    candidate = list(candidate)
    reference = list(reference)
    if not reference:
        raise InvalidConfig("reference must be non-empty")
    if not candidate:
        return 0.0
    top = min(4, len(candidate))
    log_sum = 0.0
    for n in range(1, top + 1):
        counts = _ngram_counts(candidate, n)
        ref_counts = _ngram_counts(reference, n)
        clipped = sum(min(c, ref_counts[g]) for g, c in counts.items())
        total = sum(counts.values())
        if n == 1:
            if clipped == 0:
                return 0.0
            precision = clipped / total
        else:
            precision = (clipped + 1) / (total + 1)
        log_sum += math.log(precision) / top
    c, r = len(candidate), len(reference)
    brevity = 1.0 if c > r else math.exp(1.0 - r / c)
    return brevity * math.exp(log_sum)


def _crossfade(segments, overlap: int = 4) -> np.ndarray:
    """Concatenate pose segments, linearly blending `overlap` shared frames
    at each junction. Output length is the total minus the overlaps."""
    out = segments[0]
    for seg in segments[1:]:
        k = min(overlap, len(out), len(seg))
        if k == 0:
            out = np.concatenate([out, seg])
            continue
        weights = (np.arange(1, k + 1) / (k + 1))[:, None]
        blended = (1.0 - weights) * out[-k:] + weights * seg[:k]
        out = np.concatenate([out[:-k], blended, seg[k:]])
    return out


def nn_baseline(query_tokens, records, pca, chunk_len: int = 6, crossfade: int = 4) -> TimedPoseTrack:
    """Chunked text matching: split the query into chunk_len-word pieces,
    pick the training word window with the highest BLEU for each, and
    cross-fade the winners' pose spans together.

    Ties break toward the lowest record id, then the earliest window.
    """
    query_tokens = list(query_tokens)
    if not records:
        raise InvalidConfig("no training records")
    if not query_tokens:
        raise InvalidConfig("empty query text")

    ordered = sorted(records, key=lambda r: r.id)
    tracks = {rec.id: encode_pose(pca, normalize_pose(rec.frames)) for rec in ordered}

    segments = []
    for start in range(0, len(query_tokens), chunk_len):
        chunk = query_tokens[start : start + chunk_len]
        best = None
        for rec in ordered:
            surfaces = [w.surface for w in rec.words]
            window = min(chunk_len, len(surfaces))
            for w0 in range(0, len(surfaces) - window + 1):
                score = bleu_score(surfaces[w0 : w0 + window], chunk)
                if best is None or score > best[0]:
                    best = (score, rec, w0, window)
        score, rec, w0, window = best
        # Boundary windows extend to the shot boundary so a full-text match
        # returns the record's pose track verbatim.
        if w0 == 0:
            f0 = 0
        else:
            f0 = max(0, int(math.floor(rec.words[w0].t_start * DEFAULT_FPS)))
        if w0 + window == len(rec.words):
            f1 = len(rec.frames)
        else:
            f1 = min(len(rec.frames), int(math.ceil(rec.words[w0 + window - 1].t_end * DEFAULT_FPS)))
        if f1 <= f0:
            f0, f1 = 0, len(rec.frames)
        segments.append(tracks[rec.id][f0:f1])
    return TimedPoseTrack(frames=_crossfade(segments, crossfade))


def random_baseline(records, pca, speech_duration: float, rng) -> TimedPoseTrack:
    """A uniformly chosen training record's pose track, rescaled to the
    speech duration."""
    if not records:
        raise InvalidConfig("no training records")
    rec = records[int(rng.integers(0, len(records)))]
    track = TimedPoseTrack(frames=encode_pose(pca, normalize_pose(rec.frames)))
    return align_track(track, speech_duration)


def manual_baseline(path, speech_duration: float) -> TimedPoseTrack:
    """A hand-authored pose-sequence CSV, aligned to the speech duration."""
    track = load_track_csv(path)
    return align_track(track, speech_duration)


@dataclass(frozen=True)
class TrackMetrics:
    mse: float  # against the reference, in gesture space
    mean_displacement: float  # of the generated track
    temporal_variance: np.ndarray  # per dimension, of the generated track


def eval_tracks(generated: TimedPoseTrack, reference: TimedPoseTrack) -> TrackMetrics:
    """Objective diagnostics; frame counts and widths must already match."""
    if len(generated) != len(reference):
        raise InvalidConfig(f"{len(generated)} generated vs {len(reference)} reference frames")
    gen, ref = generated.frames, reference.frames
    if gen.shape[1] != ref.shape[1]:
        raise InvalidConfig(f"{gen.shape[1]} generated vs {ref.shape[1]} reference columns")
    mse = float(np.mean((gen - ref) ** 2))
    if len(gen) >= 2:
        disp = float(np.linalg.norm(np.diff(gen, axis=0), axis=1).mean())
    else:
        disp = 0.0
    return TrackMetrics(mse=mse, mean_displacement=disp, temporal_variance=gen.var(axis=0))
