"""Comparison baselines and objective track diagnostics.

BLEU here is the single-reference variant used for chunk matching: a
geometric mean of modified n-gram precisions up to min(4, candidate
length), with add-one smoothing on orders >= 2 (chunks are short, so raw
higher-order counts often vanish), times the brevity penalty.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .errors import InvalidConfig
from .pose import encode_pose, normalize_pose
from .synthesis import DEFAULT_FPS, TimedPoseTrack, align_track, load_track_csv

CROSSFADE = 4  # frames blended at each junction of the nn baseline's segments


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_score(candidate, reference) -> float:
    """Similarity of candidate to reference in [0, 1]."""
    candidate = list(candidate)
    reference = list(reference)
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


def _crossfade(segments) -> np.ndarray:
    """Concatenate pose segments, linearly blending CROSSFADE shared frames
    at each junction. Output length is the total minus the overlaps."""
    out = segments[0]
    for seg in segments[1:]:
        k = min(CROSSFADE, len(out), len(seg))
        weights = (np.arange(1, k + 1) / (k + 1))[:, None]
        blended = (1.0 - weights) * out[-k:] + weights * seg[:k]
        out = np.concatenate([out[:-k], blended, seg[k:]])
    return out


def nn_baseline(query_tokens, records, pca, chunk_len: int) -> TimedPoseTrack:
    """Chunked text matching: split the query into chunk_len-word pieces,
    pick the training word window with the highest BLEU for each, and
    cross-fade the winners' pose spans together.

    Ties break toward the lowest record id, then the input order, then the
    earliest window.
    """
    query_tokens = list(query_tokens)
    if not records:
        raise InvalidConfig("no training records")
    if not query_tokens:
        raise InvalidConfig("empty query text")

    ordered = sorted(records, key=lambda r: r.id)
    tracks = [encode_pose(pca, normalize_pose(rec.frames)) for rec in ordered]  # by position: ids may repeat

    segments = []
    for start in range(0, len(query_tokens), chunk_len):
        chunk = query_tokens[start : start + chunk_len]
        best = None
        for index, rec in enumerate(ordered):
            surfaces = [w.surface for w in rec.words]
            window = min(chunk_len, len(surfaces))
            for w0 in range(0, len(surfaces) - window + 1):
                score = bleu_score(surfaces[w0 : w0 + window], chunk)
                if best is None or score > best[0]:
                    best = (score, index, w0, window)
        score, index, w0, window = best
        rec = ordered[index]
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
        segments.append(tracks[index][f0:f1])
    return TimedPoseTrack(frames=_crossfade(segments))


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


def eval_tracks(generated: TimedPoseTrack, reference: TimedPoseTrack) -> dict:
    """Objective diagnostics, as the metrics file's dict: ``mse`` against
    the reference (in gesture space), and of the generated track its
    ``mean_displacement`` and per-dimension ``temporal_variance`` (a list).
    Frame counts must already match (`cmd_eval` aligns the generated track
    first); a width mismatch and a metric that overflows raise
    InvalidConfig naming them."""
    gen, ref = generated.frames, reference.frames
    if gen.shape[1] != ref.shape[1]:
        raise InvalidConfig(f"{gen.shape[1]} generated vs {ref.shape[1]} reference columns")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        metrics = {
            "mse": float(np.mean((gen - ref) ** 2)),
            "mean_displacement": float(np.linalg.norm(np.diff(gen, axis=0), axis=1).mean()) if len(gen) >= 2 else 0.0,
            "temporal_variance": gen.var(axis=0).tolist(),
        }
    for name, value in metrics.items():
        if not np.isfinite(value).all():
            raise InvalidConfig(f"{name} is not finite: the track values are too large")
    return metrics
