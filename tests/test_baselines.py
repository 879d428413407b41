import math
from dataclasses import replace

import numpy as np
import pytest

from gesturegen.baselines import bleu_score, eval_tracks, manual_baseline, nn_baseline, random_baseline
from gesturegen.corpus import WordSpan, synth_corpus
from gesturegen.errors import InvalidConfig, MalformedFile
from gesturegen.pose import encode_pose, fit_pca, normalize_pose
from gesturegen.synthesis import DEFAULT_FPS, TimedPoseTrack, save_track_csv


def oracle_bleu(candidate, reference, max_n=4):
    """Brute-force n-gram oracle, written independently of the library:
    counts by explicit enumeration, add-one smoothing on orders >= 2."""
    if not candidate:
        return 0.0
    top = min(max_n, len(candidate))
    precisions = []
    for n in range(1, top + 1):
        cand_grams = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
        ref_grams = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
        matched = 0
        remaining = list(ref_grams)
        for gram in cand_grams:
            if gram in remaining:
                remaining.remove(gram)
                matched += 1
        if n == 1:
            if matched == 0:
                return 0.0
            precisions.append(matched / len(cand_grams))
        else:
            precisions.append((matched + 1) / (len(cand_grams) + 1))
    geo = math.exp(sum(math.log(p) for p in precisions) / top)
    bp = 1.0 if len(candidate) > len(reference) else math.exp(1 - len(reference) / len(candidate))
    return bp * geo


HAND_CASES = [
    (["the", "cat", "sat"], ["the", "cat", "sat", "down"]),
    (["the", "cat", "sat", "down"], ["the", "cat", "sat", "down"]),
    (["dog"], ["the", "cat"]),
    (["the", "the", "the"], ["the", "cat"]),
    (["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "e"]),
    (["a", "b", "c", "d", "e"], ["e", "d", "c", "b", "a"]),
    (["a", "b"], ["a", "b", "c", "d", "e", "f"]),
    (["a", "b", "c", "d", "e", "f"], ["a", "b"]),
    (["x"], ["x"]),
    (["x", "y"], ["y", "x"]),
]


class TestBleu:
    def test_identical_is_one(self):
        assert bleu_score(["we", "hold", "big", "ideas"], ["we", "hold", "big", "ideas"]) == 1.0

    def test_disjoint_is_zero(self):
        assert bleu_score(["aa", "bb"], ["cc", "dd"]) == 0.0

    def test_hand_case_value(self):
        # candidate [the cat sat] vs reference [the cat sat down]:
        # all precisions 1, brevity penalty exp(1 - 4/3)
        score = bleu_score(["the", "cat", "sat"], ["the", "cat", "sat", "down"])
        assert abs(score - math.exp(1 - 4 / 3)) < 1e-12

    @pytest.mark.parametrize("candidate,reference", HAND_CASES)
    def test_against_oracle(self, candidate, reference):
        assert abs(bleu_score(candidate, reference) - oracle_bleu(candidate, reference)) < 1e-12

    def test_against_oracle_random(self):
        rng = np.random.default_rng(0)
        vocab = ["a", "b", "c", "d"]
        for _ in range(200):
            cand = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(1, 9))]
            ref = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(1, 9))]
            assert abs(bleu_score(cand, ref) - oracle_bleu(cand, ref)) < 1e-12

    def test_not_symmetric(self):
        a = ["a", "b", "c", "d", "e", "f"]
        b = ["a", "b"]
        assert bleu_score(a, b) != bleu_score(b, a)

    def test_one_iff_identical_examples(self):
        rng = np.random.default_rng(1)
        vocab = ["u", "v", "w", "x"]
        for _ in range(100):
            cand = [vocab[i] for i in rng.integers(0, 4, size=6)]
            ref = [vocab[i] for i in rng.integers(0, 4, size=6)]
            score = bleu_score(cand, ref)
            if cand == ref:
                assert score == 1.0
            else:
                assert score < 1.0

    def test_empty_candidate(self):
        assert bleu_score([], ["a"]) == 0.0


@pytest.fixture(scope="module")
def corpus_and_pca():
    records = synth_corpus(seed=7, n_sentences=12)
    poses = [normalize_pose(f) for rec in records[:6] for f in rec.frames[::4]]
    return records, fit_pca(poses)


class TestNnBaseline:
    def test_verbatim_match_returns_record(self, corpus_and_pca):
        records, pca = corpus_and_pca
        target = records[3]
        query = [w.surface for w in target.words]
        track = nn_baseline(query, records, pca, chunk_len=len(query))
        expected = np.stack([encode_pose(pca, normalize_pose(f)) for f in target.frames])
        assert np.array_equal(track.frames, expected)

    def test_two_chunk_crossfade_length(self, corpus_and_pca):
        records, pca = corpus_and_pca
        a = [w.surface for w in records[0].words]
        b = [w.surface for w in records[1].words]
        chunk_len = max(len(a), len(b))
        track = nn_baseline(a + b, records, pca, chunk_len=chunk_len)
        len_a = len(records[0].frames)
        len_b = len(records[1].frames)
        assert len(track) == len_a + len_b - 4

    def test_deterministic(self, corpus_and_pca):
        records, pca = corpus_and_pca
        query = ["we", "hold", "a", "big", "idea", "now"]
        t1 = nn_baseline(query, records, pca, chunk_len=6)
        t2 = nn_baseline(query, records, pca, chunk_len=6)
        assert np.array_equal(t1.frames, t2.frames)

    def test_repeated_id_cuts_the_winning_record(self, corpus_and_pca):
        """Two records under one id: the window the first one wins is cut
        from its own poses, not from the other record's."""
        records, pca = corpus_and_pca
        first, second = (replace(records[i], id="dup") for i in (3, 5))
        query = [w.surface for w in first.words]
        track = nn_baseline(query, [first, second], pca, chunk_len=len(query))
        assert np.array_equal(track.frames, encode_pose(pca, normalize_pose(first.frames)))

    def test_empty_training_set(self, corpus_and_pca):
        _, pca = corpus_and_pca
        with pytest.raises(InvalidConfig, match="no training records"):
            nn_baseline(["hi"], [], pca, chunk_len=6)

    def test_window_without_frames_takes_the_whole_record(self, corpus_and_pca):
        """A winning inner window that spans no frame (a zero-length word on
        a frame boundary) gives the record's whole pose track."""
        records, pca = corpus_and_pca
        words = [WordSpan("aa", 0.0, 0.4), WordSpan("zz", 0.5, 0.5), WordSpan("bb", 0.6, 1.0)]
        record = replace(records[3], words=words)
        track = nn_baseline(["zz"], [record], pca, chunk_len=1)
        assert np.array_equal(track.frames, encode_pose(pca, normalize_pose(record.frames)))


class TestRandomBaseline:
    def test_seeded_deterministic(self, corpus_and_pca):
        records, pca = corpus_and_pca
        t1 = random_baseline(records, pca, 5.0, np.random.default_rng(3))
        t2 = random_baseline(records, pca, 5.0, np.random.default_rng(3))
        assert np.array_equal(t1.frames, t2.frames)

    def test_duration_contract(self, corpus_and_pca):
        records, pca = corpus_and_pca
        for duration in (2.0, 5.5, 9.25):
            track = random_baseline(records, pca, duration, np.random.default_rng(0))
            assert abs(track.duration - duration) <= 1.0 / DEFAULT_FPS

    def test_single_record_always_selected(self, corpus_and_pca):
        records, pca = corpus_and_pca
        only = [records[2]]
        expected = np.stack([encode_pose(pca, normalize_pose(f)) for f in records[2].frames])
        for seed in range(5):
            track = random_baseline(only, pca, records[2].duration, np.random.default_rng(seed))
            assert np.allclose(track.frames[0], expected[0])
            assert np.allclose(track.frames[-1], expected[-1])

    def test_empty(self, corpus_and_pca):
        _, pca = corpus_and_pca
        with pytest.raises(InvalidConfig, match="no training records"):
            random_baseline([], pca, 5.0, np.random.default_rng(0))


class TestManualBaseline:
    def test_own_duration_unchanged(self, tmp_path):
        rng = np.random.default_rng(4)
        track = TimedPoseTrack(frames=rng.normal(size=(20, 10)))
        path = tmp_path / "manual.csv"
        save_track_csv(track, path)
        out = manual_baseline(path, track.duration)
        assert np.array_equal(out.frames, track.frames)

    def test_double_duration_doubles_frames(self, tmp_path):
        rng = np.random.default_rng(5)
        track = TimedPoseTrack(frames=rng.normal(size=(20, 10)))
        path = tmp_path / "manual.csv"
        save_track_csv(track, path)
        out = manual_baseline(path, 2 * track.duration)
        assert len(out) == 40

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedFile):
            manual_baseline(tmp_path / "nope.csv", 5.0)


class TestEvalTracks:
    def test_identical_zero_mse(self):
        rng = np.random.default_rng(6)
        track = TimedPoseTrack(frames=rng.normal(size=(8, 10)))
        metrics = eval_tracks(track, track)
        assert metrics["mse"] == 0.0

    def test_constant_track(self):
        track = TimedPoseTrack(frames=np.ones((5, 10)))
        metrics = eval_tracks(track, track)
        assert metrics["mean_displacement"] == 0.0
        assert np.array_equal(metrics["temporal_variance"], np.zeros(10))

    def test_hand_two_frame_case(self):
        gen = TimedPoseTrack(frames=np.array([[0.0] * 10, [2.0] + [0.0] * 9]))
        ref = TimedPoseTrack(frames=np.zeros((2, 10)))
        metrics = eval_tracks(gen, ref)
        assert abs(metrics["mse"] - (4.0 / 20)) < 1e-12  # one squared error of 4 over 20 entries
        assert abs(metrics["mean_displacement"] - 2.0) < 1e-12
        assert abs(metrics["temporal_variance"][0] - 1.0) < 1e-12

    def test_width_mismatch(self):
        a = TimedPoseTrack(frames=np.zeros((3, 12)))
        b = TimedPoseTrack(frames=np.zeros((3, 10)))
        with pytest.raises(InvalidConfig, match="12 generated vs 10 reference columns"):
            eval_tracks(a, b)
