import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gesturegen.corpus import (
    DatasetRecord,
    WordSpan,
    corpus_vocabulary,
    curate_shots,
    load_records_jsonl,
    save_records_jsonl,
    synth_corpus,
)
from gesturegen.errors import InvalidConfig, MalformedFile
from gesturegen.pose import L_SHOULDER, L_WRIST, R_SHOULDER, R_WRIST


def _passing_record(record_id="ok", n_frames=70):
    """A synthetic record engineered to satisfy every curation rule."""
    rng = np.random.default_rng(0)
    base = np.array(
        [[320, 110], [320, 190], [375, 190], [395, 255], [405, 320], [265, 190], [245, 255], [235, 320]],
        dtype=float,
    )
    frames = []
    for i in range(n_frames):
        wobble = 6.0 * np.sin(2 * np.pi * 0.8 * i / 12.0)
        offsets = rng.normal(0, 0.5, (8, 2))
        offsets[:, 1] += wobble
        frames.append(base + offsets)
    words = [WordSpan("hello", 0.3, 0.8), WordSpan("there", 0.8, 1.3)]
    return DatasetRecord(id=record_id, frame_height=400, words=words, frames=frames)


class TestRecordValidation:
    def test_requires_frames(self):
        with pytest.raises(InvalidConfig):
            DatasetRecord(id="x", frame_height=400, words=[], frames=[])

    def test_word_order(self):
        rec = _passing_record()
        with pytest.raises(InvalidConfig):
            DatasetRecord(
                id="x",
                frame_height=400,
                words=[WordSpan("b", 1.0, 1.5), WordSpan("a", 0.5, 0.9)],
                frames=rec.frames,
            )


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])  # NaN in one coordinate only
    def test_bad_coordinates(self, value):
        frames = _passing_record().frames.copy()
        frames[2, 4, 0] = value
        with pytest.raises(InvalidConfig):
            DatasetRecord(id="x", frame_height=400, words=[], frames=frames)

    @pytest.mark.parametrize("record_id", [5, "", None, ["a"]])
    def test_id_is_a_non_empty_string(self, record_id):
        with pytest.raises(InvalidConfig, match="record id must be a non-empty string"):
            DatasetRecord(id=record_id, frame_height=400, words=[], frames=_passing_record().frames)

    def test_frame_shape(self):
        with pytest.raises(InvalidConfig):
            DatasetRecord(id="x", frame_height=400, words=[], frames=np.zeros((3, 7, 2)))

    def test_word_ends_before_start(self):
        with pytest.raises(InvalidConfig):
            WordSpan("a", 1.0, 0.5)

    @pytest.mark.parametrize("surface", [5, None, ""])
    def test_word_surface_is_a_non_empty_string(self, surface):
        with pytest.raises(InvalidConfig, match=f"^word surface must be a non-empty string, got {surface!r}$"):
            WordSpan(surface, 0.3, 0.8)

    def test_bool_is_no_number(self):
        # JSON true loads as True == 1, which curation's size rule would compare
        with pytest.raises(InvalidConfig, match=r"^frame height must be a finite positive number, got True$"):
            DatasetRecord(id="x", frame_height=True, words=[], frames=_passing_record().frames)
        with pytest.raises(InvalidConfig, match=r"^word 'a' needs finite times, got False to 0.8$"):
            WordSpan("a", False, 0.8)


class TestCurateShots:
    def test_passing_record_kept(self):
        kept, entries = curate_shots([_passing_record()])
        assert len(kept) == 1
        assert entries == [("ok", True, None)]

    def test_duration_rule(self):
        short = _passing_record("short", n_frames=58)  # 4.83 s < 5 s
        kept, entries = curate_shots([short])
        assert kept == []
        assert entries[0] == ("short", False, "duration")

    def test_missing_joint_rule(self):
        rec = _passing_record("nomiss")
        rec.frames[10, L_WRIST] = np.nan
        kept, entries = curate_shots([rec])
        assert kept == []
        assert entries[0][2] == "visibility"

    def test_size_rule(self):
        rec = _passing_record("small")
        tiny = [DatasetRecord(
            id="small",
            frame_height=rec.frame_height,
            words=rec.words,
            frames=rec.frames * 0.3,
        )]
        kept, entries = curate_shots(tiny)
        assert kept == []
        assert entries[0][2] == "size"

    def test_frontality_rule(self):
        rec = _passing_record("side")
        frames = rec.frames.copy()
        frames[:, R_SHOULDER] = frames[:, L_SHOULDER]  # shoulders in line: a side view
        side = DatasetRecord(id="side", frame_height=rec.frame_height, words=rec.words, frames=frames)
        kept, entries = curate_shots([side])
        assert kept == []
        assert entries[0][2] == "frontality"

    def test_still_picture_rule(self):
        rec = _passing_record("still")
        frozen = DatasetRecord(
            id="still",
            frame_height=rec.frame_height,
            words=rec.words,
            frames=[rec.frames[0]] * len(rec.frames),
        )
        kept, entries = curate_shots([frozen])
        assert kept == []
        assert entries[0][2] == "motion"

    def test_jitter_rule(self):
        rec = _passing_record("jitter")
        frames = rec.frames.copy()
        frames[30] += 200.0  # teleporting pose
        noisy = DatasetRecord(id="jitter", frame_height=rec.frame_height, words=rec.words, frames=frames)
        kept, entries = curate_shots([noisy])
        assert kept == []
        assert entries[0][2] == "jitter"

    def test_pure_filter_order_preserved(self):
        records = [_passing_record(f"r{i}") for i in range(3)]
        records.insert(1, _passing_record("bad", n_frames=30))
        kept, entries = curate_shots(records)
        assert [r.id for r in kept] == ["r0", "r1", "r2"]
        assert [e[0] for e in entries] == ["r0", "bad", "r1", "r2"]
        assert len(entries) == len(records)


class TestSynthCorpus:
    def test_deterministic(self):
        a = synth_corpus(seed=1, n_sentences=4)
        b = synth_corpus(seed=1, n_sentences=4)
        for ra, rb in zip(a, b):
            assert ra.id == rb.id
            assert [w.surface for w in ra.words] == [w.surface for w in rb.words]
            assert np.array_equal(ra.frames, rb.frames)

    def test_all_records_pass_curation(self):
        records = synth_corpus(seed=2, n_sentences=40)
        kept, entries = curate_shots(records)
        failures = [e for e in entries if not e[1]]
        assert failures == []
        assert len(kept) == 40

    def test_vocabulary_is_small(self):
        vocab = corpus_vocabulary()
        assert len(vocab) <= 50
        records = synth_corpus(seed=3, n_sentences=30)
        used = {w.surface for rec in records for w in rec.words}
        assert used <= set(vocab)

    def test_big_spreads_wider_than_small(self):
        records = synth_corpus(seed=4, n_sentences=60)

        def max_spread(rec):
            return max(np.linalg.norm(f[L_WRIST] - f[R_WRIST]) for f in rec.frames)

        bigs = [max_spread(r) for r in records if any(w.surface == "big" for w in r.words)]
        smalls = [max_spread(r) for r in records if any(w.surface == "small" for w in r.words)]
        assert bigs and smalls
        assert min(bigs) > max(smalls)

    def test_word_timestamps_cover_frames(self):
        for rec in synth_corpus(seed=5, n_sentences=5):
            assert rec.words[0].t_start >= 0
            assert rec.words[-1].t_end <= rec.duration + 1e-9


@st.composite
def _records(draw):
    """A valid record: a non-empty id, any finite frame height, sorted word
    starts, and (T, 8, 2) frames in which some joints are absent (NaN rows)."""
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    times = st.floats(-1e6, 1e6)
    starts = sorted(draw(st.lists(times, max_size=4)))
    words = [WordSpan(draw(st.text(min_size=1, max_size=4)), t, t + draw(st.floats(0.0, 1e6))) for t in starts]
    count = draw(st.integers(1, 6))
    frames = draw(hnp.arrays(np.float64, (count, 8, 2), elements=st.floats(allow_nan=False, allow_infinity=False)))
    frames[draw(hnp.arrays(bool, (count, 8)))] = np.nan
    return DatasetRecord(draw(st.text(min_size=1, max_size=6)), draw(positive), words, frames)


class TestJsonl:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(_records(), min_size=1, max_size=3))
    def test_round_trip_property(self, tmp_path, records):
        path = tmp_path / "corpus.jsonl"
        save_records_jsonl(records, path)
        loaded = load_records_jsonl(path)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert (a.id, a.frame_height) == (b.id, b.frame_height)
            assert [(w.surface, w.t_start, w.t_end) for w in a.words] == [
                (w.surface, w.t_start, w.t_end) for w in b.words
            ]
            assert np.array_equal(np.isnan(a.frames), np.isnan(b.frames))
            assert np.array_equal(a.frames, b.frames, equal_nan=True)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_records_jsonl(synth_corpus(seed=6, n_sentences=2), path)
        first, second = path.read_text().splitlines()
        path.write_text(f"\n{first}\n  \n{second}\n\n")
        assert [rec.id for rec in load_records_jsonl(path)] == [rec.id for rec in synth_corpus(seed=6, n_sentences=2)]

    def test_round_trip(self, tmp_path):
        records = synth_corpus(seed=6, n_sentences=3)
        # punch one joint out to exercise the null path
        records[0].frames[0, 3] = np.nan
        path = tmp_path / "corpus.jsonl"
        save_records_jsonl(records, path)
        loaded = load_records_jsonl(path)
        assert len(loaded) == 3
        for a, b in zip(records, loaded):
            assert a.id == b.id and a.frame_height == b.frame_height
            assert [w.surface for w in a.words] == [w.surface for w in b.words]
            assert np.array_equal(a.frames, b.frames, equal_nan=True)

    @pytest.mark.parametrize(
        "where, raw",
        [
            (("fps",), "NaN"),
            (("fps",), "1e999"),
            (("frame_height",), "Infinity"),
            (("frame_height",), "-1e999"),
            (("words", 0, 2), "0.1"),  # ends before its 0.3 s start
            (("words", 1, 1), "1e999"),
            (("frames", 5, 3, 0), "NaN"),
            (("frames", 5, 3, 1), "1e999"),
            (("frame_height",), "true"),  # a JSON boolean is no number
            (("words", 0, 1), "false"),
        ],
    )
    def test_non_finite_field_rejected_with_line_number(self, tmp_path, where, raw):
        path = tmp_path / "corpus.jsonl"
        save_records_jsonl([_passing_record(f"r{i}") for i in range(3)], path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        target = obj
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = "PLACEHOLDER"
        lines[1] = json.dumps(obj).replace('"PLACEHOLDER"', raw)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile, match="bad record on line 2: "):
            load_records_jsonl(path)

    @pytest.mark.parametrize("raw, shown", [("5", "5"), ("null", "None"), ('""', "''")])
    def test_bad_word_surface_rejected_with_line_number(self, tmp_path, raw, shown):
        path = tmp_path / "corpus.jsonl"
        save_records_jsonl([_passing_record(f"r{i}") for i in range(3)], path)
        lines = path.read_text().splitlines()
        assert '"words":[["hello",' in lines[1]
        lines[1] = lines[1].replace('"words":[["hello",', f'"words":[[{raw},')
        path.write_text("\n".join(lines) + "\n")
        message = f"^.*: bad record on line 2: word surface must be a non-empty string, got {shown}$"
        with pytest.raises(MalformedFile, match=message):
            load_records_jsonl(path)

    def test_non_string_id_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_records_jsonl([_passing_record(f"r{i}") for i in range(3)], path)
        path.write_text(path.read_text().replace('"id":"r1"', '"id":5'))
        with pytest.raises(MalformedFile, match="^.*: bad record on line 2: record id must be a non-empty string, got 5$"):
            load_records_jsonl(path)

    @pytest.mark.parametrize("fps", ["24.0", "0", "-12"])
    def test_other_frame_rate_rejected(self, tmp_path, fps):
        path = tmp_path / "corpus.jsonl"
        save_records_jsonl([_passing_record(f"r{i}") for i in range(3)], path)
        lines = path.read_text().splitlines()
        assert '"fps":12.0' in lines[1]
        lines[1] = lines[1].replace('"fps":12.0', f'"fps":{fps}')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile, match=f"bad record on line 2: fps must be 12, got {fps}$"):
            load_records_jsonl(path)

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "x"}\n')
        with pytest.raises(MalformedFile):
            load_records_jsonl(path)
        with pytest.raises(MalformedFile):
            load_records_jsonl(tmp_path / "missing.jsonl")
