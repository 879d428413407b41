import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gesturegen.config import Config
from gesturegen.errors import InvalidConfig, MalformedFile, write_rows
from gesturegen.kinematics import ANGLE_NAMES, save_angles_csv
from gesturegen import model as seq2seq
from gesturegen.model import ModelConfig, forward, init_model
from gesturegen.synthesis import (
    DEFAULT_FPS,
    TimedPoseTrack,
    align_track,
    assemble_attention,
    estimate_speech_duration,
    export_attention,
    generate_gesture,
    load_track_csv,
    plan_chunks,
    save_track_csv,
)
from gesturegen.text import EmbeddingTable, load_embedding_table


class TestEstimateDuration:
    def test_default_rate(self):
        assert estimate_speech_duration(["w"] * 160, Config().words_per_minute) == 60.0

    def test_custom_rate(self):
        assert estimate_speech_duration(["w"] * 25, words_per_minute=100) == 15.0

    def test_single_word(self):
        assert estimate_speech_duration(["w"], 160.0) == 0.375

    def test_empty(self):
        with pytest.raises(InvalidConfig, match="cannot estimate duration of empty text"):
            estimate_speech_duration([], 160.0)


class TestPlanChunks:
    def test_paper_25_words_15_seconds(self):
        tokens = [f"w{i}" for i in range(25)]
        plan = plan_chunks(tokens, 15.0, n=10, m=20)
        assert plan.words_per_chunk == 4
        assert len(plan.chunks) == 7  # seven inferences for 25 words
        assert len(plan.chunks) == math.ceil(25 / 4)

    def test_four_words_single_chunk(self):
        plan = plan_chunks(["a", "b", "c", "d"], 2.5, n=10, m=20)
        assert plan.words_per_chunk == 4
        assert len(plan.chunks) == 1

    def test_slow_speech_clamps_to_one(self):
        plan = plan_chunks([f"w{i}" for i in range(10)], 1000.0, n=10, m=20)
        assert plan.words_per_chunk == 1
        assert len(plan.chunks) == 10

    def test_tiny_duration_is_one_chunk(self):
        # S * (m + n) / DEFAULT_FPS / 1e-308 overflows to infinity
        plan = plan_chunks(["a", "b", "c"], 1e-308, n=10, m=20)
        assert plan.words_per_chunk == 3
        assert plan.chunks == (("a", "b", "c"),)

    def test_chunks_partition_tokens(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            count = int(rng.integers(1, 40))
            tokens = [f"w{i}" for i in range(count)]
            plan = plan_chunks(tokens, float(rng.uniform(0.5, 30.0)), n=10, m=20)
            rebuilt = [w for chunk in plan.chunks for w in chunk]
            assert rebuilt == tokens
            assert len(plan.chunks) == math.ceil(count / plan.words_per_chunk)

    @settings(max_examples=50, deadline=None)
    @given(
        count=st.integers(1, 60),
        duration=st.floats(min_value=1e-3, max_value=1e4),
        n=st.integers(1, 20),
        m=st.integers(1, 40),
    )
    def test_every_token_once_in_order(self, count, duration, n, m):
        tokens = [f"w{i}" for i in range(count)]  # distinct, so "once" is checkable
        plan = plan_chunks(tokens, duration, n, m)
        assert [w for chunk in plan.chunks for w in chunk] == tokens
        assert all(len(chunk) == plan.words_per_chunk for chunk in plan.chunks[:-1])
        assert 1 <= len(plan.chunks[-1]) <= plan.words_per_chunk

    def test_errors(self):
        with pytest.raises(InvalidConfig, match="cannot plan chunks for empty text"):
            plan_chunks([], 5.0, n=10, m=20)
        with pytest.raises(InvalidConfig, match="speech duration must be positive"):
            plan_chunks(["a"], 0.0, n=10, m=20)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidConfig, match="speech duration must be finite"):
                plan_chunks(["a"], bad, n=10, m=20)


def _tiny_model_and_table():
    cfg = ModelConfig(word_dim=5, hidden=6, att_dim=6, n_seed_poses=3, n_output_poses=5, dropout=0.1)
    model = init_model(cfg, seed=21)
    rng = np.random.default_rng(21)
    vocab = {f"w{i}": rng.normal(size=5) for i in range(30)}
    return model, EmbeddingTable(dim=5, entries=vocab)


class TestGenerateGesture:
    def test_single_chunk_length(self):
        model, table = _tiny_model_and_table()
        plan = plan_chunks(["w0", "w1"], 0.5, n=3, m=5)
        assert len(plan.chunks) == 1
        track, maps = generate_gesture(model, plan, table)
        assert len(track) == 5
        assert len(maps) == 1
        assert maps[0].shape == (5, 2)

    def test_multi_chunk_concatenation(self):
        model, table = _tiny_model_and_table()
        tokens = [f"w{i}" for i in range(8)]
        plan = plan_chunks(tokens, 40.0, n=3, m=5)  # s clamps to 1 -> 8 chunks
        track, maps = generate_gesture(model, plan, table)
        assert len(plan.chunks) == 8
        assert len(track) == 40
        assert all(m.shape == (5, 1) for m in maps)

    def test_deterministic(self):
        model, table = _tiny_model_and_table()
        plan = plan_chunks([f"w{i}" for i in range(6)], 3.0, n=3, m=5)
        t1, m1 = generate_gesture(model, plan, table)
        t2, m2 = generate_gesture(model, plan, table)
        assert np.array_equal(t1.frames, t2.frames)
        assert all(np.array_equal(a, b) for a, b in zip(m1, m2))

    def test_chunks_are_seeded_by_previous_output(self):
        # Changing the first chunk's words must change later chunks' poses
        # (state flows through the seed poses).
        model, table = _tiny_model_and_table()
        plan_a = plan_chunks(["w0", "w1", "w2", "w3"], 20.0, n=3, m=5)  # 4 chunks of 1
        plan_b = plan_chunks(["w9", "w1", "w2", "w3"], 20.0, n=3, m=5)
        track_a, _ = generate_gesture(model, plan_a, table)
        track_b, _ = generate_gesture(model, plan_b, table)
        assert not np.allclose(track_a.frames[5:10], track_b.frames[5:10])


    @settings(max_examples=30, deadline=None)
    @given(
        words=st.integers(1, 12),
        duration=st.floats(0.1, 20.0),
        n=st.integers(1, 4),
        m=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(words=7, duration=1.5, n=3, m=5, seed=0)  # chunks of 3, 3 and 1 words
    @example(words=5, duration=20.0, n=3, m=5, seed=1)  # five 1-word chunks
    @example(words=6, duration=20.0, n=4, m=2, seed=2)  # m < n: seeds carry older poses
    def test_equals_chained_single_chunk_rollouts(self, words, duration, n, m, seed):
        """One batched encoder pass per utterance gives each chunk's frames
        and attention of its own one-chunk rollout, seeded with the last n
        poses before it: one (m, len(chunk)) map per plan chunk and m frames
        per chunk, what assemble_attention and align_track take."""
        cfg = ModelConfig(word_dim=5, hidden=6, att_dim=6, n_seed_poses=n, n_output_poses=m, dropout=0.1)
        model = init_model(cfg, seed=seed % 5)
        _, table = _tiny_model_and_table()
        rng = np.random.default_rng(seed)
        plan = plan_chunks([f"w{i}" for i in rng.integers(0, 30, size=words)], duration, n=n, m=m)
        encodes = []
        encode = seq2seq._encode
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seq2seq, "_encode", lambda *args: encodes.append(args) or encode(*args))
            track, maps = generate_gesture(model, plan, table)
        assert len(encodes) == 1
        assert [a.shape for a in maps] == [(m, len(chunk)) for chunk in plan.chunks]
        assert track.frames.shape == (m * len(plan.chunks), cfg.gesture_dim)
        seeds, frames = np.zeros((n, 10)), []
        for chunk, attn in zip(plan.chunks, maps, strict=True):
            emb, lengths = table.embed([chunk])
            [(poses, single)] = forward(model, emb, seeds, lengths)
            assert np.max(np.abs(attn - single)) <= 1e-12
            frames.append(poses)
            seeds = np.concatenate([seeds, poses])[-n:]
        assert np.max(np.abs(track.frames - np.concatenate(frames))) <= 1e-12


class TestAlignTrack:
    def test_identity_when_matching(self):
        rng = np.random.default_rng(1)
        track = TimedPoseTrack(frames=rng.normal(size=(24, 10)))
        aligned = align_track(track, 2.0)
        assert np.array_equal(aligned.frames, track.frames)

    def test_140_to_180_frames(self):
        rng = np.random.default_rng(2)
        track = TimedPoseTrack(frames=rng.normal(size=(140, 10)))
        aligned = align_track(track, 15.0)
        assert len(aligned) == 180

    def test_two_frame_interpolation(self):
        p, q = np.zeros(10), np.arange(10.0)
        track = TimedPoseTrack(frames=np.stack([p, q]))
        aligned = align_track(track, 4 / 12.0)
        assert len(aligned) == 4
        assert np.allclose(aligned.frames[0], p)
        assert np.allclose(aligned.frames[1], p + (q - p) / 3.0, atol=1e-12)
        assert np.allclose(aligned.frames[2], p + 2 * (q - p) / 3.0, atol=1e-12)
        assert np.allclose(aligned.frames[3], q)

    def test_endpoints_preserved_exactly(self):
        rng = np.random.default_rng(3)
        track = TimedPoseTrack(frames=rng.normal(size=(17, 10)))
        aligned = align_track(track, 3.71)
        assert np.array_equal(aligned.frames[0], track.frames[0])
        assert np.array_equal(aligned.frames[-1], track.frames[-1])

    def test_duration_contract(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            track = TimedPoseTrack(frames=rng.normal(size=(int(rng.integers(2, 60)), 10)))
            duration = float(rng.uniform(0.2, 10))
            aligned = align_track(track, duration)
            assert abs(aligned.duration - duration) <= 1.0 / DEFAULT_FPS

    @settings(max_examples=50, deadline=None)
    @given(
        frames=hnp.arrays(
            np.float64, st.tuples(st.integers(1, 30), st.integers(1, 4)), elements=st.floats(-1e6, 1e6)
        ),
        duration=st.floats(min_value=1e-3, max_value=30.0),
    )
    def test_frame_count_and_kept_endpoints(self, frames, duration):
        aligned = align_track(TimedPoseTrack(frames=frames), duration)
        assert len(aligned) == math.ceil(duration * DEFAULT_FPS)
        assert aligned.frames[0].tobytes() == frames[0].tobytes()
        if len(aligned) > 1:  # a one-frame result can only keep the first frame
            assert aligned.frames[-1].tobytes() == frames[-1].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(duration=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(max_value=0.0)))
    def test_non_finite_or_non_positive_duration_rejected(self, duration):
        with pytest.raises(InvalidConfig, match="^speech duration must be (finite|positive), got "):
            align_track(TimedPoseTrack(frames=np.zeros((3, 2))), duration)

    def test_errors(self):
        track = TimedPoseTrack(frames=np.zeros((3, 10)))
        with pytest.raises(InvalidConfig, match="speech duration must be positive"):
            align_track(track, -1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InvalidConfig, match="speech duration must be finite"):
                align_track(track, bad)


# one output file per example, rewritten in place
_codec_settings = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def _attention_maps(draw):
    """1 to 14 chunks of 1 to 5 words, each with a map of 1 to 4 rows of any
    finite weights (signed zeros and subnormals included)."""
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=14))
    values = st.floats(allow_nan=False, allow_infinity=False)
    maps = [draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)), w), elements=values)) for w in widths]
    return maps, [tuple(f"w{i}_{j}" for j in range(w)) for i, w in enumerate(widths)]


class TestAttentionExport:
    def test_single_chunk_dense(self, tmp_path):
        model, table = _tiny_model_and_table()
        plan = plan_chunks(["w0", "w1", "w2"], 0.6, n=3, m=5)
        assert len(plan.chunks) == 1
        _, maps = generate_gesture(model, plan, table)
        matrix = export_attention(maps, plan.chunks, tmp_path / "attn.csv")
        assert matrix.shape == (5, 3)
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
        header = (tmp_path / "attn.csv").read_text().splitlines()[0]
        assert header == "w0,w1,w2"

    def test_non_finite_refused_before_writing(self, tmp_path):
        maps = [np.array([[0.5, 0.5]]), np.array([[np.nan]])]
        with pytest.raises(InvalidConfig, match="^attention file row 1 has non-finite values$"):
            export_attention(maps, [("a", "b"), ("c",)], tmp_path / "attn.csv")
        assert not (tmp_path / "attn.csv").exists()

    def test_two_chunks_block_diagonal(self):
        maps = [np.full((4, 2), 0.5), np.full((4, 3), 1 / 3)]
        chunks = [("a", "b"), ("c", "d", "e")]
        matrix = assemble_attention(maps, chunks)
        assert matrix.shape == (8, 5)
        assert np.all(matrix[:4, 2:] == 0)
        assert np.all(matrix[4:, :2] == 0)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    @_codec_settings
    @given(case=_attention_maps())
    @example(case=([np.array([[1.0], [-0.0]])], [("w0_0",)]))  # a single 1-word chunk
    @example(case=([np.full((2, 1 + i % 3), 0.25 * i) for i in range(12)], [("w",) * (1 + i % 3) for i in range(12)]))
    def test_chunk_writer_bytes_equal_dense_writer(self, tmp_path, case):
        """The chunked writer's bytes are `write_rows` over the dense matrix."""
        maps, chunks = case
        matrix = export_attention(maps, chunks, tmp_path / "chunked.csv")
        assert np.array_equal(matrix, assemble_attention(maps, chunks))
        header = ",".join(w for chunk in chunks for w in chunk)
        write_rows(tmp_path / "dense.csv", "attention file", matrix, header=header)
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()

    @_codec_settings
    @given(case=_attention_maps(), data=st.data())
    def test_non_finite_weight_refused_as_dense_writer(self, tmp_path, case, data):
        """A non-finite weight gives the dense writer's message, row number
        included, and no file."""
        maps, chunks = case
        for _ in range(data.draw(st.integers(1, 3))):
            attn = maps[data.draw(st.integers(0, len(maps) - 1))]
            row, col = data.draw(st.integers(0, len(attn) - 1)), data.draw(st.integers(0, attn.shape[1] - 1))
            attn[row, col] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        header = ",".join(w for chunk in chunks for w in chunk)
        with pytest.raises(InvalidConfig) as dense:
            write_rows(tmp_path / "dense.csv", "attention file", assemble_attention(maps, chunks), header=header)
        path = tmp_path / "chunked.csv"
        path.unlink(missing_ok=True)
        with pytest.raises(InvalidConfig) as chunked:
            export_attention(maps, chunks, path)
        assert str(chunked.value) == str(dense.value)
        assert not path.exists()


def test_long_utterance_files_pinned(tmp_path):
    """One seeded 300-word utterance in 50 six-word chunks, 1000 generated
    frames over 300 words: the sha256 of its track and attention files,
    recorded with the dense attention writer and the out-of-place kernels."""
    cfg = ModelConfig(word_dim=8, hidden=12, att_dim=10, n_seed_poses=10, n_output_poses=20, dropout=0.1)
    model = init_model(cfg, seed=33)
    rng = np.random.default_rng(33)
    table = EmbeddingTable(dim=8, entries={f"v{i}": rng.normal(size=8) for i in range(40)})
    words = [f"v{i}" for i in rng.integers(0, 40, size=300)]
    duration = 300 * 60.0 / 160.0
    plan = plan_chunks(words, duration, cfg.n_seed_poses, cfg.n_output_poses)
    assert len(plan.chunks) == 50
    track, maps = generate_gesture(model, plan, table)
    save_track_csv(align_track(track, duration), tmp_path / "track.csv")
    export_attention(maps, plan.chunks, tmp_path / "attn.csv")
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("track.csv", "attn.csv")]
    assert digests == [
        "82330370130d43c3ce75d5fb25fd1f184f2217462028d6ca94cead7890960e0f",
        "d3f7ee6e4ec8d8166ebdfd9866af12c447d7f86c921f375b6be6fc4b29d80476",
    ]


def test_paper_generate_pinned(tmp_path):
    """The criterion-12 plan (25 words over 15 s) on a seeded, untrained
    model at the paper's widths (`Config()`: hidden 200, att 200, word
    300): the sha256 of its track and attention files. Every other pin runs
    the toy widths or smaller; this one guards the batch-1 decoder step at
    the shape the paper runs."""
    from gesturegen.corpus import corpus_vocabulary

    cfg = Config()
    model = init_model(cfg.model_config(10), seed=12)
    vocab = corpus_vocabulary()
    rng = np.random.default_rng(9)
    words = [vocab[i] for i in rng.integers(0, len(vocab), size=25)]
    table = EmbeddingTable(dim=cfg.word_dim, entries={w: rng.normal(0.0, 0.4, size=cfg.word_dim) for w in sorted(set(words))})
    plan = plan_chunks(words, 15.0, cfg.n_seed_poses, cfg.n_output_poses)
    assert len(plan.chunks) == 7  # six of 4 words and one of 1
    track, maps = generate_gesture(model, plan, table)
    save_track_csv(align_track(track, 15.0), tmp_path / "track.csv")
    export_attention(maps, plan.chunks, tmp_path / "attn.csv")
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("track.csv", "attn.csv")]
    assert digests == [
        "fd8ca3e95aa816062e04da372f2fb41bf504fe452e4cb6ab4be5f749333af276",
        "51401e17f592834af3a6b7cd88ab13d4a514dbd12ea45ea08a4e8ff9b383be3b",
    ]


def _finite_frames(width):
    """(T, width) float64 frames of any finite values, T in [1, 20]."""
    rows = st.integers(min_value=1, max_value=20)
    values = st.floats(allow_nan=False, allow_infinity=False)
    return hnp.arrays(np.float64, st.tuples(rows, st.just(width)), elements=values)


class TestTrackCsv:
    @_codec_settings
    @given(frames=st.sampled_from([10, 12]).flatmap(_finite_frames))
    def test_round_trip_is_bit_exact(self, tmp_path, frames):
        path = tmp_path / "t.csv"
        save_track_csv(TimedPoseTrack(frames), path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header.split(",") == ["t_s"] + [f"c{i + 1}" for i in range(frames.shape[1])]
        assert load_track_csv(path).frames.tobytes() == frames.tobytes()
        # the embedding table is the same codec, space-separated with a token label
        tokens = [f"tok{i}" for i in range(len(frames))]
        write_rows(path, "embedding table", frames, labels=tokens, sep=" ")
        table = load_embedding_table(path)
        assert table.embed([tokens])[0][0].tobytes() == frames.tobytes()

    @_codec_settings
    @given(frames=_finite_frames(len(ANGLE_NAMES)))
    def test_angles_file_reads_back(self, tmp_path, frames):
        path = tmp_path / "angles.csv"
        save_angles_csv(TimedPoseTrack(frames), path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header.split(",") == ["t_s", *ANGLE_NAMES]
        assert load_track_csv(path).frames.tobytes() == frames.tobytes()

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        track = TimedPoseTrack(frames=rng.normal(size=(9, 10)))
        save_track_csv(track, tmp_path / "t.csv")
        loaded = load_track_csv(tmp_path / "t.csv")
        assert np.array_equal(loaded.frames, track.frames)  # repr round-trips floats

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_refused_before_writing(self, tmp_path, bad):
        frames = np.zeros((4, 12))
        frames[2, 7] = bad
        for save in (save_track_csv, save_angles_csv):
            with pytest.raises(InvalidConfig, match="^track file row 2 has non-finite values$"):
                save(TimedPoseTrack(frames), tmp_path / "t.csv")
            assert not (tmp_path / "t.csv").exists()

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(MalformedFile):
            load_track_csv(path)
        with pytest.raises(MalformedFile):
            load_track_csv(tmp_path / "missing.csv")

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t_s,c1,c2\n0.0,0.5,1.0\n\n0.1,nan,1.0\n")
        with pytest.raises(MalformedFile, match="line 4"):
            load_track_csv(path)
