import array
import hashlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gesturegen import errors
from gesturegen.errors import MalformedFile, read_rows, write_rows
from gesturegen.text import (
    HASH_BLOCK,
    EmbeddingTable,
    file_sha256,
    load_embedding_table,
    tokenize,
    write_synthetic_embeddings,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("", []),
        ("Hold it in your hand.", ["hold", "it", "in", "your", "hand"]),
        ("I'm BIG — big!", ["i'm", "big", "big"]),
        ("  multiple   spaces\tand\nnewlines ", ["multiple", "spaces", "and", "newlines"]),
        ("don't stop, don't.", ["don't", "stop", "don't"]),
        ("'quoted' words", ["quoted", "words"]),
        ("numbers 42 ok", ["numbers", "42", "ok"]),
    ],
)
def test_tokenize_cases(text, expected):
    assert tokenize(text) == expected


def test_tokenize_idempotent_on_own_output():
    samples = [
        "Hold it in your hand.",
        "I'm BIG — big!",
        "What's done, is done; truly!",
        "A-B testing... works?",
    ]
    for text in samples:
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


def test_loader_two_lines(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("alpha 1.0 2.0 3.0\nbeta -0.5 0.25 0.125\n")
    table = load_embedding_table(path)
    assert len(table) == 2
    assert table.dim == 3
    assert np.array_equal(table.embed([["beta"]])[0][0, 0], [-0.5, 0.25, 0.125])


def test_loader_refuses_repeated_token(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 1 2\na 3 4\n")
    with pytest.raises(MalformedFile, match=f"^{re.escape(str(path))}: token 'a' is listed more than once$"):
        load_embedding_table(path)


def test_loader_wrong_count(tmp_path):
    path = tmp_path / "emb.txt"
    lines = ["tok " + " ".join(["0.5"] * 300), "bad " + " ".join(["0.5"] * 299)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedFile, match=f"^{re.escape(str(path))}: line 2: expected 300 values, got 299$"):
        load_embedding_table(path)


def test_loader_non_numeric(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("tok 1.0 oops 3.0\n")
    with pytest.raises(MalformedFile, match=f"^{re.escape(str(path))}: line 1: non-numeric value$"):
        load_embedding_table(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_loader_non_finite(tmp_path, value):
    path = tmp_path / "emb.txt"
    path.write_text(f"tok 1.0 2.0\nbad 1.0 {value}\n")
    with pytest.raises(MalformedFile, match=f"^{re.escape(str(path))}: line 2: non-finite value$"):
        load_embedding_table(path)


def test_synthetic_table_round_trip(tmp_path):
    path = tmp_path / "emb.txt"
    tokens = [f"tok{i}" for i in range(50)]
    count = write_synthetic_embeddings(tokens, path, dim=300, seed=9)
    assert count == 50
    table = load_embedding_table(path)
    assert table.dim == 300
    rng = np.random.default_rng(9)
    [rows], _ = table.embed([sorted(tokens)])
    for row in rows:
        expected = rng.normal(0.0, 0.4, size=300)
        assert np.array_equal(row, expected)  # bit-exact round trip


def test_embed_tokens():
    table = EmbeddingTable(dim=300, entries={"known": np.arange(300.0)})
    [out], lengths = table.embed([["known", "unknown", "known"]])
    assert [len(v) for v in out] == [300, 300, 300] and lengths.tolist() == [3]
    assert np.array_equal(out[0], np.arange(300.0))
    assert np.array_equal(out[1], np.zeros(300))
    assert np.count_nonzero(out[1]) == 0


_TOKENS = st.lists(st.sampled_from(["a", "b", "c", "unknown", "x"]), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(
    sequences=st.lists(_TOKENS | _TOKENS.map(tuple), min_size=1, max_size=5),
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_embed_stacks_and_zero_pads_stored_vectors(sequences, dim, seed):
    """Each row of the batch is its sequence's stored vectors (an exact zero
    row for an unknown token) stacked and zero-padded to the longest
    sequence, bit for bit, and the lengths are the sequences' lengths."""
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(dim=dim, entries={token: rng.normal(size=dim) for token in "abc"})
    batch, lengths = table.embed(sequences)
    longest = max(map(len, sequences))
    assert batch.shape == (len(sequences), longest, dim)
    assert lengths.tolist() == [len(tokens) for tokens in sequences]
    for row, tokens in zip(batch, sequences, strict=True):
        vectors = [table.entries.get(token, np.zeros(dim)) for token in tokens]
        expected = np.concatenate([np.stack(vectors), np.zeros((longest - len(tokens), dim))])
        assert row.tobytes() == expected.tobytes()


# Awkward floats for the shortest-repr formatter: signed zero, subnormal,
# huge, repeating binary fractions and integral values.
_PIN_VALUES = np.array([0.0, -0.0, 0.1, -1.5, 1 / 3, 5e-324, 1e22, 123456.789, -7.0, 2.0**-40, 1e16, 0.3])


def _pinned_rows(rows, cols):
    return _PIN_VALUES[(np.arange(rows)[:, None] * 5 + np.arange(cols)) % len(_PIN_VALUES)]


def _write_pinned(kind, path):
    from gesturegen.kinematics import save_angles_csv
    from gesturegen.synthesis import TimedPoseTrack, export_attention, save_track_csv
    from gesturegen.training import LossBreakdown, write_history_csv

    if kind == "track":
        save_track_csv(TimedPoseTrack(_pinned_rows(4, 10)), path)
    elif kind == "angles":
        save_angles_csv(TimedPoseTrack(_pinned_rows(3, 12)), path)
    elif kind == "attention":
        block = _pinned_rows(5, 3)
        export_attention([block[:2, :2], block[2:, :1]], [("we", "hold"), ("it",)], path)
    elif kind == "history":
        write_history_csv([LossBreakdown(*row) for row in _pinned_rows(3, 4).tolist()], path)
    else:
        write_synthetic_embeddings(["b", "a", "c", "a"], path, dim=5, seed=3)


@pytest.mark.parametrize(
    "kind, sha256",
    [
        ("track", "ff2a5e86234a067d81bb7e5d0ae499b0134a5da23296ebb3635d56d87405d007"),
        ("angles", "1911a3ae40364099279564a2ea414d09c04877b1664a79f7b1eb98f693d18d0d"),
        ("attention", "48a73bf0b7cf01c520d76cbcf122a24306a2c542af35e6a5f294ef6994d40d1a"),
        ("history", "f004867cb2be4391bb3fd2e0ed873260ebb7e12ae0a8667449b0487261f74aff"),
        ("embeddings", "41a41554e441fedf5abba1594e44cb76302ab2a1b9b60f982774b016dd956500"),
    ],
)
def test_text_writer_bytes_pinned(tmp_path, kind, sha256):
    """Every float-table writer's bytes on hand-built values (no fitted
    basis or model output, so no BLAS-dependent digits)."""
    path = tmp_path / "out.txt"
    _write_pinned(kind, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_byte_order_mark_is_skipped(tmp_path):
    """A table saved by an editor that writes a UTF-8 byte-order mark keys its
    first token without it, and a track's header still reads as t_s."""
    from gesturegen.synthesis import load_track_csv

    emb = tmp_path / "emb.txt"
    emb.write_text("\ufeffhello 1.0 2.0\nworld 3.0 4.0\n", encoding="utf-8")
    table = load_embedding_table(emb)
    assert sorted(table.entries) == ["hello", "world"]
    assert np.array_equal(table.embed([["hello"]])[0][0, 0], [1.0, 2.0])
    track = tmp_path / "track.csv"
    track.write_text("\ufefft_s,c1,c2\n0.0,0.5,1.5\n", encoding="utf-8")
    assert np.array_equal(load_track_csv(track).frames, [[0.5, 1.5]])


def _line_by_line_read_rows(path, what, *, header=None, labels=False, sep=","):
    """The reader as it was before block parsing, kept as the reference:
    every line converted with float() as it is read."""
    names, flat, line_nos, width = [], array.array("d"), [], None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if header is not None and not fh.readline().startswith(header):
                raise MalformedFile(f"{path}: line 1 does not start with {header!r}")
            for line_no, line in enumerate(fh, start=1 if header is None else 2):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(sep)
                if labels:
                    names.append(fields.pop(0))
                if not fields:
                    raise MalformedFile(f"{path}: line {line_no}: no values")
                try:
                    flat.extend(map(float, fields))
                except ValueError:
                    raise MalformedFile(f"{path}: line {line_no}: non-numeric value") from None
                width = width or len(fields)
                if len(fields) != width:
                    raise MalformedFile(f"{path}: line {line_no}: expected {width} values, got {len(fields)}")
                line_nos.append(line_no)
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedFile(f"cannot read {what}: {exc}") from exc
    if not line_nos:
        raise MalformedFile(f"{path}: no rows")
    table = np.frombuffer(flat).reshape(-1, width)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise MalformedFile(f"{path}: line {line_nos[int(np.argmin(finite))]}: non-finite value")
    return names, table


def _outcome(reader, path, **kwargs):
    try:
        names, table = reader(path, "table", **kwargs)
    except MalformedFile as exc:
        return str(exc)
    return names, table.shape, table.tobytes()


# Spellings float() accepts besides repr, and field mutations that make a
# file malformed: a non-numeric field, a non-finite one, a width change and
# a line holding only its label.
_ODD_SPELLINGS = ["1_000", "\u0661\u0662", "+1e-400", "5e-324", "-0", "1E3", "-.5"]
_MUTATIONS = [["x", "", "1.2.3", "0x1"], ["nan", "-inf", "1e999"], ["drop", "extra"], ["label-only"]]


@st.composite
def _table_files(draw):
    """(lines, read_rows keyword arguments, block size): a random table of at
    least two blocks in either separator, with or without labels and a
    header, blank lines between rows and up to four mutated lines."""
    width = draw(st.integers(1, 5))
    rows = draw(st.integers(2, 16))
    block = draw(st.integers(1, rows * width // 2))
    labels = draw(st.booleans())
    sep = draw(st.sampled_from([",", None]))
    joins = [","] if sep == "," else [" ", "\t", "  "]
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    values = draw(st.lists(finite | st.sampled_from(_ODD_SPELLINGS), min_size=rows * width, max_size=rows * width))
    lines = [[f"w{r}"] * labels + values[r * width : (r + 1) * width] for r in range(rows)]
    first = draw(st.integers(0, rows - 1))  # mutated lines cluster, so two errors often share a block
    for _ in range(draw(st.integers(0, 4))):
        fields = lines[min(rows - 1, first + draw(st.integers(0, 4)))]
        mutation = draw(st.sampled_from(draw(st.sampled_from(_MUTATIONS))))
        if mutation == "drop":
            del fields[-1:]
        elif mutation == "extra":
            fields.append("0.5")
        elif mutation == "label-only":
            fields[:] = fields[:1] if labels else ["tok"]
        elif len(fields) > labels:
            fields[draw(st.integers(int(labels), len(fields) - 1))] = mutation
    text = [draw(st.sampled_from(joins)).join(fields) for fields in lines]
    for _ in range(draw(st.integers(0, 3))):
        text.insert(draw(st.integers(0, len(text))), draw(st.sampled_from(["", "  ", "\t"])))
    kwargs = {"labels": labels, "sep": sep}
    if draw(st.booleans()):
        text.insert(0, "h,cols")
        kwargs["header"] = "h,"
    return text, kwargs, block


@settings(max_examples=300, deadline=None)
@given(case=_table_files())
def test_block_reader_matches_line_by_line_reader(tmp_path_factory, case):
    """The block reader gives the line-by-line reader's labels and value
    bits, or its MalformedFile message, with blocks as small as one value."""
    text, kwargs, block = case
    path = tmp_path_factory.getbasetemp() / "table.txt"
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(errors, "_BLOCK", block)
        assert _outcome(read_rows, path, **kwargs) == _outcome(_line_by_line_read_rows, path, **kwargs)


@pytest.mark.parametrize(
    "mutated", [(), ((0, 0),), ((1, -1),), ((1, 0),), ((3, 5),), ((27, 11),), ((0, 3), (0, 9)), ((1, -2), (1, 1))]
)
@pytest.mark.parametrize("mutation", ["x", "nan", "drop", "label-only"])
def test_block_reader_matches_at_full_block_size(tmp_path, mutated, mutation):
    """A 1200-row track spans many blocks of the real size; an error on
    either side of a block boundary, alone or after a non-numeric value
    earlier in its block, is reported as the line-by-line reader reports
    it. A mutated row is given as (block, offset from its first row)."""
    per = -(-errors._BLOCK // 12)  # rows per block
    rows = np.random.default_rng(2).normal(size=(1200, 12))
    path = tmp_path / "t.csv"
    write_rows(path, "track file", rows, header="t_s,c", labels=[repr(i / 12) for i in range(1200)])
    lines = path.read_text(encoding="utf-8").splitlines()
    for (block, offset), kind in zip(mutated, ["x", mutation][-len(mutated) :]):
        row = min(1199, block * per + offset)
        fields = lines[1 + row].split(",")
        fields = {"drop": fields[:-1], "label-only": fields[:1]}.get(kind, [*fields[:5], kind, *fields[6:]])
        lines[1 + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    kwargs = {"header": "t_s,", "labels": True}
    expected = _outcome(_line_by_line_read_rows, path, **kwargs)
    assert _outcome(read_rows, path, **kwargs) == expected
    assert isinstance(expected, str) == bool(mutated)


def test_block_reader_reports_a_bad_value_before_an_undecodable_byte(tmp_path, monkeypatch):
    """A non-numeric value still pending in a block is reported before a
    byte further on that is not UTF-8, as the line-by-line reader does. The
    block spans the whole table, so the bad byte is decoded first."""
    monkeypatch.setattr(errors, "_BLOCK", 4096)
    rows = np.random.default_rng(3).normal(size=(300, 12))
    path = tmp_path / "t.csv"
    write_rows(path, "track file", rows, header="t_s,c", labels=[repr(i / 12) for i in range(300)])
    lines = path.read_bytes().split(b"\n")
    fields = lines[2].split(b",")
    lines[2] = b",".join([fields[0], b"x", *fields[2:]])
    lines[200] = b"\xff" + lines[200]
    path.write_bytes(b"\n".join(lines))
    kwargs = {"header": "t_s,", "labels": True}
    expected = _outcome(_line_by_line_read_rows, path, **kwargs)
    assert expected == f"{path}: line 3: non-numeric value"
    assert _outcome(read_rows, path, **kwargs) == expected


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    blocks=st.integers(0, 2),
    offset=st.integers(-2, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_file_sha256_streams_to_the_whole_file_digest(tmp_path, blocks, offset, seed):
    """Files of about 0, 1 or 2 hash blocks, a byte or two either side of
    each boundary, hash to the digest of their whole bytes."""
    data = np.random.default_rng(seed).bytes(max(0, blocks * HASH_BLOCK + offset))
    path = tmp_path / "table.txt"
    path.write_bytes(data)
    assert file_sha256(path) == hashlib.sha256(data).hexdigest()


def test_file_sha256_unreadable_is_one_line(tmp_path):
    with pytest.raises(MalformedFile, match="^cannot read embedding table: ") as info:
        file_sha256(tmp_path)  # a directory
    assert "\n" not in str(info.value)
