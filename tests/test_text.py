import hashlib
import re

import numpy as np
import pytest

from gesturegen.errors import MalformedFile
from gesturegen.text import (
    EmbeddingTable,
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
    assert np.array_equal(table.lookup("beta"), [-0.5, 0.25, 0.125])


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
    for token in sorted(tokens):
        expected = rng.normal(0.0, 0.4, size=300)
        assert np.array_equal(table.lookup(token), expected)  # bit-exact round trip


def test_embed_tokens():
    table = EmbeddingTable(dim=300, entries={"known": np.arange(300.0)})
    out = [table.lookup(tok) for tok in ["known", "unknown", "known"]]
    assert [len(v) for v in out] == [300, 300, 300]
    assert np.array_equal(out[0], np.arange(300.0))
    assert np.array_equal(out[1], np.zeros(300))
    assert np.count_nonzero(out[1]) == 0


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
