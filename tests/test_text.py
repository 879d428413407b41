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


def test_loader_wrong_count(tmp_path):
    path = tmp_path / "emb.txt"
    lines = ["tok " + " ".join(["0.5"] * 300), "bad " + " ".join(["0.5"] * 299)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedFile, match="^line 2: expected 300 values, got 299$"):
        load_embedding_table(path)


def test_loader_non_numeric(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("tok 1.0 oops 3.0\n")
    with pytest.raises(MalformedFile, match="^line 1: non-numeric field$"):
        load_embedding_table(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_loader_non_finite(tmp_path, value):
    path = tmp_path / "emb.txt"
    path.write_text(f"tok 1.0 2.0\nbad 1.0 {value}\n")
    with pytest.raises(MalformedFile, match="^line 2: non-finite value$"):
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
