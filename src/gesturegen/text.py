"""Tokenization and the word embedding that feeds the model.

The embedding file format is plain text: one token per line followed by its
vector, space-separated decimals; no token appears twice. Any dimension is
accepted (the first line sets it); 300 is the conventional size. Unknown
tokens embed to the zero vector.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import MalformedFile, read_rows, write_rows

HASH_BLOCK = 1 << 20  # bytes per read of file_sha256


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation except intra-word apostrophes, split on
    whitespace. Deterministic; empty input gives an empty list."""
    cleaned = []
    for ch in text.lower():
        if ch.isalnum() or ch == "'":
            cleaned.append(ch)
        else:
            cleaned.append(" ")
    tokens = []
    for piece in "".join(cleaned).split():
        piece = piece.strip("'")
        if piece:
            tokens.append(piece)
    return tokens


@dataclass
class EmbeddingTable:
    dim: int
    entries: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.entries)

    def embed(self, sequences):
        """One zero-padded (B, longest, dim) batch of B token sequences'
        stored vectors, an unknown token as an exact zero row, and the (B,)
        sequence lengths."""
        lengths = np.array([len(tokens) for tokens in sequences])
        batch = np.zeros((len(sequences), lengths.max(), self.dim))
        zero = np.zeros(self.dim)
        for row, tokens in enumerate(sequences):
            for col, token in enumerate(tokens):
                batch[row, col] = self.entries.get(token, zero)
        return batch, lengths


def load_embedding_table(path) -> EmbeddingTable:
    """Read an embedding file in the format above; an empty file or a token
    listed twice is refused."""
    tokens, vectors = read_rows(path, "embedding table", labels=True, sep=None)
    entries = dict(zip(tokens, vectors))
    if len(entries) < len(tokens):
        seen = set()
        repeated = next(t for t in tokens if t in seen or seen.add(t))
        raise MalformedFile(f"{path}: token {repeated!r} is listed more than once")
    return EmbeddingTable(dim=vectors.shape[1], entries=entries)


def write_synthetic_embeddings(tokens, path, dim: int, seed: int) -> int:
    """Write a small random embedding table in the standard text format.

    Stands in for a pretrained table at desk scale; the loader cannot tell
    the difference. Returns the number of lines written.
    """
    unique = sorted(set(tokens))
    vectors = np.random.default_rng(seed).normal(0.0, 0.4, size=(len(unique), dim))
    write_rows(path, "embedding table", vectors, labels=unique, sep=" ")
    return len(unique)


def file_sha256(path) -> str:
    """The sha256 hex digest of the embedding table at ``path``, read one
    HASH_BLOCK at a time; an unreadable file is refused as the loader does."""
    digest = hashlib.sha256()
    try:
        with Path(path).open("rb") as fh:
            while block := fh.read(HASH_BLOCK):
                digest.update(block)
    except OSError as exc:
        raise MalformedFile(f"cannot read embedding table: {exc}") from exc
    return digest.hexdigest()
