"""Tokenization and word-embedding lookup.

The embedding file format is plain text: one token per line followed by its
vector, space-separated decimals. Any dimension is accepted (the first line
sets it); 300 is the conventional size. Unknown tokens embed to the zero
vector.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import MalformedFile, open_for_write

EMBED_DIM = 300


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
    dim: int = EMBED_DIM
    entries: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.entries)

    def lookup(self, token: str) -> np.ndarray:
        """Stored vector, or an exact zero vector for unknown tokens."""
        vec = self.entries.get(token)
        if vec is None:
            return np.zeros(self.dim)
        return vec


def load_embedding_table(path) -> EmbeddingTable:
    """Parse a text embedding file. The first line fixes the dimension;
    a later line disagreeing, a non-numeric or non-finite field, and an
    unreadable or non-UTF-8 file raise MalformedFile; line errors name the
    line number. Blank lines are skipped."""
    dim = None
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                token, fields = parts[0], parts[1:]
                if not fields:
                    raise MalformedFile(f"line {line_no}: token without vector")
                if dim is None:
                    dim = len(fields)
                elif len(fields) != dim:
                    raise MalformedFile(f"line {line_no}: expected {dim} values, got {len(fields)}")
                try:
                    vec = np.array([float(f) for f in fields])
                except ValueError:
                    raise MalformedFile(f"line {line_no}: non-numeric field") from None
                if not np.isfinite(vec).all():
                    raise MalformedFile(f"line {line_no}: non-finite value")
                entries[token] = vec
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedFile(f"cannot read embedding table: {exc}") from exc
    return EmbeddingTable(dim=dim if dim is not None else EMBED_DIM, entries=entries)


def write_synthetic_embeddings(tokens, path, dim: int = EMBED_DIM, seed: int = 0) -> int:
    """Write a small random embedding table in the standard text format.

    Stands in for a pretrained table at desk scale; the loader cannot tell
    the difference. Returns the number of lines written.
    """
    rng = np.random.default_rng(seed)
    unique = sorted(set(tokens))
    with open_for_write(path, "embedding table") as fh:
        for token in unique:
            vec = rng.normal(0.0, 0.4, size=dim)
            fh.write(token + " " + " ".join(repr(float(v)) for v in vec) + "\n")
    return len(unique)


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
