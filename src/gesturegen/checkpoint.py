"""Versioned checkpoint container.

Layout: 4-byte magic, little-endian uint32 format version, uint64 header
length, a JSON header (sorted keys), then the concatenated raw float64
bytes of every array in header order. Writing is fully deterministic given
the content, and numeric payloads round-trip bit-exactly.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import IoFailure, MalformedFile
from .lifting import LiftNetParams, init_lift_params
from .model import ModelConfig, Seq2SeqModel, init_model
from .pose import PcaModel

MAGIC = b"GGCK"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    config: dict
    pca: PcaModel | None = None
    model: Seq2SeqModel | None = None
    lift: LiftNetParams | None = None
    embedding_ref: dict | None = None  # {"path": ..., "sha256": ...}


def _collect_arrays(ck: Checkpoint):
    arrays = []
    if ck.pca is not None:
        arrays.append(("pca.mean", ck.pca.mean))
        arrays.append(("pca.components", ck.pca.components))
        arrays.append(("pca.explained_variance_ratio", ck.pca.explained_variance_ratio))
    if ck.model is not None:
        for name, p in ck.model.store.items():
            arrays.append((f"seq2seq.{name}", p.value))
    if ck.lift is not None:
        for name, p in ck.lift.store.items():
            arrays.append((f"lift.{name}", p.value))
        for key in sorted(ck.lift.running):
            arrays.append((f"lift.running.{key}", ck.lift.running[key]))
    return arrays


def save_checkpoint(ck: Checkpoint, path):
    arrays = _collect_arrays(ck)
    header = {
        "config": ck.config,
        "embedding_ref": ck.embedding_ref,
        "has_pca": ck.pca is not None,
        "model_cfg": None,
        "lift_cfg": None,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    if ck.model is not None:
        header["model_cfg"] = asdict(ck.model.cfg)
    if ck.lift is not None:
        header["lift_cfg"] = {"bn_momentum": ck.lift.bn_momentum, "bn_eps": ck.lift.bn_eps}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # Write beside the target and rename over it, so a failed write never
    # leaves a half-written checkpoint where the old one was.
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for _, a in arrays:
                fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write checkpoint: {exc}") from exc
        raise


def _header_config(header, key, names):
    """The keyword arguments stored under header[key], or None if absent."""
    entry = header.get(key)
    if not entry:
        return None
    if not isinstance(entry, dict) or set(entry) != set(names):
        raise MalformedFile(f"corrupt checkpoint header: {key} must have the keys {', '.join(sorted(names))}")
    for name, value in entry.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MalformedFile(f"corrupt checkpoint header: {key}.{name} is not a number")
    return entry


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MalformedFile(f"cannot read checkpoint: {exc}") from exc
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise MalformedFile("not a checkpoint file (bad magic)")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != FORMAT_VERSION:
        raise MalformedFile(f"unsupported checkpoint format version {version}")
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
        shapes = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedFile(f"corrupt checkpoint header: {exc}") from exc

    offset = 16 + header_len
    expected = offset + 8 * sum(math.prod(shape) for _, shape in shapes)
    if len(raw) != expected:
        raise MalformedFile(f"checkpoint is {len(raw)} bytes, its header implies {expected}")
    values = {}
    for name, shape in shapes:
        count = math.prod(shape)
        values[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += count * 8

    def take(name):
        if name not in values:
            raise MalformedFile(f"checkpoint is missing array {name}")
        return values[name]

    def restore(name, target):
        stored = take(name)
        if stored.shape != target.shape:
            raise MalformedFile(f"array {name} has shape {stored.shape}, expected {target.shape}")
        target[...] = stored

    pca = None
    if header.get("has_pca"):
        pca = PcaModel(**{key: take(f"pca.{key}") for key in ("mean", "components", "explained_variance_ratio")})

    model_cfg = _header_config(header, "model_cfg", [f.name for f in fields(ModelConfig)])
    lift_cfg = _header_config(header, "lift_cfg", ["bn_momentum", "bn_eps"])
    try:
        model = None if model_cfg is None else init_model(ModelConfig(**model_cfg), seed=0)
        lift = None if lift_cfg is None else init_lift_params(seed=0, **lift_cfg)
    except (TypeError, ValueError) as exc:
        raise MalformedFile(f"corrupt checkpoint header: {exc}") from exc

    if model is not None:
        for name, p in model.store.items():
            restore(f"seq2seq.{name}", p.value)
    if lift is not None:
        for name, p in lift.store.items():
            restore(f"lift.{name}", p.value)
        for key, buffer in lift.running.items():
            restore(f"lift.running.{key}", buffer)

    return Checkpoint(
        config=header.get("config", {}),
        pca=pca,
        model=model,
        lift=lift,
        embedding_ref=header.get("embedding_ref"),
    )
