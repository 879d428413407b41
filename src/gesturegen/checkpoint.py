"""Versioned checkpoint container.

Layout: 4-byte magic, little-endian uint32 format version, uint64 header
length, a JSON header (sorted keys), then the concatenated raw float64
bytes of every array in header order. Writing is fully deterministic given
the content, and numeric payloads round-trip bit-exactly. Every array is
finite both ways: saving refuses a non-finite value and loading rejects one.
Loading checks the whole header first, then builds every part's arrays
(the model's and lift net's zeroed parameter layouts, drawing no weights,
and a pose basis sized by the header), and reads each array from its file
offset straight into its view after one shape check. A header that lists
an array name twice is refused.
The model's arrays and their order are `model.stored_arrays`.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .config import check_setting
from .errors import InvalidConfig, MalformedFile, open_for_write
from .lifting import BN_EPS, BN_MOMENTUM, LiftNetParams, build_lift_params
from .model import ModelConfig, Seq2SeqModel, build_model, stored_arrays
from .pose import POSE_DIM, PcaModel

MAGIC = b"GGCK"
FORMAT_VERSION = 1
_LIFT_CFG = {"bn_momentum": BN_MOMENTUM, "bn_eps": BN_EPS}  # the header's lift_cfg, the lift net's fixed settings


@dataclass
class Checkpoint:
    config: dict
    pca: PcaModel | None = None
    model: Seq2SeqModel | None = None
    lift: LiftNetParams | None = None
    embedding_ref: dict | None = None  # {"path": ..., "sha256": ...}


def _format1_arrays(ck: Checkpoint) -> list:
    """(format-1 name, array view) of every stored array, in file order; the
    model's come from `model.stored_arrays`, each GRU cell gate by gate.
    Saving writes these views and loading fills them."""
    arrays = []
    if ck.pca is not None:
        arrays += [(f"pca.{f.name}", getattr(ck.pca, f.name)) for f in fields(PcaModel)]
    if ck.model is not None:
        arrays += [(f"seq2seq.{name}", view) for name, view in stored_arrays(ck.model)]
    if ck.lift is not None:
        arrays += [(f"lift.{name}", p.value) for name, p in ck.lift.store.items()]
        arrays += [(f"lift.running.{key}", ck.lift.running[key]) for key in sorted(ck.lift.running)]
    return arrays


def save_checkpoint(ck: Checkpoint, path):
    """Write ck through open_for_write; a non-finite array is refused before
    any file is opened, so an existing checkpoint at path keeps its bytes."""
    arrays = _format1_arrays(ck)
    for name, a in arrays:
        if not np.isfinite(a).all():
            raise InvalidConfig(f"cannot save checkpoint: array {name} has non-finite values")
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
        header["lift_cfg"] = _LIFT_CFG
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open_for_write(path, "checkpoint", "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint: the header first (magic, version, array entries,
    file size, part settings), then each array from its file offset straight
    into the view it fills."""
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh)
    except OSError as exc:
        raise MalformedFile(f"cannot read checkpoint: {exc}") from exc


def _read_checkpoint(fh) -> Checkpoint:
    head = fh.read(16)
    if len(head) < 16 or head[:4] != MAGIC:
        raise MalformedFile("not a checkpoint file (bad magic)")
    (version,) = struct.unpack_from("<I", head, 4)
    if version != FORMAT_VERSION:
        raise MalformedFile(f"unsupported checkpoint format version {version}")
    (header_len,) = struct.unpack_from("<Q", head, 8)
    size = fh.seek(0, os.SEEK_END)
    fh.seek(16)
    try:
        header = json.loads(fh.read(min(header_len, size - 16)).decode("utf-8"))
        shapes = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedFile(f"corrupt checkpoint header: {exc}") from exc
    spans, offset = {}, 16 + header_len  # name -> (file offset, shape)
    for name, shape in shapes:
        if not isinstance(name, str) or not all(type(dim) is int and dim >= 0 for dim in shape):
            raise MalformedFile(
                f"corrupt checkpoint header: array {name!r} needs a string name and non-negative int dimensions, "
                f"got shape {list(shape)}"
            )
        if name in spans:
            raise MalformedFile(f"corrupt checkpoint header: array {name!r} is listed more than once")
        spans[name], offset = (offset, shape), offset + 8 * math.prod(shape)
    if size != offset:
        raise MalformedFile(f"checkpoint is {size} bytes, its header implies {offset}")

    model_cfg, lift_cfg, ref = header.get("model_cfg"), header.get("lift_cfg"), header.get("embedding_ref")
    has_pca, config = header.get("has_pca"), header.get("config")
    if not isinstance(has_pca, bool):
        raise MalformedFile(f"corrupt checkpoint header: has_pca must be true or false, got {has_pca!r}")
    if not isinstance(config, dict):
        raise MalformedFile("corrupt checkpoint header: config must be an object")
    types = {f.name: f.type for f in fields(ModelConfig)}
    if model_cfg is not None:
        if not isinstance(model_cfg, dict) or set(model_cfg) != set(types):
            raise MalformedFile(f"corrupt checkpoint header: model_cfg must have the keys {', '.join(sorted(types))}")
        for name, value in model_cfg.items():
            check_setting(name, value, types[name], "corrupt checkpoint header: model_cfg.", MalformedFile)
    if lift_cfg not in (None, _LIFT_CFG):
        raise MalformedFile(f"corrupt checkpoint header: lift_cfg must be null or {_LIFT_CFG}, got {lift_cfg!r}")
    if ref is not None and not (
        isinstance(ref, dict) and set(ref) == {"path", "sha256"} and all(isinstance(v, str) for v in ref.values())
    ):
        raise MalformedFile("corrupt checkpoint header: embedding_ref must be null or string path and sha256")
    if ref is not None:
        check_setting("embedding_ref.path", ref["path"], "str", "corrupt checkpoint header: ", MalformedFile)
    pca = None
    if has_pca:
        if "pca.components" not in spans:
            raise MalformedFile("checkpoint is missing array pca.components")
        components = spans["pca.components"][1]
        k = components[0] if components else 0
        check_setting("gesture_dim", k, "int", "corrupt pose basis: ", MalformedFile)
        pca = PcaModel(np.empty(POSE_DIM), np.empty((k, POSE_DIM)), np.empty(k))
    model = None if model_cfg is None else build_model(ModelConfig(**model_cfg))
    lift = None if lift_cfg is None else build_lift_params()

    ck = Checkpoint(config=config, pca=pca, model=model, lift=lift, embedding_ref=ref)
    for name, into in _format1_arrays(ck):  # each a C-contiguous view
        if name not in spans:
            raise MalformedFile(f"checkpoint is missing array {name}")
        start, shape = spans[name]
        if into.shape != shape:
            raise MalformedFile(f"array {name} has shape {shape}, expected {into.shape}")
        fh.seek(start)
        if fh.readinto(into) != into.nbytes:
            raise MalformedFile(f"checkpoint ended inside array {name}")
        if sys.byteorder != "little":
            into.byteswap(inplace=True)  # the file is little-endian
        if not np.isfinite(into).all():
            raise MalformedFile(f"array {name} has non-finite values")
    return ck
