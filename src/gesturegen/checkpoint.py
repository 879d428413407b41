"""Versioned checkpoint container.

Layout: 4-byte magic, little-endian uint32 format version, uint64 header
length, a JSON header (sorted keys), then the concatenated raw float64
bytes of every array in header order. Writing is fully deterministic given
the content, and numeric payloads round-trip bit-exactly. Every array is
finite both ways: saving refuses a non-finite value and loading rejects one.
Loading checks the whole header first, then builds the zeroed parameter
layouts, drawing no weights, and reads each array from its file offset
straight into its view; the pose basis gets fresh arrays. A header that
lists an array name twice is refused.
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
_PCA_FIELDS = ("mean", "components", "explained_variance_ratio")
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
        arrays += [(f"pca.{key}", getattr(ck.pca, key)) for key in _PCA_FIELDS]
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


def _header_config(header, key, types):
    """The keyword arguments stored under header[key], or None if absent;
    ``types`` maps each key to its annotated type."""
    entry = header.get(key)
    if not entry:
        return None
    if not isinstance(entry, dict) or set(entry) != set(types):
        raise MalformedFile(f"corrupt checkpoint header: {key} must have the keys {', '.join(sorted(types))}")
    for name, value in entry.items():
        check_setting(name, value, types[name], f"corrupt checkpoint header: {key}.", MalformedFile)
    return entry


def _check_basis(pca: PcaModel):
    """Refuse a pose basis that is not a (16,) mean, (k, 16) components and
    (k,) variance ratios with k a valid gesture_dim."""
    shapes = tuple(getattr(pca, key).shape for key in _PCA_FIELDS)
    k = shapes[1][0] if shapes[1] else 0
    if shapes != ((POSE_DIM,), (k, POSE_DIM), (k,)):
        raise MalformedFile(
            f"corrupt pose basis: mean, components and explained_variance_ratio have shapes "
            f"{', '.join(map(str, shapes))}, expected ({POSE_DIM},), (k, {POSE_DIM}), (k,)"
        )
    check_setting("gesture_dim", k, "int", "corrupt pose basis: ", MalformedFile)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint: the header's layout first (magic, version, array
    entries, file size), then each array from its file offset straight into
    the view it fills; the pose basis goes into fresh arrays."""
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

    def read(name, into=None):  # into a C-contiguous view, or a fresh array
        if name not in spans:
            raise MalformedFile(f"checkpoint is missing array {name}")
        start, shape = spans[name]
        if into is None:
            into = np.empty(shape)
        elif into.shape != shape:
            raise MalformedFile(f"array {name} has shape {shape}, expected {into.shape}")
        fh.seek(start)
        if fh.readinto(into) != into.nbytes:
            raise MalformedFile(f"checkpoint ended inside array {name}")
        if sys.byteorder != "little":
            into.byteswap(inplace=True)  # the file is little-endian
        return into

    pca = None
    if header.get("has_pca"):
        pca = PcaModel(**{key: read(f"pca.{key}") for key in _PCA_FIELDS})
        _check_basis(pca)

    model_cfg = _header_config(header, "model_cfg", {f.name: f.type for f in fields(ModelConfig)})
    lift_cfg = _header_config(header, "lift_cfg", dict.fromkeys(_LIFT_CFG, "float"))
    if lift_cfg not in (None, _LIFT_CFG):
        raise MalformedFile(f"corrupt checkpoint header: lift_cfg must be null or {_LIFT_CFG}, got {lift_cfg}")
    ref = header.get("embedding_ref")
    if ref is not None and not (
        isinstance(ref, dict) and set(ref) == {"path", "sha256"} and all(isinstance(v, str) for v in ref.values())
    ):
        raise MalformedFile("corrupt checkpoint header: embedding_ref must be null or string path and sha256")
    model = None if model_cfg is None else build_model(ModelConfig(**model_cfg))
    lift = None if lift_cfg is None else build_lift_params()

    ck = Checkpoint(config=header.get("config", {}), pca=pca, model=model, lift=lift, embedding_ref=ref)
    for name, target in _format1_arrays(ck):
        if not name.startswith("pca."):  # the pose basis is read above
            read(name, target)
        if not np.isfinite(target).all():
            raise MalformedFile(f"array {name} has non-finite values")
    return ck
