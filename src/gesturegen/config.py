"""Run configuration: one flat record of every tunable, JSON-loadable,
with defaults matching the published training setup where one exists.

Config is the one place a setting's default is written: train_model,
compute_loss_graph and train_lift take a Config, and the model record is
built from it by model_config."""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields

from .errors import InvalidConfig, MalformedFile
from .model import ModelConfig
from .pose import POSE_DIM

# Accepted value types per annotated field type; a bool is never an int
_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}
_KIND = {"int": "an integer", "float": "a finite number", "str": "a string"}
_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}
# Every bound of every numeric setting, and the only range checks of Config
# and ModelConfig. Widths stop at 1024: a model with all three at 1024 has
# 53.5M parameters, about 1.6 GiB to train with gradients and both Adam
# moments (6.4 GiB at 2048). 120 poses are 10 s.
_BOUNDS = {
    **dict.fromkeys(("alpha", "beta", "epochs", "seed", "checkpoint_every"), ">= 0"),
    **dict.fromkeys(("lr", "words_per_minute"), "> 0"),
    **dict.fromkeys(("batch_size", "chunk_len", "lift_steps"), ">= 1"),
    **dict.fromkeys(("hidden", "att_dim", "word_dim"), ">= 1, <= 1024"),
    **dict.fromkeys(("n_seed_poses", "n_output_poses"), ">= 1, <= 120"),
    "gesture_dim": f">= 1, <= {POSE_DIM}",
    "lift_corpus_size": ">= 1, <= 100000",
    "dropout": ">= 0, < 1",
}


def finite_number(value) -> bool:
    """True for a finite number that is not a bool: JSON true and false load
    as bools, and a bool is an int. An int too large for a float is not."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def check_setting(name: str, value, kind: str, label: str = "config ", error=InvalidConfig) -> None:
    """Raise ``error`` unless ``value`` has the annotated type ``kind`` and
    meets every bound of setting ``name``; the message names the setting
    as ``label`` plus ``name``. A string may not hold a NUL byte, which no
    path can."""
    if isinstance(value, bool) or not isinstance(value, _TYPES[kind]) or (kind == "float" and not finite_number(value)):
        raise error(f"{label}{name} must be {_KIND[kind]}, got {value!r}")
    if kind == "str" and "\x00" in value:
        raise error(f"{label}{name} must not hold a NUL byte, got {value!r}")
    for term in filter(None, _BOUNDS.get(name, "").split(", ")):
        op, bound = term.split()
        if not _OPS[op](value, float(bound)):
            raise error(f"{label}{name} must be {term}, got {value}")


@dataclass
class Config:
    # loss and optimization
    alpha: float = 0.01
    beta: float = 1.0
    lr: float = 0.0001
    batch_size: int = 64
    dropout: float = 0.1
    epochs: int = 560
    seed: int = 0
    # architecture
    n_seed_poses: int = 10
    n_output_poses: int = 20
    hidden: int = 200
    att_dim: int = 200
    word_dim: int = 300
    # timing
    words_per_minute: float = 160.0
    # baselines
    chunk_len: int = 6
    # lifting
    lift_steps: int = 2000
    lift_corpus_size: int = 400
    # checkpointing
    checkpoint_every: int = 0
    # paths
    dataset: str = ""
    embeddings: str = ""
    checkpoint: str = ""
    out_dir: str = "out"

    def __post_init__(self):
        for f in fields(self):
            check_setting(f.name, getattr(self, f.name), f.type)

    def model_config(self, gesture_dim: int) -> ModelConfig:
        """The model record for a pose basis of ``gesture_dim`` components."""
        shared = {f.name: getattr(self, f.name) for f in fields(ModelConfig) if f.name != "gesture_dim"}
        return ModelConfig(**shared, gesture_dim=gesture_dim)


def load_config(path=None) -> Config:
    if path is None:
        return Config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedFile(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an int over the digit limit
        raise MalformedFile(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedFile("config must be a JSON object")
    unknown = set(data) - {f.name for f in fields(Config)}
    if unknown:
        raise InvalidConfig(f"unknown config keys: {', '.join(sorted(unknown))}")
    return Config(**data)
