"""Run configuration: one flat record of every tunable, JSON-loadable,
with defaults matching the published training setup where one exists."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

from .errors import InvalidConfig, MalformedFile
from .lifting import LiftTrainConfig
from .model import ModelConfig
from .training import Hyperparams

# Accepted value types per annotated field type; a bool is never an int
_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}
_KIND = {"int": "an integer", "float": "a finite number", "str": "a string"}
# Smallest accepted value of each bounded field
_MINIMUM = {"seed": 0, "checkpoint_every": 0, "chunk_len": 1}


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
            value = getattr(self, f.name)
            if (
                isinstance(value, bool)
                or not isinstance(value, _TYPES[f.type])
                or (isinstance(value, float) and not math.isfinite(value))
            ):
                raise InvalidConfig(f"config {f.name} must be {_KIND[f.type]}, got {value!r}")
        for name, low in _MINIMUM.items():
            if getattr(self, name) < low:
                raise InvalidConfig(f"config {name} must be >= {low}, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return asdict(self)

    def _record(self, cls, **given):
        """Build ``cls`` from the same-named fields; ``given`` supplies the
        fields that have no same-named field here."""
        values = {f.name: getattr(self, f.name) for f in fields(cls) if f.name not in given}
        return cls(**values, **given)

    def hyperparams(self) -> Hyperparams:
        return self._record(Hyperparams)

    def model_config(self, gesture_dim: int) -> ModelConfig:
        """The model record for a pose basis of ``gesture_dim`` components."""
        return self._record(ModelConfig, gesture_dim=gesture_dim)

    def lift_config(self) -> LiftTrainConfig:
        return self._record(LiftTrainConfig, steps=self.lift_steps)


def load_config(path=None) -> Config:
    if path is None:
        return Config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MalformedFile(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedFile("config must be a JSON object")
    unknown = set(data) - {f.name for f in fields(Config)}
    if unknown:
        raise InvalidConfig(f"unknown config keys: {', '.join(sorted(unknown))}")
    return Config(**data)
