"""Run configuration: one flat record of every tunable, JSON-loadable,
with defaults matching the published training setup where one exists."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from .corpus import CurationThresholds
from .errors import InvalidConfig, MalformedFile
from .model import ModelConfig
from .training import Hyperparams


@dataclass
class Config:
    # loss and optimization
    alpha: float = 0.01
    beta: float = 1.0
    lr: float = 0.0001
    batch_size: int = 64
    clip_lo: float = -5.0
    clip_hi: float = 5.0
    dropout: float = 0.1
    epochs: int = 560
    seed: int = 0
    # architecture
    n_seed_poses: int = 10
    n_output_poses: int = 20
    hidden: int = 200
    att_dim: int = 200
    word_dim: int = 300
    pca_components: int = 10
    # timing
    fps: float = 12.0
    words_per_minute: float = 160.0
    # training pairs
    stride: int = 0  # 0 means "one output length"
    # curation thresholds
    min_size_ratio: float = 0.5
    min_frontal_ratio: float = 0.25
    min_duration: float = 5.0
    min_motion: float = 0.2
    max_jitter: float = 30.0
    # baselines
    chunk_len: int = 6
    crossfade: int = 4
    # lifting
    lift_steps: int = 2000
    lift_lr: float = 0.01
    lift_batch: int = 16
    lift_corpus_size: int = 400
    rot_range_deg: float = 30.0
    noise_sigma: float = 0.02
    # checkpointing
    checkpoint_every: int = 0
    # paths
    dataset: str = ""
    embeddings: str = ""
    checkpoint: str = ""
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InvalidConfig(f"unknown config keys: {', '.join(sorted(unknown))}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)

    def _record(self, cls, **renamed):
        """Build ``cls`` from the same-named fields; ``renamed`` supplies the
        fields whose name differs here."""
        values = {f.name: getattr(self, f.name) for f in fields(cls) if f.name not in renamed}
        return cls(**values, **renamed)

    def hyperparams(self) -> Hyperparams:
        return self._record(Hyperparams)

    def model_config(self) -> ModelConfig:
        return self._record(ModelConfig, gesture_dim=self.pca_components)

    def curation_thresholds(self) -> CurationThresholds:
        return self._record(CurationThresholds)


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
    return Config.from_dict(data)
