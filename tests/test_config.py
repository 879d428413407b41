"""Config is the one flat record of every tunable: the training, model and
curation records and the CLI flag overrides are derived from its fields."""

import argparse
from dataclasses import fields

import pytest

from gesturegen.cli import _apply_overrides, build_parser
from gesturegen.config import Config
from gesturegen.corpus import CurationThresholds
from gesturegen.model import ModelConfig
from gesturegen.training import Hyperparams

NON_DEFAULT = dict(
    alpha=0.5,
    beta=0.2,
    lr=0.003,
    batch_size=7,
    clip_lo=-2.0,
    clip_hi=3.0,
    dropout=0.3,
    epochs=11,
    seed=5,
    word_dim=9,
    hidden=11,
    att_dim=13,
    pca_components=4,
    n_seed_poses=3,
    n_output_poses=5,
    min_size_ratio=0.6,
    min_frontal_ratio=0.3,
    min_duration=6.0,
    min_motion=0.4,
    max_jitter=20.0,
)


@pytest.mark.parametrize(
    "method, record, renamed",
    [
        ("hyperparams", Hyperparams, {}),
        ("model_config", ModelConfig, {"gesture_dim": "pca_components"}),
        ("curation_thresholds", CurationThresholds, {}),
    ],
)
def test_every_record_field_comes_from_config(method, record, renamed):
    out = getattr(Config(**NON_DEFAULT), method)()
    defaults = record()
    for f in fields(record):
        value = NON_DEFAULT[renamed.get(f.name, f.name)]
        assert getattr(defaults, f.name) != value, f.name
        assert getattr(out, f.name) == value, f.name


# Config field -> command line that sets it to a non-default value
OVERRIDES = {
    "seed": ["train", "--seed", "9"],
    "epochs": ["train", "--epochs", "3"],
    "lr": ["train", "--lr", "0.5"],
    "alpha": ["train", "--alpha", "0.5"],
    "beta": ["train", "--beta", "0.5"],
    "batch_size": ["train", "--batch-size", "3"],
    "dropout": ["train", "--dropout", "0.5"],
    "hidden": ["train", "--hidden", "3"],
    "att_dim": ["train", "--att-dim", "3"],
    "word_dim": ["train", "--word-dim", "3"],
    "stride": ["train", "--stride", "3"],
    "checkpoint_every": ["train", "--checkpoint-every", "3"],
    "words_per_minute": ["generate", "--text", "hi", "--words-per-minute", "90"],
    "dataset": ["curate", "--dataset", "d.jsonl"],
    "embeddings": ["curate", "--embeddings", "e.txt"],
    "checkpoint": ["curate", "--checkpoint", "c.ggck"],
    "out_dir": ["curate", "--out-dir", "elsewhere"],
    "lift_steps": ["lift-train", "--lift-steps", "3"],
    "lift_corpus_size": ["lift-train", "--lift-corpus-size", "3"],
    "chunk_len": ["baseline", "nn", "--chunk-len", "3"],
}


def test_flags_naming_config_fields_are_the_overrides():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for p in sub.choices.values() for a in p._actions}
    assert dests & {f.name for f in fields(Config)} == set(OVERRIDES)


@pytest.mark.parametrize("name", sorted(OVERRIDES))
def test_override_flag_sets_its_field(name):
    args = build_parser().parse_args(OVERRIDES[name])
    cfg = _apply_overrides(Config(), args)
    value = getattr(cfg, name)
    assert value == getattr(args, name) and value != getattr(Config(), name)
    assert {k: v for k, v in cfg.to_dict().items() if k != name} == {
        k: v for k, v in Config().to_dict().items() if k != name
    }
