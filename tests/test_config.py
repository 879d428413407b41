"""Config is the one flat record of every tunable: the training, model and
lift records and the CLI flag overrides are derived from its fields."""

import argparse
from dataclasses import fields

import pytest

from gesturegen.cli import _apply_overrides, build_parser, main
from gesturegen.config import Config
from gesturegen.lifting import LiftTrainConfig
from gesturegen.model import ModelConfig
from gesturegen.training import Hyperparams

NON_DEFAULT = dict(
    alpha=0.5,
    beta=0.2,
    lr=0.003,
    batch_size=7,
    dropout=0.3,
    epochs=11,
    seed=5,
    word_dim=9,
    hidden=11,
    att_dim=13,
    n_seed_poses=3,
    n_output_poses=5,
    lift_steps=3,
)


@pytest.mark.parametrize(
    "method, record, renamed",
    [
        ("hyperparams", Hyperparams, {}),
        ("model_config", ModelConfig, {}),
        ("lift_config", LiftTrainConfig, {"steps": "lift_steps"}),
    ],
)
def test_every_record_field_comes_from_config(method, record, renamed):
    # the model's gesture dimension is the fitted basis size, passed in
    given = {"gesture_dim": 4} if record is ModelConfig else {}
    out = getattr(Config(**NON_DEFAULT), method)(**given)
    source = {**NON_DEFAULT, **given}
    defaults = record()
    for f in fields(record):
        value = source[renamed.get(f.name, f.name)]
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


@pytest.mark.parametrize("value", ["NaN", "0", "-12"])
def test_fps_is_not_a_config_key(tmp_path, capsys, value):
    (tmp_path / "cfg.json").write_text(f'{{"fps": {value}}}')
    assert main(["schedule", "--config", str(tmp_path / "cfg.json"), "--text", "hi", "--duration", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == ["schedule: unknown config keys: fps"]


@pytest.mark.parametrize(
    "command, config, flags, reason",
    [
        ("schedule", '{"n_seed_poses": "x"}', [], "config n_seed_poses must be an integer, got 'x'"),
        ("schedule", '{"n_seed_poses": true}', [], "config n_seed_poses must be an integer, got True"),
        ("train", '{"epochs": 2.5}', [], "config epochs must be an integer, got 2.5"),
        ("synth-corpus", '{"seed": 1.5}', [], "config seed must be an integer, got 1.5"),
        ("synth-corpus", "{}", ["--seed", "-1"], "config seed must be >= 0, got -1"),
        ("train", "{}", ["--checkpoint-every", "-1"], "config checkpoint_every must be >= 0, got -1"),
        ("baseline", "{}", ["--chunk-len", "0"], "config chunk_len must be >= 1, got 0"),
    ],
)
def test_bad_config_value_is_single_line(tmp_path, capsys, command, config, flags, reason):
    (tmp_path / "cfg.json").write_text(config)
    args = {
        "schedule": ["--text", "hi", "--duration", "2"],
        "train": [],
        "synth-corpus": ["--sentences", "1"],
        "baseline": ["nn", "--text", "hi"],
    }[command]
    argv = [command, "--config", str(tmp_path / "cfg.json"), "--out-dir", str(tmp_path / "out"), *args, *flags]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"{command}: {reason}"]
