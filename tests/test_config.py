"""Config is the one flat record of every tunable and the one home of
every default: training and lift training read it directly, the model
record is built from it, and the CLI flag overrides set its fields."""

import argparse
from dataclasses import fields

import pytest

from gesturegen.cli import _apply_overrides, build_parser, main
from gesturegen.config import _BOUNDS, Config
from gesturegen.model import ModelConfig

MODEL_VALUES = dict(word_dim=9, hidden=11, att_dim=13, n_seed_poses=3, n_output_poses=5, dropout=0.3)


def test_every_record_field_comes_from_config():
    # the model's gesture dimension is the fitted basis size, passed in
    out = Config(**MODEL_VALUES).model_config(4)
    assert out.gesture_dim == 4
    assert {f.name for f in fields(ModelConfig)} == {*MODEL_VALUES, "gesture_dim"}
    for name, value in MODEL_VALUES.items():
        assert getattr(Config(), name) != value, name
        assert getattr(out, name) == value, name


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
        ("train", "{}", ["--dropout", "1.0"], "config dropout must be < 1, got 1.0"),
        ("train", "{}", ["--batch-size", "0"], "config batch_size must be >= 1, got 0"),
        ("train", "{}", ["--lr", "0"], "config lr must be > 0, got 0.0"),
        ("train", "{}", ["--alpha", "-1"], "config alpha must be >= 0, got -1.0"),
        ("train", "{}", ["--epochs", "-1"], "config epochs must be >= 0, got -1"),
        ("train", "{}", ["--hidden", "1025"], "config hidden must be <= 1024, got 1025"),
        ("train", "{}", ["--att-dim", "1025"], "config att_dim must be <= 1024, got 1025"),
        ("train", "{}", ["--word-dim", "1025"], "config word_dim must be <= 1024, got 1025"),
        ("lift-train", "{}", ["--lift-steps", "0"], "config lift_steps must be >= 1, got 0"),
        ("lift-train", "{}", ["--lift-corpus-size", "0"], "config lift_corpus_size must be >= 1, got 0"),
        ("lift-train", "{}", ["--lift-corpus-size", "100001"], "config lift_corpus_size must be <= 100000, got 100001"),
        ("schedule", "{}", ["--words-per-minute", "0"], "config words_per_minute must be > 0, got 0.0"),
        ("schedule", '{"n_output_poses": 121}', [], "config n_output_poses must be <= 120, got 121"),
    ],
)
def test_bad_config_value_is_single_line(tmp_path, capsys, command, config, flags, reason):
    (tmp_path / "cfg.json").write_text(config)
    args = {
        "schedule": ["--text", "hi", "--duration", "2"],
        "train": [],
        "synth-corpus": ["--sentences", "1"],
        "baseline": ["nn", "--text", "hi"],
        "lift-train": [],
    }[command]
    # Input paths that do not exist: a refusal after a file read fails the row
    for flag in ("dataset", "embeddings", "checkpoint"):
        args += [f"--{flag}", str(tmp_path / f"missing_{flag}")]
    argv = [command, "--config", str(tmp_path / "cfg.json"), "--out-dir", str(tmp_path / "out"), *args, *flags]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"{command}: {reason}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_every_numeric_setting_is_bounded():
    numeric = {f.name for record in (Config, ModelConfig) for f in fields(record) if f.type in ("int", "float")}
    assert numeric - set(_BOUNDS) == set()
