"""Command-line surface. Every command reads an optional JSON config plus
flag overrides, writes machine-readable files, and prints a short summary:
on stdout, or on stderr when an output file is stdout itself. Exit code 0
on success; failures print one `command: reason` line."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .baselines import eval_tracks, manual_baseline, nn_baseline, random_baseline
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import Config, load_config
from .corpus import corpus_vocabulary, curate_shots, load_records_jsonl, save_records_jsonl, synth_corpus
from .errors import GestureGenError, InvalidConfig, IoFailure, MalformedFile, _descriptor, open_for_write
from .kinematics import save_angles_csv
from .lifting import lift_mse, retarget_track, synth_pose3d_corpus, train_lift
from .model import init_model
from .pose import component_sweep, decode_pose, fit_pca, normalize_pose
from .render import render
from .synthesis import (
    DEFAULT_FPS,
    align_track,
    estimate_speech_duration,
    export_attention,
    generate_gesture,
    load_track_csv,
    plan_chunks,
    save_track_csv,
)
from .text import file_sha256, load_embedding_table, tokenize, write_synthetic_embeddings
from .training import make_training_pairs, train_model, write_history_csv

def _apply_overrides(cfg: Config, args) -> Config:
    """``cfg`` with every given flag whose dest names a Config field,
    validated again."""
    given = {f.name: getattr(args, f.name, None) for f in fields(Config)}
    return replace(cfg, **{k: v for k, v in given.items() if v is not None})


def _require(value, what):
    if not value:
        raise InvalidConfig(f"missing required {what}")
    return value


# Checkpoint part -> what a checkpoint without it lacks
_PARTS = {
    "pca": "fitted pose model; run fit-pca first",
    "model": "trained generation model; run train first",
    "lift": "lift net; run lift-train first",
}


def _checkpoint(cfg: Config, *parts) -> Checkpoint:
    """The checkpoint at ``cfg.checkpoint``, refused unless it holds every
    named part."""
    ck = load_checkpoint(_require(cfg.checkpoint, "checkpoint path"))
    for part in parts:
        if getattr(ck, part) is None:
            raise InvalidConfig(f"checkpoint has no {_PARTS[part]}")
    return ck


def _save(cfg: Config, ck: Checkpoint, path, **parts):
    """Write ``ck`` with ``parts`` replaced and this run's config to ``path``."""
    save_checkpoint(replace(ck, config=cfg.to_dict(), **parts), path)


def _load_table(cfg: Config, ck: Checkpoint):
    """The embedding table and its ``{"path", "sha256"}`` reference: the
    configured file, else the checkpoint's, which must match its hash
    before it is parsed."""
    path = cfg.embeddings or (ck.embedding_ref or {}).get("path")
    if not path:
        raise InvalidConfig("no embedding table: pass --embeddings or set it in the config")
    ref = {"path": path, "sha256": file_sha256(path)}
    if not cfg.embeddings and ref["sha256"] != ck.embedding_ref["sha256"]:
        raise MalformedFile(f"embedding file {path} does not match the checkpoint reference hash")
    table = load_embedding_table(path)
    print(f"loaded {len(table)} embeddings (dim {table.dim})")
    return table, ref


def _write_json(cfg: Config, payload, path, what: str) -> str:
    """``payload`` as JSON text, written to ``path`` too when given."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open_for_write(_output(cfg, path), what) as fh:
            fh.write(text + "\n")
    return text


def _timed(seconds: dict, stage: str, fn, *fn_args):
    """fn(*fn_args), with its wall time stored as ``seconds[stage]``."""
    start = time.perf_counter()
    result = fn(*fn_args)
    seconds[stage] = time.perf_counter() - start
    return result


def _output(cfg: Config, path, default_name: str = "") -> str:
    """``path``, or ``default_name`` in the output directory when no path is
    given, with its parent directory created."""
    p = Path(path) if path else Path(cfg.out_dir) / default_name
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output directory: {exc}") from exc
    return str(p)


def cmd_synth_corpus(cfg: Config, args) -> int:
    records = synth_corpus(cfg.seed, args.sentences)
    out = _output(cfg, args.out, "corpus.jsonl")
    save_records_jsonl(records, out)
    print(f"wrote {len(records)} records to {out}")
    if args.embeddings_out:
        emb_out = _output(cfg, args.embeddings_out)
        count = write_synthetic_embeddings(corpus_vocabulary(), emb_out, dim=cfg.word_dim, seed=cfg.seed)
        print(f"wrote synthetic embedding table ({count} tokens, dim {cfg.word_dim}) to {emb_out}")
    return 0


def cmd_curate(cfg: Config, args) -> int:
    records = load_records_jsonl(_require(cfg.dataset, "dataset path"))
    kept, entries = curate_shots(records)
    out = _output(cfg, args.out, "curated.jsonl")
    save_records_jsonl(kept, out)
    if args.report:
        report = [{"id": rid, "kept": ok, "rule": rule} for rid, ok, rule in entries]
        _write_json(cfg, report, args.report, "curation report")
    print(f"kept {len(kept)} of {len(records)} records -> {out}")
    return 0


def cmd_fit_pca(cfg: Config, args) -> int:
    records = load_records_jsonl(_require(cfg.dataset, "dataset path"))
    if not records:
        raise InvalidConfig("dataset has no records")
    poses = np.concatenate([normalize_pose(rec.frames) for rec in records])
    pca = fit_pca(poses)
    ck_path = _output(cfg, _require(cfg.checkpoint, "checkpoint path"))
    _save(cfg, Checkpoint(config={}), ck_path, pca=pca)
    covered = float(pca.explained_variance_ratio.sum())
    print(f"fitted {pca.n_components} components on {len(poses)} poses, variance covered {covered:.3f} -> {ck_path}")
    return 0


def cmd_pca_sweep(cfg: Config, args) -> int:
    ck = _checkpoint(cfg, "pca")
    try:
        values = [float(v) for v in args.values.split(",")]
        if not all(map(math.isfinite, values)):
            raise ValueError
    except ValueError:
        raise InvalidConfig(f"--values must be comma-separated finite numbers, got {args.values!r}") from None
    dims = [args.dim] if args.dim is not None else list(range(1, ck.pca.n_components + 1))
    total = 0
    for dim in dims:
        poses = component_sweep(ck.pca, dim, values)
        files = render(poses, Path(cfg.out_dir) / f"sweep_dim{dim}", prefix=f"dim{dim}")
        total += len(files)
    print(f"rendered {total} sweep frames for dims {dims} to {cfg.out_dir}")
    return 0


def cmd_train(cfg: Config, args) -> int:
    ck = _checkpoint(cfg, "pca")
    records = load_records_jsonl(_require(cfg.dataset, "dataset path"))
    pairs = make_training_pairs(records, ck.pca, cfg.n_seed_poses, cfg.n_output_poses)
    del records  # training holds the pairs, not every record's frames
    table, ref = _load_table(cfg, ck)
    model = init_model(cfg.model_config(ck.pca.n_components), cfg.seed)

    epoch_start = time.perf_counter()

    def on_epoch(epoch, current, b):
        nonlocal epoch_start
        print(
            f"epoch {epoch + 1}/{cfg.epochs}: mse {b.mse:.6f} continuity {b.continuity:.6f} variance "
            f"{b.variance:.6f} total {b.total:.6f} ({time.perf_counter() - epoch_start:.2f} s)",
            flush=True,
        )
        if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
            path = _output(cfg, None, f"checkpoint_epoch{epoch + 1:05d}.ggck")
            _save(cfg, ck, path, model=current, embedding_ref=ref)
        epoch_start = time.perf_counter()

    result = train_model(pairs, cfg, model, table, on_epoch=on_epoch)
    out_ck = _output(cfg, args.out or cfg.checkpoint)
    _save(cfg, ck, out_ck, model=model, embedding_ref=ref)
    history_path = _output(cfg, args.history, "history.csv")
    write_history_csv(result.history, history_path)
    last = result.history[-1] if result.history else None
    if last is not None:
        print(
            f"trained on {len(pairs)} pairs for {cfg.epochs} epochs; "
            f"final loss {last.total:.6f} (mse {last.mse:.6f}) -> {out_ck}"
        )
    else:
        print(f"no epochs run; checkpoint written to {out_ck}")
    return 0


def cmd_generate(cfg: Config, args) -> int:
    seconds = dict.fromkeys(("checkpoint load", "table load"))  # report order: the table loads after the plan's checks
    ck = _timed(seconds, "checkpoint load", _checkpoint, cfg, "model")
    tokens = tokenize(args.text)
    duration = estimate_speech_duration(tokens, cfg.words_per_minute) if args.duration is None else args.duration
    plan = _timed(seconds, "plan", plan_chunks, tokens, duration, ck.model.cfg.n_seed_poses, ck.model.cfg.n_output_poses)
    table, _ = _timed(seconds, "table load", _load_table, cfg, ck)
    track, maps = _timed(seconds, "inference", generate_gesture, ck.model, plan, table)
    aligned = _timed(seconds, "align", align_track, track, duration)
    out = _output(cfg, args.out, "track.csv")
    _timed(seconds, "track write", save_track_csv, aligned, out)
    attn_path = _output(cfg, args.attention, "attention.csv")
    _timed(seconds, "attention write", export_attention, maps, plan.chunks, attn_path)
    print(
        f"{len(tokens)} words, {len(plan.chunks)} chunks of {plan.words_per_chunk}; "
        f"{len(track)} raw frames -> {len(aligned)} aligned frames ({duration:.2f} s) -> {out}"
    )
    print("stage seconds: " + ", ".join(f"{stage} {s:.4f}" for stage, s in seconds.items()))
    return 0


def cmd_schedule(cfg: Config, args) -> int:
    sizes = _checkpoint(cfg, "model").model.cfg if cfg.checkpoint else cfg  # plan as generate would
    tokens = tokenize(args.text)
    duration = estimate_speech_duration(tokens, cfg.words_per_minute) if args.duration is None else args.duration
    plan = plan_chunks(tokens, duration, sizes.n_seed_poses, sizes.n_output_poses)
    payload = {
        "word_count": len(tokens),
        "words_per_chunk": plan.words_per_chunk,
        "chunk_count": len(plan.chunks),
        "chunks": [list(c) for c in plan.chunks],
        "speech_duration": float(duration),
        "frame_duration": 1.0 / DEFAULT_FPS,
        "generated_frames": len(plan.chunks) * sizes.n_output_poses,
    }
    print(_write_json(cfg, payload, args.out, "plan file"))
    return 0


def cmd_lift_train(cfg: Config, args) -> int:
    ck = _checkpoint(cfg)
    corpus3d = synth_pose3d_corpus(cfg.seed, cfg.lift_corpus_size)
    start = time.perf_counter()
    lift = train_lift(corpus3d, cfg)
    elapsed = time.perf_counter() - start
    out_ck = _output(cfg, args.out or cfg.checkpoint)
    _save(cfg, ck, out_ck, lift=lift)
    mse = lift_mse(lift, corpus3d)
    print(
        f"trained depth-lift net on {len(corpus3d)} synthetic poses ({cfg.lift_steps} steps in {elapsed:.2f} s); "
        f"train mse {mse:.5f} -> {out_ck}"
    )
    return 0


def cmd_retarget(cfg: Config, args) -> int:
    seconds = {}
    ck = _timed(seconds, "checkpoint load", _checkpoint, cfg, "pca", "lift")
    track = _timed(seconds, "read", load_track_csv, args.track)
    limits = None
    if args.limits:
        try:
            limits = {k: tuple(v) for k, v in json.loads(Path(args.limits).read_text(encoding="utf-8")).items()}
        except (OSError, ValueError, AttributeError, TypeError) as exc:
            raise MalformedFile(f"cannot read joint limits {args.limits}: {exc}") from exc
    angles = _timed(seconds, "retarget", retarget_track, track, ck.pca, ck.lift, limits)
    out = _output(cfg, args.out, "trajectory.csv")
    _timed(seconds, "write", save_angles_csv, angles, out)
    print(f"retargeted {len(angles)} frames at {DEFAULT_FPS:g} fps -> {out}")
    print("stage seconds: " + ", ".join(f"{stage} {s:.4f}" for stage, s in seconds.items()))
    return 0


def cmd_baseline(cfg: Config, args) -> int:
    if args.kind != "nn" and args.duration is None:
        raise InvalidConfig("missing required --duration")
    if args.kind == "manual":
        track = manual_baseline(_require(args.file, "--file"), args.duration)
    else:
        pca = _checkpoint(cfg, "pca").pca
        records = load_records_jsonl(_require(cfg.dataset, "dataset path"))
        if args.kind == "random":
            rng = np.random.default_rng(cfg.seed)
            track = random_baseline(records, pca, args.duration, rng)
        else:
            tokens = tokenize(_require(args.text, "--text"))
            track = nn_baseline(tokens, records, pca, cfg.chunk_len)
            if args.duration is not None:
                track = align_track(track, args.duration)
    out = _output(cfg, args.out, f"baseline_{args.kind}.csv")
    save_track_csv(track, out)
    print(f"{args.kind} baseline: {len(track)} frames ({track.duration:.2f} s) -> {out}")
    return 0


def cmd_eval(cfg: Config, args) -> int:
    generated = load_track_csv(args.generated)
    reference = load_track_csv(args.reference)
    if len(generated) != len(reference):
        generated = align_track(generated, reference.duration)
    print(_write_json(cfg, eval_tracks(generated, reference), args.out, "metrics file"))
    return 0


def cmd_render(cfg: Config, args) -> int:
    ck = _checkpoint(cfg, "pca")
    track = load_track_csv(args.track)
    with np.errstate(over="ignore", invalid="ignore"):  # render refuses non-finite poses
        poses = decode_pose(ck.pca, track.frames)
    out_dir = args.out or str(Path(cfg.out_dir) / "render")
    files = render(poses, out_dir)
    print(f"rendered {len(files)} frames to {out_dir}")
    return 0


# Flags that name an output file; the checkpoint path is one too for some commands
_OUTPUT_FLAGS = ("out", "attention", "report", "history", "embeddings_out")

# Config fields every command takes as a flag
_COMMON = ("seed", "out_dir", "checkpoint", "dataset", "embeddings")
_FLAG_TYPES = {"int": int, "float": float, "str": str}


def _command(sub, name: str, func, help: str, *config_fields):
    """Add subcommand ``name`` with ``--config`` and a flag per common and
    named Config field: ``--`` plus the name with dashes, typed from the
    field's annotation."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    p.add_argument("--config", help="JSON config file")
    types = {f.name: f.type for f in fields(Config)}
    for field in (*_COMMON, *config_fields):
        p.add_argument("--" + field.replace("_", "-"), dest=field, type=_FLAG_TYPES[types[field]])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gesturegen", description="Co-speech gesture synthesis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "synth-corpus", cmd_synth_corpus, "generate the synthetic gesture dataset")
    p.add_argument("--sentences", type=int, default=500)
    p.add_argument("--out", help="output JSONL path")
    p.add_argument("--embeddings-out", help="also write a synthetic embedding table here")

    p = _command(sub, "curate", cmd_curate, "filter records by the shot-selection rules")
    p.add_argument("--out", help="kept-records JSONL path")
    p.add_argument("--report", help="per-record report JSON path")

    _command(sub, "fit-pca", cmd_fit_pca, "fit the pose basis and start a checkpoint")

    p = _command(sub, "pca-sweep", cmd_pca_sweep, "render component sweeps")
    p.add_argument("--dim", type=int, help="single component (default: all)")
    p.add_argument("--values", default="-1,-0.5,0,0.5,1")

    train = ("epochs", "lr", "alpha", "beta", "batch_size", "dropout", "hidden", "att_dim", "word_dim", "checkpoint_every")
    p = _command(sub, "train", cmd_train, "train the gesture generation model", *train)
    p.add_argument("--out", help="output checkpoint (default: overwrite input)")
    p.add_argument("--history", help="loss history CSV path")

    p = _command(sub, "generate", cmd_generate, "generate a gesture track for text", "words_per_minute")
    p.add_argument("--text", required=True)
    p.add_argument("--duration", type=float, help="speech duration in seconds (default: rate estimate)")
    p.add_argument("--out", help="track CSV path")
    p.add_argument("--attention", help="attention CSV path")

    p = _command(sub, "schedule", cmd_schedule, "plan inference chunks for text and duration", "words_per_minute")
    p.add_argument("--text", required=True)
    p.add_argument("--duration", type=float)
    p.add_argument("--out", help="write the plan JSON here too")

    p = _command(sub, "lift-train", cmd_lift_train, "train the 2D-to-3D depth lift net", "lift_steps", "lift_corpus_size")
    p.add_argument("--out", help="output checkpoint (default: overwrite input)")

    p = _command(sub, "retarget", cmd_retarget, "convert a gesture track to joint-angle rows")
    p.add_argument("--track", required=True)
    p.add_argument("--limits", help="JSON file of per-joint (lo, hi) clamp ranges")
    p.add_argument("--out", help="trajectory CSV path")

    p = _command(sub, "baseline", cmd_baseline, "run a comparison baseline", "chunk_len")
    p.add_argument("kind", choices=("random", "nn", "manual"))
    p.add_argument("--text", help="query text (nn)")
    p.add_argument("--duration", type=float)
    p.add_argument("--file", help="hand-authored track CSV (manual)")
    p.add_argument("--out", help="track CSV path")

    p = _command(sub, "eval", cmd_eval, "objective metrics between two tracks")
    p.add_argument("--generated", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", help="metrics JSON path")

    p = _command(sub, "render", cmd_render, "render a track as stick-figure SVGs")
    p.add_argument("--track", required=True)
    p.add_argument("--out", help="output directory")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        # An output named /dev/stdout, /dev/fd/1 or /proc/self/fd/1 is this process's
        # stdout: the summary goes to stderr then, so stdout carries the data alone.
        outputs = [getattr(args, flag, None) for flag in _OUTPUT_FLAGS] + [cfg.checkpoint]
        to_stdout = any(path and _descriptor(path) == (f"/proc/{os.getpid()}/fd", "1") for path in outputs)
        with contextlib.redirect_stdout(sys.stderr if to_stdout else sys.stdout):
            code = args.func(cfg, args)
        sys.stdout.flush()
        return code
    except (GestureGenError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):  # stdout's reader has gone; devnull takes the exit-time flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            exc = f"cannot write stdout: {exc.strerror}"
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
