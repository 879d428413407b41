"""Command-line surface. Every command reads an optional JSON config plus
flag overrides, writes machine-readable files, and prints a short summary.
Exit code 0 on success; failures print one `command: reason` line."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .baselines import eval_tracks, manual_baseline, nn_baseline, random_baseline
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import Config, load_config
from .corpus import corpus_vocabulary, curate_shots, load_records_jsonl, save_records_jsonl, synth_corpus
from .errors import GestureGenError, InvalidConfig, IoFailure, MalformedFile, open_for_write
from .kinematics import save_angles_csv
from .lifting import lift_mse, retarget_track, synth_pose3d_corpus, train_lift
from .model import init_model
from .pose import component_sweep, fit_pca, normalize_pose
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
    """Copy every flag whose dest names a Config field and was given."""
    for f in fields(Config):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def _require(value, what):
    if not value:
        raise InvalidConfig(f"missing required {what}")
    return value


def _load_table(cfg: Config, ck: Checkpoint | None, override=None):
    if override or cfg.embeddings:
        table = load_embedding_table(override or cfg.embeddings)
    elif ck is not None and ck.embedding_ref:
        path = ck.embedding_ref["path"]
        table = load_embedding_table(path)
        if file_sha256(path) != ck.embedding_ref["sha256"]:
            raise MalformedFile(f"embedding file {path} does not match the checkpoint reference hash")
    else:
        raise InvalidConfig("no embedding table: pass --embeddings or set it in the config")
    print(f"loaded {len(table)} embeddings (dim {table.dim})")
    return table


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
    kept, entries = curate_shots(records, cfg.curation_thresholds())
    out = _output(cfg, args.out, "curated.jsonl")
    save_records_jsonl(kept, out)
    if args.report:
        report = [{"id": rid, "kept": ok, "rule": rule} for rid, ok, rule in entries]
        with open_for_write(args.report, "curation report") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"kept {len(kept)} of {len(records)} records -> {out}")
    return 0


def cmd_fit_pca(cfg: Config, args) -> int:
    records = load_records_jsonl(_require(cfg.dataset, "dataset path"))
    if not records:
        raise InvalidConfig("dataset has no records")
    poses = np.concatenate([normalize_pose(rec.frames) for rec in records])
    pca = fit_pca(poses, cfg.pca_components)
    ck_path = _output(cfg, _require(cfg.checkpoint, "checkpoint path"))
    save_checkpoint(Checkpoint(config=cfg.to_dict(), pca=pca), ck_path)
    covered = float(pca.explained_variance_ratio.sum())
    print(f"fitted {cfg.pca_components} components on {len(poses)} poses, variance covered {covered:.3f} -> {ck_path}")
    return 0


def cmd_pca_sweep(cfg: Config, args) -> int:
    ck = load_checkpoint(_require(cfg.checkpoint, "checkpoint path"))
    if ck.pca is None:
        raise InvalidConfig("checkpoint has no fitted pose model")
    try:
        values = [float(v) for v in args.values.split(",")]
        if not all(map(math.isfinite, values)):
            raise ValueError
    except ValueError:
        raise InvalidConfig(f"--values must be comma-separated finite numbers, got {args.values!r}") from None
    dims = [args.dim] if args.dim else list(range(1, ck.pca.n_components + 1))
    total = 0
    for dim in dims:
        poses = component_sweep(ck.pca, dim, values)
        files = render(poses, Path(cfg.out_dir) / f"sweep_dim{dim}", prefix=f"dim{dim}")
        total += len(files)
    print(f"rendered {total} sweep frames for dims {dims} to {cfg.out_dir}")
    return 0


def cmd_train(cfg: Config, args) -> int:
    ck_path = _require(cfg.checkpoint, "checkpoint path")
    ck = load_checkpoint(ck_path)
    if ck.pca is None:
        raise InvalidConfig("checkpoint has no fitted pose model; run fit-pca first")
    records = load_records_jsonl(_require(cfg.dataset, "dataset path"))
    stride = cfg.stride if cfg.stride > 0 else cfg.n_output_poses
    pairs = make_training_pairs(records, ck.pca, cfg.n_seed_poses, cfg.n_output_poses, stride)
    table = _load_table(cfg, ck, args.embeddings)
    emb_path = args.embeddings or cfg.embeddings or (ck.embedding_ref or {}).get("path")
    model = init_model(cfg.model_config(), cfg.seed)

    ref = {"path": str(emb_path), "sha256": file_sha256(emb_path)}

    def on_epoch(epoch, current, breakdown):
        if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
            path = _output(cfg, None, f"checkpoint_epoch{epoch + 1:05d}.ggck")
            save_checkpoint(
                Checkpoint(config=cfg.to_dict(), pca=ck.pca, model=current, lift=ck.lift, embedding_ref=ref), path
            )

    result = train_model(pairs, cfg.hyperparams(), model, table, on_epoch=on_epoch)
    out_ck = _output(cfg, args.out or ck_path)
    save_checkpoint(
        Checkpoint(config=cfg.to_dict(), pca=ck.pca, model=result.model, lift=ck.lift, embedding_ref=ref), out_ck
    )
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
    ck = load_checkpoint(_require(cfg.checkpoint, "checkpoint path"))
    if ck.model is None:
        raise InvalidConfig("checkpoint has no trained generation model")
    if ck.pca is None:
        raise InvalidConfig("checkpoint has no fitted pose model")
    table = _load_table(cfg, ck, args.embeddings)
    tokens = tokenize(args.text)
    duration = estimate_speech_duration(tokens, cfg.words_per_minute) if args.duration is None else args.duration
    plan = plan_chunks(tokens, duration, ck.model.cfg.n_seed_poses, ck.model.cfg.n_output_poses)
    start = time.perf_counter()
    track, maps = generate_gesture(ck.model, plan, table)
    elapsed = time.perf_counter() - start
    aligned = align_track(track, duration)
    out = _output(cfg, args.out, "track.csv")
    save_track_csv(aligned, out)
    attn_path = _output(cfg, args.attention, "attention.csv")
    export_attention(maps, plan.chunks, attn_path)
    print(
        f"{plan.word_count} words, {len(plan.chunks)} chunks of {plan.words_per_chunk}; "
        f"{len(track)} raw frames -> {len(aligned)} aligned frames ({duration:.2f} s); "
        f"inference {elapsed:.3f} s -> {out}"
    )
    return 0


def cmd_schedule(cfg: Config, args) -> int:
    tokens = tokenize(args.text)
    duration = estimate_speech_duration(tokens, cfg.words_per_minute) if args.duration is None else args.duration
    plan = plan_chunks(tokens, duration, cfg.n_seed_poses, cfg.n_output_poses)
    payload = {
        "word_count": plan.word_count,
        "words_per_chunk": plan.words_per_chunk,
        "chunk_count": len(plan.chunks),
        "chunks": [list(c) for c in plan.chunks],
        "speech_duration": plan.speech_duration,
        "frame_duration": 1.0 / DEFAULT_FPS,
        "generated_frames": len(plan.chunks) * cfg.n_output_poses,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open_for_write(args.out, "plan file") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_lift_train(cfg: Config, args) -> int:
    ck_path = _require(cfg.checkpoint, "checkpoint path")
    ck = load_checkpoint(ck_path)
    corpus3d = synth_pose3d_corpus(cfg.seed, cfg.lift_corpus_size)
    lift = train_lift(corpus3d, cfg.lift_config())
    out_ck = _output(cfg, args.out or ck_path)
    save_checkpoint(
        Checkpoint(config=cfg.to_dict(), pca=ck.pca, model=ck.model, lift=lift, embedding_ref=ck.embedding_ref),
        out_ck,
    )
    mse = lift_mse(lift, corpus3d)
    print(f"trained depth-lift net on {len(corpus3d)} synthetic poses ({cfg.lift_steps} steps); train mse {mse:.5f} -> {out_ck}")
    return 0


def cmd_retarget(cfg: Config, args) -> int:
    ck = load_checkpoint(_require(cfg.checkpoint, "checkpoint path"))
    if ck.pca is None or ck.lift is None:
        raise InvalidConfig("retargeting needs a checkpoint with both the pose model and the lift net")
    track = load_track_csv(args.track)
    limits = None
    if args.limits:
        try:
            limits = {k: tuple(v) for k, v in json.loads(Path(args.limits).read_text(encoding="utf-8")).items()}
        except (OSError, ValueError, AttributeError, TypeError) as exc:
            raise MalformedFile(f"cannot read joint limits {args.limits}: {exc}") from exc
    angles = retarget_track(track, ck.pca, ck.lift, limits)
    out = _output(cfg, args.out, "trajectory.csv")
    save_angles_csv(angles, out)
    print(f"retargeted {len(angles)} frames at {DEFAULT_FPS:g} fps -> {out}")
    return 0


def cmd_baseline(cfg: Config, args) -> int:
    ck = load_checkpoint(_require(cfg.checkpoint, "checkpoint path"))
    if ck.pca is None:
        raise InvalidConfig("baselines need the fitted pose model from fit-pca")
    out = _output(cfg, args.out, f"baseline_{args.kind}.csv")
    if args.kind != "nn" and args.duration is None:
        raise InvalidConfig("missing required --duration")
    if args.kind == "manual":
        track = manual_baseline(_require(args.file, "--file"), args.duration)
    else:
        records = load_records_jsonl(_require(cfg.dataset, "dataset path"))
        if args.kind == "random":
            rng = np.random.default_rng(cfg.seed)
            track = random_baseline(records, ck.pca, args.duration, rng)
        else:
            tokens = tokenize(_require(args.text, "--text"))
            track = nn_baseline(tokens, records, ck.pca, cfg.chunk_len, cfg.crossfade)
            if args.duration is not None:
                track = align_track(track, args.duration)
    save_track_csv(track, out)
    print(f"{args.kind} baseline: {len(track)} frames ({track.duration:.2f} s) -> {out}")
    return 0


def cmd_eval(cfg: Config, args) -> int:
    generated = load_track_csv(args.generated)
    reference = load_track_csv(args.reference)
    if len(generated) != len(reference):
        generated = align_track(generated, reference.duration)
    metrics = eval_tracks(generated, reference)
    payload = {
        "mse": metrics.mse,
        "mean_displacement": metrics.mean_displacement,
        "temporal_variance": list(metrics.temporal_variance),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open_for_write(args.out, "metrics file") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_render(cfg: Config, args) -> int:
    ck = load_checkpoint(_require(cfg.checkpoint, "checkpoint path"))
    if ck.pca is None:
        raise InvalidConfig("rendering a track needs the fitted pose model")
    track = load_track_csv(args.track)
    out_dir = args.out or str(Path(cfg.out_dir) / "render")
    files = render(track, out_dir, pca=ck.pca)
    print(f"rendered {len(files)} frames to {out_dir}")
    return 0


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.add_argument("--checkpoint", help="checkpoint file path")
    p.add_argument("--dataset", help="dataset JSON Lines path")
    p.add_argument("--embeddings", help="embedding table path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gesturegen", description="Co-speech gesture synthesis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="generate the synthetic gesture dataset")
    _add_common(p)
    p.add_argument("--sentences", type=int, default=500)
    p.add_argument("--out", help="output JSONL path")
    p.add_argument("--embeddings-out", help="also write a synthetic embedding table here")
    p.set_defaults(func=cmd_synth_corpus)

    p = sub.add_parser("curate", help="filter records by the shot-selection rules")
    _add_common(p)
    p.add_argument("--out", help="kept-records JSONL path")
    p.add_argument("--report", help="per-record report JSON path")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("fit-pca", help="fit the pose basis and start a checkpoint")
    _add_common(p)
    p.set_defaults(func=cmd_fit_pca)

    p = sub.add_parser("pca-sweep", help="render component sweeps")
    _add_common(p)
    p.add_argument("--dim", type=int, help="single component (default: all)")
    p.add_argument("--values", default="-1,-0.5,0,0.5,1")
    p.set_defaults(func=cmd_pca_sweep)

    p = sub.add_parser("train", help="train the gesture generation model")
    _add_common(p)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--hidden", type=int)
    p.add_argument("--att-dim", dest="att_dim", type=int)
    p.add_argument("--word-dim", dest="word_dim", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)
    p.add_argument("--out", help="output checkpoint (default: overwrite input)")
    p.add_argument("--history", help="loss history CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="generate a gesture track for text")
    _add_common(p)
    p.add_argument("--text", required=True)
    p.add_argument("--duration", type=float, help="speech duration in seconds (default: rate estimate)")
    p.add_argument("--words-per-minute", dest="words_per_minute", type=float)
    p.add_argument("--out", help="track CSV path")
    p.add_argument("--attention", help="attention CSV path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("schedule", help="plan inference chunks for text and duration")
    _add_common(p)
    p.add_argument("--text", required=True)
    p.add_argument("--duration", type=float)
    p.add_argument("--words-per-minute", dest="words_per_minute", type=float)
    p.add_argument("--out", help="write the plan JSON here too")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("lift-train", help="train the 2D-to-3D depth lift net")
    _add_common(p)
    p.add_argument("--lift-steps", dest="lift_steps", type=int)
    p.add_argument("--lift-corpus-size", dest="lift_corpus_size", type=int)
    p.add_argument("--out", help="output checkpoint (default: overwrite input)")
    p.set_defaults(func=cmd_lift_train)

    p = sub.add_parser("retarget", help="convert a gesture track to joint-angle rows")
    _add_common(p)
    p.add_argument("--track", required=True)
    p.add_argument("--limits", help="JSON file of per-joint (lo, hi) clamp ranges")
    p.add_argument("--out", help="trajectory CSV path")
    p.set_defaults(func=cmd_retarget)

    p = sub.add_parser("baseline", help="run a comparison baseline")
    _add_common(p)
    p.add_argument("kind", choices=("random", "nn", "manual"))
    p.add_argument("--text", help="query text (nn)")
    p.add_argument("--duration", type=float)
    p.add_argument("--file", help="hand-authored track CSV (manual)")
    p.add_argument("--chunk-len", dest="chunk_len", type=int)
    p.add_argument("--out", help="track CSV path")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="objective metrics between two tracks")
    _add_common(p)
    p.add_argument("--generated", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", help="metrics JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="render a track as stick-figure SVGs")
    _add_common(p)
    p.add_argument("--track", required=True)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        return args.func(cfg, args)
    except GestureGenError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
