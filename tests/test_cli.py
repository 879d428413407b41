"""End-to-end CLI checks: the full pipeline at toy scale, reproducibility
of output bytes, and error reporting."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gesturegen
from gesturegen.cli import main

TEXT_25 = (
    "now we really hold the big idea about people and we show a small dream again "
    "with more story so you see this again today"
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert (
        main(
            [
                "synth-corpus",
                "--sentences",
                "10",
                "--seed",
                "5",
                "--out",
                str(root / "corpus.jsonl"),
                "--embeddings-out",
                str(root / "emb.txt"),
                "--out-dir",
                str(root / "out"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "curate",
                "--dataset",
                str(root / "corpus.jsonl"),
                "--out",
                str(root / "kept.jsonl"),
                "--report",
                str(root / "report.json"),
                "--out-dir",
                str(root / "out"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "fit-pca",
                "--dataset",
                str(root / "kept.jsonl"),
                "--checkpoint",
                str(root / "ck.ggck"),
                "--out-dir",
                str(root / "out"),
            ]
        )
        == 0
    )
    train_args = [
        "train",
        "--dataset",
        str(root / "kept.jsonl"),
        "--embeddings",
        str(root / "emb.txt"),
        "--checkpoint",
        str(root / "ck.ggck"),
        "--epochs",
        "2",
        "--hidden",
        "16",
        "--att-dim",
        "16",
        "--lr",
        "0.002",
        "--seed",
        "7",
        "--out-dir",
        str(root / "out"),
        "--history",
        str(root / "history.csv"),
    ]
    assert main(train_args) == 0
    assert (
        main(
            [
                "lift-train",
                "--checkpoint",
                str(root / "ck.ggck"),
                "--lift-steps",
                "40",
                "--lift-corpus-size",
                "30",
                "--seed",
                "7",
                "--out-dir",
                str(root / "out"),
            ]
        )
        == 0
    )
    generate_args = ["generate", "--checkpoint", str(root / "ck.ggck"), "--text", TEXT_25, "--duration", "15.0"]
    generate_args += ["--out", str(root / "track.csv"), "--attention", str(root / "attn.csv")]
    assert main([*generate_args, "--out-dir", str(root / "out")]) == 0
    return root, train_args


def test_curation_report_format(workspace):
    root, _ = workspace
    entries = json.loads((root / "report.json").read_text())
    assert len(entries) == 10
    assert all(e["kept"] for e in entries)


def test_reports_create_missing_directories(workspace, tmp_path, capsys):
    root, _ = workspace
    args = ["curate", "--dataset", str(root / "corpus.jsonl"), "--out", str(tmp_path / "k" / "k.jsonl")]
    assert main([*args, "--report", str(tmp_path / "new" / "r.json"), "--out-dir", str(tmp_path / "o")]) == 0
    assert (tmp_path / "k" / "k.jsonl").read_bytes() == (root / "kept.jsonl").read_bytes()
    assert (tmp_path / "new" / "r.json").read_bytes() == (root / "report.json").read_bytes()
    capsys.readouterr()
    assert main(["schedule", "--text", "we hold a big idea", "--out", str(tmp_path / "plan" / "p.json")]) == 0
    assert (tmp_path / "plan" / "p.json").read_text() == capsys.readouterr().out


def test_generate_25_words_15_seconds(workspace):
    root, _ = workspace  # the fixture generates TEXT_25 over 15 s
    words = TEXT_25.split()
    assert len(words) == 25
    rows = (root / "track.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 180  # header plus ceil(15 s * 12 fps)
    attn = (root / "attn.csv").read_text().strip().splitlines()
    assert attn[0].split(",") == words
    assert len(attn) == 1 + 140  # 7 chunks x 20 poses

    values = np.array([[float(v) for v in line.split(",")] for line in attn[1:]])
    assert np.allclose(values.sum(axis=1), 1.0, atol=1e-9)


def test_generate_reports_stage_seconds(workspace, tmp_path, capsys):
    root, _ = workspace
    args = ["generate", "--checkpoint", str(root / "ck.ggck"), "--text", TEXT_25, "--duration", "15.0"]
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "track.csv"), "--attention", str(tmp_path / "attn.csv")]) == 0
    *_, summary, stages = capsys.readouterr().out.splitlines()  # after the embedding load line
    assert summary.endswith(f"(15.00 s) -> {tmp_path / 'track.csv'}")
    pattern = r"stage seconds: checkpoint load \d+\.\d{4}, table load \d+\.\d{4}, plan \d+\.\d{4}, "
    pattern += r"inference \d+\.\d{4}, align \d+\.\d{4}, "
    assert re.fullmatch(pattern + r"track write \d+\.\d{4}, attention write \d+\.\d{4}", stages), stages
    for name in ("track.csv", "attn.csv"):  # the same bytes as the fixture's run
        assert (tmp_path / name).read_bytes() == (root / name).read_bytes(), name


def test_generate_overflowing_embedding_is_silent(workspace, tmp_path, capsys):
    # A finite but huge embedding row overflows inside the model; the track
    # and attention writers refuse non-finite values, so no numpy warning
    # may leak (a RuntimeWarning is an error under the pytest config).
    from gesturegen.synthesis import load_track_csv

    root, _ = workspace
    rows = (root / "emb.txt").read_text().splitlines()
    dim = len(rows[0].split()) - 1
    rows = [row for row in rows if row.split()[0] != "a"] + ["a " + " ".join(["1e308"] * dim)]
    (tmp_path / "emb.txt").write_text("\n".join(rows) + "\n")
    args = ["generate", "--checkpoint", str(root / "ck.ggck"), "--text", "a a hello"]
    args += ["--embeddings", str(tmp_path / "emb.txt")]
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "track.csv"), "--attention", str(tmp_path / "attn.csv")]) == 0
    assert capsys.readouterr().err == ""
    assert np.isfinite(load_track_csv(tmp_path / "track.csv").frames).all()
    attn = (tmp_path / "attn.csv").read_text().strip().splitlines()[1:]
    assert attn and np.isfinite([[float(v) for v in line.split(",")] for line in attn]).all()


def test_retarget_reports_stage_seconds(workspace, tmp_path, capsys):
    from gesturegen.checkpoint import load_checkpoint
    from gesturegen.kinematics import save_angles_csv
    from gesturegen.lifting import retarget_track
    from gesturegen.synthesis import load_track_csv

    root, _ = workspace
    args = ["retarget", "--checkpoint", str(root / "ck.ggck"), "--track", str(root / "track.csv")]
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "traj.csv")]) == 0
    summary, stages = capsys.readouterr().out.splitlines()
    assert summary == f"retargeted 180 frames at 12 fps -> {tmp_path / 'traj.csv'}"
    pattern = r"stage seconds: checkpoint load \d+\.\d{4}, read \d+\.\d{4}, retarget \d+\.\d{4}, write \d+\.\d{4}"
    assert re.fullmatch(pattern, stages), stages
    ck = load_checkpoint(root / "ck.ggck")  # the same bytes as the library calls write
    save_angles_csv(retarget_track(load_track_csv(root / "track.csv"), ck.pca, ck.lift), tmp_path / "ref.csv")
    assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_reruns_independent_of_blas_threads(workspace, tmp_path):
    """train, lift-train, generate and retarget write the same bytes with
    BLAS pools of one and of two threads. Both runs save the checkpoint
    under the same name: its header records the path."""
    root, _ = workspace
    ck = tmp_path / "ck.ggck"
    assert main(["fit-pca", "--dataset", str(root / "kept.jsonl"), "--checkpoint", str(ck), "--out-dir", str(tmp_path / "o")]) == 0
    fitted = ck.read_bytes()
    commands = [
        ["train", "--dataset", str(root / "kept.jsonl"), "--embeddings", str(root / "emb.txt"), "--epochs", "2"],
        ["lift-train", "--lift-steps", "40", "--lift-corpus-size", "30"],
        ["generate", "--text", TEXT_25, "--duration", "15.0", "--out", "track.csv", "--attention", "attn.csv"],
        ["retarget", "--track", "track.csv", "--out", "traj.csv"],
    ]
    commands[0] += ["--hidden", "16", "--att-dim", "16", "--seed", "7", "--history", "history.csv"]
    commands[1] += ["--seed", "7"]
    outputs = {}
    for threads in ("1", "2"):
        ck.write_bytes(fitted)
        env = {**os.environ, "PYTHONPATH": str(Path(gesturegen.__file__).parents[1])}
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        written = outputs[threads] = {}
        for args in commands:
            cli = [sys.executable, "-m", "gesturegen.cli", *args, "--checkpoint", str(ck), "--out-dir", str(tmp_path / "o")]
            proc = subprocess.run(cli, capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            written[f"{args[0]} checkpoint"] = ck.read_bytes()
        written.update({name: (tmp_path / name).read_bytes() for name in ("history.csv", "track.csv", "attn.csv", "traj.csv")})
    assert [name for name, data in outputs["1"].items() if outputs["2"][name] != data] == []


def test_retarget_and_render(workspace):
    root, _ = workspace
    assert (root / "track.csv").exists()
    rc = main(
        [
            "retarget",
            "--checkpoint",
            str(root / "ck.ggck"),
            "--track",
            str(root / "track.csv"),
            "--out",
            str(root / "traj.csv"),
            "--out-dir",
            str(root / "out"),
        ]
    )
    assert rc == 0
    lines = (root / "traj.csv").read_text().strip().splitlines()
    assert lines[0] == (
        "t_s,head_pitch,head_yaw,l_sh_pitch,l_sh_roll,l_el_roll,l_el_yaw,l_wr_yaw,"
        "r_sh_pitch,r_sh_roll,r_el_roll,r_el_yaw,r_wr_yaw"
    )
    assert len(lines) == 1 + 180
    rc = main(
        [
            "render",
            "--checkpoint",
            str(root / "ck.ggck"),
            "--track",
            str(root / "track.csv"),
            "--out",
            str(root / "render"),
        ]
    )
    assert rc == 0
    manifest = json.loads((root / "render" / "manifest.json").read_text())
    assert manifest["count"] == 180


def test_train_rerun_byte_identical(workspace, tmp_path):
    root, train_args = workspace
    first_ck = (root / "ck.ggck").read_bytes()
    first_history = (root / "history.csv").read_bytes()
    # retrain from the same inputs into a fresh location
    shutil.copy(root / "kept.jsonl", tmp_path / "kept.jsonl")
    rc = main(
        [
            "fit-pca",
            "--dataset",
            str(tmp_path / "kept.jsonl"),
            "--checkpoint",
            str(tmp_path / "ck.ggck"),
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    args = list(train_args)
    args[args.index("--dataset") + 1] = str(tmp_path / "kept.jsonl")
    args[args.index("--checkpoint") + 1] = str(tmp_path / "ck.ggck")
    args[args.index("--out-dir") + 1] = str(tmp_path / "out")
    args[args.index("--history") + 1] = str(tmp_path / "history.csv")
    assert main(args) == 0
    # seq2seq sections must match bit for bit; configs differ in paths
    from gesturegen.checkpoint import load_checkpoint

    a = load_checkpoint(root / "ck.ggck")
    b = load_checkpoint(tmp_path / "ck.ggck")
    for name, p in a.model.store.items():
        assert np.array_equal(p.value, b.model.store[name].value), name
    assert first_history == (tmp_path / "history.csv").read_bytes()
    assert first_ck is not None


def test_schedule_output(capsys):
    rc = main(["schedule", "--text", " ".join(f"w{i}" for i in range(25)), "--duration", "15.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["words_per_chunk"] == 4
    assert payload["chunk_count"] == 7


def test_schedule_plans_with_the_checkpoint_model(workspace, tmp_path, capsys):
    # given a checkpoint, schedule plans with its model's n and m, as
    # generate does, not with the config's 10 and 20
    from gesturegen.checkpoint import Checkpoint, save_checkpoint
    from gesturegen.model import ModelConfig, init_model

    root, _ = workspace
    cfg = ModelConfig(word_dim=300, hidden=4, att_dim=4, n_seed_poses=4, n_output_poses=8, dropout=0.1)
    save_checkpoint(Checkpoint(config={}, model=init_model(cfg, seed=0)), tmp_path / "ck.ggck")
    text = " ".join(f"w{i}" for i in range(12))
    args = ["--checkpoint", str(tmp_path / "ck.ggck"), "--text", text, "--duration", "4", "--out-dir", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(["schedule", *args]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert main(["generate", *args, "--embeddings", str(root / "emb.txt")]) == 0
    summary = capsys.readouterr().out.splitlines()[1]
    assert summary.startswith(f"12 words, {plan['chunk_count']} chunks of {plan['words_per_chunk']}; "), summary
    assert plan["generated_frames"] == plan["chunk_count"] * 8


def test_schedule_tiny_duration_is_one_chunk(capsys):
    # the words-per-chunk quotient overflows to infinity before its clamp
    rc = main(["schedule", "--text", "hi there", "--duration", "1e-308"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chunks"] == [["hi", "there"]]


def test_baselines_and_eval(workspace):
    root, _ = workspace
    rc = main(
        [
            "baseline",
            "random",
            "--checkpoint",
            str(root / "ck.ggck"),
            "--dataset",
            str(root / "kept.jsonl"),
            "--duration",
            "5.0",
            "--seed",
            "3",
            "--out",
            str(root / "rand.csv"),
            "--out-dir",
            str(root / "out"),
        ]
    )
    assert rc == 0
    assert len((root / "rand.csv").read_text().strip().splitlines()) == 1 + 60
    rc = main(
        [
            "baseline",
            "nn",
            "--checkpoint",
            str(root / "ck.ggck"),
            "--dataset",
            str(root / "kept.jsonl"),
            "--text",
            "we hold a big idea",
            "--out",
            str(root / "nn.csv"),
            "--out-dir",
            str(root / "out"),
        ]
    )
    assert rc == 0
    # the manual baseline reads no pose basis, so it takes no checkpoint
    args = ["--file", str(root / "rand.csv"), "--duration", "2.0", "--out", str(root / "manual.csv")]
    rc = main(["baseline", "manual", *args, "--out-dir", str(root / "out")])
    assert rc == 0
    assert len((root / "manual.csv").read_text().strip().splitlines()) == 1 + 24
    rc = main(["eval", "--generated", str(root / "nn.csv"), "--reference", str(root / "rand.csv")])
    assert rc == 0


def test_nn_baseline_crossfades_its_chunks(workspace, tmp_path):
    # two-word chunks of five words: three winning spans joined by the
    # crossfade blend, and the track file holds nn_baseline's track
    from gesturegen.baselines import nn_baseline
    from gesturegen.checkpoint import load_checkpoint
    from gesturegen.corpus import load_records_jsonl
    from gesturegen.synthesis import save_track_csv
    from gesturegen.text import tokenize

    root, _ = workspace
    text, kept = "we hold a big idea", root / "kept.jsonl"
    args = ["baseline", "nn", "--checkpoint", str(root / "ck.ggck"), "--dataset", str(kept), "--chunk-len", "2"]
    assert main([*args, "--text", text, "--out", str(tmp_path / "nn.csv"), "--out-dir", str(tmp_path / "out")]) == 0
    track = nn_baseline(tokenize(text), load_records_jsonl(kept), load_checkpoint(root / "ck.ggck").pca, 2)
    save_track_csv(track, tmp_path / "want.csv")
    assert (tmp_path / "nn.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_manual_baseline_missing_file_fails(workspace, capsys):
    root, _ = workspace
    rc = main(
        [
            "baseline",
            "manual",
            "--checkpoint",
            str(root / "ck.ggck"),
            "--file",
            str(root / "missing.csv"),
            "--duration",
            "4.0",
            "--out-dir",
            str(root / "out"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("baseline:") and "\n" not in err


def test_unknown_subcommand_usage():
    proc = subprocess.run(
        [sys.executable, "-m", "gesturegen.cli", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0
    assert "usage" in proc.stderr.lower()


@pytest.mark.parametrize("command", ["schedule", "eval"])
def test_closed_stdout_is_one_line(command, workspace, tmp_path):
    # As `gesturegen schedule ... | true`: the reader has gone before the summary is written.
    root, _ = workspace
    track = str(root / "track.csv")
    args = {"schedule": ["--text", TEXT_25, "--duration", "15"], "eval": ["--generated", track, "--reference", track]}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        env = {**os.environ, "PYTHONPATH": str(Path(gesturegen.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "gesturegen.cli", command, *args[command]],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            cwd=tmp_path,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"{command}: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_error_is_single_line(capsys):
    rc = main(["generate", "--checkpoint", "/nonexistent/ck.ggck", "--text", "hi there"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("generate:")
    assert "\n" not in err


def test_full_sweep_gallery(workspace, tmp_path):
    root, _ = workspace
    rc = main(
        [
            "pca-sweep",
            "--checkpoint",
            str(root / "ck.ggck"),
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    files = sorted(tmp_path.glob("sweep_dim*/dim*.svg"))
    assert len(files) == 50  # 10 components x 5 values


def test_mean_pose_render_is_symmetric(workspace):
    # the fitted mean of the synthetic corpus mirrors left/right joints
    root, _ = workspace
    from gesturegen.checkpoint import load_checkpoint
    from gesturegen.pose import (
        L_ELBOW,
        L_SHOULDER,
        L_WRIST,
        R_ELBOW,
        R_SHOULDER,
        R_WRIST,
    )

    mean = load_checkpoint(root / "ck.ggck").pca.mean
    pose = mean.reshape(8, 2)
    for left, right in ((L_SHOULDER, R_SHOULDER), (L_ELBOW, R_ELBOW), (L_WRIST, R_WRIST)):
        assert abs(pose[left, 0] + pose[right, 0]) < 0.2
        assert abs(pose[left, 1] - pose[right, 1]) < 0.2


def test_checkpoint_every_writes_epoch_snapshots(workspace, tmp_path):
    root, _ = workspace
    ck = tmp_path / "ck.ggck"
    rc = main(
        [
            "fit-pca",
            "--dataset",
            str(root / "kept.jsonl"),
            "--checkpoint",
            str(ck),
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    rc = main(
        [
            "train",
            "--dataset",
            str(root / "kept.jsonl"),
            "--embeddings",
            str(root / "emb.txt"),
            "--checkpoint",
            str(ck),
            "--epochs",
            "2",
            "--hidden",
            "8",
            "--att-dim",
            "8",
            "--checkpoint-every",
            "1",
            "--seed",
            "1",
            "--out-dir",
            str(tmp_path / "out"),
            "--history",
            str(tmp_path / "history.csv"),
        ]
    )
    assert rc == 0
    snapshots = sorted((tmp_path / "out").glob("checkpoint_epoch*.ggck"))
    assert len(snapshots) == 2


def test_model_takes_its_size_from_the_fitted_basis(workspace, tmp_path):
    from gesturegen.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
    from gesturegen.corpus import load_records_jsonl
    from gesturegen.pose import fit_pca, normalize_pose

    root, _ = workspace
    records = load_records_jsonl(root / "kept.jsonl")
    pca = fit_pca(np.concatenate([normalize_pose(rec.frames) for rec in records]), k=4)
    ck = tmp_path / "ck.ggck"
    save_checkpoint(Checkpoint(config={}, pca=pca), ck)
    common = ["--checkpoint", str(ck), "--out-dir", str(tmp_path / "out")]
    train = ["train", "--dataset", str(root / "kept.jsonl"), "--embeddings", str(root / "emb.txt")]
    train += ["--epochs", "1", "--hidden", "8", "--att-dim", "8", "--history", str(tmp_path / "history.csv")]
    assert main([*train, *common]) == 0
    assert load_checkpoint(ck).model.cfg.gesture_dim == 4
    generate = ["generate", "--text", "we hold a big idea", "--duration", "2.0", "--out", str(tmp_path / "track.csv")]
    assert main([*generate, "--attention", str(tmp_path / "attn.csv"), *common]) == 0
    assert (tmp_path / "track.csv").read_text().splitlines()[0] == "t_s,c1,c2,c3,c4"


def test_lift_train_reports_wall_time(tmp_path, capsys):
    from gesturegen.checkpoint import Checkpoint, save_checkpoint

    ck = tmp_path / "ck.ggck"
    save_checkpoint(Checkpoint(config={}), ck)
    args = ["lift-train", "--checkpoint", str(ck), "--lift-steps", "3", "--lift-corpus-size", "10"]
    assert main([*args, "--out-dir", str(tmp_path / "out")]) == 0
    line = capsys.readouterr().out.strip()
    pattern = r"trained depth-lift net on 10 synthetic poses \(3 steps in \d+\.\d\d s\); train mse \d+\.\d{5} -> "
    assert re.fullmatch(pattern + re.escape(str(ck)), line), line


def test_schedule_uses_rate_estimate_without_duration(capsys):
    # 160 words at the default 160 words/minute estimate to 60 s
    rc = main(["schedule", "--text", " ".join(f"w{i}" for i in range(160))])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["speech_duration"] == 60.0


def _single_line_error(capsys, command):
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"{command}:")
    assert "\n" not in err


def test_missing_embedding_file_is_single_line(workspace, capsys):
    root, _ = workspace
    rc = main(
        ["generate", "--checkpoint", str(root / "ck.ggck"), "--embeddings", str(root / "nope.txt"), "--text", "hi"]
    )
    assert rc == 1
    _single_line_error(capsys, "generate")


def test_repeated_embedding_token_is_single_line(workspace, tmp_path, capsys):
    _, train_args = workspace
    path = tmp_path / "emb.txt"
    path.write_text("a 1 2\na 3 4\n")
    args = [*train_args, "--embeddings", str(path), "--history", str(tmp_path / "history.csv")]
    capsys.readouterr()
    assert main([*args, "--out-dir", str(tmp_path / "out")]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.splitlines() == [f"train: {path}: token 'a' is listed more than once"]


def test_non_utf8_embedding_file_is_single_line(workspace, tmp_path, capsys):
    root, _ = workspace
    (tmp_path / "emb.txt").write_bytes(b"tok \xff\xfe 1.0\n")
    rc = main(
        ["generate", "--checkpoint", str(root / "ck.ggck"), "--embeddings", str(tmp_path / "emb.txt"), "--text", "hi"]
    )
    assert rc == 1
    _single_line_error(capsys, "generate")


@pytest.mark.parametrize(
    "limits",
    [
        None,
        "{not json",
        '{"head_yaw": [1.0]}',
        '{"head_yaw": ["a", "b"]}',
        '{"head_yaw": [1.0, -1.0]}',
        '{"head_yaw": [false, true]}',
        '{"elbow": [0.0, 1.0]}',
    ],
)
def test_bad_limits_file_is_single_line(workspace, tmp_path, capsys, limits):
    root, _ = workspace
    path = tmp_path / "limits.json"
    if limits is not None:
        path.write_text(limits)
    rc = main(
        [
            "retarget",
            "--checkpoint",
            str(root / "ck.ggck"),
            "--track",
            str(root / "track.csv"),
            "--limits",
            str(path),
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    if limits == '{"head_yaw": [false, true]}':  # JSON booleans would clamp as (0, 1)
        bounds_message = "limits for head_yaw must be two finite numbers lo <= hi, got (False, True)"
        assert capsys.readouterr().err.splitlines() == [f"retarget: {bounds_message}"]
    elif limits == '{"elbow": [0.0, 1.0]}':
        assert capsys.readouterr().err.splitlines() == ["retarget: unknown joint name in limits: elbow"]
    else:
        _single_line_error(capsys, "retarget")


def test_duplicate_checkpoint_array_is_single_line(workspace, tmp_path, capsys):
    root, _ = workspace
    raw = (root / "ck.ggck").read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    header["arrays"].append({"name": "pca.mean", "shape": [16]})
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = raw[16 + header_len :] + np.full(16, 7.0).astype("<f8").tobytes()
    (tmp_path / "dup.ggck").write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + payload)
    args = ["--checkpoint", str(tmp_path / "dup.ggck"), "--track", str(root / "track.csv"), "--out-dir", str(tmp_path)]
    rc = main(["retarget", *args])
    assert rc == 1
    message = "corrupt checkpoint header: array 'pca.mean' is listed more than once"
    assert capsys.readouterr().err.splitlines() == [f"retarget: {message}"]


def test_non_numeric_sweep_values_is_single_line(workspace, tmp_path, capsys):
    root, _ = workspace
    rc = main(["pca-sweep", "--checkpoint", str(root / "ck.ggck"), "--values", "1,x", "--out-dir", str(tmp_path)])
    assert rc == 1
    _single_line_error(capsys, "pca-sweep")
    for dim in ("0", "11"):
        rc = main(["pca-sweep", "--checkpoint", str(root / "ck.ggck"), "--dim", dim, "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"pca-sweep: component {dim} not in [1, 10]"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, out, reason",
    [
        ("generate", ["--out", "."], "cannot write track file: "),
        ("retarget", ["--out", "."], "cannot write track file: "),
        ("schedule", ["--out", "."], "cannot write plan file: "),
        ("generate", ["--out", "afile/t.csv"], "cannot create output directory: "),
        ("generate", ["--out-dir", "afile/sub"], "cannot create output directory: "),
        ("synth-corpus", ["--embeddings-out", "."], "cannot write embedding table: "),
        ("render", ["--out", "afile"], "cannot write render output: [Errno 17] File exists: "),
    ],
    ids=[
        "generate",
        "retarget",
        "schedule",
        "generate-out-under-file",
        "generate-out-dir-under-file",
        "synth-corpus",
        "render-out-is-file",
    ],
)
def test_output_path_is_directory_is_single_line(workspace, tmp_path, capsys, command, out, reason):
    root, _ = workspace
    (tmp_path / "afile").write_text("")
    common = ["--checkpoint", str(root / "ck.ggck"), "--out-dir", str(tmp_path / "o")]
    args = {
        "generate": ["--text", "we hold a big idea", "--duration", "2.0", "--attention", str(tmp_path / "a.csv")],
        "retarget": ["--track", str(root / "track.csv")],
        "schedule": ["--text", "we hold a big idea"],
        "synth-corpus": ["--sentences", "1", "--out", str(tmp_path / "c.jsonl")],
        "render": ["--track", str(root / "track.csv")],
    }[command]
    rc = main([command, *args, *common, out[0], str(tmp_path / out[1])])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"{command}: {reason}") and "\n" not in err


def test_eval_width_mismatch_is_single_line(workspace, tmp_path, capsys):
    root, _ = workspace
    rc = main(
        [
            "retarget",
            "--checkpoint",
            str(root / "ck.ggck"),
            "--track",
            str(root / "track.csv"),
            "--out",
            str(tmp_path / "traj.csv"),
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(["eval", "--generated", str(tmp_path / "traj.csv"), "--reference", str(root / "track.csv")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err == "eval: 12 generated vs 10 reference columns"


def test_eval_overflowing_metric_is_single_line(tmp_path, capsys):
    from gesturegen.synthesis import TimedPoseTrack, save_track_csv

    frames = np.zeros((5, 3))
    save_track_csv(TimedPoseTrack(frames), tmp_path / "reference.csv")
    frames[2, 1] = 1e200  # finite, but its square is not
    save_track_csv(TimedPoseTrack(frames), tmp_path / "generated.csv")
    args = ["--generated", str(tmp_path / "generated.csv"), "--reference", str(tmp_path / "reference.csv")]
    assert main(["eval", *args, "--out", str(tmp_path / "metrics.json")]) == 1
    assert capsys.readouterr() == ("", "eval: mse is not finite: the track values are too large\n")
    assert not (tmp_path / "metrics.json").exists()


def test_non_finite_record_train_is_single_line(workspace, tmp_path, capsys):
    root, train_args = workspace
    lines = (root / "kept.jsonl").read_text().splitlines()
    lines[1] = lines[1].replace('"fps":12.0', '"fps":NaN')
    (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
    args = list(train_args)
    args[args.index("--dataset") + 1] = str(tmp_path / "bad.jsonl")
    args[args.index("--out-dir") + 1] = str(tmp_path / "out")
    args[args.index("--history") + 1] = str(tmp_path / "history.csv")
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "ck.ggck")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("train: ") and "bad record on line 2: non-finite number NaN" in err
    assert "\n" not in err


@pytest.mark.parametrize("duration", ["nan", "inf"])
@pytest.mark.parametrize("command", ["schedule", "generate"])
def test_non_finite_duration_is_single_line(workspace, tmp_path, capsys, command, duration):
    root, _ = workspace
    args = [command, "--text", "hello there", "--duration", duration, "--checkpoint", str(root / "ck.ggck")]
    capsys.readouterr()
    assert main([*args, "--out-dir", str(tmp_path / "out"), "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"{command}: speech duration must be finite, got {duration}"
    assert not (tmp_path / "out.csv").exists()


def test_diverging_train_is_single_line(workspace, tmp_path, capsys):
    root, train_args = workspace
    args = list(train_args)
    args[args.index("--lr") + 1] = "1e300"
    args[args.index("--out-dir") + 1] = str(tmp_path / "out")
    args[args.index("--history") + 1] = str(tmp_path / "history.csv")
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "ck.ggck")]) == 1
    err = capsys.readouterr().err.strip()
    assert re.fullmatch(r"train: training diverged at epoch \d+, batch \d+: non-finite (loss|gradient)", err), err
    assert not (tmp_path / "ck.ggck").exists()


def test_diverging_lift_train_is_single_line(tmp_path, capsys, monkeypatch):
    from gesturegen import lifting
    from gesturegen.checkpoint import Checkpoint, save_checkpoint

    ck = tmp_path / "ck.ggck"
    save_checkpoint(Checkpoint(config={}), ck)
    monkeypatch.setattr(lifting, "augment_3d", lambda samples, angles, z, noise_sigma: np.full(samples.shape, np.nan))
    args = ["lift-train", "--checkpoint", str(ck), "--lift-steps", "3", "--lift-corpus-size", "10"]
    assert main([*args, "--out", str(tmp_path / "lift.ggck"), "--out-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "lift-train: training diverged at step 0: non-finite loss\n"
    assert captured.out == ""
    assert not (tmp_path / "lift.ggck").exists()


@pytest.mark.parametrize(
    "command, stdout_path",
    [("curate", "/dev/stdout"), ("curate", "/proc/self/fd/1"), ("generate", "/dev/stdout")],
)
def test_summary_on_stderr_when_output_is_stdout(workspace, tmp_path, command, stdout_path):
    # As `gesturegen curate --out /dev/stdout > f`: f holds the data alone,
    # byte-equal to a file output, and the summary goes to stderr.
    root, _ = workspace
    args = {
        "curate": ["--dataset", str(root / "corpus.jsonl"), "--report", str(tmp_path / "report.json")],
        "generate": ["--checkpoint", str(root / "ck.ggck"), "--text", TEXT_25, "--duration", "15.0"],
    }[command]
    env = {**os.environ, "PYTHONPATH": str(Path(gesturegen.__file__).parents[1])}

    def run(out, stdout):
        cli = [sys.executable, "-m", "gesturegen.cli", command, *args, "--out-dir", str(tmp_path / "o"), "--out", out]
        return subprocess.run(cli, stdout=stdout, stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=env)

    to_file = run(str(tmp_path / "g"), subprocess.PIPE)
    with open(tmp_path / "f", "w") as fh:
        to_stdout = run(stdout_path, fh)
    assert to_file.returncode == to_stdout.returncode == 0, to_stdout.stderr
    assert to_file.stderr == ""
    assert (tmp_path / "f").read_bytes() == (tmp_path / "g").read_bytes()

    def untimed(text):
        return re.sub(r"\d+\.\d{4}", "#", text)

    assert untimed(to_stdout.stderr) == untimed(to_file.stdout.replace(str(tmp_path / "g"), stdout_path))


def test_train_prints_one_line_per_epoch(workspace, tmp_path, capsys):
    root, train_args = workspace
    args = list(train_args)
    args[args.index("--epochs") + 1] = "3"
    args[args.index("--out-dir") + 1] = str(tmp_path / "out")
    args[args.index("--history") + 1] = str(tmp_path / "history.csv")
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "ck.ggck")]) == 0
    number = r"-?\d+\.\d{6}"
    pattern = rf"epoch (\d)/3: mse {number} continuity {number} variance {number} total {number} \(\d+\.\d\d s\)"
    epochs = [m.group(1) for m in map(re.compile(pattern).fullmatch, capsys.readouterr().out.splitlines()) if m]
    assert epochs == ["1", "2", "3"]
    assert len((tmp_path / "history.csv").read_text().splitlines()) == 4


def test_train_holds_no_dataset_record(workspace, tmp_path, monkeypatch):
    """Once the pairs are built, training keeps none of the records it
    loaded alive (other tests may hold records of their own)."""
    import gc
    import weakref

    from gesturegen import cli

    root, train_args = workspace
    loaded, live = [], []

    def load_records_jsonl(path):
        records = load(path)
        loaded.extend(map(weakref.ref, records))
        return records

    def train_model(*args, **kwargs):
        gc.collect()
        live.append(sum(ref() is not None for ref in loaded))
        return train(*args, **kwargs)

    load, train = cli.load_records_jsonl, cli.train_model
    monkeypatch.setattr(cli, "load_records_jsonl", load_records_jsonl)
    monkeypatch.setattr(cli, "train_model", train_model)
    args = list(train_args)
    args[args.index("--out-dir") + 1] = str(tmp_path / "out")
    args[args.index("--history") + 1] = str(tmp_path / "history.csv")
    assert main([*args, "--out", str(tmp_path / "ck.ggck")]) == 0
    assert len(loaded) > 0 and live == [0]


def test_non_finite_checkpoint_generate_is_single_line(workspace, tmp_path, capsys):
    from test_checkpoint import patch_array_value

    root, _ = workspace
    path = tmp_path / "ck.ggck"
    shutil.copyfile(root / "ck.ggck", path)
    patch_array_value(path, "seq2seq.dec.post.b", np.nan)
    capsys.readouterr()
    args = ["generate", "--checkpoint", str(path), "--text", "we hold a big idea", "--duration", "2.0"]
    assert main([*args, "--out-dir", str(tmp_path / "out"), "--out", str(tmp_path / "track.csv")]) == 1
    assert capsys.readouterr().err.strip() == "generate: array seq2seq.dec.post.b has non-finite values"
    assert not (tmp_path / "track.csv").exists()


def test_overflowing_track_retarget_is_single_line(workspace, tmp_path, capsys):
    root, _ = workspace
    rows = [f"{t / 12.0!r}," + ",".join(["1e308"] * 10) for t in range(3)]
    (tmp_path / "huge.csv").write_text("\n".join(["t_s," + ",".join(f"c{i + 1}" for i in range(10)), *rows]) + "\n")
    capsys.readouterr()
    args = ["retarget", "--checkpoint", str(root / "ck.ggck"), "--track", str(tmp_path / "huge.csv")]
    assert main([*args, "--out-dir", str(tmp_path / "out"), "--out", str(tmp_path / "traj.csv")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("retarget: "), lines
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("duration", ["0", "-1"])
@pytest.mark.parametrize("command", ["generate", "schedule", "baseline nn", "baseline random"])
def test_non_positive_duration_is_single_line(workspace, tmp_path, capsys, command, duration):
    root, _ = workspace
    args = [*command.split(), "--text", "we hold a big idea", "--duration", duration]
    args += ["--checkpoint", str(root / "ck.ggck"), "--dataset", str(root / "kept.jsonl")]
    capsys.readouterr()
    assert main([*args, "--out-dir", str(tmp_path / "out"), "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"{command.split()[0]}: speech duration must be positive, got {float(duration)}"
    assert not (tmp_path / "out.csv").exists()


def test_bad_embedding_ref_generate_is_single_line(workspace, tmp_path, capsys):
    from test_checkpoint import edit_header

    root, _ = workspace
    path = tmp_path / "ck.ggck"
    shutil.copyfile(root / "ck.ggck", path)
    edit_header(path, lambda h: h.update(embedding_ref={"sha256": "x"}))
    capsys.readouterr()
    args = ["generate", "--checkpoint", str(path), "--text", "we hold a big idea", "--duration", "2.0"]
    assert main([*args, "--out-dir", str(tmp_path / "out"), "--out", str(tmp_path / "track.csv")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("generate: corrupt checkpoint header: embedding_ref ") and "\n" not in err
    assert not (tmp_path / "track.csv").exists()


@pytest.mark.parametrize("edit", ["valid", "malformed"])
def test_changed_embedding_table_generate_is_single_line(workspace, tmp_path, capsys, edit):
    # The checkpoint's table is checked against its hash before it is parsed,
    # so a table edited after training is refused as such even when it would
    # not parse either.
    from test_checkpoint import edit_header

    root, _ = workspace
    table, path = tmp_path / "emb.txt", tmp_path / "ck.ggck"
    lines = (root / "emb.txt").read_text().splitlines(keepends=True)
    token, *values = lines[0].split()
    lines[0] = " ".join([token, *(values[::-1] if edit == "valid" else ["x"] * len(values))]) + "\n"
    table.write_text("".join(lines))
    shutil.copyfile(root / "ck.ggck", path)
    edit_header(path, lambda h: h["embedding_ref"].update(path=str(table)))
    capsys.readouterr()
    args = ["generate", "--checkpoint", str(path), "--text", "we hold a big idea", "--duration", "2.0"]
    assert main([*args, "--out-dir", str(tmp_path / "out"), "--out", str(tmp_path / "track.csv")]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.splitlines() == [f"generate: embedding file {table} does not match the checkpoint reference hash"]
    assert not (tmp_path / "track.csv").exists()


def test_bad_array_shape_pca_sweep_is_single_line(workspace, tmp_path, capsys):
    from test_checkpoint import edit_header

    root, _ = workspace
    path = tmp_path / "ck.ggck"
    shutil.copyfile(root / "ck.ggck", path)
    edit_header(path, lambda h: h["arrays"][0].update(shape=["16"]))
    capsys.readouterr()
    assert main(["pca-sweep", "--checkpoint", str(path), "--out-dir", str(tmp_path / "svg")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("pca-sweep: corrupt checkpoint header: array 'pca.mean' ") and "\n" not in err


def test_non_string_record_id_baseline_is_single_line(workspace, tmp_path, capsys):
    root, _ = workspace
    lines = (root / "kept.jsonl").read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "id": 5})
    path = tmp_path / "kept.jsonl"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    args = ["baseline", "nn", "--checkpoint", str(root / "ck.ggck"), "--dataset", str(path), "--text", "we hold"]
    assert main([*args, "--out", str(tmp_path / "nn.csv"), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"baseline: {path}: bad record on line 2: record id must be a non-empty string, got 5"]
    assert not (tmp_path / "nn.csv").exists()


@pytest.mark.parametrize("raw, shown", [(5, "5"), (None, "None"), ("", "''")], ids=["number", "null", "empty"])
@pytest.mark.parametrize("command", ["train", "curate"])
def test_bad_word_surface_is_single_line(workspace, tmp_path, capsys, command, raw, shown):
    root, train_args = workspace
    lines = (root / "kept.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    record["words"][0][0] = raw
    lines[1] = json.dumps(record)
    path = tmp_path / "kept.jsonl"
    path.write_text("\n".join(lines) + "\n")
    out = ["--dataset", str(path), "--out-dir", str(tmp_path / "out")]
    args = {
        "train": [*train_args, "--history", str(tmp_path / "history.csv"), *out],
        "curate": ["curate", "--out", str(tmp_path / "k.jsonl"), "--report", str(tmp_path / "r.json"), *out],
    }[command]
    checkpoint = (root / "ck.ggck").read_bytes()
    capsys.readouterr()
    assert main(args) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.splitlines() == [f"{command}: {path}: bad record on line 2: word surface must be a non-empty string, got {shown}"]
    assert (root / "ck.ggck").read_bytes() == checkpoint
    assert not (tmp_path / "k.jsonl").exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda r: r.update(frame_height=True), "frame height must be a finite positive number, got True"),
        (lambda r: r["words"][0].__setitem__(1, False), "needs finite times, got False to "),
    ],
    ids=["frame_height", "word_start"],
)
def test_bool_number_curate_is_single_line(workspace, tmp_path, capsys, edit, reason):
    """JSON true and false are no numbers: a record that curate kept with a
    frame height of true (1 px against the 0.5 px size rule) is refused."""
    root, _ = workspace
    lines = (root / "corpus.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    edit(record)
    lines[1] = json.dumps(record)
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "k.jsonl"
    assert main(["curate", "--dataset", str(path), "--out", str(out), "--report", str(tmp_path / "r.json")]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and len(err.splitlines()) == 1
    assert err.startswith(f"curate: {path}: bad record on line 2: ") and reason in err
    assert not out.exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "command, reason",
    [
        ("render", "pose 0 has non-finite values"),
        ("pca-sweep", "--values must be comma-separated finite numbers, got '0,1e309'"),
    ],
)
def test_overflowing_render_is_single_line(workspace, tmp_path, capsys, command, reason):
    root, _ = workspace
    rows = [f"{t / 12.0!r}," + ",".join(["1.7e308"] * 10) for t in range(3)]
    (tmp_path / "huge.csv").write_text("\n".join(["t_s," + ",".join(f"c{i + 1}" for i in range(10)), *rows]) + "\n")
    args = {
        "render": ["--track", str(tmp_path / "huge.csv"), "--out", str(tmp_path / "svg")],
        "pca-sweep": ["--dim", "1", "--values", "0,1e309", "--out-dir", str(tmp_path / "svg")],
    }[command]
    capsys.readouterr()
    assert main([command, "--checkpoint", str(root / "ck.ggck"), *args]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{command}: {reason}"]
    assert not (tmp_path / "svg").exists()


@pytest.mark.parametrize(
    "command, flags, got",
    [
        ("generate", "--duration 1e308", "1e+308"),
        ("baseline random", "--duration 1e308", "1e+308"),
        ("generate", "--duration 1e300", "1e+300"),
        ("schedule", "--duration 1e308", "1e+308"),
        ("generate", "--words-per-minute 1e-300", "3e+302"),
        ("schedule", "--words-per-minute 1e-300", "3e+302"),
    ],
    ids=["generate-1e308", "baseline-random-1e308", "generate-1e300", "schedule-1e308", "generate-rate", "schedule-rate"],
)
def test_huge_duration_is_single_line(workspace, tmp_path, capsys, monkeypatch, command, flags, got):
    import gesturegen.cli

    def no_inference(*args):
        raise AssertionError("generation ran")

    monkeypatch.setattr(gesturegen.cli, "generate_gesture", no_inference)
    root, _ = workspace
    args = [*command.split(), "--text", "we hold a big idea", *flags.split()]
    args += ["--checkpoint", str(root / "ck.ggck"), "--dataset", str(root / "kept.jsonl")]
    capsys.readouterr()
    assert main([*args, "--out-dir", str(tmp_path / "out"), "--out", str(tmp_path / "out.csv")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"{command.split()[0]}: speech duration must be at most 86400 s, got {got}"]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "command, basis, reason",
    [
        ("generate --text hi", True, "trained generation model; run train first"),
        ("retarget --track t.csv", True, "lift net; run lift-train first"),
        ("train", False, "fitted pose model; run fit-pca first"),
        ("render --track t.csv", False, "fitted pose model; run fit-pca first"),
        ("pca-sweep", False, "fitted pose model; run fit-pca first"),
        ("baseline random --duration 2", False, "fitted pose model; run fit-pca first"),
    ],
    ids=["generate", "retarget", "train", "render", "pca-sweep", "baseline"],
)
def test_missing_checkpoint_part_is_single_line(workspace, tmp_path, capsys, command, basis, reason):
    from gesturegen.checkpoint import Checkpoint, load_checkpoint, save_checkpoint

    root, _ = workspace
    pca = load_checkpoint(root / "ck.ggck").pca if basis else None
    save_checkpoint(Checkpoint(config={}, pca=pca), tmp_path / "ck.ggck")
    capsys.readouterr()
    assert main([*command.split(), "--checkpoint", str(tmp_path / "ck.ggck"), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{command.split()[0]}: checkpoint has no {reason}"]


def test_generate_needs_no_pose_basis(workspace, tmp_path):
    from gesturegen.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
    from gesturegen.synthesis import load_track_csv

    root, _ = workspace
    full = load_checkpoint(root / "ck.ggck")
    save_checkpoint(Checkpoint(config={}, model=full.model, embedding_ref=full.embedding_ref), tmp_path / "ck.ggck")
    args = ["generate", "--checkpoint", str(tmp_path / "ck.ggck"), "--text", "we hold a big idea", "--duration", "2.0"]
    args += ["--out", str(tmp_path / "track.csv"), "--attention", str(tmp_path / "attn.csv")]
    assert main([*args, "--out-dir", str(tmp_path / "out")]) == 0
    track = load_track_csv(tmp_path / "track.csv")
    assert len(track) == 24 and np.isfinite(track.frames).all()


# A RuntimeWarning is an error under the pytest config, so these cases also
# show that no NaN is computed on the way to the refusal.
@pytest.mark.parametrize(
    "command, table, reason",
    [
        ("eval", "track", "{path}: line 2: no values"),
        ("baseline manual", "track", "{path}: line 2: no values"),
        ("train", "embeddings", "{path}: no rows"),
        ("generate", "embeddings", "{path}: no rows"),
    ],
    ids=["eval-value-less-track", "baseline-manual-value-less-track", "train-empty-table", "generate-empty-table"],
)
def test_table_without_values_is_single_line(workspace, tmp_path, capsys, command, table, reason):
    root, train_args = workspace
    path = tmp_path / ("bare.csv" if table == "track" else "empty.txt")
    path.write_text("t_s,\n0.0\n0.08333333333333333\n" if table == "track" else "")
    out = ["--out-dir", str(tmp_path / "out"), "--out", str(tmp_path / "out.csv")]
    args = {
        "eval": ["eval", "--generated", str(path), "--reference", str(path)],
        "baseline manual": ["baseline", "manual", "--file", str(path), "--duration", "2"],
        "train": [*train_args, "--embeddings", str(path), "--history", str(tmp_path / "history.csv")],
        "generate": ["generate", "--checkpoint", str(root / "ck.ggck"), "--text", "hi", "--embeddings", str(path)],
    }[command]
    capsys.readouterr()
    assert main([*args, *out]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.splitlines() == [f"{command.split()[0]}: " + reason.format(path=path)]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["train", "generate"])
def test_table_of_the_wrong_width_is_single_line(workspace, tmp_path, capsys, command):
    # the fixture's model reads 300-d words: a 50-d table is refused by the
    # model's one shape check, as one line and before any output is written
    root, train_args = workspace
    path = tmp_path / "emb50.txt"
    path.write_text("".join(f"{word} " + " ".join(["0.25"] * 50) + "\n" for word in ("we", "hold", "idea")))
    args = {
        "train": [*train_args, "--word-dim", "300", "--history", str(tmp_path / "history.csv")],
        "generate": ["generate", "--checkpoint", str(root / "ck.ggck"), "--text", "we hold a big idea"],
    }[command]
    capsys.readouterr()
    out = ["--embeddings", str(path), "--out-dir", str(tmp_path / "out"), "--out", str(tmp_path / "out.file")]
    assert main([*args, *out]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{command}: word dim 50 != 300"]
    assert not (tmp_path / "out.file").exists()


def _refusal_args(case, root, tmp):
    """The command line of a refusal case, with the files it reads written under tmp."""
    from gesturegen.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
    from gesturegen.pose import L_WRIST
    from test_checkpoint import edit_header

    ck, kept = ["--checkpoint", str(root / "ck.ggck")], str(root / "kept.jsonl")
    (tmp / "not-utf8").write_bytes(b"\xff{}\n")
    (tmp / "empty.jsonl").write_text("")
    (tmp / "narrow.csv").write_text("t_s,c1,c2,c3\n0.0,0.1,0.2,0.3\n")
    path = tmp / "ck.ggck"
    if case in ("no-embedding-table", "schedule-no-model"):  # a basis, and no table reference or model
        save_checkpoint(Checkpoint(config={}, pca=load_checkpoint(root / "ck.ggck").pca), path)
    elif case == "header-not-json":
        raw = (root / "ck.ggck").read_bytes()
        header_len = int.from_bytes(raw[8:16], "little")
        path.write_bytes(raw[:16] + b"x" * header_len + raw[16 + header_len :])
    elif case == "array-shape":  # one array listed flattened: the same bytes, the wrong shape
        shutil.copyfile(root / "ck.ggck", path)
        edit_header(path, lambda h: next(e for e in h["arrays"] if e["name"] == "seq2seq.enc.l0.fwd.w_z").update(shape=[4800]))
    elif case == "checkpoint-bad-magic":
        path.write_bytes(b"GGCX" + (root / "ck.ggck").read_bytes()[4:])
    elif case == "checkpoint-array-short":  # the payload without its last array
        raw = (root / "ck.ggck").read_bytes()
        header = json.loads(raw[16 : 16 + int.from_bytes(raw[8:16], "little")])
        path.write_bytes(raw[: -8 * int(np.prod(header["arrays"][-1]["shape"]))])
    elif case == "checkpoint-version-2":
        raw = (root / "ck.ggck").read_bytes()
        path.write_bytes(raw[:4] + (2).to_bytes(4, "little") + raw[8:])
    elif case in ("train-no-pairs", "train-one-output-pose"):
        shutil.copyfile(root / "ck.ggck", path)  # train writes its checkpoint back to --checkpoint
    record = json.loads((root / "kept.jsonl").read_text().splitlines()[0])
    frames, words = record["frames"], record["words"]
    records = {
        "five-frames": {**record, "frames": frames[:5]},
        "short": {**record, "frames": frames[:20]},  # under n + m = 30 frames
        "null-joint": {**record, "frames": [[None if j == L_WRIST else joint for j, joint in enumerate(frames[0])], *frames[1:]]},
        "half-null": {**record, "frames": [[[None, 3.0], *frames[0][1:]], *frames[1:]]},
        "words-back": {**record, "words": [words[1], words[0], *words[2:]]},
        "fps-25": {**record, "fps": 25},
    }
    for name, rec in records.items():
        (tmp / f"{name}.jsonl").write_text(json.dumps(rec) + "\n")
    header, row = "t_s," + ",".join(f"c{i + 1}" for i in range(10)), ",".join(["0.5"] * 10)
    (tmp / "no-header.csv").write_text(f"0.0,{row}\n")
    (tmp / "non-numeric.csv").write_text(f"{header}\n0.0,x,{row[4:]}\n")
    (tmp / "short-row.csv").write_text(f"{header}\n0.0,{row}\n0.083,{row[4:]}\n")
    (tmp / "nan.csv").write_text(f"{header}\n0.0,nan,{row[4:]}\n")
    (tmp / "m1.json").write_text('{"n_output_poses": 1}')
    train = ["train", "--checkpoint", str(path), "--embeddings", str(root / "emb.txt"), "--hidden", "4", "--att-dim", "4"]
    generate = ["generate", "--checkpoint", str(path), "--text", "we hold a big idea", "--duration", "2"]
    return {
        "config-missing": ["schedule", "--text", "hi", "--config", str(tmp / "missing.json")],
        "config-not-utf8": ["schedule", "--text", "hi", "--config", str(tmp / "not-utf8")],
        "dataset-not-utf8": ["curate", "--dataset", str(tmp / "not-utf8")],
        "missing-required": ["curate"],
        "no-embedding-table": ["train", "--dataset", kept, "--checkpoint", str(path)],
        "fit-pca-empty-dataset": ["fit-pca", "--dataset", str(tmp / "empty.jsonl"), "--checkpoint", str(path)],
        "baseline-random-no-duration": ["baseline", "random", *ck, "--dataset", kept],
        "synth-corpus-no-sentences": ["synth-corpus", "--sentences", "0", "--out", str(tmp / "c.jsonl")],
        "baseline-nn-no-words": ["baseline", "nn", *ck, "--dataset", kept, "--text", "!!"],
        "header-not-json": generate,
        "array-shape": generate,
        "render-track-width": ["render", *ck, "--track", str(tmp / "narrow.csv")],
        "retarget-track-width": ["retarget", *ck, "--track", str(tmp / "narrow.csv")],
        "generate-duration-nan": ["generate", *ck, "--text", "we hold a big idea", "--duration", "nan"],
        "generate-duration-negative": ["generate", *ck, "--text", "we hold a big idea", "--duration=-1"],
        "generate-duration-too-long": ["generate", *ck, "--text", "we hold a big idea", "--duration", "1e9"],
        "generate-no-words": ["generate", *ck, "--text", "!!"],
        "schedule-no-words": ["schedule", "--text", "!!", "--duration", "2"],
        "schedule-no-model": ["schedule", "--checkpoint", str(path), "--text", "hi", "--duration", "2"],
        "baseline-random-empty-dataset": ["baseline", "random", *ck, "--dataset", str(tmp / "empty.jsonl"), "--duration", "2"],
        "fit-pca-too-few-poses": ["fit-pca", "--dataset", str(tmp / "five-frames.jsonl"), "--checkpoint", str(path)],
        "fit-pca-missing-joint": ["fit-pca", "--dataset", str(tmp / "null-joint.jsonl"), "--checkpoint", str(path)],
        "curate-half-null-joint": ["curate", "--dataset", str(tmp / "half-null.jsonl")],
        "curate-words-back": ["curate", "--dataset", str(tmp / "words-back.jsonl")],
        "curate-fps": ["curate", "--dataset", str(tmp / "fps-25.jsonl")],
        "render-track-no-header": ["render", *ck, "--track", str(tmp / "no-header.csv")],
        "render-track-non-numeric": ["render", *ck, "--track", str(tmp / "non-numeric.csv")],
        "eval-short-row": ["eval", "--generated", str(tmp / "short-row.csv"), "--reference", str(root / "track.csv")],
        "baseline-manual-nan": ["baseline", "manual", "--file", str(tmp / "nan.csv"), "--duration", "2"],
        "checkpoint-bad-magic": generate,
        "checkpoint-array-short": generate,
        "checkpoint-version-2": generate,
        "train-no-pairs": [*train, "--dataset", str(tmp / "short.jsonl")],
        "train-one-output-pose": [*train, "--dataset", kept, "--config", str(tmp / "m1.json"), "--epochs", "1"],
    }[case]


_NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
_REFUSALS = [
    ("config-missing", "cannot read config: [Errno 2] No such file or directory: "),
    ("config-not-utf8", f"cannot read config: {_NOT_UTF8}"),
    ("dataset-not-utf8", f"cannot read dataset: {_NOT_UTF8}"),
    ("missing-required", "missing required dataset path"),
    ("no-embedding-table", "no embedding table: pass --embeddings or set it in the config"),
    ("fit-pca-empty-dataset", "dataset has no records"),
    ("baseline-random-no-duration", "missing required --duration"),
    ("synth-corpus-no-sentences", "need at least one sentence"),
    ("baseline-nn-no-words", "empty query text"),
    ("header-not-json", "corrupt checkpoint header: Expecting value: line 1 column 1 (char 0)"),
    ("array-shape", "array seq2seq.enc.l0.fwd.w_z has shape (4800,), expected (16, 300)"),
    ("render-track-width", "expected 10 coefficients, got (3,)"),
    ("retarget-track-width", "expected 10 coefficients, got (3,)"),
    ("generate-duration-nan", "speech duration must be finite, got nan"),
    ("generate-duration-negative", "speech duration must be positive, got -1.0"),
    ("generate-duration-too-long", "speech duration must be at most 86400 s, got 1000000000.0"),
    ("generate-no-words", "cannot estimate duration of empty text"),
    ("schedule-no-words", "cannot plan chunks for empty text"),
    ("schedule-no-model", "checkpoint has no trained generation model; run train first"),
    ("baseline-random-empty-dataset", "no training records"),
    ("fit-pca-too-few-poses", "need at least 11 poses, got 5"),
    ("fit-pca-missing-joint", "missing joints: l_wrist"),
    ("curate-half-null-joint", "{tmp}/half-null.jsonl: bad record on line 1: a joint has exactly one NaN coordinate"),
    ("curate-words-back", "{tmp}/words-back.jsonl: bad record on line 1: word timestamps must be non-decreasing"),
    ("curate-fps", "{tmp}/fps-25.jsonl: bad record on line 1: fps must be 12, got 25"),
    ("render-track-no-header", "{tmp}/no-header.csv: line 1 does not start with 't_s,'"),
    ("render-track-non-numeric", "{tmp}/non-numeric.csv: line 2: non-numeric value"),
    ("eval-short-row", "{tmp}/short-row.csv: line 3: expected 10 values, got 9"),
    ("baseline-manual-nan", "{tmp}/nan.csv: line 2: non-finite value"),
    ("checkpoint-bad-magic", "not a checkpoint file (bad magic)"),
    ("checkpoint-array-short", "checkpoint is {size} bytes, its header implies {full}"),
    ("checkpoint-version-2", "unsupported checkpoint format version 2"),
    ("train-no-pairs", "no training pairs"),
    ("train-one-output-pose", "need at least 2 poses per sequence"),
]


@pytest.mark.parametrize("case, reason", _REFUSALS, ids=[case for case, _ in _REFUSALS])
def test_refusal_is_one_line(workspace, tmp_path, capsys, case, reason):
    # each refusal a command line can reach: exit 1, one `command: reason`
    # line on stderr, nothing on stdout but train's table load line where a
    # training step refuses, and no output file or directory; a reason names
    # the case's files by {tmp}, its checkpoint's bytes by {size} and the
    # workspace checkpoint's by {full}
    root, _ = workspace
    args = _refusal_args(case, root, tmp_path)
    path = tmp_path / "ck.ggck"
    sizes = {"size": path.stat().st_size if path.exists() else None, "full": (root / "ck.ggck").stat().st_size}
    capsys.readouterr()
    assert main([*args, "--out-dir", str(tmp_path / "out")]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ("loaded 44 embeddings (dim 300)\n" if case in ("train-no-pairs", "train-one-output-pose") else "")
    [line] = err.splitlines()
    assert line.startswith(f"{args[0]}: {reason.format(tmp=tmp_path, **sizes)}"), line
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "c.jsonl").exists()


def test_train_no_epochs(workspace, tmp_path, capsys):
    # zero epochs train nothing: the checkpoint takes the drawn weights and
    # the history is its header alone
    _, train_args = workspace
    out = ["--epochs", "0", "--out", str(tmp_path / "ck.ggck"), "--history", str(tmp_path / "history.csv")]
    capsys.readouterr()
    assert main([*train_args, *out, "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"no epochs run; checkpoint written to {tmp_path / 'ck.ggck'}"
    assert len((tmp_path / "history.csv").read_text().splitlines()) == 1


def test_eval_of_a_one_frame_track(workspace, tmp_path, capsys):
    # a one-frame track is held for the reference's duration before the
    # metrics are taken
    root, _ = workspace
    (tmp_path / "one.csv").write_text("t_s," + ",".join(f"c{i + 1}" for i in range(10)) + "\n0.0," + ",".join(["0.5"] * 10) + "\n")
    capsys.readouterr()
    assert main(["eval", "--generated", str(tmp_path / "one.csv"), "--reference", str(root / "track.csv")]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["mean_displacement"] == 0.0 and metrics["temporal_variance"] == [0.0] * 10
    assert metrics["mse"] > 0.0
