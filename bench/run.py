"""gesturegen benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload train|generate|retarget --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory. Each run sets the workload up several times (reporting
the median set-up time), warms up, then measures closed-loop operations for
``--seconds`` and checks every output. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with no wrappers installed.
``--trace 1`` reports the per-layer metrics: it measures half the time
untraced and half with every layer entry point wrapped by a span recorder
(see spans.py), in alternating quarters, and reports the difference as the
tracing overhead.

The line before the result stamps the environment (Python, numpy, BLAS,
CPU count, commit, source digest): compare numbers from one machine only.
"""

import os

# Before numpy loads: single-threaded BLAS keeps runs comparable on one core
# and reductions order-deterministic (the test suite pins the same pools).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SETUP_MIN_REPS = 3  # set-up repeats at least this often ...
SETUP_MIN_SECONDS = 1.0  # ... and until this much set-up time has passed, for a steady median
SETUP_MAX_REPS = 20
SETUP_PASSES = 10  # calibration passes around each set-up
WARM_SECONDS = 1.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    source = hashlib.sha256()
    for path in sorted((SRC / "gesturegen").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": source.hexdigest(),
    }


def _set_up(wl, seed, work_dir, tracer=None):
    """Set the workload up repeatedly; returns (last state, set-up seconds
    of each repetition at reference host speed, the median calibration
    pass, whether every repetition produced the same bytes)."""
    seconds, passes, digests, state = [], [], [], None
    cal = wl.calibration
    before = cal.median(SETUP_PASSES)
    while len(seconds) < SETUP_MIN_REPS or (sum(seconds) < SETUP_MIN_SECONDS and len(seconds) < SETUP_MAX_REPS):
        state = None  # release the previous repetition before building the next
        started = time.perf_counter()
        with tracer.installed(wl.setup_targets) if tracer else nullcontext():
            state, out = wl.setup(seed, work_dir / f"setup{len(seconds)}")
        elapsed = time.perf_counter() - started
        after = cal.median(SETUP_PASSES)
        seconds.append(cal.at_reference(elapsed, (before + after) / 2))
        passes.append(after)
        digests.append(out)
        before = after
        if len(seconds) > 1:
            shutil.rmtree(work_dir / f"setup{len(seconds) - 2}", ignore_errors=True)
    return state, seconds, statistics.median(passes), len(set(digests)) == 1


def _warm_up(wl, state):
    """Fill caches; for train this is one epoch, which also sizes the
    measured run in whole epochs. Measurements start from the rewound input
    stream, so they see the same inputs however fast the warm-up ran."""
    warm = wl.measure(state, 0.0 if wl.name == "train" else WARM_SECONDS)
    state.rewind()
    return warm


def run_untraced(wl, seed, seconds, work_dir):
    import workloads as w

    state, setup_seconds, _, setup_same = _set_up(wl, seed, work_dir)
    before = wl.fingerprint(state)
    warm = _warm_up(wl, state)
    m = wl.measure(state, seconds)
    repeat_same = wl.fingerprint(state) == before and setup_same
    lat = m.scaled()
    metrics = {
        "setup_s": w.percentile(setup_seconds, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_per_s": m.units / sum(lat) if lat else 0.0,
        "op_ms_p50": w.percentile(lat, 50) * 1e3 if lat else 0.0,
        "op_ms_p90": w.percentile(lat, 90) * 1e3 if lat else 0.0,
    }
    raw = sum(m.latencies)
    print(
        f"# {wl.name}: {len(lat)} operations, {len(setup_seconds)} set-ups; as measured: "
        f"{m.units / raw if raw else 0.0:.4f} units/s, host at "
        f"{wl.calibration.reference_s / statistics.median(m.passes):.3f}x reference speed"
    )
    return [m], [warm], repeat_same, {k: (metrics[k], u) for k, u in END_TO_END.items()}


def run_traced(wl, seed, seconds, work_dir):
    import workloads as w

    setup_tracer = spans.Tracer()
    state, _, setup_pass, setup_same = _set_up(wl, seed, work_dir, setup_tracer)
    before = wl.fingerprint(state)
    warm = _warm_up(wl, state)
    # untraced and traced quarters alternate, so drift hits both alike; each
    # starts from the rewound input stream
    plain, traced, tracer, wall_ns = [], [], spans.Tracer(), 0
    for _ in range(2):
        plain.append(wl.measure(state, seconds / 4))
        state.rewind()
        with tracer.installed(wl.targets):
            started = time.perf_counter_ns()
            traced.append(wl.measure(state, seconds / 4, tracer.span))
            wall_ns += time.perf_counter_ns() - started
        state.rewind()
    repeat_same = wl.fingerprint(state) == before and setup_same

    # per-layer times at reference host speed, like the end-to-end ones
    phase_pass = statistics.median([p for t in traced for p in t.passes])
    stats = spans.summarize(setup_tracer.spans, wl.calibration.at_reference(1.0, setup_pass))
    stats.update(spans.summarize(tracer.spans, wl.calibration.at_reference(1.0, phase_pass)))
    values = w.layer_metrics(stats)
    values["autodiff.tape_peak_mb"] = w.tape_peak_mb(state) if wl.name == "train" else 0.0
    # compare the operations (same inputs) that both quarters of a pair ran
    plain_s = traced_s = 0.0
    for a, b in zip(plain, traced):
        common = min(len(a.latencies), len(b.latencies))
        plain_s += sum(a.scaled()[:common])
        traced_s += sum(b.scaled()[:common])
    values["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
    acc = spans.accounting(tracer.spans, wall_ns)
    values["trace.uncovered_pct"] = acc["uncovered_ns"] / wall_ns * 100.0

    print(f"# {wl.name} traced: {wall_ns / 1e6:.1f} ms wall as measured, {len(tracer.spans)} spans; self time by span:")
    for name, s in sorted(spans.summarize(tracer.spans).items(), key=lambda kv: -kv[1].self_ns):
        print(f"#   {name:32s} {s.self_ns / 1e6:10.2f} ms  {100 * s.self_ns / wall_ns:5.1f}%  calls {s.calls}")
    print(f"#   {'(no span)':32s} {acc['uncovered_ns'] / 1e6:10.2f} ms  {values['trace.uncovered_pct']:5.1f}%")
    print(f"# self times sum to the root spans: {acc['nested']}")

    units = {"autodiff.tape_peak_mb": "MB", "trace.overhead_pct": "%", "trace.uncovered_pct": "%"}
    units.update({k: v[0] for k, v in w.PER_LAYER.items()})
    metrics = {k: (values[k], units[k]) for k in units}
    return plain + traced, [warm], repeat_same and acc["nested"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "generate", "retarget"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "gesturegen" / "__init__.py").is_file():
        print(f"error: no gesturegen sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports gesturegen, so only once src/ is on the path

    wl = workloads.WORKLOADS[args.workload]
    env = environment()
    work_dir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        run = run_traced if args.trace else run_untraced
        measured, warm, same, metrics = run(wl, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"# {name:34s} {value:14.4f} {unit}")
    print(json.dumps({"env": env}, sort_keys=True))
    result = {
        "correct": same and all(p.wrong == 0 for p in measured + warm),
        # the byte-identical rerun counts as one more operation
        "attempted": sum(p.attempted for p in measured) + 1,
        "failed": sum(p.failed for p in measured) + (0 if same else 1),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
