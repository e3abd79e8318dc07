"""The punctstream benchmark: runs one workload, checks its outputs and prints
its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--size bench|smoke]

The load is a closed loop: each source replays its seeded rows as fast as
backpressure lets it, all in one process.  Each repetition runs in a fresh
interpreter (``rep.py``) under a timeout, so that memory and allocator state
do not carry over between repetitions, ``peak_rss_mb`` is per repetition,
and a hung engine counts as a failure instead of stalling the benchmark.
A run makes a fixed number of repetitions, as many as ``--seconds`` holds
at ``REP_SECONDS`` each (see there for the one exception); ``combine`` says
how they make up the metrics.  Metric names, units and each workload's
reason come from ``BENCHMARK.json``.

With ``--trace 1`` untraced and traced repetitions alternate.  The metrics
are then the per-layer ones, medians over the traced repetitions, plus the
tracing overhead: untraced against traced ``rows_per_s``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A result file with the repetitions and the
provenance of the run is written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}

MULTI_THREADED = ("zoom-none-concurrent",)
# Wall time of one repetition, interpreter start included, on a 2-vCPU VM
# when other tenants were quiet.  A run makes --seconds / REP_SECONDS
# repetitions, and at least MIN_REPS, whatever the speed of the code or the
# machine; on a busy machine it takes longer than --seconds.  Only beyond
# OVERRUN times --seconds are the repetitions past MIN_REPS left out, so
# that a run on a machine slowed down twofold still ends in about that time.
REP_SECONDS = {
    "zoom-none": 1.8,
    "zoom-propagate": 3.8,
    "impute-lag": 1.6,
    "zoom-none-concurrent": 1.7,
    "containment-sweep": 2.7,
}
MIN_REPS = 5
OVERRUN = 1.75
REP_TIMEOUT_S = 60
# stop starting repetitions after this long, so the run ends within 180 s
# even when the last repetition times out
LAST_START_S = 100


# How the repetitions of a run combine into the end-to-end metrics.  On a
# shared machine other tenants slow the CPU by up to 2x, in spells of tens of
# milliseconds to minutes, so a repetition's own figures mostly tell how busy
# the machine was.  On the deterministic engine every repetition of a seed
# runs the same schedule, so the run is split into segments that are the same
# work in every repetition (see rep.py), and each segment and each result
# keeps its fastest repetition: throughput is the source rows over the sum of
# the segments' best times, and the latency percentiles are taken over the
# results' best latencies.  The concurrent engine's schedule differs between
# repetitions, so there the best repetition's throughput and percentiles
# count.  Set-up time, work and memory take the median repetition.  A run
# always makes the same number of repetitions, so that both sides of a
# comparison take the best of equally many.
def combine(workload: str, reps: list) -> dict:
    def median(metric):
        return statistics.median(r["metrics"][metric] for r in reps)

    out = {
        "setup_s": median("setup_s"),
        "work_units": median("work_units"),
        "peak_rss_mb": median("peak_rss_mb"),
    }
    if workload in MULTI_THREADED:
        out["rows_per_s"] = max(r["metrics"]["rows_per_s"] for r in reps)
        p50, p95 = zip(*(percentiles(r["latencies_ms"]) for r in reps))
        p50, p95 = min(p50), min(p95)
    else:
        out["rows_per_s"] = reps[0]["rows"] / sum(best(reps, "segments_s"))
        p50, p95 = percentiles(best(reps, "latencies_ms"))
    out["result_latency_p50_ms"], out["result_latency_p95_ms"] = p50, p95
    return out


def best(reps: list, key: str) -> list:
    """Element-wise minimum of the repetitions' ``key`` lists."""
    return [min(v) for v in zip(*(r[key] for r in reps))]


def percentiles(lat: list) -> tuple:
    """p50 and p95 of the latencies ``lat``."""
    if len(lat) < 2:
        return (lat[0], lat[0]) if lat else (0.0, 0.0)
    cuts = statistics.quantiles(lat, n=20, method="inclusive")
    return cuts[9], cuts[18]


# failed_fraction and late_fraction are printed with the metrics but are not
# in the JSON metrics: they read 0 on a correct run (late_fraction on every
# workload but impute-lag), and the JSON carries failures as ``attempted``
# and ``failed``.

# Per-layer counters that must be non-zero (or zero) on the workload that
# drives (or bypasses) them, so that a patch point that no longer sees its
# calls is caught.
EXPECT_NONZERO = {
    "zoom-none": ("operators.window_close_calls", "runtime.pages", "generators.rows_s"),
    "zoom-propagate": (
        "core.matcher_calls", "core.subsumes_calls", "propagation.derive_calls",
        "operators.guard_checks", "operators.guard_expire_calls",
        "operators.window_close_calls", "operators.feedback_handle_s",
        "operators.filter.guard_drops", "runtime.control_msgs",
    ),
    "impute-lag": (
        "core.subsumes_calls", "propagation.derive_calls", "operators.guard_checks",
        "operators.feedback_handle_s", "operators.impute.guard_drops",
        "runtime.control_msgs", "generators.rows_s",
    ),
    "zoom-none-concurrent": (
        "runtime.busy_share.filter", "runtime.queue_pages_max", "runtime.flush_s",
    ),
    "containment-sweep": (
        "oracle.reference_run_s", "oracle.observed_run_s", "oracle.def1_check_s",
        "operators.join_probe_s", "operators.join_expire_s", "runtime.build_s",
        "workloads.random_workload_s",
    ),
}
EXPECT_ZERO = {
    "zoom-none": ("operators.guard_checks", "core.matcher_calls"),
    "zoom-none-concurrent": ("operators.guard_checks", "core.matcher_calls"),
}

def provenance() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host": socket.gethostname(),
        "platform": platform.platform(),
    }


def git_sha() -> str:
    """HEAD of the checkout's git repository, read from its files; "unknown"
    when the checkout is not a git repository."""
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
    return "unknown"


def run_rep(args, traced: bool, cpu) -> dict:
    cmd = [
        sys.executable, str(BENCH / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--trace", "1" if traced else "0",
    ]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    if traced:
        cmd += ["--spans", str(RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl")]
    # string hashing fixed, so set iteration order is the same in every rep
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return _failed_rep(traced, f"timed out after {REP_TIMEOUT_S} s", timeout=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return _failed_rep(
            traced, f"exit {proc.returncode}, no result: {proc.stderr[-2000:]}"
        )
    rep.update(traced=traced, wall_s=wall)
    return rep


def _failed_rep(traced: bool, error: str, timeout: bool = False) -> dict:
    return {"traced": traced, "attempted": 1, "failed": 1, "errors": [error],
            "timed": False, "timeout": timeout, "wall_s": 0.0}


def aligned(reps: list) -> bool:
    """True when the repetitions ran the same rows and produced segment and
    result lists of the same lengths, so they can be combined element-wise."""
    shapes = {(r["rows"], len(r["segments_s"]), len(r["latencies_ms"])) for r in reps}
    return len(shapes) == 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="bench", choices=("bench", "smoke"),
                    help="smoke: tiny inputs, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "punctstream" / "__init__.py").is_file():
        print(f"punctstream sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)

    n_reps = max(MIN_REPS, round(args.seconds / REP_SECONDS[args.workload]))
    # untraced, or as many untraced as traced repetitions, alternating
    kinds = [False, True] if args.trace else [False]
    n_reps -= n_reps % len(kinds)
    # Single-threaded workloads take turns on each CPU: the CPUs of a shared
    # machine can differ in speed for minutes at a time (on a 2-vCPU VM one
    # ran the zoom-none engine 1.3-1.5x slower than the other), and the best
    # times should not depend on where the scheduler put the process.
    cpus = [None]
    if args.workload not in MULTI_THREADED and hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
    reps = []
    start = time.perf_counter()
    for i in range(n_reps):
        elapsed = time.perf_counter() - start
        if elapsed > LAST_START_S or (i >= MIN_REPS and elapsed > OVERRUN * args.seconds):
            break
        traced = kinds[i % len(kinds)]
        rep = run_rep(args, traced, cpus[i // len(kinds) % len(cpus)])
        reps.append(rep)
        print(
            f"rep {len(reps)}{' traced' if traced else ''}: {rep['wall_s']:.2f} s, "
            f"failed {rep['failed']}/{rep['attempted']}", flush=True,
        )
        if rep.get("timeout"):
            break

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    errors = [e for r in reps for e in r["errors"]]
    untraced = [r for r in reps if r["timed"] and not r["traced"]]
    traced_reps = [r for r in reps if r["timed"] and r["traced"]]
    if not untraced or (args.trace and not traced_reps):
        print("no repetition completed:", *errors[:3], sep="\n", file=sys.stderr)
        return 1
    for kind in filter(None, (untraced, traced_reps)):
        attempted += 1
        if not aligned(kind):
            failed += 1
            errors.append("repetitions differ in rows, segments or results")

    e2e = combine(args.workload, untraced)
    late = [r["late_fraction"] for r in untraced if "late_fraction" in r]
    if args.trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced_reps)
            for name in traced_reps[0]["layers"]
        }
        traced_rps = combine(args.workload, traced_reps)["rows_per_s"]
        layers["trace.rows_per_s_untraced"] = e2e["rows_per_s"]
        layers["trace.rows_per_s_traced"] = traced_rps
        layers["trace.overhead_ratio"] = e2e["rows_per_s"] / traced_rps
        for name in EXPECT_NONZERO.get(args.workload, ()):
            attempted += 1
            if not layers[name]:
                failed += 1
                errors.append(f"per-layer {name} is 0 on {args.workload}")
        for name in EXPECT_ZERO.get(args.workload, ()):
            attempted += 1
            if layers[name]:
                failed += 1
                errors.append(f"per-layer {name} is {layers[name]} on {args.workload}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}

    print(f"{args.workload} (seed {args.seed}, {len(untraced)} untraced and "
          f"{len(traced_reps)} traced repetitions): {WHY[args.workload]}")
    samples = untraced[0]["latency_samples"]
    for m in SPEC["end_to_end"]:
        name = m["name"]
        note = f"  ({samples} results per repetition)" if "latency" in name else ""
        print(f"  {name} = {e2e[name]:.6g} {m['unit']}{note}")
    print(f"  failed_fraction = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if late:
        print(f"  late_fraction = {statistics.median(late):.6g} ratio")
    if args.trace:
        for m in SPEC["per_layer"]:
            print(f"  {m['name']} = {metrics[m['name']]['value']:.6g} {m['unit']}")
    for e in errors[:5]:
        print("  error:", e.strip().splitlines()[-1])

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "provenance": provenance(),
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "failed_fraction": failed / attempted,
        "late_fraction": statistics.median(late) if late else None,
        "errors": errors,
        # the per-segment and per-result lists are left out: they are long
        "repetitions": [
            {k: v for k, v in r.items() if k not in ("segments_s", "latencies_ms")}
            for r in reps
        ],
        "result": result,
    }, indent=1))
    print(f"  result file: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
