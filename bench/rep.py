"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 bench/rep.py --workload NAME --seed N [--size bench|smoke]
                         [--trace 0|1] [--spans FILE] [--cpu N]

Builds the workload's inputs from the seed, times ``engine.run()`` alone,
checks the outputs and prints one JSON object as the last line of its
output.  The input seed is ``--seed`` modulo ``INPUT_SEEDS``, the seeds
whose zoom-none output digest ``digests.json`` holds.  Besides the
repetition's own figures, the object carries the run split into segments
(the time between the source pulling marked input rows, or one engine run
in the sweep) and the latency of each result, in an order that is the same
in every repetition of a seed, so that ``run.py`` can combine repetitions
segment by segment and result by result.  With ``--trace 1`` the layers are
wrapped first (``tracing.py``) and the object also carries the per-layer
metrics.  ``bench/run.py`` starts one of these per repetition.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import replace
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if not (SRC / "punctstream" / "__init__.py").is_file():
    raise SystemExit(f"punctstream sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
from punctstream.core import is_punct  # noqa: E402
from punctstream.experiments import (  # noqa: E402
    READING_SCHEMA,
    ImputationLagConfig,
    ZoomConfig,
    ZoomSchedule,
    imputation_plan,
    zoom_plan,
)
from punctstream.operators import REGISTRY  # noqa: E402
from punctstream.oracle import def1_check, oracle_check  # noqa: E402
from punctstream.runtime import ConcurrentEngine, DeterministicEngine  # noqa: E402
from punctstream.workloads import random_workload  # noqa: E402

SIZES = {
    "bench": {"zoom_scale": 0.25, "impute_rows": 100_000, "sweep_plans": 500},
    "smoke": {"zoom_scale": 0.01, "impute_rows": 2_000, "sweep_plans": 40},
}
# impute-lag: the pull time of every LATENCY_STRIDE-th input row is stamped
LATENCY_STRIDE = 50
# the imputation study's acceptance band with feedback on
LATE_FRACTION_MAX = 0.5
DIGESTS = BENCH / "digests.json"
INPUT_SEEDS = 100

clock = time.perf_counter


class Rep:
    """What one repetition measured and checked."""

    def __init__(self, seed: int, size: str, tracer):
        self.seed = seed
        self.size = size
        self.sizes = SIZES[size]
        self.tracer = tracer
        self.setup_s = 0.0
        self.run_s = 0.0
        self.rows = 0
        self.work_units = 0.0
        self.segments_s: list = []
        self.latencies_ms: list = []
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.extra: dict = {}
        self.layers = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def after_run(self) -> None:
        """Take peak memory and, when traced, the layer metrics: both before
        the output checks, whose own work is not the workload's."""
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if isinstance(self.tracer, tracing.Tracer):
            self.layers = tracing.layer_metrics(self.tracer)

    def result(self) -> dict:
        out = {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors[:5],
            "timed": self.run_s > 0,
            "rows": self.rows,
            "latency_samples": len(self.latencies_ms),
            "segments_s": self.segments_s,
            "latencies_ms": self.latencies_ms,
            "metrics": {
                "rows_per_s": self.rows / self.run_s if self.run_s else 0.0,
                "setup_s": self.setup_s,
                "work_units": self.work_units,
                "peak_rss_mb": self.peak_rss_mb,
            },
            **self.extra,
        }
        if self.layers is not None:
            out["layers"] = self.layers
        return out


def source_rows(report, engine) -> int:
    return sum(
        c.tuples_out for op_id, c in report.counters.items() if engine.ops[op_id].is_source
    )


def stamped(rows: list, marks: list, stamps: list):
    """Replay ``rows``, appending the time at which the source pulls each row
    whose index is in the sorted list ``marks`` to ``stamps``."""
    it = iter(rows)
    pos = 0
    for m in marks:
        yield from islice(it, m - pos)
        stamps.append(clock())
        yield next(it)
        pos = m + 1
    yield from it


def record_arrivals(sink) -> list:
    """Wrap the sink so that each arriving row is kept with its arrival time."""
    arrivals = []
    process_item = sink.process_item

    def arrive(input_index, item):
        if not is_punct(item):
            arrivals.append((clock(), item))
        process_item(input_index, item)

    sink.process_item = arrive
    return arrivals


def timed_run(rep: Rep, engine, pulls: list):
    """Run the engine, splitting its run time at the source pulls timed in
    ``pulls``."""
    gc.collect()
    t0 = clock()
    report = engine.run()
    end = clock()
    rep.run_s += end - t0
    bounds = [t0, *pulls, end]
    rep.segments_s = [b - a for a, b in zip(bounds, bounds[1:])]
    rep.rows += source_rows(report, engine)
    rep.work_units += report.total_work()
    return report


# ---------------------------------------------------------------------------
# zoom-none, zoom-propagate, zoom-none-concurrent
# ---------------------------------------------------------------------------


def zoom_reference(rows: list, window: int):
    """Per-(window, seg) average speed computed directly from the rows, in the
    aggregate's row order and arithmetic, and the index of each result's last
    contributing row."""
    acc, last = {}, {}
    for i, (_, seg, ts, speed) in enumerate(rows):
        key = (ts // window * window, seg)
        last[key] = i
        if speed is not None:
            s, n = acc.get(key, (0.0, 0))
            acc[key] = (s + speed, n + 1)
    expected = [(win, seg, s / n) for (win, seg), (s, n) in sorted(acc.items())]
    return expected, last


def zoom_digest(rows: list) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def zoom(rep: Rep, scheme: str, engine_cls, check_digest: bool = True) -> None:
    cfg = replace(ZoomConfig().scaled(rep.sizes["zoom_scale"]), seed=rep.seed)
    rep.attempted += 1
    t0 = clock()
    plan = zoom_plan(cfg, scheme)
    src = plan.nodes["src"].params
    rows = rep.tracer.call("generators.rows", list, src["rows"])
    t1 = clock()
    expected, last = zoom_reference(rows, cfg.window_seconds)
    marks = sorted(last.values())
    key_of = {i: key for key, i in last.items()}
    pulls: list = []
    src["rows"] = stamped(rows, marks, pulls)
    t2 = clock()
    engine = engine_cls(
        plan, REGISTRY, page_size=cfg.page_size,
        feedback_enabled=(scheme != "none"), transfer_cost=cfg.costs.transfer,
    )
    sink = engine.ops["out"]
    if scheme != "none":
        sink.time_injector = ZoomSchedule(
            output_schema=engine.ops["avg"].out_schema,
            segments=cfg.segments,
            interval_seconds=cfg.zoom_interval_seconds,
            duration_seconds=cfg.duration_seconds,
            lead_seconds=cfg.lead_seconds,
        )
    rep.setup_s = (t1 - t0) + (clock() - t2)
    arrivals = record_arrivals(sink)

    report = timed_run(rep, engine, pulls)
    rep.after_run()

    pulled = {key_of[i]: t for i, t in zip(marks, pulls)}
    rep.latencies_ms = [(t - pulled[row[:2]]) * 1e3 for t, row in arrivals]
    observed = report.outputs["out"]
    if scheme == "none":
        if observed != expected:
            rep.fail("zoom-none output differs from the per-window reference averages")
        digest = zoom_digest(observed)
        rep.extra["digest"] = digest
        if check_digest:
            stored = json.loads(DIGESTS.read_text())[rep.size].get(str(rep.seed))
            if stored != digest:
                rep.fail(f"zoom-none output digest {digest} != stored {stored}")
    else:
        ok, witness = def1_check(expected, observed, sink.sent_patterns)
        if not ok:
            rep.fail(f"zoom-propagate violates containment: {witness}")


# ---------------------------------------------------------------------------
# impute-lag
# ---------------------------------------------------------------------------


def impute_lag(rep: Rep) -> None:
    cfg = ImputationLagConfig(n_rows=rep.sizes["impute_rows"], seed=rep.seed)
    rep.attempted += 1
    t0 = clock()
    plan = imputation_plan(cfg)  # generates the rows as a list
    t1 = clock()
    src = plan.nodes["src"].params
    rows = src["rows"]
    marks = list(range(0, len(rows), LATENCY_STRIDE))
    pulls: list = []
    src["rows"] = stamped(rows, marks, pulls)
    t2 = clock()
    engine = DeterministicEngine(
        plan, REGISTRY, page_size=cfg.page_size, feedback_enabled=True
    )
    rep.setup_s = (t1 - t0) + (clock() - t2)
    arrivals = record_arrivals(engine.ops["out"])

    report = timed_run(rep, engine, pulls)
    rep.after_run()

    # each output row is its own input row, keyed by its unique timestamp
    ts_idx = READING_SCHEMA.timestamp_attr
    pulled = {rows[i][ts_idx]: t for i, t in zip(marks, pulls)}
    rep.latencies_ms = [
        (t - pulled[row[ts_idx]]) * 1e3 for t, row in arrivals if row[ts_idx] in pulled
    ]
    # dirty rows purged upstream count as lost, as in run_imputation_lag
    merge = engine.ops["merge"]
    purged = report.counters["split"].guard_drops + report.counters["impute"].guard_drops
    dirty_total = merge.in_totals[1] + purged
    late = (merge.late_counts[1] + purged) / dirty_total if dirty_total else 0.0
    rep.extra["late_fraction"] = late
    if late > LATE_FRACTION_MAX:
        rep.fail(f"late fraction {late:.3f} above {LATE_FRACTION_MAX}")


# ---------------------------------------------------------------------------
# containment-sweep
# ---------------------------------------------------------------------------


def containment_sweep(rep: Rep) -> None:
    n = rep.sizes["sweep_plans"]
    start = rep.seed
    workloads = []
    for seed in range(start, start + n):
        t0 = clock()
        workloads.append(rep.tracer.call("workloads.random_workload", random_workload, seed))
        rep.setup_s += clock() - t0

    # time engine.run() alone inside oracle_check
    run = DeterministicEngine.run

    def counted_run(engine):
        t0 = clock()
        report = run(engine)
        rep.segments_s.append(clock() - t0)
        rep.run_s += rep.segments_s[-1]
        rep.rows += source_rows(report, engine)
        return report

    DeterministicEngine.run = counted_run
    try:
        for seed, (make_plan, engine_kw, desc) in zip(range(start, start + n), workloads):
            rep.attempted += 1
            t0 = clock()
            try:
                res = rep.tracer.call(
                    "oracle.check", oracle_check, make_plan, REGISTRY, **engine_kw
                )
            except Exception as exc:
                rep.fail(f"workload {seed} ({desc}): {exc!r}")
                continue
            # a check's result latency: from calling the oracle to its verdict
            rep.latencies_ms.append((clock() - t0) * 1e3)
            rep.work_units += res.reference.total_work() + res.observed.total_work()
            if not res.ok:
                rep.fail(f"workload {seed} ({desc}): {res.witness}")
    finally:
        DeterministicEngine.run = run
    rep.after_run()


WORKLOADS = {
    "zoom-none": lambda rep: zoom(rep, "none", DeterministicEngine),
    "zoom-propagate": lambda rep: zoom(rep, "propagate", DeterministicEngine),
    "impute-lag": impute_lag,
    "zoom-none-concurrent": lambda rep: zoom(rep, "none", ConcurrentEngine),
    "containment-sweep": containment_sweep,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="bench", choices=sorted(SIZES))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spans", help="write the traced run's raw spans here (JSONL)")
    ap.add_argument("--cpu", type=int, help="run on this CPU only")
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracing.install(tracer)
    rep = Rep(args.seed % INPUT_SEEDS, args.size, tracer)
    try:
        WORKLOADS[args.workload](rep)
    except Exception:
        rep.attempted = max(rep.attempted, rep.failed + 1)
        rep.fail(traceback.format_exc(limit=8))
    if args.trace and args.spans:
        tracer.write_spans(args.spans)
    print(json.dumps(rep.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
