"""Command-line entry points.

    punctstream run PLANFILE [--no-feedback] [--concurrent] [--counters]
    punctstream impute-lag [--rows N] [--impute-cost C] [--tolerance D] ...
    punctstream zoom [--scale F] [--interval S] [--scheme NAME | all] ...
    punctstream check [--workloads N] [--start-seed S]
"""

from __future__ import annotations

import argparse
import sys

from punctstream.experiments import (
    SCHEMES,
    ImputationLagConfig,
    ZoomConfig,
    run_imputation_lag,
    run_zoom,
    run_zoom_suite,
    savings,
)
from punctstream.operators import REGISTRY
from punctstream.planfile import load_plan
from punctstream.runtime import ConcurrentEngine, DeterministicEngine, PlanError, RunError
from punctstream.workloads import check_workload


def _cmd_run(args) -> int:
    plan, _ = load_plan(args.plan)
    engine_cls = ConcurrentEngine if args.concurrent else DeterministicEngine
    engine = engine_cls(
        plan,
        REGISTRY,
        page_size=args.page_size,
        feedback_enabled=not args.no_feedback,
    )
    report = engine.run()
    if args.counters:
        sys.stdout.write(report.counters_csv())
    else:
        for sink_id in sorted(report.outputs):
            sys.stdout.write(report.outputs_csv(sink_id))
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(report.to_bytes())
    return 0


def _cmd_impute_lag(args) -> int:
    config = ImputationLagConfig(
        n_rows=args.rows,
        tolerance_seconds=args.tolerance,
        feedback_margin=args.margin,
        impute_cost=args.impute_cost,
        page_size=args.page_size,
        seed=args.seed,
    )
    print("mode,late_fraction_dirty,late_at_merge,purged_upstream,dirty_total,wall_seconds")
    for feedback in (False, True):
        r = run_imputation_lag(config, feedback)
        mode = "feedback" if feedback else "no-feedback"
        print(
            f"{mode},{r.late_fraction_dirty:.4f},{r.dirty_late_at_merge},"
            f"{r.dirty_purged_upstream},{r.dirty_total},{r.wall_seconds:.2f}"
        )
        if args.divergence and feedback == args.divergence_with_feedback:
            with open(args.divergence, "w") as fh:
                fh.write("arrival,lag_seconds\n")
                for i, lag in r.divergence:
                    fh.write(f"{i},{lag}\n")
    return 0


def _cmd_zoom(args) -> int:
    config = ZoomConfig(
        zoom_interval_seconds=args.interval,
        seed=args.seed,
    )
    if args.scale != 1.0:
        config = config.scaled(args.scale)
    print("scheme,work_units,savings_vs_none,result_rows,wall_seconds")
    if args.scheme == "all":
        results = run_zoom_suite(config)
        saved = savings(results)
        for scheme in SCHEMES:
            r = results[scheme]
            pct = saved.get(scheme, 0.0) * 100.0
            print(
                f"{scheme},{r.work_units:.0f},{pct:.1f}%,{r.result_rows},{r.wall_seconds:.2f}"
            )
    else:
        r = run_zoom(config, args.scheme)
        print(f"{args.scheme},{r.work_units:.0f},,{r.result_rows},{r.wall_seconds:.2f}")
    return 0


def _cmd_check(args) -> int:
    failures = 0
    for seed in range(args.start_seed, args.start_seed + args.workloads):
        res, desc = check_workload(seed)
        if not res.ok:
            failures += 1
            print(f"FAIL seed={seed} {desc}: {res.witness}")
        elif args.verbose:
            print(f"ok   seed={seed} {desc}")
    print(f"{args.workloads - failures}/{args.workloads} workloads satisfied containment")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="punctstream")
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a plan file")
    run_p.add_argument("plan")
    run_p.add_argument("--no-feedback", action="store_true")
    run_p.add_argument("--concurrent", action="store_true")
    run_p.add_argument("--counters", action="store_true",
                       help="print per-operator counters instead of rows")
    run_p.add_argument("--page-size", type=int, default=100)
    run_p.add_argument("--out", help="write the full report to this file")
    run_p.set_defaults(fn=_cmd_run)

    lag_p = sub.add_parser("impute-lag", help="imputation lag study, with and without feedback")
    lag_p.add_argument("--rows", type=int, default=5000)
    lag_p.add_argument("--tolerance", type=int, default=60)
    lag_p.add_argument("--margin", type=int, default=30)
    lag_p.add_argument("--impute-cost", type=float, default=3.0)
    lag_p.add_argument("--page-size", type=int, default=10)
    lag_p.add_argument("--divergence", help="write the lag series to this CSV file")
    lag_p.add_argument("--divergence-with-feedback", action="store_true",
                       help="record the series from the feedback run instead")
    lag_p.set_defaults(fn=_cmd_impute_lag)

    zoom_p = sub.add_parser("zoom", help="zoom study work comparison across schemes")
    zoom_p.add_argument("--scale", type=float, default=0.05)
    zoom_p.add_argument("--interval", type=int, default=240)
    zoom_p.add_argument("--scheme", choices=SCHEMES + ("all",), default="all")
    zoom_p.set_defaults(fn=_cmd_zoom)

    check_p = sub.add_parser("check", help="randomized containment checking")
    check_p.add_argument("--workloads", type=int, default=100)
    check_p.add_argument("--start-seed", type=int, default=0)
    check_p.add_argument("--verbose", action="store_true")
    check_p.set_defaults(fn=_cmd_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PlanError, RunError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
