"""Cost of one guard test: ns per ``GuardSet.drop``, the minimum of N runs.

    python3 scripts/guard_cost.py [--runs N]

Two shapes, the guards the studies install:

- zoom: 8 live guards ``seg=k, ts in [10k, 10k+50)`` against sensor rows
  of the zoom study, a mix of hits, misses in a guarded segment and rows
  in the unguarded one;
- impute: one progress guard ``ts <= b`` against reading rows, half of
  them below ``b``.
"""

import argparse
import sys
import time
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from punctstream.core import Constraint as C, GuardSet, Pattern  # noqa: E402
from punctstream.generators import (  # noqa: E402
    READING_SCHEMA, SENSOR_SCHEMA, ReadingStreamConfig, SensorStreamConfig,
    reading_rows, sensor_rows,
)
ROWS = 40_000  # rows per run, in both shapes


def ns_per_drop(guards: GuardSet, rows: list, runs: int) -> float:
    drop, best = guards.drop, float("inf")
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        for row in rows:
            drop(row)
        best = min(best, time.perf_counter_ns() - t0)
    return best / len(rows)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=40)
    args = ap.parse_args()

    zoom = GuardSet()
    for k in range(8):
        zoom.add(Pattern.of(SENSOR_SCHEMA, seg=C.eq(k), ts=C.interval(10 * k, 10 * k + 50)))
    # timestamps folded into [0, 160) so that the guards' intervals are hit
    rows = [(d, s, ts % 160, v) for d, s, ts, v in islice(sensor_rows(
        SensorStreamConfig(duration_seconds=3600, seed=3)), ROWS)]
    print(f"zoom    {ns_per_drop(zoom, rows, args.runs):7.1f} ns/drop")

    readings = reading_rows(ReadingStreamConfig(n_rows=ROWS, seed=3))
    impute = GuardSet()
    impute.add(Pattern.progress(READING_SCHEMA, readings[len(readings) // 2][1]))
    print(f"impute  {ns_per_drop(impute, readings, args.runs):7.1f} ns/drop")


if __name__ == "__main__":
    main()
