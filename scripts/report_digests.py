#!/usr/bin/env python3
"""Print the sha256 of ``RunReport.to_bytes()`` for reference runs on the
deterministic engine: the zoom study's four schemes at
``ZoomConfig().scaled(0.25)``, the imputation lag study (with feedback) at
``ImputationLagConfig(n_rows=100_000)``, and, as one hash, the reference
and observed runs of the containment oracle on ``random_workload`` seeds
0-99, which cover join, count, sum, max and pace and the workloads' row
generator.

    python3 scripts/report_digests.py [--check]

A change that must not alter outputs, counters or the feedback log prints
the same six lines before and after.  With ``--check`` the script compares
its lines with ``scripts/digests.txt`` instead of printing them, prints
the lines that differ, and exits 1 on any difference.  The sources are imported from the
``src`` directory next to this script, so the script can be run from any
checkout without installing it.
"""

import argparse
import difflib
import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from punctstream.experiments import (  # noqa: E402
    SCHEMES,
    ImputationLagConfig,
    ZoomConfig,
    run_imputation_lag,
    run_zoom,
)
from punctstream.workloads import check_workload  # noqa: E402


def digest(report) -> str:
    return hashlib.sha256(report.to_bytes()).hexdigest()


def digest_lines():
    """Yield the six ``name sha256`` lines."""
    config = ZoomConfig().scaled(0.25)
    for scheme in SCHEMES:
        yield f"zoom-{scheme} {digest(run_zoom(config, scheme).report)}"
    lag = run_imputation_lag(ImputationLagConfig(n_rows=100_000), feedback=True)
    yield f"impute-lag {digest(lag.report)}"
    sweep = hashlib.sha256()
    for seed in range(100):
        result, _ = check_workload(seed)
        sweep.update(result.reference.to_bytes())
        sweep.update(result.observed.to_bytes())
    yield f"containment-sweep {sweep.hexdigest()}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare with scripts/digests.txt; exit 1 on any difference",
    )
    args = parser.parse_args()
    if not args.check:
        for line in digest_lines():
            print(line, flush=True)
        return 0
    recorded = (HERE / "digests.txt").read_text().splitlines()
    diff = list(difflib.unified_diff(
        recorded, list(digest_lines()), "scripts/digests.txt", "this checkout",
        n=0, lineterm="",
    ))
    for line in diff:
        print(line)
    if diff:
        return 1
    print(f"{len(recorded)} digests match scripts/digests.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
