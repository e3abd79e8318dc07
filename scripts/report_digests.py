#!/usr/bin/env python3
"""Print the sha256 of ``RunReport.to_bytes()`` for reference runs on the
deterministic engine: the zoom study's four schemes at
``ZoomConfig().scaled(0.25)``, the imputation lag study (with feedback) at
``ImputationLagConfig(n_rows=100_000)``, and, as one hash, the reference
and observed runs of the containment oracle on ``random_workload`` seeds
0-99, which cover join, count, sum, max and pace and the workloads' row
generator.

    python3 scripts/report_digests.py

A change that must not alter outputs, counters or the feedback log prints
the same six lines before and after.  The sources are imported from the
``src`` directory next to this script, so the script can be run from any
checkout without installing it.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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


def main() -> int:
    config = ZoomConfig().scaled(0.25)
    for scheme in SCHEMES:
        print(f"zoom-{scheme} {digest(run_zoom(config, scheme).report)}")
    lag = run_imputation_lag(ImputationLagConfig(n_rows=100_000), feedback=True)
    print(f"impute-lag {digest(lag.report)}")
    sweep = hashlib.sha256()
    for seed in range(100):
        result, _ = check_workload(seed)
        sweep.update(result.reference.to_bytes())
        sweep.update(result.observed.to_bytes())
    print(f"containment-sweep {sweep.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
