#!/usr/bin/env python3
"""Print the sha256 of ``RunReport.to_bytes()`` for five reference runs on
the deterministic engine: the zoom study's four schemes at
``ZoomConfig().scaled(0.25)`` and the imputation lag study (with feedback)
at ``ImputationLagConfig(n_rows=100_000)``.

    python3 scripts/report_digests.py

A change that must not alter outputs, counters or the feedback log prints
the same five lines before and after.  The sources are imported from the
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


def digest(report) -> str:
    return hashlib.sha256(report.to_bytes()).hexdigest()


def main() -> int:
    config = ZoomConfig().scaled(0.25)
    for scheme in SCHEMES:
        print(f"zoom-{scheme} {digest(run_zoom(config, scheme).report)}")
    lag = run_imputation_lag(ImputationLagConfig(n_rows=100_000), feedback=True)
    print(f"impute-lag {digest(lag.report)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
