"""Two end-to-end studies of feedback punctuation.

Imputation study: a half-dirty reading stream is split into a clean branch
and a branch that passes through an expensive imputation step.  Without
feedback the imputed branch falls ever further behind the merge point's
high watermark and nearly everything it produces is stale; with feedback
the merge point keeps telling the slow branch which timestamps are
already hopeless, the backlog is purged instead of processed, and the
branch stays within tolerance.

Zoom study: a full-scale sensor feed aggregates per-segment averages
while a display shows one segment at a time, cycling on a fixed interval.
Announcing the hidden segments as assumed-ignored lets progressively more
of the pipeline skip work: suppressing result construction only (scheme
"guard"), also purging and guarding aggregate state ("exploit"), and
additionally pushing rewritten patterns into the filter upstream
("propagate").  Work is measured in machine-independent work units.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from punctstream.generators import (
    READING_SCHEMA,
    ReadingStreamConfig,
    SENSOR_SCHEMA,
    SensorStreamConfig,
    ZoomSchedule,
    reading_rows,
    sensor_rows,
)
from punctstream.operators import FEEDBACK_LEVELS, REGISTRY
from punctstream.runtime import DeterministicEngine, Plan, RunReport


# ---------------------------------------------------------------------------
# Imputation lag study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImputationLagConfig:
    n_rows: int = 5000
    null_fraction: float = 0.5
    tolerance_seconds: int = 60
    feedback_margin: int = 30
    impute_cost: float = 3.0
    # small pages keep the control loop tight: the declared bound goes
    # stale by roughly one scheduling round of stream time
    page_size: int = 10
    punct_interval: int = 50
    seed: int = 0


@dataclass
class ImputationLagResult:
    feedback: bool
    late_fraction_dirty: float   # late or purged, over all dirty rows
    late_fraction_clean: float
    dirty_total: int
    dirty_late_at_merge: int
    dirty_purged_upstream: int
    divergence: list             # (arrival index at merge, lag seconds)
    wall_seconds: float
    report: RunReport


def imputation_plan(config: ImputationLagConfig) -> Plan:
    rows = reading_rows(
        ReadingStreamConfig(
            n_rows=config.n_rows,
            null_fraction=config.null_fraction,
            seed=config.seed,
        )
    )
    plan = Plan()
    plan.add(
        "src", "source", schema=READING_SCHEMA, rows=rows,
        punct_interval=config.punct_interval,
    )
    plan.add("split", "split", inputs=["src"])
    plan.add(
        "impute", "impute", inputs=["split.1"], key="det",
        cost=config.impute_cost, default=40.0,
    )
    plan.add(
        "merge", "pace", inputs=["split.0", "impute"],
        tolerance=config.tolerance_seconds, enforce=True,
        feedback_margin=config.feedback_margin, divergence_input=1,
    )
    plan.add("out", "sink", inputs=["merge"])
    return plan


def run_imputation_lag(
    config: ImputationLagConfig, feedback: bool
) -> ImputationLagResult:
    t0 = time.monotonic()
    engine = DeterministicEngine(
        imputation_plan(config),
        REGISTRY,
        page_size=config.page_size,
        feedback_enabled=feedback,
    )
    report = engine.run()
    wall = time.monotonic() - t0
    merge = engine.ops["merge"]
    # dirty rows that never reached the merge were purged by guards at the
    # split or the imputation step; they count as lost along with rows that
    # arrived beyond tolerance
    purged = (
        report.counters["split"].guard_drops + report.counters["impute"].guard_drops
    )
    dirty_total = merge.in_totals[1] + purged
    lost = merge.late_counts[1] + purged
    clean_total = merge.in_totals[0]
    return ImputationLagResult(
        feedback=feedback,
        late_fraction_dirty=lost / dirty_total if dirty_total else 0.0,
        late_fraction_clean=(
            merge.late_counts[0] / clean_total if clean_total else 0.0
        ),
        dirty_total=dirty_total,
        dirty_late_at_merge=merge.late_counts[1],
        dirty_purged_upstream=purged,
        divergence=list(merge.divergence_series),
        wall_seconds=wall,
        report=report,
    )


# ---------------------------------------------------------------------------
# Zoom study
# ---------------------------------------------------------------------------

# a scheme is the aggregate's feedback level
SCHEMES = FEEDBACK_LEVELS


@dataclass(frozen=True)
class ZoomCosts:
    """Work-unit prices for the pipeline stages (per item unless noted)."""

    filter_eval: float = 2.0
    transfer: float = 0.25        # per item, charged at page transfer
    agg_update: float = 1.0
    guard_check: float = 0.083
    result_emit: float = 500.0    # per constructed aggregate result


@dataclass(frozen=True)
class ZoomConfig:
    duration_seconds: int = 64800       # 18 hours
    resolution_seconds: int = 20
    segments: int = 9
    detectors_per_segment: int = 40
    window_seconds: int = 60
    zoom_interval_seconds: int = 240
    lead_seconds: int = 90
    punct_interval: int = 60
    page_size: int = 200
    costs: ZoomCosts = field(default_factory=ZoomCosts)
    seed: int = 0

    def scaled(self, scale: float) -> "ZoomConfig":
        """Shrink the duration, keeping it aligned to the zoom interval."""
        d = int(self.duration_seconds * scale)
        d -= d % max(self.zoom_interval_seconds, self.window_seconds)
        return replace(self, duration_seconds=d)


@dataclass
class ZoomResult:
    scheme: str
    work_units: float
    result_rows: int
    wall_seconds: float   # input rows, plan and engine build, and engine.run()
    run_seconds: float    # engine.run() alone
    report: RunReport


def zoom_plan(config: ZoomConfig, scheme: str) -> Plan:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    c = config.costs
    rows = sensor_rows(
        SensorStreamConfig(
            duration_seconds=config.duration_seconds,
            resolution_seconds=config.resolution_seconds,
            segments=config.segments,
            detectors_per_segment=config.detectors_per_segment,
            seed=config.seed,
        )
    )
    plan = Plan()
    plan.add(
        "src", "source", schema=SENSOR_SCHEMA, rows=rows,
        punct_interval=config.punct_interval,
    )
    plan.add(
        "filter", "select", inputs=["src"], predicate="speed >= 0",
        eval_cost=c.filter_eval, guard_check_cost=c.guard_check,
    )
    plan.add(
        "avg", "average", inputs=["filter"], range_seconds=config.window_seconds,
        group_by=("seg",), value="speed", feedback=scheme,
        update_cost=c.agg_update, emit_cost=c.result_emit,
        guard_check_cost=c.guard_check,
    )
    plan.add("out", "sink", inputs=["avg"])
    return plan


def run_zoom(config: ZoomConfig, scheme: str) -> ZoomResult:
    t0 = time.monotonic()
    plan = zoom_plan(config, scheme)
    # generated here, so that run_seconds times engine.run() alone
    src = plan.nodes["src"].params
    src["rows"] = list(src["rows"])
    engine = DeterministicEngine(
        plan,
        REGISTRY,
        page_size=config.page_size,
        feedback_enabled=(scheme != "none"),
        transfer_cost=config.costs.transfer,
    )
    if scheme != "none":
        out_schema = engine.ops["avg"].out_schema
        engine.ops["out"].time_injector = ZoomSchedule(
            output_schema=out_schema,
            segments=config.segments,
            interval_seconds=config.zoom_interval_seconds,
            duration_seconds=config.duration_seconds,
            lead_seconds=config.lead_seconds,
        )
    t1 = time.monotonic()
    report = engine.run()
    t2 = time.monotonic()
    return ZoomResult(
        scheme=scheme,
        work_units=report.total_work(),
        result_rows=len(report.outputs["out"]),
        wall_seconds=t2 - t0,
        run_seconds=t2 - t1,
        report=report,
    )


def run_zoom_suite(config: ZoomConfig) -> Dict[str, ZoomResult]:
    return {scheme: run_zoom(config, scheme) for scheme in SCHEMES}


def savings(results: Dict[str, ZoomResult], of: str = "work_units") -> Dict[str, float]:
    """Per scheme but none, the fraction of none's ``of`` (``work_units``
    or ``run_seconds``) that the scheme saves."""
    base = getattr(results["none"], of)
    return {
        s: 1.0 - getattr(r, of) / base for s, r in results.items() if s != "none"
    }
