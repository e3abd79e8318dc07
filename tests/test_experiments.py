"""Experiment harness behavior at small scale (the acceptance module runs
the full-size configurations)."""

import time

import pytest

from punctstream import experiments
from punctstream.cli import main
from punctstream.experiments import (
    ImputationLagConfig,
    ZoomConfig,
    run_imputation_lag,
    run_zoom,
    run_zoom_suite,
    savings,
)


class TestImputationLag:
    CFG = ImputationLagConfig(n_rows=2000)

    def test_without_feedback_branch_diverges(self):
        r = run_imputation_lag(self.CFG, feedback=False)
        assert r.late_fraction_dirty > 0.8
        assert r.late_fraction_clean == 0.0
        assert r.dirty_purged_upstream == 0
        # the branch starts inside tolerance but spends most of the run far
        # beyond it (the final samples recover only because the source ends
        # and the backlog drains up to the frozen watermark)
        lags = sorted(lag for _, lag in r.divergence)
        assert lags[0] <= self.CFG.tolerance_seconds
        median = lags[len(lags) // 2]
        assert median > self.CFG.tolerance_seconds

    def test_with_feedback_branch_stays_close(self):
        off = run_imputation_lag(self.CFG, feedback=False)
        on = run_imputation_lag(self.CFG, feedback=True)
        assert on.dirty_purged_upstream > 0
        assert on.late_fraction_dirty < off.late_fraction_dirty / 2
        # the backlog is purged instead of processed: cheaper run overall
        assert on.report.total_work() < off.report.total_work()

    def test_divergence_series_is_recorded_at_merge(self):
        r = run_imputation_lag(self.CFG, feedback=False)
        assert len(r.divergence) == r.dirty_total  # one sample per dirty arrival
        assert all(lag >= 0 for _, lag in r.divergence)


class TestZoom:
    CFG = ZoomConfig().scaled(0.02)

    def test_schemes_strictly_ordered_by_work(self):
        res = run_zoom_suite(self.CFG)
        assert (
            res["none"].work_units
            > res["guard"].work_units
            > res["exploit"].work_units
            > res["propagate"].work_units
        )

    def test_hidden_segments_suppressed_but_visible_kept(self):
        res = run_zoom(self.CFG, "propagate")
        rows = res.report.outputs["out"]
        assert rows
        sched_interval = self.CFG.zoom_interval_seconds
        lead = self.CFG.lead_seconds
        for win, seg, _avg in rows:
            visible = (win // sched_interval) % self.CFG.segments
            # rows from hidden segments may appear only inside the lead
            # gap at the very start, before the first feedback lands
            assert seg == visible or win < lead + self.CFG.window_seconds

    def test_all_schemes_agree_on_visible_results(self):
        res = run_zoom_suite(self.CFG)
        full = set(res["none"].report.outputs["out"])
        for scheme in ("guard", "exploit", "propagate"):
            kept = res[scheme].report.outputs["out"]
            assert set(kept) <= full

    def test_scaled_duration_aligns_to_interval(self):
        cfg = ZoomConfig(zoom_interval_seconds=360).scaled(0.05)
        assert cfg.duration_seconds % 360 == 0

    def test_savings_uses_reference_scheme(self):
        res = run_zoom_suite(self.CFG)
        s = savings(res)
        assert set(s) == {"guard", "exploit", "propagate"}
        assert all(0.0 < v < 1.0 for v in s.values())

    def test_run_seconds_and_wall_savings_are_reported(self, capsys):
        res = run_zoom_suite(self.CFG)
        for r in res.values():
            assert 0.0 < r.run_seconds <= r.wall_seconds
        wall = savings(res, "run_seconds")
        base = res["none"].run_seconds
        assert wall == {
            s: 1.0 - r.run_seconds / base for s, r in res.items() if s != "none"
        }
        assert main(["zoom", "--scale", "0.02"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        columns = header.split(",")
        assert columns[-2:] == ["run_seconds", "wall_savings_vs_none"]
        assert [line.split(",")[0] for line in lines] == list(res)
        for line in lines:
            row = dict(zip(columns, line.split(",")))
            assert float(row["run_seconds"]) > 0.0
            assert row["wall_savings_vs_none"].endswith("%")
            float(row["wall_savings_vs_none"][:-1])
        assert lines[0].split(",")[-1] == "0.0%"  # none against itself
        # one scheme alone has no reference run, so no savings
        assert main(["zoom", "--scale", "0.02", "--scheme", "guard"]) == 0
        _, line = capsys.readouterr().out.splitlines()
        row = dict(zip(columns, line.split(",")))
        assert row["savings_vs_none"] == row["wall_savings_vs_none"] == ""
        assert float(row["run_seconds"]) > 0.0

    def test_run_seconds_excludes_generating_the_input(self, monkeypatch):
        real = experiments.sensor_rows

        def slow_rows(config):
            yield from real(config)
            time.sleep(0.3)

        monkeypatch.setattr(experiments, "sensor_rows", slow_rows)
        res = run_zoom(self.CFG, "propagate")
        assert res.wall_seconds - res.run_seconds >= 0.3
