"""Scripted feedback-exploitation scenarios per operator and pattern shape.

Each scenario runs a small plan with a feedback injection at the sink and
checks three things: the action the operator took (purge / input guard /
output guard / propagate, read off the counters and the control-channel
log), the shape of any upstream message, and output containment against
the feedback-disabled reference run.
"""

from collections import Counter

import pytest

from punctstream.core import (
    AttrType,
    Constraint,
    FeedbackPunctuation,
    Intent,
    Pattern,
    Schema,
    assumed,
)
from punctstream.operators import FEEDBACK_LEVELS, REGISTRY
from punctstream.oracle import oracle_check
from punctstream.runtime import DeterministicEngine, Plan

C = Constraint

SENSOR = Schema(
    "sensor",
    (("det", AttrType.INT), ("ts", AttrType.TIMESTAMP), ("speed", AttrType.FLOAT)),
    1,
)


def sensor_rows(n_seconds, dets=(1, 2, 3)):
    return [(d, t, float(10 * d + t % 5)) for t in range(n_seconds) for d in dets]


def agg_plan(kind, injections, n_seconds=300, feedback="propagate", **agg):
    def make():
        plan = Plan()
        plan.add(
            "src", "source", schema=SENSOR, rows=sensor_rows(n_seconds), punct_interval=60
        )
        plan.add(
            "agg",
            kind,
            inputs=["src"],
            range_seconds=60,
            group_by=("det",),
            feedback=feedback,
            **agg,
        )
        plan.add("out", "sink", inputs=["agg"], injections=injections)
        return plan

    return make


def upstream_edges(report, producer):
    return {k for k, _, _ in report.feedback_log if k.startswith(producer + ".")}


def dropped_rows(res):
    """Multiset of reference rows the feedback-enabled run did not emit."""
    ref = Counter(res.reference.outputs["out"])
    obs = Counter(res.observed.outputs["out"])
    return list((ref - obs).elements())


# --- count ------------------------------------------------------------------


class TestCountFeedback:
    def agg_schema(self):
        plan = agg_plan("count", ())()
        eng = DeterministicEngine(plan, REGISTRY)
        return eng.ops["agg"].out_schema

    def test_group_pattern_purges_guards_and_propagates(self):
        out = self.agg_schema()
        inj = ((2, assumed(Pattern.of(out, det=C.eq(2)))),)
        res = oracle_check(agg_plan("count", inj), REGISTRY, page_size=30)
        assert res.ok, res.witness
        agg = res.observed.counters["agg"]
        assert agg.feedback_received == 1
        assert agg.state_purged > 0          # open group-2 windows discarded
        assert agg.guard_drops > 0           # later group-2 arrivals dropped
        assert agg.feedback_sent == 1        # rewritten pattern thrown upstream
        # the upstream message constrains only the group attribute
        (key, intent, text) = [
            e for e in res.observed.feedback_log if e[0].startswith("src.")
        ][0]
        assert intent == "assumed" and "=2" in text
        # group 2 disappears from the output after the injection point
        later = res.observed.outputs["out"][5:]
        assert all(r[1] != 2 for r in later)

    def test_count_equality_pattern_guards_output_only(self):
        out = self.agg_schema()
        inj = ((1, assumed(Pattern.of(out, count=C.eq(60)))),)
        res = oracle_check(agg_plan("count", inj), REGISTRY, page_size=30)
        assert res.ok, res.witness
        agg = res.observed.counters["agg"]
        # a window's count may pass through any value on its way up: the
        # constraint is only decidable at window close
        assert agg.state_purged == 0
        assert agg.feedback_sent == 0
        assert agg.guard_drops > 0
        dropped = dropped_rows(res)
        assert dropped and all(r[2] == 60 for r in dropped)

    def test_count_lower_bound_purges_matching_groups(self):
        out = self.agg_schema()
        # counts only grow: a partial count already in the constrained
        # region proves the final result will match, so the matching
        # (window, group) pairs are purged at receipt and propagated
        inj = ((1, assumed(Pattern.of(out, count=C.ge(1)))),)
        res = oracle_check(agg_plan("count", inj), REGISTRY, page_size=30)
        assert res.ok, res.witness
        agg = res.observed.counters["agg"]
        assert agg.state_purged > 0
        assert agg.feedback_sent > 0  # matching (window, group) sets propagate
        assert agg.guard_drops > 0  # rest of those windows dropped on arrival

    def test_count_upper_bound_guards_output_only(self):
        out = self.agg_schema()
        inj = ((1, assumed(Pattern.of(out, count=C.le(10)))),)
        res = oracle_check(agg_plan("count", inj), REGISTRY, page_size=30)
        assert res.ok, res.witness
        agg = res.observed.counters["agg"]
        # a small partial count says nothing about the final value
        assert agg.state_purged == 0
        assert agg.feedback_sent == 0

    def test_output_guard_mode_never_purges(self):
        out = self.agg_schema()
        inj = ((2, assumed(Pattern.of(out, det=C.eq(2)))),)
        res = oracle_check(
            agg_plan("count", inj, feedback="guard"), REGISTRY, page_size=30
        )
        assert res.ok, res.witness
        agg = res.observed.counters["agg"]
        assert agg.state_purged == 0 and agg.feedback_sent == 0
        assert agg.guard_drops > 0


# --- the shared dispatch ----------------------------------------------------


def dispatch_run(feedback, intent=Intent.ASSUMED):
    """A count aggregate at level ``feedback`` sent one group pattern;
    returns the operator and its counters after the run."""
    out = DeterministicEngine(agg_plan("count", ())(), REGISTRY).ops["agg"].out_schema
    fb = FeedbackPunctuation(intent, Pattern.of(out, det=C.eq(2)))
    eng = DeterministicEngine(agg_plan("count", ((2, fb),), feedback=feedback)(), REGISTRY)
    report = eng.run()
    return eng.ops["agg"], report.counters["agg"]


@pytest.mark.parametrize("feedback", FEEDBACK_LEVELS)
def test_dispatch_applies_the_level(feedback):
    agg, counters = dispatch_run(feedback)
    assert counters.feedback_received == (feedback != "none")
    # a group pattern is not covered by the progress punctuation, so the
    # guards it installs are still live when the run ends
    assert len(agg.output_guards[0]) == (feedback == "guard")
    assert len(agg.input_guards[0]) == (feedback in ("exploit", "propagate"))
    assert counters.feedback_sent == (feedback == "propagate")


@pytest.mark.parametrize("intent", [Intent.DESIRED, Intent.DEMANDED])
def test_dispatch_discards_other_intents_uncounted(intent):
    agg, counters = dispatch_run("propagate", intent)
    assert counters.feedback_received == 0 and counters.feedback_sent == 0
    assert agg.active_guard_count == 0


# --- average and sum --------------------------------------------------------


class TestNonMonotoneAggregates:
    def test_average_value_constraint_is_close_time_only(self):
        plan = agg_plan("average", (), value="speed")()
        out = DeterministicEngine(plan, REGISTRY).ops["agg"].out_schema
        inj = ((1, assumed(Pattern.of(out, avg_speed=C.ge(20.0)))),)
        res = oracle_check(
            agg_plan("average", inj, value="speed"), REGISTRY, page_size=30
        )
        assert res.ok, res.witness
        agg = res.observed.counters["agg"]
        # a partial average above the bound can still sink below it: purging
        # mid-window would lose results outside the feedback subset
        assert agg.state_purged == 0
        assert agg.feedback_sent == 0
        dropped = dropped_rows(res)
        assert dropped and all(r[2] >= 20.0 for r in dropped)

    def test_average_group_constraint_still_exploitable(self):
        plan = agg_plan("average", (), value="speed")()
        out = DeterministicEngine(plan, REGISTRY).ops["agg"].out_schema
        inj = ((2, assumed(Pattern.of(out, det=C.eq(3)))),)
        res = oracle_check(
            agg_plan("average", inj, value="speed"), REGISTRY, page_size=30
        )
        assert res.ok, res.witness
        agg = res.observed.counters["agg"]
        assert agg.state_purged > 0 and agg.feedback_sent == 1

    def test_sum_lower_bound_guard_only_when_values_may_be_negative(self):
        plan = agg_plan("sum", (), value="speed")()
        out = DeterministicEngine(plan, REGISTRY).ops["agg"].out_schema
        inj = ((1, assumed(Pattern.of(out, sum_speed=C.ge(100.0)))),)
        res = oracle_check(agg_plan("sum", inj, value="speed"), REGISTRY, page_size=30)
        assert res.ok, res.witness
        assert res.observed.counters["agg"].state_purged == 0

    def test_sum_lower_bound_purges_when_declared_nonnegative(self):
        plan = agg_plan("sum", (), value="speed", sum_nonneg=True)()
        out = DeterministicEngine(plan, REGISTRY).ops["agg"].out_schema
        inj = ((1, assumed(Pattern.of(out, sum_speed=C.ge(100.0)))),)
        res = oracle_check(
            agg_plan("sum", inj, value="speed", sum_nonneg=True), REGISTRY, page_size=30
        )
        assert res.ok, res.witness
        assert res.observed.counters["agg"].state_purged > 0


# --- max --------------------------------------------------------------------


class TestMaxFeedback:
    def test_lower_bound_suppresses_windows_as_values_arrive(self):
        plan = agg_plan("max", (), value="speed")()
        eng = DeterministicEngine(plan, REGISTRY)
        out = eng.ops["agg"].out_schema
        # group 3 peaks at 34.0 every window; 30.0 catches it, others stay below
        inj = ((1, assumed(Pattern.of(out, max_speed=C.ge(30.0)))),)
        res = oracle_check(agg_plan("max", inj, value="speed"), REGISTRY, page_size=30)
        assert res.ok, res.witness
        agg = res.observed.counters["agg"]
        assert agg.state_purged > 0
        # windows suppressed later, as soon as one matching value arrives
        assert agg.guard_drops > 0
        dropped = dropped_rows(res)
        assert dropped and all(r[2] >= 30.0 for r in dropped)
        # the suppressed windows never surface: no post-feedback group-3 peaks
        kept_wins_g3 = {r[0] for r in res.observed.outputs["out"] if r[1] == 3}
        ref_wins_g3 = {r[0] for r in res.reference.outputs["out"] if r[1] == 3}
        assert kept_wins_g3 < ref_wins_g3

    def test_suppressed_window_records_expire_at_close(self):
        plan_fn = agg_plan("max", (), value="speed")
        out = DeterministicEngine(plan_fn(), REGISTRY).ops["agg"].out_schema
        inj = ((1, assumed(Pattern.of(out, max_speed=C.ge(30.0)))),)
        eng = DeterministicEngine(
            agg_plan("max", inj, value="speed")(), REGISTRY, page_size=30
        )
        eng.run()
        agg = eng.ops["agg"]
        # per-window suppression records are delimited by punctuation and
        # must all be gone once their windows closed
        assert len(agg.suppressed) == 0

    def test_upper_bound_guards_output_only(self):
        plan = agg_plan("max", (), value="speed")()
        out = DeterministicEngine(plan, REGISTRY).ops["agg"].out_schema
        inj = ((1, assumed(Pattern.of(out, max_speed=C.le(15.0)))),)
        res = oracle_check(agg_plan("max", inj, value="speed"), REGISTRY, page_size=30)
        assert res.ok, res.witness
        agg = res.observed.counters["agg"]
        # the partial max may still grow past the bound: close-time check only
        assert agg.state_purged == 0 and agg.feedback_sent == 0
        dropped = dropped_rows(res)
        assert dropped and all(r[2] <= 15.0 for r in dropped)


# --- join -------------------------------------------------------------------

LEFT = Schema(
    "L", (("a", AttrType.INT), ("t", AttrType.TIMESTAMP), ("id", AttrType.INT)), 1
)
RIGHT = Schema(
    "R", (("rt", AttrType.TIMESTAMP), ("id", AttrType.INT), ("b", AttrType.INT)), 0
)


def join_plan(injections):
    # unwindowed equi-join on id: every buffered row stays live, so a
    # feedback purge is observable directly in state_purged
    left = [(50 + (i % 7), i, i % 3) for i in range(240)]
    right = [(i, i % 3, 50 + (i % 9)) for i in range(240)]

    def make():
        plan = Plan()
        plan.add("l", "source", schema=LEFT, rows=left, punct_interval=40)
        plan.add("r", "source", schema=RIGHT, rows=right, punct_interval=40)
        plan.add("j", "join", inputs=["l", "r"], on=(("id", "id"),))
        plan.add("out", "sink", inputs=["j"], injections=injections)
        return plan

    return make


def joined_schema():
    return DeterministicEngine(join_plan(())(), REGISTRY).ops["j"].out_schema


class TestJoinFeedback:
    def test_join_attr_pattern_exploited_on_both_sides(self):
        out = joined_schema()
        inj = ((5, assumed(Pattern.of(out, id=C.eq(2)))),)
        res = oracle_check(join_plan(inj), REGISTRY, page_size=25)
        assert res.ok, res.witness
        j = res.observed.counters["j"]
        assert j.feedback_received == 1
        assert j.state_purged > 0
        assert j.guard_drops > 0
        assert j.feedback_sent == 2
        edges = upstream_edges(res.observed, "l") | upstream_edges(res.observed, "r")
        assert any(k.startswith("l.") for k in edges)
        assert any(k.startswith("r.") for k in edges)

    def test_left_only_pattern_exploited_left_only(self):
        out = joined_schema()
        inj = ((5, assumed(Pattern.of(out, a=C.eq(52)))),)
        res = oracle_check(join_plan(inj), REGISTRY, page_size=25)
        assert res.ok, res.witness
        j = res.observed.counters["j"]
        assert j.state_purged > 0
        assert j.feedback_sent == 1
        assert upstream_edges(res.observed, "l")
        assert not upstream_edges(res.observed, "r")

    def test_right_only_pattern_exploited_right_only(self):
        out = joined_schema()
        inj = ((5, assumed(Pattern.of(out, b=C.eq(52)))),)
        res = oracle_check(join_plan(inj), REGISTRY, page_size=25)
        assert res.ok, res.witness
        assert upstream_edges(res.observed, "r")
        assert not upstream_edges(res.observed, "l")

    def test_cross_side_pattern_guards_output_only(self):
        out = joined_schema()
        # one conjunct from each side: a joined row can match even though
        # neither source row alone determines it — no safe rewrite exists
        inj = ((5, assumed(Pattern.of(out, a=C.eq(52), b=C.eq(52)))),)
        res = oracle_check(join_plan(inj), REGISTRY, page_size=25)
        assert res.ok, res.witness
        j = res.observed.counters["j"]
        assert j.feedback_sent == 0
        assert j.state_purged == 0
        assert j.guard_drops > 0
        dropped = dropped_rows(res)
        assert dropped and all(r[0] == 52 and r[4] == 52 for r in dropped)

    def test_left_and_join_attr_pattern_goes_left_only(self):
        out = joined_schema()
        inj = ((5, assumed(Pattern.of(out, a=C.eq(52), id=C.eq(2)))),)
        res = oracle_check(join_plan(inj), REGISTRY, page_size=25)
        assert res.ok, res.witness
        assert upstream_edges(res.observed, "l")
        assert not upstream_edges(res.observed, "r")
