"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers (run pytest with -s or check -v for per-criterion
status).  Thresholds and time budgets are asserted, not just reported.
"""

import itertools
import time
from dataclasses import replace

from punctstream.core import (
    AttrType,
    Constraint,
    Pattern,
    Schema,
    assumed,
    conjoin,
    matches,
    subsumes,
)
from punctstream.experiments import (
    ImputationLagConfig,
    ZoomConfig,
    run_imputation_lag,
    run_zoom_suite,
    savings,
)
from punctstream.operators import REGISTRY
from punctstream.oracle import oracle_check
from punctstream.propagation import AttributeMapping, Origin, derive_input_patterns
from punctstream.runtime import DeterministicEngine, Plan
from punctstream.workloads import check_workload

C = Constraint


def _report(name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


# -- 1: the equi-join rewrite triple ----------------------------------------


def test_accept_join_rewrite_triple():
    left = Schema(
        "A", (("a", AttrType.INT), ("t", AttrType.TIMESTAMP), ("id", AttrType.INT)), 1
    )
    right = Schema(
        "B", (("t", AttrType.TIMESTAMP), ("id", AttrType.INT), ("b", AttrType.INT)), 0
    )
    out = Schema(
        "C",
        (
            ("a", AttrType.INT),
            ("t", AttrType.TIMESTAMP),
            ("id", AttrType.INT),
            ("b", AttrType.INT),
        ),
        1,
    )
    m = AttributeMapping(
        output_schema=out,
        input_schemas=(left, right),
        origins=(
            Origin.from_input((0, 0)),
            Origin.from_input((0, 1), (1, 0)),
            Origin.from_input((0, 2), (1, 1)),
            Origin.from_input((1, 2)),
        ),
    )
    # join-attribute pattern rewrites to both inputs
    f1 = Pattern.of(out, t=C.eq(3), id=C.eq(4))
    assert derive_input_patterns(f1, m) == (
        Pattern.of(left, t=C.eq(3), id=C.eq(4)),
        Pattern.of(right, t=C.eq(3), id=C.eq(4)),
    )
    # left-only pattern rewrites to the left input only
    f2 = Pattern.of(out, a=C.eq(50))
    assert derive_input_patterns(f2, m) == (Pattern.of(left, a=C.eq(50)), None)
    # pattern spanning both sides rewrites nowhere
    f3 = Pattern.of(out, a=C.eq(50), b=C.eq(50))
    assert derive_input_patterns(f3, m) == (None, None)
    _report("1 join-rewrite-triple", "both-sides / left-only / blocked, all exact")


# -- 2: per-operator feedback actions with message capture ------------------

SENSOR = Schema(
    "sensor",
    (("det", AttrType.INT), ("ts", AttrType.TIMESTAMP), ("speed", AttrType.FLOAT)),
    1,
)


def _agg_plan(kind, injections, feedback="propagate", **agg):
    rows = [(d, t, float(10 * d + t % 5)) for t in range(300) for d in (1, 2, 3)]

    def make():
        plan = Plan()
        plan.add("src", "source", schema=SENSOR, rows=rows, punct_interval=60)
        plan.add("agg", kind, inputs=["src"], range_seconds=60, group_by=("det",),
                 feedback=feedback, **agg)
        plan.add("out", "sink", inputs=["agg"], injections=injections)
        return plan

    return make


def _out_schema(make_plan):
    return DeterministicEngine(make_plan(), REGISTRY).ops["agg"].out_schema


def test_accept_operator_feedback_actions():
    checked = []

    def scenario(name, make_plan, purge, guard, upstream):
        res = oracle_check(make_plan, REGISTRY, page_size=30)
        assert res.ok, f"{name}: {res.witness}"
        agg = res.observed.counters["agg"]
        assert (agg.state_purged > 0) == purge, name
        assert (agg.guard_drops > 0) == guard, name
        sent_up = [e for e in res.observed.feedback_log if e[0].startswith("src.")]
        assert bool(sent_up) == upstream, name
        checked.append(name)

    out = _out_schema(_agg_plan("count", ()))
    scenario(
        "count group: purge+guard+propagate",
        _agg_plan("count", ((2, assumed(Pattern.of(out, det=C.eq(2)))),)),
        purge=True, guard=True, upstream=True,
    )
    scenario(
        "count =a: output guard only",
        _agg_plan("count", ((1, assumed(Pattern.of(out, count=C.eq(60)))),)),
        purge=False, guard=True, upstream=False,
    )
    scenario(
        "count >=a: purge matching groups",
        _agg_plan("count", ((1, assumed(Pattern.of(out, count=C.ge(1)))),)),
        purge=True, guard=True, upstream=True,
    )
    scenario(
        "count <=a: output guard only",
        _agg_plan("count", ((1, assumed(Pattern.of(out, count=C.le(10)))),)),
        purge=False, guard=False, upstream=False,
    )
    out = _out_schema(_agg_plan("average", (), value="speed"))
    scenario(
        "average value bound: close-time guard only",
        _agg_plan("average", ((1, assumed(Pattern.of(out, avg_speed=C.ge(20.0)))),),
                  value="speed"),
        purge=False, guard=True, upstream=False,
    )
    out = _out_schema(_agg_plan("max", (), value="speed"))
    scenario(
        "max >=v: suppress matching windows",
        _agg_plan("max", ((1, assumed(Pattern.of(out, max_speed=C.ge(30.0)))),),
                  value="speed"),
        purge=True, guard=True, upstream=True,
    )
    scenario(
        "max <=v: output guard only",
        _agg_plan("max", ((1, assumed(Pattern.of(out, max_speed=C.le(15.0)))),),
                  value="speed"),
        purge=False, guard=True, upstream=False,
    )

    # join: four pattern shapes against a two-sided mapping
    left_s = Schema(
        "L", (("a", AttrType.INT), ("t", AttrType.TIMESTAMP), ("id", AttrType.INT)), 1
    )
    right_s = Schema(
        "R", (("rt", AttrType.TIMESTAMP), ("id", AttrType.INT), ("b", AttrType.INT)), 0
    )

    def join_make(injections):
        left = [(50 + (i % 7), i, i % 3) for i in range(240)]
        right = [(i, i % 3, 50 + (i % 9)) for i in range(240)]

        def make():
            plan = Plan()
            plan.add("l", "source", schema=left_s, rows=left, punct_interval=40)
            plan.add("r", "source", schema=right_s, rows=right, punct_interval=40)
            plan.add("j", "join", inputs=["l", "r"], on=(("id", "id"),))
            plan.add("out", "sink", inputs=["j"], injections=injections)
            return plan

        return make

    jout = DeterministicEngine(join_make(())(), REGISTRY).ops["j"].out_schema

    def join_scenario(name, pattern, to_left, to_right):
        res = oracle_check(join_make(((5, assumed(pattern)),)), REGISTRY, page_size=25)
        assert res.ok, f"{name}: {res.witness}"
        edges = {e[0].split(".")[0] for e in res.observed.feedback_log}
        assert ("l" in edges) == to_left, name
        assert ("r" in edges) == to_right, name
        j = res.observed.counters["j"]
        if to_left or to_right:
            assert j.state_purged > 0 and j.guard_drops > 0, name
        else:
            assert j.state_purged == 0 and j.guard_drops > 0, name
        checked.append(name)

    join_scenario("join attr: both sides", Pattern.of(jout, id=C.eq(2)), True, True)
    join_scenario("left only", Pattern.of(jout, a=C.eq(52)), True, False)
    join_scenario("right only", Pattern.of(jout, b=C.eq(52)), False, True)
    join_scenario(
        "cross-side: output guard only",
        Pattern.of(jout, a=C.eq(52), b=C.eq(52)),
        False, False,
    )
    _report("2 operator-feedback-actions", f"{len(checked)} scenarios, all containment-checked")


# -- 3: randomized containment ----------------------------------------------


def test_accept_randomized_containment():
    t0 = time.monotonic()
    n = 500
    failures = []
    for seed in range(n):
        res, desc = check_workload(seed)
        if not res.ok:
            failures.append((seed, desc, res.witness))
    elapsed = time.monotonic() - t0
    assert not failures, failures[:5]
    assert elapsed < 120.0, f"containment sweep took {elapsed:.1f}s"
    _report("3 randomized-containment", f"{n} workloads, 0 violations, {elapsed:.1f}s")


# -- 4: imputation lag study ------------------------------------------------


def test_accept_imputation_lag():
    t0 = time.monotonic()
    cfg = ImputationLagConfig(n_rows=5000)
    off = run_imputation_lag(cfg, feedback=False)
    on = run_imputation_lag(cfg, feedback=True)
    elapsed = time.monotonic() - t0
    assert off.late_fraction_dirty >= 0.90, off.late_fraction_dirty
    assert on.late_fraction_dirty <= 0.50, on.late_fraction_dirty
    assert on.late_fraction_dirty < off.late_fraction_dirty / 2
    assert elapsed < 30.0, f"lag study took {elapsed:.1f}s"
    _report(
        "4 imputation-lag",
        f"late without={off.late_fraction_dirty:.1%}, "
        f"with={on.late_fraction_dirty:.1%}, {elapsed:.1f}s",
    )


# -- 5: zoom study ----------------------------------------------------------

_BANDS = {"guard": 0.50, "exploit": 0.61, "propagate": 0.65}


def _check_zoom(results):
    work = [results[s].work_units for s in ("none", "guard", "exploit", "propagate")]
    assert work[0] > work[1] > work[2] > work[3], work
    s = savings(results)
    for scheme, target in _BANDS.items():
        assert abs(s[scheme] - target) <= 0.15, (scheme, s[scheme], target)
    return s


def test_accept_zoom_small_scale_and_variance():
    per_interval = {}
    for interval in (120, 240, 360):
        cfg = replace(ZoomConfig(), zoom_interval_seconds=interval).scaled(0.05)
        per_interval[interval] = _check_zoom(run_zoom_suite(cfg))
    for scheme in _BANDS:
        vals = [per_interval[i][scheme] for i in per_interval]
        spread = max(vals) - min(vals)
        assert spread < 0.02, (scheme, vals)
    detail = ", ".join(
        f"{s}={per_interval[240][s]:.1%}" for s in ("guard", "exploit", "propagate")
    )
    _report("5a zoom-small-scale", f"savings {detail}, spread <2pp across intervals")


def test_accept_zoom_full_scale():
    t0 = time.monotonic()
    results = run_zoom_suite(ZoomConfig())
    elapsed = time.monotonic() - t0
    s = _check_zoom(results)
    assert elapsed < 300.0, f"full-scale suite took {elapsed:.1f}s"
    detail = ", ".join(f"{k}={v:.1%}" for k, v in s.items())
    _report("5b zoom-full-scale", f"savings {detail}, {elapsed:.1f}s")


# -- 6: runtime invariants --------------------------------------------------


def test_accept_runtime_invariants():
    rows = [(d, t, float(d)) for t in range(600) for d in (1, 2)]

    def base():
        plan = Plan()
        plan.add("src", "source", schema=SENSOR, rows=rows, punct_interval=50)
        plan.add("sel", "select", inputs=["src"], predicate="speed >= 0")
        plan.add("agg", "count", inputs=["sel"], range_seconds=60, group_by=("det",))
        plan.add("out", "sink", inputs=["agg"])
        return plan

    agg_out = DeterministicEngine(base(), REGISTRY).ops["agg"].out_schema
    fb = assumed(Pattern.of(agg_out, win=C.le(180)))

    def run_once():
        plan = base()
        plan.nodes["out"].params["injections"] = ((2, fb),)
        eng = DeterministicEngine(plan, REGISTRY, page_size=24, trace_pages=True)
        return eng, eng.run()

    eng1, rep1 = run_once()
    eng2, rep2 = run_once()

    # pages leave the producer only when full or punctuated (final flush aside)
    per_edge_last = {}
    for i, (key, size, has_punct, capacity) in enumerate(rep1.page_log):
        per_edge_last[key] = i
    violations = [
        (key, size)
        for i, (key, size, has_punct, capacity) in enumerate(rep1.page_log)
        if size < capacity and not has_punct and i != per_edge_last[key]
    ]
    assert not violations, violations[:5]

    # identical seeds and configs replay byte-identically
    assert rep1.to_bytes() == rep2.to_bytes()

    # every guard delimited by the progress attribute is expired by the
    # closing punctuation of a fully punctuated in-order run
    for op_id in ("sel", "agg"):
        op = eng1.ops[op_id]
        count = getattr(op, "delimited_guard_count", None)
        if count is None:
            count = op.active_guard_count
        assert count == 0, (op_id, count)
    assert eng1.ops["out"].counters.feedback_sent == 1
    _report(
        "6 runtime-invariants",
        "page flush rule, double-run byte equality, delimited guards drained",
    )


# -- 7: pattern algebra over exhaustive small domains ------------------------


def test_accept_pattern_algebra_exhaustive():
    t0 = time.monotonic()
    values = range(8)
    cs = [C.wildcard()]
    for v in values:
        cs += [C.eq(v), C.lt(v), C.le(v), C.gt(v), C.ge(v)]
    for lo in values:
        for hi in values:
            if lo < hi:
                cs.append(C.interval(lo, hi))
    schema = Schema("d", (("t", AttrType.TIMESTAMP),), 0)
    # evaluate over a domain one step wider than the constraint values so
    # that semantic containment matches containment over all integers
    domain = [(v,) for v in range(-1, 9)] + [(None,)]
    pats = [Pattern(schema, (c,)) for c in cs]
    n_pairs = 0
    for p, q in itertools.product(pats, repeat=2):
        sub = subsumes(p, q)
        r = conjoin(p, q)
        for row in domain:
            mp, mq = matches(row, p), matches(row, q)
            if sub and mq:
                assert mp, (p, q, row)
            got = False if r is None else matches(row, r)
            assert got == (mp and mq), (p, q, r, row)
        # subsumption must also be complete: if containment holds over the
        # whole domain and q is satisfiable, subsumes must report it
        if not sub:
            satisfiable = any(matches(row, q) for row in domain)
            contained = all(
                matches(row, p) for row in domain if matches(row, q)
            )
            assert not (satisfiable and contained), (p, q)
        n_pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"exhaustive sweep took {elapsed:.1f}s"
    _report(
        "7 pattern-algebra",
        f"{n_pairs} constraint pairs x {len(domain)} values, {elapsed:.1f}s",
    )
