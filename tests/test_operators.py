"""Per-operator behavior: routing, imputation, pacing, window aggregation,
join matching, punctuation handling, and guard expiration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import punctstream.core as core
from punctstream.core import (
    AttrType,
    Constraint,
    EmbeddedPunctuation,
    Pattern,
    Schema,
    assumed,
    is_punct,
)
from punctstream.operators import (
    REGISTRY,
    GuardSet,
    compile_predicate,
    format_schema_decl,
    parse_schema_decl,
    read_stream_file,
)
from punctstream.runtime import DeterministicEngine, Plan

C = Constraint

SENSOR = Schema(
    "sensor",
    (
        ("det", AttrType.INT),
        ("ts", AttrType.TIMESTAMP),
        ("speed", AttrType.FLOAT),
    ),
    1,
)


def run(plan, **kw):
    return DeterministicEngine(plan, REGISTRY, **kw).run()


# --- predicates -------------------------------------------------------------


def test_predicate_comparisons():
    p = compile_predicate("speed >= 10 and det != 3", SENSOR)
    assert p((1, 0, 10.0))
    assert not p((3, 0, 10.0))
    assert not p((1, 0, 9.5))


def test_predicate_null_semantics():
    p = compile_predicate("speed >= 10", SENSOR)
    assert not p((1, 0, None))
    isnull = compile_predicate("speed == null", SENSOR)
    assert isnull((1, 0, None)) and not isnull((1, 0, 5.0))
    notnull = compile_predicate("speed != null", SENSOR)
    assert notnull((1, 0, 5.0)) and not notnull((1, 0, None))


def test_predicate_rejects_garbage():
    with pytest.raises(ValueError):
        compile_predicate("speed ~ 3", SENSOR)


# --- guard sets ---------------------------------------------------------------

# (det, seg, ts, speed) with ts the progress attribute
GUARDED = Schema(
    "guarded",
    (
        ("det", AttrType.INT),
        ("seg", AttrType.INT),
        ("ts", AttrType.TIMESTAMP),
        ("speed", AttrType.FLOAT),
    ),
    2,
)

_GRID = list(itertools.product(
    (0, 1), (0, 1, 2, None), list(range(10)) + [None], (1.0, None)
))


class ListGuards:
    """Naive reference: a list of patterns, every one checked."""

    def __init__(self):
        self.patterns = []

    def add(self, p):
        if p not in self.patterns:
            self.patterns.append(p)

    def expire(self, punct):
        self.patterns = [p for p in self.patterns if not core.subsumes(punct, p)]

    def drop(self, row):
        return any(p.matches(row) for p in self.patterns)


def _small(values):
    return st.sampled_from(values)


@st.composite
def ts_constraints(draw):
    kind = draw(_small(["*", "=", "<=", ">=", "iv", "empty"]))
    if kind == "*":
        return C.wildcard()
    if kind == "iv":
        lo = draw(st.integers(0, 8))
        return C.interval(lo, draw(st.integers(lo + 1, 10)))
    if kind == "empty":  # e.g. (3,4) admits no integer
        lo = draw(st.integers(0, 8))
        return Constraint(core.Op.RANGE, lo=lo, hi=lo + 1, lo_incl=False)
    return {"=": C.eq, "<=": C.le, ">=": C.ge}[kind](draw(st.integers(0, 9)))


@st.composite
def guard_patterns(draw):
    det = draw(st.one_of(st.just(C.wildcard()), st.builds(C.eq, st.integers(0, 1))))
    seg = draw(st.one_of(st.just(C.wildcard()), st.builds(C.eq, st.integers(0, 2)),
                         st.builds(C.le, st.integers(0, 2))))
    speed = draw(_small([C.wildcard(), C.wildcard(), C.ge(1.0), C.lt(1.0)]))
    return Pattern(GUARDED, (det, seg, draw(ts_constraints()), speed))


@st.composite
def punctuations(draw):
    b = draw(st.integers(-1, 10))
    if draw(st.integers(0, 3)):  # mostly pure progress punctuation
        return Pattern.of(GUARDED, ts=C.le(b))
    return Pattern.of(GUARDED, seg=C.eq(draw(st.integers(0, 2))), ts=C.le(b))


guard_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), guard_patterns()),
        st.tuples(st.just("expire"), punctuations()),
        st.tuples(st.just("drop"), _small(_GRID)),
    ),
    max_size=40,
)


@given(guard_ops)
@settings(max_examples=200, deadline=None)
def test_guard_set_agrees_with_list_model(ops):
    guards, model = GuardSet(), ListGuards()
    for op, arg in ops:
        if op == "drop":
            assert guards.drop(arg) == model.drop(arg), arg
            continue
        getattr(guards, op)(arg)
        getattr(model, op)(arg)
        assert len(guards) <= len(model.patterns)
        if not model.patterns:
            assert len(guards) == 0
        for row in _GRID:
            assert guards.drop(row) == model.drop(row), (op, arg, row)


def test_guard_set_skips_and_replaces_subsumed_patterns():
    guards = GuardSet()
    wide = Pattern.of(GUARDED, seg=C.eq(1), ts=C.interval(0, 100))
    narrow = Pattern.of(GUARDED, seg=C.eq(1), ts=C.interval(10, 20))
    assert guards.add(narrow)
    assert guards.add(wide)  # replaces narrow
    assert len(guards) == 1
    assert not guards.add(narrow)
    assert not guards.add(wide)
    assert not guards.add(Pattern.of(GUARDED, ts=Constraint(
        core.Op.RANGE, lo=3, hi=4, lo_incl=False)))  # empty
    assert len(guards) == 1


def _counting_matchers(monkeypatch):
    calls = [0]
    make = Pattern.matcher

    def matcher(self):
        m = make(self)

        def counted(row):
            calls[0] += 1
            return m(row)

        return counted

    monkeypatch.setattr(Pattern, "matcher", matcher)
    return calls


def test_guard_drop_runs_at_most_one_matcher_per_row(monkeypatch):
    calls = _counting_matchers(monkeypatch)
    guards = GuardSet()
    for k in range(64):
        guards.add(Pattern.of(GUARDED, seg=C.eq(k), ts=C.interval(10 * k, 10 * k + 50)))
    assert len(guards) == 64
    for seg in list(range(70)) + [None]:
        for ts in (0, 5 * seg if seg is not None else 0, 1000):
            calls[0] = 0
            hit = guards.drop((0, seg, ts, 1.0))
            assert calls[0] <= 1, (seg, ts)
            assert hit == (seg is not None and seg < 64 and 10 * seg <= ts < 10 * seg + 50)


def test_progress_punctuation_checks_only_covered_guards(monkeypatch):
    checked = []
    subsumes = core.subsumes

    def counting(p, q):
        checked.append(q)
        return subsumes(p, q)

    guards = GuardSet()
    for k in range(64):
        guards.add(Pattern.of(GUARDED, seg=C.eq(k), ts=C.le(k)))
    guards.add(Pattern.of(GUARDED, ts=C.ge(5)))  # no upper bound: never covered
    guards.add(Pattern.of(GUARDED, det=C.eq(1), ts=C.le(20)))  # any seg
    # patched on the module, where GuardSet looks it up at each call
    monkeypatch.setattr(core, "subsumes", counting)
    assert guards.expire(Pattern.of(GUARDED, ts=C.le(9))) == 10
    assert len(checked) == 10
    assert len(guards) == 56
    checked.clear()
    # an equality in the punctuation rules out guards on other values or
    # on any value of that attribute
    assert guards.expire(Pattern.of(GUARDED, seg=C.eq(20), ts=C.le(30))) == 1
    assert len(checked) == 1
    assert len(guards) == 55


# --- schema declarations and stream files -----------------------------------


def test_schema_decl_round_trip():
    text = "schema sensor(det:int, ts:timestamp*, speed:float)"
    s = parse_schema_decl(text)
    assert s == SENSOR
    assert format_schema_decl(s) == text


def test_stream_file_round_trip(tmp_path):
    path = tmp_path / "stream.txt"
    path.write_text(
        "schema sensor(det:int, ts:timestamp*, speed:float)\n"
        "1,0,55.0\n"
        "2,10,null\n"
        "#punct sensor: [*, <=10, *]\n"
        "1,20,60.5\n"
    )
    schema, items = read_stream_file(str(path))
    assert schema == SENSOR
    assert items[0] == (1, 0, 55.0)
    assert items[1] == (2, 10, None)
    assert is_punct(items[2])
    assert items[2].pattern == Pattern.of(SENSOR, ts=C.le(10))
    assert items[3] == (1, 20, 60.5)


# --- split ------------------------------------------------------------------


def split_plan(data):
    plan = Plan()
    plan.add("src", "source", schema=SENSOR, rows=data, punct_interval=50)
    plan.add("split", "split", inputs=["src"])
    plan.add("clean", "sink", inputs=["split.0"])
    plan.add("dirty", "sink", inputs=["split.1"])
    return plan


def test_split_routes_nulls_to_dirty():
    data = [(1, 0, 50.0), (2, 1, None), (1, 2, 51.0), (2, 3, None)]
    report = run(split_plan(data))
    assert report.outputs["clean"] == [data[0], data[2]]
    assert report.outputs["dirty"] == [data[1], data[3]]
    # punctuation reaches both branches
    assert report.counters["clean"].puncts_in >= 1
    assert report.counters["dirty"].puncts_in >= 1


def test_split_branch_feedback_guards_only_that_branch():
    data = [(d, t, None if d == 2 else 50.0) for t in range(100) for d in (1, 2)]
    plan = split_plan(data)
    plan.nodes["dirty"].params["injections"] = (
        (5, assumed(Pattern.of(SENSOR, ts=C.le(150)))),
    )
    report = run(plan, page_size=10)
    split_c = report.counters["split"]
    assert split_c.feedback_received == 1
    assert split_c.feedback_sent == 0  # never relayed upstream
    assert split_c.guard_drops > 0
    # clean branch is untouched
    assert len(report.outputs["clean"]) == 100


# --- impute -----------------------------------------------------------------


def test_impute_fills_with_last_value_per_key():
    data = [(1, 0, 50.0), (2, 1, 70.0), (1, 2, None), (2, 3, None), (3, 4, None)]
    plan = Plan()
    plan.add("src", "source", schema=SENSOR, rows=data)
    plan.add("imp", "impute", inputs=["src"], key="det", default=-1.0, cost=2.0)
    plan.add("out", "sink", inputs=["imp"])
    report = run(plan)
    assert report.outputs["out"] == [
        (1, 0, 50.0),
        (2, 1, 70.0),
        (1, 2, 50.0),
        (2, 3, 70.0),
        (3, 4, -1.0),  # never seen: default estimate
    ]
    assert report.counters["imp"].work_units == pytest.approx(2.0 * 5)


def test_impute_guard_skips_expensive_work():
    data = [(1, t, None) for t in range(200)]
    plan = Plan()
    plan.add("src", "source", schema=SENSOR, rows=data, punct_interval=100)
    plan.add("imp", "impute", inputs=["src"], key="det", cost=5.0)
    plan.add("out", "sink", inputs=["imp"])
    plan.nodes["out"].params["injections"] = (
        (1, assumed(Pattern.of(SENSOR, ts=C.le(150)))),
    )
    report = run(plan, page_size=10)
    c = report.counters["imp"]
    assert c.feedback_received == 1
    assert c.guard_drops > 0
    assert c.feedback_sent == 1  # relayed toward the source
    # guarded rows cost nothing: total work well below the no-feedback cost
    assert c.work_units < 5.0 * 200


def test_impute_guard_expires_after_covering_punctuation():
    data = [(1, t, None) for t in range(200)]
    plan = Plan()
    plan.add("src", "source", schema=SENSOR, rows=data, punct_interval=50)
    plan.add("imp", "impute", inputs=["src"], key="det", cost=1.0)
    plan.add("out", "sink", inputs=["imp"])
    plan.nodes["out"].params["injections"] = (
        (1, assumed(Pattern.of(SENSOR, ts=C.le(60)))),
    )
    eng = DeterministicEngine(plan, REGISTRY, page_size=10)
    report = eng.run()
    imp = eng.ops["imp"]
    # punctuation [ts<=99] (and later) subsumes the guard [ts<=60]
    assert imp.active_guard_count == 0
    assert report.counters["imp"].guard_drops > 0


# --- pace -------------------------------------------------------------------


def interleave(a, b):
    out = []
    for x, y in zip(a, b):
        out += [x, y]
    return out


def pace_plan(left_rows, right_rows, **pace_params):
    plan = Plan()
    plan.add("a", "source", schema=SENSOR, rows=left_rows)
    plan.add("b", "source", schema=SENSOR, rows=right_rows)
    plan.add("pace", "pace", inputs=["a", "b"], **pace_params)
    plan.add("out", "sink", inputs=["pace"])
    return plan


def test_union_merges_without_dropping():
    a = [(1, t, 50.0) for t in range(0, 40, 2)]
    b = [(2, t, 60.0) for t in range(1, 40, 2)]
    plan = Plan()
    plan.add("a", "source", schema=SENSOR, rows=a)
    plan.add("b", "source", schema=SENSOR, rows=b)
    plan.add("u", "union", inputs=["a", "b"])
    plan.add("out", "sink", inputs=["u"])
    report = run(plan)
    assert sorted(report.outputs["out"], key=lambda r: r[1]) == sorted(
        a + b, key=lambda r: r[1]
    )


def test_pace_drops_rows_beyond_tolerance():
    # branch b lags 50 behind the watermark set by branch a; tolerance 10
    a = [(1, t + 50, 50.0) for t in range(20)]
    b = [(2, t, 60.0) for t in range(20)]
    plan = pace_plan(a, b, tolerance=10)
    eng = DeterministicEngine(plan, REGISTRY, page_size=5, feedback_enabled=False)
    report = eng.run()
    pace = eng.ops["pace"]
    assert pace.late_counts[1] > 0
    for row in report.outputs["out"]:
        assert row[0] == 1 or row[1] >= 50 + 19 - 10 - 20  # b rows that squeaked in


def test_pace_sends_upstream_feedback_at_lagging_input():
    a = [(1, t, 50.0) for t in range(200, 400)]
    b = [(2, t, 60.0) for t in range(0, 200)]
    plan = pace_plan(a, b, tolerance=20)
    report = run(plan, page_size=10)
    sent = [k for k, _, _ in report.feedback_log]
    assert any(k.startswith("b.") for k in sent)
    assert not any(k.startswith("a.") for k in sent)
    # pattern shape: timestamp upper bound, value wildcard
    _, intent, text = report.feedback_log[0]
    assert intent == "assumed"
    assert "<=" in text and "*" in text


def test_pace_keeps_each_input_at_its_highest_timestamp():
    pace = REGISTRY["pace"]("p", (SENSOR, SENSOR), {"tolerance": 20, "throttle": 1})
    out, sent = [], []
    pace.emit = lambda item, port=0: out.append(item)
    pace.send_feedback = lambda input_index, fb: sent.append(input_index)
    pace.process_item(1, (2, 90, 60.0))
    pace.process_item(1, (2, 10, 60.0))  # late, and behind its own input
    pace.process_item(0, (1, 100, 50.0))
    # input 1 has reached 90, past every bound declared so far (70, 80):
    # no input lags, so no feedback is sent
    assert sent == []
    assert out == [(2, 90, 60.0), (1, 100, 50.0)]
    assert pace.late_counts == [0, 1] and pace.in_totals == [1, 2]


def test_pace_merges_punctuation_at_minimum():
    a = [(1, t, 50.0) for t in range(100)]
    b = [(2, t, 60.0) for t in range(50)]
    plan = Plan()
    plan.add("a", "source", schema=SENSOR, rows=a, punct_interval=25)
    plan.add("b", "source", schema=SENSOR, rows=b, punct_interval=25)
    plan.add("u", "union", inputs=["a", "b"])
    plan.add("out", "sink", inputs=["u"])
    report = run(plan)
    eng_puncts = report.counters["out"].puncts_in
    assert eng_puncts >= 1
    # merged punctuation never exceeds the slower branch's bound (49)
    # the last merged bound must be exactly min(99, 49) = 49
    # (bounds are recovered from the sink's collected punctuation)


# --- window aggregates ------------------------------------------------------


def agg_plan(kind, data, punct_interval=60, **params):
    plan = Plan()
    plan.add("src", "source", schema=SENSOR, rows=data, punct_interval=punct_interval)
    plan.add("agg", kind, inputs=["src"], range_seconds=60, **params)
    plan.add("out", "sink", inputs=["agg"])
    return plan


def test_count_per_group_window():
    data = [(d, t, 50.0) for t in range(120) for d in (1, 2)]
    report = run(agg_plan("count", data, group_by=("det",)))
    assert sorted(report.outputs["out"]) == [
        (0, 1, 60),
        (0, 2, 60),
        (60, 1, 60),
        (60, 2, 60),
    ]


def test_sum_average_max_results():
    data = [(1, t, float(t % 4)) for t in range(120)]
    got_sum = run(agg_plan("sum", data, value="speed")).outputs["out"]
    got_avg = run(agg_plan("average", data, value="speed")).outputs["out"]
    got_max = run(agg_plan("max", data, value="speed")).outputs["out"]
    assert got_sum == [(0, 90.0), (60, 90.0)]
    assert got_avg == [(0, 1.5), (60, 1.5)]
    assert got_max == [(0, 3.0), (60, 3.0)]


def test_windows_close_on_punctuation_not_only_at_end():
    data = [(1, t, 1.0) for t in range(180)]
    plan = agg_plan("count", data, punct_interval=60)
    report = run(plan, page_size=30, trace_pages=True)
    # output punctuation accompanies closed windows
    assert report.counters["agg"].puncts_out >= 2
    assert sorted(report.outputs["out"]) == [(0, 60), (60, 60), (120, 60)]


def test_aggregate_emits_output_punctuation_on_window_attr():
    data = [(1, t, 1.0) for t in range(120)]
    plan = agg_plan("count", data)
    eng = DeterministicEngine(plan, REGISTRY)
    eng.run()
    sink = eng.ops["out"]
    puncts = [i for i in sink.collected if is_punct(i)]
    assert puncts, "aggregate must re-punctuate its output"
    out_schema = eng.ops["agg"].out_schema
    for p in puncts:
        assert p.pattern.schema == out_schema
        # bound on the window attribute only
        assert p.pattern.constrained_indices() == (0,)


def test_null_values_ignored_by_value_aggregates():
    data = [(1, 0, 10.0), (1, 1, None), (1, 2, 20.0)]
    got = run(agg_plan("average", data, value="speed")).outputs["out"]
    assert got == [(0, 15.0)]


# --- join -------------------------------------------------------------------

LEFT = Schema(
    "L", (("lk", AttrType.INT), ("lt", AttrType.TIMESTAMP), ("lv", AttrType.INT)), 1
)
RIGHT = Schema(
    "R", (("rk", AttrType.INT), ("rt", AttrType.TIMESTAMP), ("rv", AttrType.INT)), 1
)


def join_plan(left_rows, right_rows, **join_params):
    plan = Plan()
    plan.add("l", "source", schema=LEFT, rows=left_rows, punct_interval=50)
    plan.add("r", "source", schema=RIGHT, rows=right_rows, punct_interval=50)
    plan.add("j", "join", inputs=["l", "r"], **join_params)
    plan.add("out", "sink", inputs=["j"])
    return plan


def test_equi_join_matches():
    left = [(k, 0, 100 + k) for k in range(5)]
    right = [(k, 0, 200 + k) for k in range(3)]
    report = run(join_plan(left, right, on=(("lk", "rk"),)))
    got = sorted(report.outputs["out"])
    assert got == [(k, 0, 100 + k, 0, 200 + k) for k in range(3)]


def test_windowed_join_requires_same_window():
    left = [(1, 10, 7)]
    right = [(1, 10, 8), (1, 75, 9)]  # second falls in the next 60s window
    report = run(join_plan(left, right, on=(("lk", "rk"),), window=60))
    assert report.outputs["out"] == [(1, 10, 7, 10, 8)]


def test_windowed_join_purges_on_punctuation():
    left = [(k % 3, t, 0) for t, k in zip(range(200), range(200))]
    right = [(k % 3, t, 1) for t, k in zip(range(200), range(200))]
    plan = join_plan(left, right, on=(("lk", "rk"),), window=60)
    eng = DeterministicEngine(plan, REGISTRY, page_size=20)
    eng.run()
    # the closing punctuation covers every buffered row: tables end empty
    j = eng.ops["j"]
    remaining = sum(len(v) for tab in j.tables for v in tab.values())
    assert remaining == 0


def test_join_output_schema_drops_duplicate_keys():
    plan = join_plan([(1, 0, 5)], [(1, 0, 6)], on=(("lk", "rk"),))
    eng = DeterministicEngine(plan, REGISTRY)
    out_schema = eng.ops["j"].out_schema
    assert out_schema.attr_names == ("lk", "lt", "lv", "rt", "rv")
