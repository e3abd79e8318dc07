"""Engine behavior: paging, backpressure, determinism, control channel,
plan-build errors and failing operators."""

import sys
import threading
import time

import pytest

from punctstream.core import AttrType, Constraint, Pattern, Schema, assumed, is_punct
from punctstream.operators import REGISTRY, Source
from punctstream.runtime import (
    ConcurrentEngine,
    DeterministicEngine,
    Plan,
    PlanError,
    RunError,
)

C = Constraint

SCHEMA = Schema(
    "reading", (("ts", AttrType.TIMESTAMP), ("datavalue", AttrType.INT)), 0
)


def rows(n, start=0):
    return [(start + i, i % 10) for i in range(n)]


def linear_plan(n=250, punct_interval=None, predicate="true", **select_params):
    plan = Plan()
    plan.add("src", "source", schema=SCHEMA, rows=rows(n), punct_interval=punct_interval)
    plan.add("sel", "select", inputs=["src"], predicate=predicate, **select_params)
    plan.add("out", "sink", inputs=["sel"])
    return plan


def test_linear_plan_delivers_all_rows():
    eng = DeterministicEngine(linear_plan(250), REGISTRY)
    report = eng.run()
    assert report.outputs["out"] == rows(250)


def test_select_filters():
    eng = DeterministicEngine(linear_plan(100, predicate="datavalue >= 5"), REGISTRY)
    report = eng.run()
    assert report.outputs["out"] == [r for r in rows(100) if r[1] >= 5]
    c = report.counters["sel"]
    assert c.tuples_in == 100 and c.tuples_out == 50


def test_punctuation_interleaved_and_counted():
    # 60 seconds of data with punct_interval=20: two interior boundary
    # punctuations plus the closing one
    eng = DeterministicEngine(linear_plan(60, punct_interval=20), REGISTRY)
    report = eng.run()
    assert report.counters["src"].puncts_out == 3
    assert report.counters["sel"].puncts_in == 3
    assert report.counters["sel"].puncts_out == 3


def test_pages_flush_on_punctuation_or_capacity():
    eng = DeterministicEngine(
        linear_plan(250, punct_interval=35), REGISTRY, page_size=50, trace_pages=True
    )
    report = eng.run()
    assert report.page_log
    for key, size, has_punct, capacity in report.page_log:
        assert size <= capacity
        # the flush rule: a page leaves the buffer only full or punctuated
        # (or at stream end)
    non_final = report.page_log[:-1]
    # every undersized page before stream end must carry punctuation
    for key, size, has_punct, capacity in non_final:
        if key.startswith("src.") and size < capacity:
            assert has_punct


def test_double_run_is_byte_identical():
    def make():
        plan = Plan()
        plan.add("src", "source", schema=SCHEMA, rows=rows(777), punct_interval=13)
        plan.add("sel", "select", inputs=["src"], predicate="datavalue < 7")
        plan.add("agg", "count", inputs=["sel"], range_seconds=60)
        plan.add("out", "sink", inputs=["agg"])
        return DeterministicEngine(plan, REGISTRY, page_size=32)

    assert make().run().to_bytes() == make().run().to_bytes()


def test_backpressure_bounds_queue_depth():
    eng = DeterministicEngine(
        linear_plan(2000), REGISTRY, page_size=10, queue_pages=3, trace_pages=True
    )
    report = eng.run()
    assert report.outputs["out"] == rows(2000)
    # depth is enforced during the run: with capacity 3 pages of 10, the
    # producer can never run more than 30 items ahead of the consumer
    assert report.counters["src"].tuples_out == 2000


def test_feedback_reaches_upstream_and_installs_guard():
    plan = linear_plan(500, punct_interval=50)
    plan.nodes["out"].params["injections"] = (
        (10, assumed(Pattern.of(SCHEMA, datavalue=C.eq(3)))),
    )
    eng = DeterministicEngine(plan, REGISTRY, page_size=20)
    report = eng.run()
    assert report.counters["out"].feedback_sent == 1
    assert report.counters["sel"].feedback_received == 1
    # select relays the identity-mapped pattern toward the source
    assert report.counters["sel"].feedback_sent == 1
    assert report.counters["sel"].guard_drops > 0
    assert any("out" in key for key, _, _ in report.feedback_log)
    out_rows = report.outputs["out"]
    # every emitted row before injection is kept; after the guard lands no
    # datavalue=3 rows appear
    tail = out_rows[-100:]
    assert all(r[1] != 3 for r in tail)


def test_feedback_disabled_engine_drops_messages():
    plan = linear_plan(500, punct_interval=50)
    plan.nodes["out"].params["injections"] = (
        (10, assumed(Pattern.of(SCHEMA, datavalue=C.eq(3)))),
    )
    eng = DeterministicEngine(plan, REGISTRY, feedback_enabled=False)
    report = eng.run()
    assert report.counters["out"].feedback_sent == 0
    assert report.counters["sel"].feedback_received == 0
    assert report.outputs["out"] == rows(500)


def test_unconnected_output_rejected():
    plan = Plan()
    plan.add("src", "source", schema=SCHEMA, rows=rows(10))
    with pytest.raises(PlanError):
        DeterministicEngine(plan, REGISTRY)


@pytest.mark.parametrize(
    "node, kind, params, named",
    [
        ("sel", "select", {"predicat": "true"}, "'predicat'"),
        ("src", "source", {"punct_interval": "abc"}, "'punct_interval'"),
        ("src", "source", {"punct_interval": 0}, "punct_interval"),
        ("sel", "mystery", {}, "'mystery'"),
    ],
    ids=["unknown-parameter", "wrong-type", "bad-value", "unknown-kind"],
)
def test_plan_build_error_names_the_node(node, kind, params, named):
    plan = linear_plan(10)
    plan.nodes[node].kind = kind
    plan.nodes[node].params.update(params)
    with pytest.raises(PlanError) as exc:
        DeterministicEngine(plan, REGISTRY)
    assert f"{node!r}" in str(exc.value) and named in str(exc.value)


def test_cycle_rejected():
    plan = Plan()
    plan.add("a", "select", inputs=["b"])
    plan.add("b", "select", inputs=["a"])
    with pytest.raises(PlanError):
        plan.topo_order()


def test_final_flush_delivers_partial_page():
    # 7 rows with page size 100: everything still arrives
    eng = DeterministicEngine(linear_plan(7), REGISTRY, page_size=100)
    assert eng.run().outputs["out"] == rows(7)


def test_concurrent_engine_same_rows():
    plan = linear_plan(400, punct_interval=37, predicate="datavalue >= 2")
    report = ConcurrentEngine(plan, REGISTRY, page_size=16, queue_pages=2).run()
    expected = [r for r in rows(400) if r[1] >= 2]
    assert report.outputs["out"] == expected


def test_concurrent_engine_stress_delivers_everything():
    # more threads than cores, one-page queues and a short switch interval:
    # a lost wakeup hangs the run, a lost update loses or reorders rows
    plan = Plan()
    plan.add("src", "source", schema=SCHEMA, rows=rows(5000), punct_interval=7)
    prev = "src"
    for i in range(6):
        plan.add(f"s{i}", "select", inputs=[prev], predicate="datavalue >= 0")
        prev = f"s{i}"
    plan.add("out", "sink", inputs=[prev])
    eng = ConcurrentEngine(plan, REGISTRY, page_size=4, queue_pages=1)
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread = threading.Thread(target=lambda: reports.append(eng.run()), daemon=True)
        thread.start()
        thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive(), "run() still running"
    assert reports[0].outputs["out"] == rows(5000)


def test_concurrent_engine_feedback():
    plan = linear_plan(800, punct_interval=50)
    plan.nodes["out"].params["injections"] = (
        (5, assumed(Pattern.of(SCHEMA, datavalue=C.eq(4)))),
    )
    report = ConcurrentEngine(plan, REGISTRY, page_size=8, queue_pages=2).run()
    assert report.counters["sel"].feedback_received == 1
    kept = report.outputs["out"]
    # containment: everything delivered is from the full output, and
    # nothing outside the feedback subset is missing
    full = rows(800)
    dropped = [r for r in full if r not in kept]
    assert all(r[1] == 4 for r in dropped)


@pytest.mark.parametrize("failing", ["sel", "out"])
@pytest.mark.parametrize("engine_cls", [DeterministicEngine, ConcurrentEngine])
def test_failing_operator_ends_the_run(engine_cls, failing):
    # enough rows that every queue upstream of the failure fills up
    eng = engine_cls(linear_plan(200_000), REGISTRY, page_size=10, queue_pages=2)
    op = eng.ops[failing]
    process_item = op.process_item

    def fail_at_row_1000(input_index, item):
        if not is_punct(item) and item[0] == 1000:
            # on the concurrent engine, fail once the producer has filled
            # the queue into this operator, so that it must wait for room
            edge = eng.in_edges[failing][0]
            deadline = time.monotonic() + 5
            while (
                engine_cls is ConcurrentEngine
                and len(edge.pages) < edge.capacity_pages
                and time.monotonic() < deadline
            ):
                time.sleep(0.001)
            raise ValueError("boom")
        process_item(input_index, item)

    op.process_item = fail_at_row_1000
    raised = []

    def run():
        try:
            eng.run()
        except RunError as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=9)
    assert not thread.is_alive(), "run() still running"
    assert [str(e) for e in raised] == [f"operator {failing!r} failed: boom"]
