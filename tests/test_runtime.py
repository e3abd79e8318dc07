"""Engine behavior: paging, backpressure, determinism, the pinned
deterministic schedule, control channel, plan-build errors, failing
operators and engine lifetime."""

import gc
import hashlib
import itertools
import sys
import threading
import time
import weakref

import pytest

from punctstream.core import (
    AttrType,
    Constraint,
    EmbeddedPunctuation,
    GuardSet,
    Pattern,
    Schema,
    assumed,
    is_punct,
)
from punctstream.experiments import ImputationLagConfig, ZoomConfig, imputation_plan, zoom_plan
from punctstream.generators import ZoomSchedule
from punctstream.operators import REGISTRY, Source
from punctstream.oracle import def1_check
from punctstream.runtime import (
    ConcurrentEngine,
    DeterministicEngine,
    Plan,
    PlanError,
    RunError,
)
from punctstream.workloads import random_workload

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


# sha256 of to_bytes() plus the page log: the schedule of every turn shows in
# the page log, and these values were recorded before the turn loop was
# rewritten around page-local iteration.  The "t0.07" studies run at a
# transfer cost of 0.07 per item, whose sums are not exact in binary, so
# that they pin the order in which work units are added: zoom-propagate
# (with the page log) and, as one hash, the join plans among
# random_workload seeds 0-199, each with feedback off and on, at the
# engine's default quantum (None); recorded before rows were emitted in
# batches.  "zoom-guard" and "zoom-exploit" pin the aggregate's output and
# input guards, and the order in which their checks are charged, at the
# engine's default quantum; recorded before the engine applied the guards.
PINNED_SCHEDULES = {
    ("zoom-propagate", 0.5): "48f91fab32b8b3ade9fd31eeb0db086cf51b081650943362b44017b5df9f2a60",
    ("zoom-propagate", 3): "0886ef4e11644fc69be188813f16e078f45ac77077f7a2c8c6c0d17de7ebc9de",
    ("zoom-propagate", 37): "152f652d58a3dde002b11b6c31424d3e8967cb1e8bb273c0017fbf2a02d84712",
    ("zoom-propagate", 1000): "186e24014655e1bd727cbbfbad695dd4b45a16c56870c332b9c7753f8e0eb4b5",
    ("impute-lag", 0.5): "f77b2c4c35499b627c4f9fec183cfe0521702927211eadef2f85510210769640",
    ("impute-lag", 3): "4a929fd9672ff29e43e5bfb0057d89064543dd5e71830f088f7715eab74c248b",
    ("impute-lag", 37): "4bc263f4a44a87f2ebf76e4e742417082a5b22985c6a814bc305911bd0887ce1",
    ("impute-lag", 1000): "9d416f3f198e6cc3990b466bfb843d44657e0e2f9c54319df72173ff4d939e1d",
    ("zoom-guard", None): "3150f532872de610904f4624935127897a4a9b9065ee22d4fef6b8e58fc598ae",
    ("zoom-exploit", None): "e88c5092e04d953a423e3e89b281e3fe90f08ca619bb762d5dd199aedeeaf17d",
    ("zoom-propagate-t0.07-feedback-off", None):
        "45f60f18b34d7442d995316d25bca6403d7ee7d5ffe33e1b849c9f6daa7793e9",
    ("zoom-propagate-t0.07-feedback-on", None):
        "cb0422f9ba88812431be8e4f04e7b0242b9b5b5a394920d02ae16aadfc91e2aa",
    ("joins-t0.07-feedback-off", None):
        "08960d68e7eb406b11a5caa17e2b00fa2dc96de8a528be3c7d556bf7ef8b0334",
    ("joins-t0.07-feedback-on", None):
        "30ca49944d39bab603182c818de24276d512413dee68067ae562b6b02fe07a03",
}


def _pinned_digest(study, quantum) -> str:
    feedback = not study.endswith("-feedback-off")
    if study.startswith("joins-"):
        digest = hashlib.sha256()
        for seed in range(200):
            make_plan, engine_kw, desc = random_workload(seed)
            if desc.startswith("join "):
                digest.update(DeterministicEngine(
                    make_plan(), REGISTRY, feedback_enabled=feedback,
                    transfer_cost=0.07, **engine_kw,
                ).run().to_bytes())
        return digest.hexdigest()
    if study.startswith("zoom-"):
        cfg = ZoomConfig().scaled(0.01)
        transfer = 0.07 if "-t0.07-" in study else cfg.costs.transfer
        eng = DeterministicEngine(
            zoom_plan(cfg, study.split("-")[1]), REGISTRY, page_size=cfg.page_size,
            quantum=quantum, feedback_enabled=feedback, transfer_cost=transfer,
            trace_pages=True,
        )
        eng.ops["out"].time_injector = ZoomSchedule(
            output_schema=eng.ops["avg"].out_schema,
            segments=cfg.segments,
            interval_seconds=cfg.zoom_interval_seconds,
            duration_seconds=cfg.duration_seconds,
            lead_seconds=cfg.lead_seconds,
        )
    else:
        cfg = ImputationLagConfig(n_rows=3000)
        eng = DeterministicEngine(
            imputation_plan(cfg), REGISTRY, page_size=cfg.page_size,
            quantum=quantum, trace_pages=True,
        )
    report = eng.run()
    return hashlib.sha256(report.to_bytes() + repr(report.page_log).encode()).hexdigest()


@pytest.mark.parametrize(
    "study, quantum", sorted(PINNED_SCHEDULES, key=lambda k: (k[0], k[1] or 0)),
    ids=lambda v: "default" if v is None else None,
)
def test_schedule_is_pinned(study, quantum):
    assert _pinned_digest(study, quantum) == PINNED_SCHEDULES[(study, quantum)]


_FLOOR_TURNS = [(0.07, 7), (0.5, 50), (1.15, 115), (3, 300),
                (0.030000000000000002, 4), (0.07000000000000002, 8), (0.29000000000000004, 30)]


@pytest.mark.parametrize(
    "quantum, longest_turn, guarded",
    [(q, n, False) for q, n in _FLOOR_TURNS] + [(q, n, True) for q, n in _FLOOR_TURNS],
    ids=[f"{q}-{n}" for q, n in _FLOOR_TURNS] + [f"{q}-{n}-dropped" for q, n in _FLOOR_TURNS],
)
def test_zero_cost_turns_end_on_the_item_floor(quantum, longest_turn, guarded):
    # punctuation costs a select and a sink nothing, so only the floor of
    # _MIN_ITEM_COST per item ends their turns: after the fewest items k
    # with k * _MIN_ITEM_COST >= quantum (values recorded from the
    # scheduler that compared max(work, items * _MIN_ITEM_COST)).  So does
    # a row that a guard drops at guard_check_cost 0 before the select sees
    # it: in the guarded case the select's turns end inside one run of
    # dropped rows, paged longer than any turn, and a second source that
    # outlasts the select marks where they end.
    punct = EmbeddedPunctuation(Pattern.of(SCHEMA, ts=C.le(-1)))
    items = []
    for i in range(4):
        items += [(i, 0)] + [punct] * 300
    plan = Plan()
    if guarded:
        items = [(ts, 0) for ts in range(1200)]
        plan.add("tick", "source", schema=SCHEMA, rows=[(ts, 0) for ts in range(5000)])
        plan.add("tock", "sink", inputs=["tick"])
    plan.add("src", "source", schema=SCHEMA, rows=items)
    plan.add("sel", "select", inputs=["src"], eval_cost=0.0)
    plan.add("out", "sink", inputs=["sel"])
    eng = DeterministicEngine(plan, REGISTRY, quantum=quantum, page_size=400 if guarded else 100)
    calls = []
    for op_id in ("sel", "out"):
        op = eng.ops[op_id]

        def record(input_index, item, op_id=op_id, process_item=op.process_item):
            calls.append(op_id)
            process_item(input_index, item)

        op.process_item = record
    if guarded:
        tick, sel = eng.ops["tick"], eng.ops["sel"]

        def generate(budget, generate=tick.generate):
            calls.append("tick")
            generate(budget)

        class RecordingGuards(GuardSet):
            def drop(self, row):
                calls.append("sel")
                return super().drop(row)

        tick.generate = generate
        sel.input_guards = (RecordingGuards(),)
        sel.input_guards[0].add(Pattern.of(SCHEMA, ts=C.ge(0)))
    report = eng.run()
    turns = [(op_id, len(list(run))) for op_id, run in itertools.groupby(calls)]
    assert max(n for op_id, n in turns if op_id == "sel") == longest_turn
    if guarded:
        assert report.counters["sel"].guard_drops == 1200
        assert report.outputs["out"] == []
    else:
        assert max(n for op_id, n in turns if op_id == "out") == longest_turn


def test_feedback_is_delivered_before_the_backpressure_test():
    # c is slow, so b's output queue is full when the sink's feedback,
    # relayed by c, reaches b, and b's input queue is empty.  A turn
    # delivers feedback before it yields to backpressure, so b relays the
    # pattern at once and u's guard drops the matching rows while b's
    # output queue is still full: none of them reach b.
    plan = Plan()
    plan.add("src", "source", schema=SCHEMA, rows=[(i, i % 10) for i in range(300)])
    plan.add("u", "select", inputs=["src"], predicate="datavalue < 5")
    plan.add("b", "select", inputs=["u"], eval_cost=0.01)
    plan.add("c", "select", inputs=["b"], eval_cost=3.0)
    plan.add("out", "sink", inputs=["c"],
             injections=((17, assumed(Pattern.of(SCHEMA, datavalue=C.le(3)))),))
    eng = DeterministicEngine(plan, REGISTRY, page_size=2, queue_pages=2, quantum=3)
    b, b_out, b_in = eng.ops["b"], eng.out_edges["b"][0], eng.in_edges["b"][0]
    queues_at_delivery = []

    def on_feedback(port, fb, on_feedback=b.on_feedback):
        queues_at_delivery.append((len(b_out.pages), len(b_in.pages)))
        on_feedback(port, fb)

    b.on_feedback = on_feedback
    report = eng.run()
    assert report.counters["b"].guard_drops == 0
    assert report.counters["u"].guard_drops > 0
    assert queues_at_delivery == [(b_out.capacity_pages, 0)]


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


def test_sink_counts_rows_as_they_arrive():
    # the engine adds a page's input counts when it takes the page, so the
    # sink keeps its own count: injections fire after exactly their number
    # of rows, and divergence samples carry the 1-based arrival index
    plan = linear_plan(100, punct_interval=30)
    pattern = Pattern.of(SCHEMA, datavalue=C.eq(3))
    plan.nodes["out"].params.update(
        injections=((10, assumed(pattern)), (25, assumed(pattern))),
        record_divergence=True,
    )
    eng = DeterministicEngine(plan, REGISTRY, page_size=20)
    sink = eng.ops["out"]
    arrived_at_send = []
    send = sink.send_feedback

    def record(input_index, fb):
        arrived_at_send.append(sum(1 for i in sink.collected if not is_punct(i)))
        send(input_index, fb)

    sink.send_feedback = record
    report = eng.run()
    assert arrived_at_send == [10, 25]
    indices = [i for i, _ in report.divergence["out"]]
    assert indices == list(range(1, len(report.outputs["out"]) + 1))


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
        ("j", "join", {"window": 0}, "window"),
        ("j", "join", {"window": -60}, "window"),
        ("c", "count", {"feedback": "exploit_propagate"}, "'exploit_propagate'"),
        ("sel", "select", {"feedback_aware": False}, "'feedback_aware'"),
    ],
    ids=[
        "unknown-parameter", "wrong-type", "bad-value", "unknown-kind",
        "join-window-zero", "join-window-negative", "old-feedback-level",
        "removed-parameter",
    ],
)
def test_plan_build_error_names_the_node(node, kind, params, named):
    plan = linear_plan(10)
    # beside the linear chain, a join of two more sources and a count
    plan.add("jl", "source", schema=SCHEMA, rows=rows(10))
    plan.add("jr", "source", schema=SCHEMA, rows=rows(10))
    plan.add("j", "join", inputs=["jl", "jr"], on=(("ts", "ts"), ("datavalue", "datavalue")))
    plan.add("jout", "sink", inputs=["j"])
    plan.add("cs", "source", schema=SCHEMA, rows=rows(10))
    plan.add("c", "count", inputs=["cs"], range_seconds=60)
    plan.add("cout", "sink", inputs=["c"])
    assert DeterministicEngine(plan, REGISTRY).run().outputs["jout"]
    plan.nodes[node].kind = kind
    plan.nodes[node].params.update(params)
    with pytest.raises(PlanError) as exc:
        DeterministicEngine(plan, REGISTRY)
    assert f"{node!r}" in str(exc.value) and named in str(exc.value)


@pytest.mark.parametrize(
    "text, named",
    [(None, "nonexistent"), ("0,1\n1,2,3\n", "expected 2 values")],
    ids=["missing-file", "malformed-row"],
)
def test_stream_file_error_names_the_node(tmp_path, text, named):
    path = tmp_path / "nonexistent.txt"
    if text is not None:
        path.write_text("schema reading(ts:timestamp, datavalue:int)\n" + text)
    plan = Plan()
    plan.add("src", "source", file=str(path))
    plan.add("out", "sink", inputs=["src"])
    with pytest.raises(PlanError) as exc:
        DeterministicEngine(plan, REGISTRY)
    assert "'src'" in str(exc.value) and named in str(exc.value)


@pytest.mark.parametrize(
    "engine_cls, setting, value",
    [
        (DeterministicEngine, "quantum", 0),
        (DeterministicEngine, "quantum", -2.5),
        (DeterministicEngine, "page_size", 0),
        (DeterministicEngine, "queue_pages", 0),
        (ConcurrentEngine, "page_size", 0),
        (ConcurrentEngine, "queue_pages", 0),
    ],
)
def test_engine_settings_fail_at_build(engine_cls, setting, value):
    # in a daemon thread: a concurrent run with no room in its queues hangs
    raised = []

    def build_and_run():
        try:
            engine_cls(linear_plan(20), REGISTRY, **{setting: value}).run()
        except (PlanError, RunError) as exc:
            raised.append(exc)

    thread = threading.Thread(target=build_and_run, daemon=True)
    thread.start()
    thread.join(timeout=9)
    assert not thread.is_alive(), "still running"
    assert len(raised) == 1 and type(raised[0]) is PlanError
    assert setting in str(raised[0])


def test_input_references():
    plan = linear_plan(10)
    plan.nodes["sel"].inputs = ["src.x"]
    with pytest.raises(PlanError) as exc:
        DeterministicEngine(plan, REGISTRY)
    assert "'sel'" in str(exc.value) and "'x'" in str(exc.value)
    plan.nodes["sel"].inputs = ["nowhere.0"]
    with pytest.raises(PlanError, match="unknown input 'nowhere.0'"):
        DeterministicEngine(plan, REGISTRY)
    # a whole reference is tried as a node id first, so ids may hold dots
    plan = Plan()
    plan.add("a.b", "source", schema=SCHEMA, rows=rows(5))
    plan.add("c", "select", inputs=["a.b.0"])
    plan.add("out", "sink", inputs=["c"])
    assert DeterministicEngine(plan, REGISTRY).run().outputs["out"] == rows(5)
    plan.nodes["c"].inputs = ["a.b"]
    assert DeterministicEngine(plan, REGISTRY).run().outputs["out"] == rows(5)


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


def _concurrent_containment(plan: Plan, **engine_kw):
    """Run ``plan`` on the concurrent engine with feedback and check every
    sink's rows against a deterministic run without feedback."""
    reference = DeterministicEngine(plan, REGISTRY, feedback_enabled=False, **engine_kw).run()
    eng = ConcurrentEngine(plan, REGISTRY, **engine_kw)
    report = eng.run()
    for sink_id, rows_ in reference.outputs.items():
        ok, witness = def1_check(rows_, report.outputs[sink_id], eng.ops[sink_id].sent_patterns)
        assert ok, witness
    return report


def test_concurrent_engine_split_port_guard():
    # one-page queues keep the split within a few pages of the dirty
    # branch, so most of the guarded range is still ahead of it
    plan = Plan()
    data = [(t, None if t % 2 else t % 10) for t in range(1000)]
    plan.add("src", "source", schema=SCHEMA, rows=data, punct_interval=50)
    plan.add("split", "split", inputs=["src"])
    plan.add("clean", "sink", inputs=["split.0"])
    plan.add("dirty", "sink", inputs=["split.1"],
             injections=((5, assumed(Pattern.of(SCHEMA, ts=C.le(900)))),))
    report = _concurrent_containment(plan, page_size=4, queue_pages=1)
    assert report.counters["split"].guard_drops > 0
    assert report.counters["split"].feedback_sent == 0
    assert len(report.outputs["clean"]) == 500


def test_concurrent_engine_join_output_guard():
    # a pattern with a conjunct from each side has no input rewrite: the
    # join guards its output
    left_schema = Schema("l", (("a", AttrType.INT), ("lt", AttrType.TIMESTAMP),
                               ("id", AttrType.INT)), 1)
    right_schema = Schema("r", (("rt", AttrType.TIMESTAMP), ("id", AttrType.INT),
                                ("b", AttrType.INT)), 0)
    plan = Plan()
    plan.add("l", "source", schema=left_schema,
             rows=[(50 + i % 7, i, i % 3) for i in range(240)], punct_interval=40)
    plan.add("r", "source", schema=right_schema,
             rows=[(i, i % 3, 50 + i % 9) for i in range(240)], punct_interval=40)
    plan.add("j", "join", inputs=["l", "r"], on=(("id", "id"),))
    plan.add("out", "sink", inputs=["j"])
    out_schema = DeterministicEngine(plan, REGISTRY).ops["j"].out_schema
    plan.nodes["out"].params["injections"] = (
        (5, assumed(Pattern.of(out_schema, a=C.eq(52), b=C.eq(52)))),
    )
    report = _concurrent_containment(plan, page_size=25, queue_pages=1)
    j = report.counters["j"]
    assert j.guard_drops > 0
    assert (j.feedback_sent, j.state_purged) == (0, 0)


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


@pytest.mark.parametrize("run", [False, True], ids=["built", "run"])
@pytest.mark.parametrize("engine_cls", [DeterministicEngine, ConcurrentEngine])
def test_engine_is_freed_without_the_cycle_collector(engine_cls, run):
    gc.collect()
    gc.disable()
    try:
        eng = engine_cls(linear_plan(300, punct_interval=7), REGISTRY, page_size=16)
        if run:
            assert eng.run().outputs["out"] == rows(300)
        ref = weakref.ref(eng)
        del eng
        assert ref() is None
    finally:
        gc.enable()
