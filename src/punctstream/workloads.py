"""Seeded random workloads for containment checking.

Each workload is a small plan (source(s) -> one operator under test ->
sink) with randomly shaped feedback injections.  Running it through the
oracle (feedback off, then on) checks the containment property end to
end: no operator/pattern combination may invent rows or lose rows outside
the feedback subset.
"""

from __future__ import annotations

import random
from typing import Callable, Tuple

from punctstream.core import AttrType, Constraint, Pattern, Schema, assumed
from punctstream.generators import READING_SCHEMA, round_tenths
from punctstream.operators import FEEDBACK_LEVELS, REGISTRY
from punctstream.oracle import OracleResult, oracle_check
from punctstream.runtime import Plan

C = Constraint

KINDS = ("select", "count", "sum", "average", "max", "join", "pace")


def _reading_rows(rng: random.Random, n: int):
    randrange, rand = rng.randrange, rng.random
    # the speed is round(rng.uniform(10.0, 70.0), 1), written out
    return [
        (randrange(4), ts, None if rand() < 0.1 else round_tenths(10.0 + 60.0 * rand()))
        for ts in range(n)
    ]


def _input_pattern(rng: random.Random, schema: Schema, n: int) -> Pattern:
    """Random pattern over (det, ts, speed)-shaped schemas."""
    by = {}
    if rng.random() < 0.5:
        by["det"] = C.eq(rng.randrange(4))
    if rng.random() < 0.5:
        t = rng.randrange(n)
        by["ts"] = rng.choice([C.le(t), C.ge(t), C.interval(t, t + rng.randrange(1, 60))])
    if rng.random() < 0.4:
        v = round(rng.uniform(10.0, 70.0), 1)
        by["speed"] = rng.choice([C.ge(v), C.lt(v)])
    if not by:
        by["det"] = C.eq(rng.randrange(4))
    return Pattern.of(schema, **by)


def _agg_pattern(rng: random.Random, out: Schema, kind: str, n: int) -> Pattern:
    shape = rng.choice(["group", "window", "agg", "window+group", "mixed"])
    by = {}
    if "group" in shape and "det" in out.attr_names:
        by["det"] = C.eq(rng.randrange(4))
    if "window" in shape:
        w = rng.randrange(n + 60)
        by["win"] = rng.choice(
            [C.le(w), C.eq((w // 60) * 60), C.eq(w), C.interval(w, w + rng.randrange(1, 180))]
        )
    agg_attr = out.attr_names[-1]
    if shape in ("agg", "mixed"):
        if kind == "count":
            v = rng.randrange(1, 80)
            by[agg_attr] = rng.choice([C.ge(v), C.le(v), C.eq(v)])
        else:
            v = round(rng.uniform(10.0, 70.0), 1)
            by[agg_attr] = rng.choice([C.ge(v), C.le(v)])
    if not by:
        by["win"] = C.le(rng.randrange(n))
    return Pattern.of(out, **by)


def _injections(rng: random.Random, make_pattern) -> tuple:
    return tuple(
        (rng.randrange(0, 15), assumed(make_pattern()))
        for _ in range(rng.randrange(1, 3))
    )


def random_workload(seed: int) -> Tuple[Callable[[], Plan], dict, str]:
    """Returns (make_plan, engine kwargs, description)."""
    rng = random.Random(seed)
    kind = rng.choice(KINDS)
    n = rng.randrange(30, 201)
    page_size = rng.choice([10, 25, 50])
    punct_interval = rng.choice([10, 25, 50])
    engine_kw = {"page_size": page_size}
    rows = _reading_rows(rng, n)

    if kind == "select":
        pred = rng.choice(["true", "speed >= 30", "det != 2", "speed != null"])
        inj = _injections(rng, lambda: _input_pattern(rng, READING_SCHEMA, n))

        def make():
            plan = Plan()
            plan.add("src", "source", schema=READING_SCHEMA, rows=rows,
                     punct_interval=punct_interval)
            plan.add("op", "select", inputs=["src"], predicate=pred)
            plan.add("out", "sink", inputs=["op"], injections=inj)
            return plan

        return make, engine_kw, f"select n={n} pred={pred!r}"

    if kind in ("count", "sum", "average", "max"):
        group = rng.choice([(), ("det",)])
        params = {"range_seconds": 60, "group_by": group,
                  "feedback": rng.choice(FEEDBACK_LEVELS)}
        if kind != "count":
            params["value"] = "speed"
        if kind == "sum" and rng.random() < 0.5:
            params["sum_nonneg"] = True

        def base_plan(injections=()):
            plan = Plan()
            plan.add("src", "source", schema=READING_SCHEMA, rows=rows,
                     punct_interval=punct_interval)
            plan.add("op", kind, inputs=["src"], **params)
            plan.add("out", "sink", inputs=["op"], injections=injections)
            return plan

        out = REGISTRY[kind]("op", (READING_SCHEMA,), params).out_schema
        inj = _injections(rng, lambda: _agg_pattern(rng, out, kind, n))
        return (
            lambda: base_plan(inj),
            engine_kw,
            f"{kind} n={n} group={group} feedback={params['feedback']}",
        )

    if kind == "join":
        left_schema = Schema(
            "L", (("a", AttrType.INT), ("t", AttrType.TIMESTAMP), ("id", AttrType.INT)), 1
        )
        right_schema = Schema(
            "R", (("rt", AttrType.TIMESTAMP), ("id", AttrType.INT), ("b", AttrType.INT)), 0
        )
        left = [(50 + (i % 7), i, i % 3) for i in range(n)]
        right = [(i, i % 3, 50 + (i % 5)) for i in range(n)]
        windowed = rng.random() < 0.5
        join_params = {"on": (("id", "id"),)}
        if windowed:
            join_params["window"] = 60

        def base_plan(injections=()):
            plan = Plan()
            plan.add("l", "source", schema=left_schema, rows=left,
                     punct_interval=punct_interval)
            plan.add("r", "source", schema=right_schema, rows=right,
                     punct_interval=punct_interval)
            plan.add("op", "join", inputs=["l", "r"], **join_params)
            plan.add("out", "sink", inputs=["op"], injections=injections)
            return plan

        out = REGISTRY["join"]("op", (left_schema, right_schema), join_params).out_schema

        def join_pattern():
            by = {}
            if rng.random() < 0.5:
                by["id"] = C.eq(rng.randrange(3))
            if rng.random() < 0.5:
                by["a"] = C.eq(50 + rng.randrange(7))
            if rng.random() < 0.4:
                by["b"] = C.eq(50 + rng.randrange(5))
            if rng.random() < 0.3:
                t = rng.randrange(n)
                by["t"] = rng.choice([C.le(t), C.ge(t)])
            if not by:
                by["id"] = C.eq(rng.randrange(3))
            return Pattern.of(out, **by)

        inj = _injections(rng, join_pattern)
        return (
            lambda: base_plan(inj),
            engine_kw,
            f"join n={n} windowed={windowed}",
        )

    # pace: one branch lags; the operator itself originates the feedback.
    # Late rows are not dropped here — enforcement changes what counts as
    # late between the two runs, which is outside what containment can
    # compare — so the feedback/guard path is what is under test.
    lag = rng.randrange(20, 80)
    tolerance = rng.randrange(5, 30)
    a_rows = [(0, lag + i, 50.0) for i in range(n)]
    b_rows = [(1, i, 60.0) for i in range(n)]

    def make():
        plan = Plan()
        plan.add("a", "source", schema=READING_SCHEMA, rows=a_rows,
                 punct_interval=punct_interval)
        plan.add("b", "source", schema=READING_SCHEMA, rows=b_rows,
                 punct_interval=punct_interval)
        plan.add("sa", "select", inputs=["a"])
        plan.add("sb", "select", inputs=["b"])
        plan.add("op", "pace", inputs=["sa", "sb"], tolerance=tolerance,
                 enforce=False)
        plan.add("out", "sink", inputs=["op"])
        return plan

    return make, engine_kw, f"pace n={n} lag={lag} tol={tolerance}"


def check_workload(seed: int) -> Tuple[OracleResult, str]:
    make_plan, engine_kw, desc = random_workload(seed)
    return oracle_check(make_plan, REGISTRY, **engine_kw), desc
