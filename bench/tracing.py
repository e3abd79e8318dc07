"""Span tracing for the traced benchmark run, applied from outside the program.

``install`` wraps the punctstream functions and methods that form each layer
boundary, at the place where the running code looks them up:

- ``Pattern.matcher`` (class attribute): each closure it returns is wrapped,
  because the closures capture ``Constraint.matches_value`` when built;
- ``punctstream.core.subsumes``: ``GuardSet.expire`` imports it from
  ``punctstream.core`` on every call;
- ``punctstream.propagation.conjoin`` and
  ``punctstream.operators.derive_input_patterns``: bound into those modules
  when they are imported;
- ``GuardSet``, ``WindowAggregate``, ``Join`` and both engines: methods on
  the class; operators are wrapped per instance when an engine is built;
- ``punctstream.oracle.def1_check`` and ``punctstream.experiments.reading_rows``:
  module globals looked up by ``oracle_check`` and ``imputation_plan``.

Each wrapper records a span (name, parent, start, end) on a per-thread
stack, so the concurrent engine's operator threads are covered too.  Spans
are aggregated as they close, per (name, parent name): count, total time and
self time, where self time is the duration minus the time covered by child
spans.  The first ``SPAN_CAP`` raw spans of each thread are also kept in
memory and written out when the repetition ends.  The patches last for the
life of the process, which runs one repetition.
"""

from __future__ import annotations

import json
import threading
import time

SPAN_CAP = 20_000

# Plan node ids of every workload.  Per-node metrics are reported for each,
# zero where the workload's plan has no such node, so that every workload
# reports the same metric names.
NODES = (
    "src", "filter", "avg", "out",                # zoom
    "split", "impute", "merge",                   # impute-lag
    "op", "l", "r", "a", "b", "sa", "sb",         # containment sweep
)

_COUNTERS = ("tuples_in", "guard_drops", "state_purged")


class _ThreadState:
    __slots__ = ("thread", "stack", "stats", "counts", "highs", "spans")

    def __init__(self, thread: str):
        self.thread = thread
        self.stack = []   # open spans: [name, start_ns, child_ns]
        self.stats = {}   # (name, parent name) -> [count, total_ns, self_ns]
        self.counts = {}  # counter name -> sum
        self.highs = {}   # counter name -> maximum
        self.spans = []   # raw spans: (name, parent name, start_ns, end_ns)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState(threading.current_thread().name)
            self._local.state = st
            self._states.append(st)
            return st

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        state = self._state
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [name, 0, 0]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                pname = None
                if parent is not None:
                    parent[2] += dur
                    pname = parent[0]
                agg = st.stats.get((name, pname))
                if agg is None:
                    agg = st.stats[(name, pname)] = [0, 0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
                if len(st.spans) < SPAN_CAP:
                    st.spans.append((name, pname, start, end))

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def add(self, counter: str, n=1) -> None:
        counts = self._state().counts
        counts[counter] = counts.get(counter, 0) + n

    def inside_operator(self) -> bool:
        """True when an operator span is open on this thread."""
        return any(_is_op_span(f[0]) for f in self._state().stack)

    def high(self, counter: str, value) -> None:
        highs = self._state().highs
        if value > highs.get(counter, 0):
            highs[counter] = value

    def merged(self):
        """(stats, counts, highs) summed over threads."""
        stats, counts, highs = {}, {}, {}
        for st in list(self._states):
            for key, (n, total, self_ns) in list(st.stats.items()):
                agg = stats.setdefault(key, [0, 0, 0])
                agg[0] += n
                agg[1] += total
                agg[2] += self_ns
            for k, v in list(st.counts.items()):
                counts[k] = counts.get(k, 0) + v
            for k, v in list(st.highs.items()):
                highs[k] = max(highs.get(k, 0), v)
        return stats, counts, highs

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for st in list(self._states):
                for name, parent, start, end in list(st.spans):
                    f.write(json.dumps({
                        "thread": st.thread, "name": name, "parent": parent,
                        "start_ns": start, "end_ns": end,
                    }) + "\n")


class NullTracer:
    """Stands in for ``Tracer`` on untraced repetitions."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary named in the module docstring."""
    import punctstream.core as core
    import punctstream.experiments as experiments
    import punctstream.operators as operators
    import punctstream.oracle as oracle
    import punctstream.propagation as propagation
    import punctstream.runtime as runtime

    wrap = tracer.wrap

    # -- core ------------------------------------------------------------
    make_matcher = core.Pattern.matcher

    def matcher(self):
        return wrap("core.matcher", make_matcher(self))

    core.Pattern.matcher = matcher
    core.subsumes = wrap("core.subsumes", core.subsumes)
    propagation.conjoin = wrap("core.conjoin", propagation.conjoin)

    # -- propagation -----------------------------------------------------
    traced_derive = wrap("propagation.derive", operators.derive_input_patterns)

    def derive_input_patterns(f, m):
        out = traced_derive(f, m)
        if all(p is None for p in out):
            tracer.add("derive_refused")
        return out

    operators.derive_input_patterns = derive_input_patterns

    # -- operators -------------------------------------------------------
    guards = operators.GuardSet
    traced_drop = wrap("operators.guard_drop", guards.drop)
    add_guard = guards.add

    def drop(self, row):
        hit = traced_drop(self, row)
        if hit:
            tracer.add("guard_hits")
        return hit

    def add(self, pattern):
        added = add_guard(self, pattern)
        tracer.high("guards", len(self))
        return added

    guards.drop = drop
    guards.add = add
    guards.expire = wrap("operators.guard_expire", guards.expire)

    agg = operators.WindowAggregate
    traced_close = wrap("operators.window_close", agg._close_windows)

    def close_windows(self, ts_bound):
        tracer.add("open_windows", len(self.state))
        return traced_close(self, ts_bound)

    agg._close_windows = close_windows
    operators.Join._advance_bound = wrap(
        "operators.join_expire", operators.Join._advance_bound
    )

    # -- runtime ---------------------------------------------------------
    for engine_cls in (runtime.DeterministicEngine, runtime.ConcurrentEngine):
        _patch_engine(tracer, engine_cls)

    # -- oracle, generators ----------------------------------------------
    oracle.def1_check = wrap("oracle.def1_check", oracle.def1_check)
    experiments.reading_rows = wrap("generators.rows", experiments.reading_rows)


def _patch_engine(tracer: Tracer, engine_cls) -> None:
    wrap = tracer.wrap
    traced_init = wrap("runtime.build", engine_cls.__init__)

    def __init__(self, *args, **kwargs):
        traced_init(self, *args, **kwargs)
        for op in self.ops.values():
            _wrap_operator(tracer, op)

    flush = engine_cls._flush
    traced_flush = wrap("runtime.flush", flush)

    def _flush(self, op, port):
        n = len(self._buffers[(op.id, port)])
        if not n:
            return flush(self, op, port)
        start = time.perf_counter_ns()
        out = traced_flush(self, op, port)
        if tracer.inside_operator():
            # flushes an operator call triggers, at any depth below it
            tracer.add(f"{op.id}.flush_ns", time.perf_counter_ns() - start)
        tracer.add("pages")
        tracer.add("page_items", n)
        tracer.high("queue_pages", len(self.out_edges[op.id][port].pages))
        return out

    run = engine_cls.run
    plain_run = wrap("runtime.run.plain", run)
    feedback_run = wrap("runtime.run.feedback", run)

    def traced_run(self):
        report = (feedback_run if self.feedback_enabled else plain_run)(self)
        tracer.add("control_msgs", len(report.feedback_log))
        for op_id, c in report.counters.items():
            op = self.ops[op_id]
            if not op.is_source:
                tracer.add("items_delivered", c.tuples_in + c.puncts_in)
            for name in _COUNTERS:
                tracer.add(f"{op_id}.{name}", getattr(c, name))
        return report

    engine_cls.__init__ = __init__
    engine_cls._flush = _flush
    engine_cls.run = traced_run
    if hasattr(engine_cls, "_run_op"):
        engine_cls._run_op = wrap("runtime.thread", engine_cls._run_op)


def _is_op_span(name: str) -> bool:
    return name.startswith("node.") or name.startswith("feedback.")


def _wrap_operator(tracer: Tracer, op) -> None:
    """Per-instance spans: ``node.<id>.<class>`` around the data path and
    ``feedback.<id>.<class>`` around ``on_feedback``."""
    base = f"node.{op.id}.{type(op).__name__}"
    methods = ("generate",) if op.is_source else ("process_item", "on_input_end")
    for name in methods + ("finish",):
        setattr(op, name, tracer.wrap(base, getattr(op, name)))
    op.on_feedback = tracer.wrap(
        f"feedback.{op.id}.{type(op).__name__}", op.on_feedback
    )


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from what the tracer has recorded so far."""
    stats, counts, highs = tracer.merged()

    def spans(pred):
        return [(k, v) for k, v in stats.items() if pred(k[0], k[1])]

    def calls(name):
        return sum(v[0] for _, v in spans(lambda n, p: n == name))

    def total_s(pred):
        return sum(v[1] for _, v in spans(pred)) / 1e9

    def self_s(pred):
        return sum(v[2] for _, v in spans(pred)) / 1e9

    def named(name):
        return lambda n, p: n == name

    def ratio(a, b):
        return a / b if b else 0.0

    def node_of(span_name):
        # "node.<id>.<Class>" or "feedback.<id>.<Class>" -> id
        return span_name.split(".")[1]

    checks = calls("operators.guard_drop")
    closes = calls("operators.window_close")
    derives = calls("propagation.derive")
    run_s = total_s(lambda n, p: n.startswith("runtime.run."))
    if calls("runtime.thread"):
        overhead_s = self_s(named("runtime.thread"))
    else:
        overhead_s = self_s(lambda n, p: n.startswith("runtime.run."))
    m = {
        "core.matcher_calls": calls("core.matcher"),
        "core.matcher_s": total_s(named("core.matcher")),
        "core.subsumes_calls": calls("core.subsumes"),
        "core.subsumes_s": total_s(named("core.subsumes")),
        "core.conjoin_calls": calls("core.conjoin"),
        "core.conjoin_s": total_s(named("core.conjoin")),
        "propagation.derive_calls": derives,
        "propagation.derive_s": total_s(named("propagation.derive")),
        "propagation.refused_ratio": ratio(counts.get("derive_refused", 0), derives),
        "operators.guard_checks": checks,
        "operators.guard_scanned_per_check": ratio(
            sum(v[0] for _, v in spans(
                lambda n, p: n == "core.matcher" and p == "operators.guard_drop")),
            checks,
        ),
        "operators.guard_hit_ratio": ratio(counts.get("guard_hits", 0), checks),
        "operators.guard_drop_s": total_s(named("operators.guard_drop")),
        "operators.guards_max": highs.get("guards", 0),
        "operators.guard_expire_calls": calls("operators.guard_expire"),
        "operators.guard_expire_s": total_s(named("operators.guard_expire")),
        "operators.window_close_calls": closes,
        "operators.window_close_s": total_s(named("operators.window_close")),
        "operators.open_windows_per_close": ratio(counts.get("open_windows", 0), closes),
        "operators.join_probe_s": self_s(
            lambda n, p: n.startswith("node.") and n.endswith(".Join")),
        "operators.join_expire_s": total_s(named("operators.join_expire")),
        "operators.feedback_handle_s": total_s(lambda n, p: n.startswith("feedback.")),
    }
    for node in NODES:
        m[f"operators.{node}.self_s"] = self_s(
            lambda n, p: n.startswith("node.") and node_of(n) == node)
        for c in _COUNTERS:
            m[f"operators.{node}.{c}"] = counts.get(f"{node}.{c}", 0)
    pages = counts.get("pages", 0)
    m.update({
        "runtime.pages": pages,
        "runtime.items_per_page": ratio(counts.get("page_items", 0), pages),
        "runtime.flush_s": total_s(named("runtime.flush")),
        "runtime.overhead_ns_per_item": ratio(
            overhead_s * 1e9, counts.get("items_delivered", 0)),
        "runtime.control_msgs": counts.get("control_msgs", 0),
        "runtime.queue_pages_max": highs.get("queue_pages", 0),
        "runtime.build_s": total_s(named("runtime.build")),
    })
    for node in NODES:
        busy = total_s(lambda n, p: _is_op_span(n) and node_of(n) == node)
        busy -= counts.get(f"{node}.flush_ns", 0) / 1e9
        m[f"runtime.busy_share.{node}"] = ratio(busy, run_s)
    m.update({
        "oracle.reference_run_s": total_s(
            lambda n, p: n == "runtime.run.plain" and p == "oracle.check"),
        "oracle.observed_run_s": total_s(
            lambda n, p: n == "runtime.run.feedback" and p == "oracle.check"),
        "oracle.def1_check_s": total_s(named("oracle.def1_check")),
        "generators.rows_s": total_s(named("generators.rows")),
        "workloads.random_workload_s": total_s(named("workloads.random_workload")),
    })
    return m
