"""Execution substrate: the operator contract, plans, and one engine core
with two schedulers.

Operators exchange pages, plain lists of stream items, over one bounded
queue per edge.  Feedback punctuation travels the other way, on each
edge's upstream control channel, and is delivered before pending data.
The engine core wires a plan, pages operator output onto the edges,
carries feedback, and tracks input ends; the two schedulers differ only in
how they run the operators.  Operators are linked to their engine only
while ``run()`` runs: it binds each operator's context and its emitters
when it starts and unlinks them when it ends, so an engine is never kept
alive by a reference cycle through its operators.  An operator emits one
item with ``emit`` and a batch of rows with ``emit_rows(rows, cost)``,
which charges ``cost`` per row and pages the rows exactly as that many
``emit`` calls would.  Every punctuation flushes its page, so a page holds
at most one punctuation, as its last item; the schedulers therefore count
a page's inputs when they take it, not per item.

Operators declare guards, a ``GuardSet`` per input and per output port,
and the engine core applies them.  At intake, in both schedulers, a
punctuation expires its input's guards before the step; a row is charged
``row_cost``, then, while its input's guards are live, ``guard_check_cost``,
and a row they match is counted in ``guard_drops`` instead of stepped.  On
emit, a punctuation expires its port's guards; while they are live, a row
is charged ``guard_check_cost`` and dropped if they match it, and only a
kept row is charged ``emit_rows``'s ``cost``.

When a run starts, each scheduler builds one ``_Turn`` per operator: its
step (``generate`` or ``process_item``) and handlers looked up then, its
output control and page queues, its inputs and where it resumes.  The
deterministic scheduler runs everything on one thread, visiting the
operators of its turn table in topological order round-robin; a finished
operator leaves the table.  Each turn delivers pending feedback first
and yields at once if an output queue is full; then it walks the
operator's pages, taking inputs round-robin a page at a time, until the
operator's work units have grown by the quantum or it has consumed the
fewest items whose floor cost (``_MIN_ITEM_COST`` each) reaches the
quantum.  A page left part-way is resumed on the next turn, so equal
plans and settings replay bit-identically.  The concurrent scheduler runs
one thread per operator with blocking bounded queues; correctness must
not depend on delivery timing.
"""

from __future__ import annotations

import csv
import io
import math
import threading
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from punctstream.core import EmbeddedPunctuation, FeedbackPunctuation, GuardSet, is_punct

DEFAULT_PAGE_SIZE = 100
DEFAULT_QUEUE_PAGES = 8

# budget floor per consumed item, so zero-cost drops still terminate a turn
_MIN_ITEM_COST = 0.01


class PlanError(ValueError):
    """Plan fails validation (bad edge, schema mismatch, cycle, unknown
    kind or parameter, parameter of the wrong type)."""


class RunError(RuntimeError):
    """Execution failed (deadlock, malformed input, a failing operator)."""


@dataclass
class Counters:
    tuples_in: int = 0
    tuples_out: int = 0
    puncts_in: int = 0
    puncts_out: int = 0
    feedback_received: int = 0
    feedback_sent: int = 0
    guard_drops: int = 0
    state_purged: int = 0
    work_units: float = 0.0

    @staticmethod
    def csv_header() -> list:
        return [f.name for f in fields(Counters)]

    def as_row(self) -> list:
        return [getattr(self, f.name) for f in fields(Counters)]


# ---------------------------------------------------------------------------
# Operator contract
# ---------------------------------------------------------------------------


class Operator:
    """Base class; state is private to the instance, interaction goes
    through the runtime context only.  It declares a ``GuardSet`` per
    input and per output port, for ``on_feedback`` to add to, and the work
    units an arriving row (``row_cost``) and a guard test
    (``guard_check_cost``) cost, per kind or, as a plan parameter, per
    instance; the engine applies them."""

    n_outputs = 1
    is_source = False
    row_cost = 0.0
    guard_check_cost = 0.0

    def __init__(self, node_id: str, input_schemas: tuple, output_schemas: tuple):
        self.id = node_id
        self.input_schemas = tuple(input_schemas)
        self.output_schemas = tuple(output_schemas)
        self.counters = Counters()
        self.mapping = None  # AttributeMapping, set by subclasses that relay feedback
        self.input_guards = tuple(GuardSet() for _ in self.input_schemas)
        self.output_guards = tuple(GuardSet() for _ in self.output_schemas)
        self._ctx = None  # the engine, while it runs this operator

    @property
    def active_guard_count(self) -> int:
        return sum(map(len, self.input_guards + self.output_guards))

    # -- engine-facing ------------------------------------------------
    def process_item(self, input_index: int, item) -> None:
        raise NotImplementedError

    def on_feedback(self, output_port: int, fb: FeedbackPunctuation) -> None:
        """Default: feedback-unaware, message discarded, counters unchanged."""

    def on_input_end(self, input_index: int) -> None:
        pass

    def finish(self) -> None:
        """All inputs ended: flush remaining state."""

    # -- helpers for subclasses ---------------------------------------
    def emit(self, item, port: int = 0) -> None:
        """Queue ``item`` on output ``port``, unless it is a row that the
        port's guards drop.  A running engine replaces this per instance
        with an emitter bound to its output buffers."""
        raise RunError(f"operator {self.id!r} emits outside a run")

    def emit_rows(self, rows: list, cost: float, port: int = 0) -> None:
        """Emit each row, as that many ``emit`` calls would, in the same
        order, charging ``cost`` work units for each row the port's guards
        keep; bound per run like ``emit``."""
        raise RunError(f"operator {self.id!r} emits outside a run")

    def send_feedback(self, input_index: int, fb: FeedbackPunctuation) -> None:
        self._ctx.send_feedback(self, input_index, fb)


class SourceOperator(Operator):
    """Sources produce items on demand instead of consuming inputs."""

    is_source = True

    def __init__(self, node_id, output_schema):
        super().__init__(node_id, (), (output_schema,))
        self.exhausted = False

    def generate(self, budget: float) -> None:
        """Emit items worth at most ``budget`` work units; set
        ``self.exhausted`` when done."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Plan graph
# ---------------------------------------------------------------------------


@dataclass
class OperatorNode:
    id: str
    kind: str
    params: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)  # "node_id" or "node_id.port"


class Plan:
    def __init__(self):
        self.nodes: Dict[str, OperatorNode] = {}

    def add(self, node_id: str, kind: str, inputs=(), **params) -> "Plan":
        if node_id in self.nodes:
            raise PlanError(f"duplicate node id {node_id!r}")
        self.nodes[node_id] = OperatorNode(node_id, kind, dict(params), list(inputs))
        return self

    def topo_order(self) -> list:
        indeg = {n: 0 for n in self.nodes}
        succs = {n: [] for n in self.nodes}
        for node in self.nodes.values():
            for ref in node.inputs:
                src = _parse_ref(ref, self.nodes, node.id)[0]
                indeg[node.id] += 1
                succs[src].append(node.id)
        order, ready = [], sorted(n for n, d in indeg.items() if d == 0)
        while ready:
            n = ready.pop(0)
            order.append(n)
            for s in succs[n]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
            ready.sort()
        if len(order) != len(self.nodes):
            raise PlanError("plan graph has a cycle")
        return order


def _parse_ref(ref: str, nodes, node_id: str) -> Tuple[str, int]:
    """(producer node, output port) of input reference ``ref`` of node
    ``node_id``: "node" or "node.port".  The whole reference is tried as a
    node id first, so ids may contain dots."""
    if ref in nodes:
        return ref, 0
    name, dot, port = ref.rpartition(".")
    if not dot or name not in nodes:
        raise PlanError(f"node {node_id!r} references unknown input {ref!r}")
    try:
        return name, int(port)
    except ValueError:
        raise PlanError(
            f"node {node_id!r}: input {ref!r} has no output port {port!r}"
        ) from None


class Edge:
    """One producer port to one consumer input: a bounded FIFO of pages plus
    an upstream FIFO of feedback punctuation."""

    __slots__ = (
        "producer", "port", "consumer", "input_index", "schema",
        "pages", "capacity_pages", "eos", "control_up", "key",
    )

    def __init__(self, producer, port, consumer, input_index, schema, capacity_pages):
        self.producer = producer
        self.port = port
        self.consumer = consumer
        self.input_index = input_index
        self.schema = schema
        self.pages = deque()
        self.capacity_pages = capacity_pages
        self.eos = False
        self.control_up = deque()
        self.key = f"{producer}.{port}->{consumer}.{input_index}"


# ---------------------------------------------------------------------------
# Run report
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    outputs: dict          # sink id -> list of output rows
    counters: dict         # op id -> Counters
    feedback_log: list     # (edge key, intent, pattern text)
    divergence: dict       # op id -> list of (arrival index, lag seconds)
    page_log: Optional[list] = None  # (edge key, size, has_punct, capacity)

    def counters_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["operator"] + Counters.csv_header())
        for op_id in sorted(self.counters):
            w.writerow([op_id] + self.counters[op_id].as_row())
        return buf.getvalue()

    def outputs_csv(self, sink_id: Optional[str] = None) -> str:
        if sink_id is None:
            if len(self.outputs) != 1:
                raise ValueError("plan has several sinks; name one")
            sink_id = next(iter(self.outputs))
        buf = io.StringIO()
        w = csv.writer(buf)
        rows = self.outputs[sink_id]
        for row in rows:
            w.writerow(list(row))
        return buf.getvalue()

    def to_bytes(self) -> bytes:
        parts = [self.counters_csv()]
        for sink_id in sorted(self.outputs):
            parts.append(self.outputs_csv(sink_id))
        parts.append(repr(self.feedback_log))
        parts.append(repr(self.divergence))
        return "\n".join(parts).encode()

    def total_work(self) -> float:
        return sum(c.work_units for c in self.counters.values())


# ---------------------------------------------------------------------------
# Engine core, shared by both schedulers
# ---------------------------------------------------------------------------


class _Engine:
    """Wires a plan into operators and edges, pages operator output onto the
    edges and carries feedback back up them.  A subclass supplies the
    scheduler: ``run``, which brackets its work with ``_link`` and
    ``_unlink``, and how a page is handed over (``_put``) and an operator
    woken (``_wake``)."""

    def __init__(
        self,
        plan: Plan,
        registry: dict,
        page_size: int = DEFAULT_PAGE_SIZE,
        queue_pages: int = DEFAULT_QUEUE_PAGES,
        feedback_enabled: bool = True,
        transfer_cost: float = 0.0,
    ):
        if not page_size >= 1:
            raise PlanError(f"page_size must be at least 1, got {page_size!r}")
        if not queue_pages >= 1:
            raise PlanError(f"queue_pages must be at least 1, got {queue_pages!r}")
        self.page_size = page_size
        self.feedback_enabled = feedback_enabled
        self.transfer_cost = transfer_cost
        self.feedback_log: list = []
        self.page_log: Optional[list] = None
        self.order = plan.topo_order()
        nodes = plan.nodes
        self.ops: Dict[str, Operator] = {}
        self.in_edges: Dict[str, list] = {}
        self.out_edges: Dict[str, dict] = {}
        # in topological order every producer exists before its consumers,
        # so each node is built from the schemas of the edges into it
        for node_id in self.order:
            node = nodes[node_id]
            edges = []
            for idx, ref in enumerate(node.inputs):
                src, port = _parse_ref(ref, nodes, node_id)
                producer = self.ops[src]
                if not (0 <= port < producer.n_outputs):
                    raise PlanError(f"edge {src}.{port}->{node_id}: no such output port")
                if port in self.out_edges[src]:
                    raise PlanError(
                        f"output {src}.{port} already connected; queues are one-to-one"
                    )
                edge = Edge(src, port, node_id, idx, producer.output_schemas[port], queue_pages)
                self.out_edges[src][port] = edge
                edges.append(edge)
            kind = registry.get(node.kind)
            if kind is None:
                raise PlanError(f"unknown operator kind {node.kind!r} at node {node_id!r}")
            try:
                op = kind(node_id, tuple(e.schema for e in edges), node.params)
            except (ValueError, KeyError, TypeError, OSError, RunError) as exc:
                # OSError and RunError: a stream file that cannot be read
                raise PlanError(f"node {node_id!r} ({node.kind}): {exc}") from exc
            self.ops[node_id] = op
            self.in_edges[node_id] = edges
            self.out_edges[node_id] = {}
        for node_id, op in self.ops.items():
            missing = [p for p in range(op.n_outputs) if p not in self.out_edges[node_id]]
            if missing:
                raise PlanError(f"node {node_id!r}: unconnected output ports {missing}")
        self._buffers = {
            (op_id, port): []
            for op_id, ports in self.out_edges.items()
            for port in ports
        }

    # -- linking operators for a run -------------------------------------
    def _link(self) -> None:
        """Make every operator's context this engine and bind its emitters."""
        for op in self.ops.values():
            op._ctx = self
            op.emit, op.emit_rows = self._emitters(op)

    def _unlink(self) -> None:
        for op in self.ops.values():
            op._ctx = None
            op.__dict__.pop("emit", None)
            op.__dict__.pop("emit_rows", None)

    def _emitters(self, op: Operator):
        """``op.emit`` and ``op.emit_rows`` for a run.  Both append to the
        ``(op.id, port)`` buffer, count what they append, and flush a full
        page or one that ends in a punctuation through ``self._flush``,
        after applying the port's output guards; ``emit_rows`` charges each
        kept row's cost just before appending it, so work units add up in
        the same order as per-row ``emit`` calls."""
        counters = op.counters
        page_size = self.page_size
        # (buffer, output guards) per port
        ports = [
            (self._buffers[(op.id, port)], op.output_guards[port])
            for port in range(op.n_outputs)
        ]
        check_cost = op.guard_check_cost

        def emit(item, port: int = 0) -> None:
            buf, guards = ports[port]
            if type(item) is not EmbeddedPunctuation:
                if guards:
                    counters.work_units += check_cost
                    if guards.drop(item):
                        counters.guard_drops += 1
                        return
                buf.append(item)
                counters.tuples_out += 1
                if len(buf) >= page_size:
                    self._flush(op, port)
                return
            if guards:
                guards.expire(item.pattern)
            buf.append(item)
            counters.puncts_out += 1
            self._flush(op, port)

        def emit_rows(rows: list, cost: float, port: int = 0) -> None:
            buf, guards = ports[port]
            if guards:
                for row in rows:
                    counters.work_units += check_cost
                    if guards.drop(row):
                        counters.guard_drops += 1
                        continue
                    counters.work_units += cost
                    buf.append(row)
                    counters.tuples_out += 1
                    if len(buf) >= page_size:
                        self._flush(op, port)
                return
            start, n = 0, len(rows)
            while start < n:
                # a buffer holds less than a page, so each pass takes a row
                stop = min(n, start + page_size - len(buf))
                work = counters.work_units
                for _ in range(stop - start):
                    work += cost
                counters.work_units = work
                buf += rows[start:stop]
                counters.tuples_out += stop - start
                start = stop
                if len(buf) >= page_size:
                    self._flush(op, port)

        return emit, emit_rows

    # -- context API ---------------------------------------------------
    def _flush(self, op: Operator, port: int) -> None:
        buf = self._buffers[(op.id, port)]
        if not buf:
            return
        edge = self.out_edges[op.id][port]
        page = buf[:]
        buf.clear()
        self._put(edge, page)
        if self.transfer_cost:
            op.counters.work_units += self.transfer_cost * len(page)
        if self.page_log is not None:
            self.page_log.append((edge.key, len(page), any(map(is_punct, page)), self.page_size))

    def _put(self, edge: Edge, page: list) -> None:
        edge.pages.append(page)

    def _wake(self, op_id: str) -> None:
        """Called after something ``op_id`` may be waiting for has changed."""

    def send_feedback(self, op: Operator, input_index: int, fb: FeedbackPunctuation) -> None:
        if not self.feedback_enabled:
            return
        edge = self.in_edges[op.id][input_index]
        if edge.eos and not edge.pages:
            return  # closed edge: message dropped
        edge.control_up.append(fb)
        op.counters.feedback_sent += 1
        self.feedback_log.append((edge.key, fb.intent.value, fb.pattern.format()))
        self._wake(edge.producer)

    # -- bookkeeping shared by the schedulers ----------------------------
    def _finish(self, op: Operator) -> None:
        """``op`` has no more input: let it flush its state, then close its
        outputs."""
        op.finish()
        for port, edge in self.out_edges[op.id].items():
            self._flush(op, port)
            edge.eos = True
            self._wake(edge.consumer)

    def _report(self) -> RunReport:
        outputs = {}
        divergence = {}
        for op_id, op in self.ops.items():
            if hasattr(op, "collected"):
                outputs[op_id] = [
                    i for i in op.collected if type(i) is not EmbeddedPunctuation
                ]
            if getattr(op, "divergence_series", None):
                divergence[op_id] = list(op.divergence_series)
        return RunReport(
            outputs=outputs,
            counters={op_id: op.counters for op_id, op in self.ops.items()},
            feedback_log=self.feedback_log,
            divergence=divergence,
            page_log=self.page_log,
        )


class _Turn:
    """An operator's scheduling state for one run, built when the run
    starts: its step (``generate`` or ``process_item``) and handlers as
    looked up then, the control and page queues of its outputs, its inputs,
    and where its next turn resumes.  The deterministic scheduler keeps one
    per unfinished operator in its turn table, the concurrent scheduler one
    per operator thread.  A page slice whose input has no live guard goes
    straight to the step unless the operator has a ``row_cost``: guards
    change only in ``on_feedback``, between slices, and on a punctuation,
    which ends its page."""

    __slots__ = (
        "op_id", "op", "is_source", "step", "on_feedback", "on_input_end",
        "controls", "outs", "edges", "open", "rr", "it", "index", "finished",
    )

    def __init__(self, engine: _Engine, op_id: str):
        op = engine.ops[op_id]
        self.op_id = op_id
        self.op = op
        self.is_source = op.is_source
        self.step = op.generate if op.is_source else op.process_item
        self.on_feedback = op.on_feedback
        self.on_input_end = op.on_input_end
        outputs = engine.out_edges[op_id].items()
        self.controls = tuple((port, e.control_up) for port, e in outputs)
        self.outs = tuple((e.pages, e.capacity_pages) for _, e in outputs)
        self.edges = tuple(engine.in_edges[op_id])
        self.open = list(self.edges)  # inputs not yet ended, in input order
        self.rr = 0          # input to take the next page from
        self.it = None       # iterator over the rest of a page left part-way
        self.index = 0       # the input that page came from
        self.finished = False

    def end_inputs(self) -> bool:
        """Tell the operator of each input that has closed and been consumed
        since the last call; True if there was one."""
        ended = [e for e in self.open if e.eos and not e.pages]
        for edge in ended:
            self.open.remove(edge)
            self.on_input_end(edge.input_index)
        return bool(ended)

    def walk(self, page: list, index: int) -> None:
        """Step the operator on ``page`` from input ``index``, charging its
        ``row_cost`` and applying that input's guards (see the module
        docstring); the deterministic scheduler inlines the same loop."""
        op, step = self.op, self.step
        counters, guards = op.counters, op.input_guards[index]
        row_cost, check_cost = op.row_cost, op.guard_check_cost
        for item in page:
            if type(item) is EmbeddedPunctuation:
                if guards:
                    guards.expire(item.pattern)
                step(index, item)
                continue
            counters.work_units += row_cost
            if guards:
                counters.work_units += check_cost
                if guards.drop(item):
                    counters.guard_drops += 1
                    continue
            step(index, item)


def _count_page(counters: Counters, page: list) -> None:
    """Count a page's items as input.  A page ends in its only punctuation,
    if it has one: every punctuation flushes the page it is appended to."""
    if type(page[-1]) is EmbeddedPunctuation:
        counters.puncts_in += 1
        counters.tuples_in += len(page) - 1
    else:
        counters.tuples_in += len(page)


# ---------------------------------------------------------------------------
# Deterministic single-threaded scheduler
# ---------------------------------------------------------------------------


class DeterministicEngine(_Engine):
    def __init__(
        self,
        plan: Plan,
        registry: dict,
        page_size: int = DEFAULT_PAGE_SIZE,
        queue_pages: int = DEFAULT_QUEUE_PAGES,
        quantum: Optional[float] = None,
        feedback_enabled: bool = True,
        transfer_cost: float = 0.0,
        trace_pages: bool = False,
    ):
        super().__init__(plan, registry, page_size, queue_pages, feedback_enabled, transfer_cost)
        self.quantum = float(quantum if quantum is not None else page_size)
        if not self.quantum > 0:
            raise PlanError(f"quantum must be positive, got {quantum!r}")
        self._max_items = _max_items(self.quantum)
        if trace_pages:
            self.page_log = []

    def run(self) -> RunReport:
        quantum, max_items = self.quantum, self._max_items
        turn = None
        self._link()
        try:
            table = [_Turn(self, op_id) for op_id in self.order]
            while table:
                progress = finished = False
                for turn in table:
                    op = turn.op
                    for port, control in turn.controls:
                        if control:
                            on_feedback = turn.on_feedback
                            while control:
                                on_feedback(port, control.popleft())
                            progress = True
                    # backpressure: yield while any output queue is full
                    full = False
                    for pages, capacity in turn.outs:
                        if len(pages) >= capacity:
                            full = True
                            break
                    if full:
                        continue
                    counters = op.counters
                    if turn.is_source:
                        if not op.exhausted:
                            before = counters.tuples_out + counters.puncts_out
                            turn.step(quantum)
                            if (counters.tuples_out + counters.puncts_out) != before or op.exhausted:
                                progress = True
                        if op.exhausted:
                            self._finish(op)
                            turn.finished = finished = progress = True
                        continue
                    step = turn.step
                    before = counters.work_units
                    items = 0
                    it, index = turn.it, turn.index
                    while True:
                        if it is None:
                            # next page, round-robin across the inputs
                            edges = turn.edges
                            n = len(edges)
                            start = turn.rr
                            for k in range(n):
                                edge = edges[(start + k) % n]
                                if edge.pages:
                                    turn.rr = (start + k + 1) % n
                                    page = edge.pages.popleft()
                                    _count_page(counters, page)
                                    it, index = iter(page), edge.input_index
                                    break
                            else:
                                if turn.end_inputs():
                                    progress = True
                                if not turn.open:
                                    self._finish(op)
                                    turn.finished = finished = progress = True
                                break
                        guards, row_cost = op.input_guards[index], op.row_cost
                        if guards or row_cost:
                            check_cost = op.guard_check_cost
                            # _Turn.walk's loop, inlined: a call per page
                            # slice is dear on 10-item pages (impute-lag)
                            for items, item in enumerate(it, items + 1):
                                if type(item) is EmbeddedPunctuation:
                                    if guards:
                                        guards.expire(item.pattern)
                                    step(index, item)
                                else:
                                    counters.work_units += row_cost
                                    if not guards:
                                        step(index, item)
                                    else:
                                        counters.work_units += check_cost
                                        if guards.drop(item):
                                            counters.guard_drops += 1
                                        else:
                                            step(index, item)
                                if counters.work_units - before >= quantum or items >= max_items:
                                    break
                            else:
                                it = None
                                continue
                            break
                        for items, item in enumerate(it, items + 1):
                            step(index, item)
                            if counters.work_units - before >= quantum or items >= max_items:
                                break
                        else:
                            it = None  # page done: the turn goes on with the next
                            continue
                        break  # quantum spent
                    turn.it, turn.index = it, index
                    if items:
                        progress = True
                if finished:
                    table = [t for t in table if not t.finished]
                if not progress:
                    break
        except Exception as exc:
            op_id = turn.op_id if turn is not None else None
            raise RunError(f"operator {op_id!r} failed: {exc}") from exc
        finally:
            self._unlink()
        if table:
            blocked = [t.op_id for t in table]
            raise RunError(f"deadlock: no runnable operator among {blocked}")
        return self._report()


def _max_items(quantum: float):
    """The fewest items whose floor cost ``k * _MIN_ITEM_COST`` reaches
    ``quantum``, so that a turn ends on the item where its work or its
    floor cost first reaches the quantum; unbounded past 2**53 items, a
    count no turn reaches."""
    estimate = quantum / _MIN_ITEM_COST
    if estimate >= 2.0**53:
        return math.inf
    k = math.ceil(estimate)
    while k * _MIN_ITEM_COST < quantum:
        k += 1
    while k > 1 and (k - 1) * _MIN_ITEM_COST >= quantum:
        k -= 1
    return k


# ---------------------------------------------------------------------------
# Concurrent scheduler: one thread per operator
# ---------------------------------------------------------------------------


class _Aborted(Exception):
    """Unwinds an operator thread after another operator has failed."""


class ConcurrentEngine(_Engine):
    """Operators run as threads connected by the bounded paged queues.  A
    thread waits on its own condition until a page, the end of an input,
    feedback or an abort is pending, and delivers feedback before pending
    data.  The first operator to fail aborts every thread."""

    def _wake(self, op_id: str) -> None:
        cond = self._wakeups[op_id]
        with cond:
            cond.notify_all()

    # Each edge has one producer thread, the only one to append, and one
    # consumer thread, the only one to pop, so a thread that finds a page or
    # room finds it still there when it acts.  A consumer sleeps only on
    # empty inputs and a producer only on a full queue, so only the page that
    # ends either state need wake the other side.

    def _put(self, edge: Edge, page: list) -> None:
        pages = edge.pages
        if len(pages) >= edge.capacity_pages:
            cond = self._wakeups[edge.producer]
            with cond:
                cond.wait_for(lambda: len(pages) < edge.capacity_pages or self._aborted)
        if self._aborted:
            raise _Aborted
        pages.append(page)
        if len(pages) == 1:
            self._wake(edge.consumer)

    def _run_op(self, op_id: str) -> None:
        try:
            turn = _Turn(self, op_id)
            op = turn.op
            controls, on_feedback = turn.controls, turn.on_feedback
            if op.is_source:
                generate = turn.step
                while not op.exhausted:
                    for port, control in controls:
                        while control:
                            on_feedback(port, control.popleft())
                    generate(self.page_size)
            else:
                edges = turn.edges
                cond = self._wakeups[op_id]

                def pending() -> bool:
                    # read under ``cond``, which every waker takes to notify
                    return (
                        self._aborted
                        or any(e.pages for e in edges)
                        or any(e.eos for e in turn.open)
                        or any(control for _, control in controls)
                    )

                process_item = turn.step
                counters = op.counters
                n = len(edges)
                rr = 0
                while True:
                    for port, control in controls:
                        while control:
                            on_feedback(port, control.popleft())
                    for k in range(n):
                        edge = edges[(rr + k) % n]
                        if edge.pages:
                            page = edge.pages.popleft()
                            if len(edge.pages) == edge.capacity_pages - 1:
                                self._wake(edge.producer)
                            rr = (rr + k + 1) % n
                            break
                    else:
                        turn.end_inputs()
                        if not turn.open:
                            break
                        with cond:
                            cond.wait_for(pending)
                        if self._aborted:
                            raise _Aborted
                        continue
                    _count_page(counters, page)
                    index = edge.input_index
                    if op.row_cost or op.input_guards[index]:
                        turn.walk(page, index)
                    else:
                        for item in page:
                            process_item(index, item)
            self._finish(op)
        except _Aborted:
            pass
        except Exception as exc:
            self._errors.append((op_id, exc))
            self._aborted = True
            for other in self.order:
                self._wake(other)

    def run(self) -> RunReport:
        self._wakeups = {op_id: threading.Condition() for op_id in self.order}
        self._errors: list = []
        self._aborted = False
        threads = [
            threading.Thread(target=self._run_op, args=(op_id,), name=op_id)
            for op_id in self.order
        ]
        self._link()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            self._unlink()
        if self._errors:
            op_id, exc = self._errors[0]
            raise RunError(f"operator {op_id!r} failed: {exc}") from exc
        return self._report()
