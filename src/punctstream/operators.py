"""Operator library with embedded-punctuation handling and assumed-feedback
behavior.

Every stateful operator follows the same discipline: an assumed feedback
pattern may trigger some combination of (1) an output guard — suppress
matching results, (2) an input guard — drop matching arrivals, (3) a state
purge, and (4) propagation of a rewritten pattern to antecedents, but only
when each action provably keeps the produced stream sandwiched between the
full output and the full output minus the feedback subset.

Each kind declares its ``feedback`` level, one of ``FEEDBACK_LEVELS``
(the aggregates take it as a parameter), and supplies the ``exploit``
step that ``Operator.on_feedback`` calls.  Guards added to
``input_guards`` or ``output_guards`` are applied by the engine core
(``punctstream.runtime``), which drops, charges and counts the rows they
match and expires them on punctuation.  Operators keep state purges, the
aggregate's suppressed windows and propagation.
"""

from __future__ import annotations

import inspect
import operator as pyop
import re
import typing
from typing import Callable, Iterable, Optional

from punctstream.core import (
    AttrType,
    Constraint,
    EmbeddedPunctuation,
    GuardSet,  # re-exported, next to the operators that fill it
    Op,
    Pattern,
    Schema,
    assumed,
    parse_value,
    _ANY,
    _bounds,
)
from punctstream.propagation import (
    AttributeMapping,
    Origin,
    derive_input_patterns,
    identity_mapping,
)
from punctstream.runtime import Operator, PlanError, RunError, SourceOperator

# what an operator does with assumed feedback, each level adding to the one
# before: ignore it, guard the output, exploit it in the operator (input
# guards, state purge), relay it upstream
FEEDBACK_LEVELS = ("none", "guard", "exploit", "propagate")


def _punct_ts_bound(pattern: Pattern, ts_idx: int) -> Optional[int]:
    """Inclusive upper bound a punctuation places on the timestamp
    attribute, or None when it is not a pure progress punctuation."""
    cs = pattern.constraints
    c = cs[ts_idx]
    if c.op is _ANY:
        return None
    for i, other in enumerate(cs):
        if other.op is not _ANY and i != ts_idx:
            return None
    lo, _, hi, _ = _bounds(c, True)
    if lo is not None or hi is None:
        return None
    return hi


def _picker(indices: tuple) -> Callable:
    """Function from a row to the tuple of its values at ``indices``."""
    if not indices:
        return lambda row: ()
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return pyop.itemgetter(*indices)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

_CLAUSE_RE = re.compile(r"^\s*(\w+)\s*(<=|>=|==|!=|<|>|=)\s*(.+?)\s*$")

_OPS = {
    "<": pyop.lt,
    "<=": pyop.le,
    ">": pyop.gt,
    ">=": pyop.ge,
    "=": pyop.eq,
    "==": pyop.eq,
    "!=": pyop.ne,
}


def compile_predicate(expr, schema: Schema) -> Callable:
    """Compile 'attr OP literal [and ...]' into a row predicate.

    Null fails every comparison except explicit '== null' / '!= null'.
    """
    if callable(expr):
        return expr
    text = expr.strip()
    if text in ("", "true"):
        return lambda row: True
    checks = [_compile_clause(clause, schema) for clause in text.split(" and ")]
    if len(checks) == 1:
        return checks[0]

    def pred(row):
        for check in checks:
            if not check(row):
                return False
        return True

    return pred


def _compile_clause(clause: str, schema: Schema) -> Callable:
    m = _CLAUSE_RE.match(clause)
    if not m:
        raise ValueError(f"cannot parse predicate clause {clause!r}")
    attr, op, lit = m.groups()
    i = schema.index_of(attr)
    if lit == "null":
        if op in ("=", "=="):
            return lambda row: row[i] is None
        if op == "!=":
            return lambda row: row[i] is not None
        raise ValueError(f"null only supports ==/!=: {clause!r}")
    val = parse_value(lit, schema.attr_types[i])
    fn = _OPS[op]
    return lambda row: (v := row[i]) is not None and fn(v, val)


# ---------------------------------------------------------------------------
# Source
# ---------------------------------------------------------------------------


class Source(SourceOperator):
    """Replays rows in order, interleaving progress punctuation every
    ``punct_interval`` seconds of stream time; a final punctuation covers
    the whole stream so downstream guards can expire.  The rows, and the
    schema unless given, may come from a stream ``file``."""

    def __init__(
        self,
        node_id: str,
        schema: Optional[Schema] = None,
        rows: Optional[Iterable] = None,
        punct_interval: Optional[int] = None,
        final_punct: bool = True,
        file: Optional[str] = None,
    ):
        if file is not None:
            file_schema, file_rows = read_stream_file(file)
            schema = file_schema if schema is None else schema
            rows = file_rows if rows is None else rows
        if schema is None or rows is None:
            raise ValueError("source needs schema and rows, or a stream file")
        if punct_interval is not None and punct_interval <= 0:
            raise ValueError("punct_interval must be positive")
        super().__init__(node_id, schema)
        self.schema = schema
        self._iter = iter(rows)
        self.punct_interval = punct_interval
        self.final_punct = final_punct
        self._ts_idx = schema.timestamp_attr
        self._next_boundary = punct_interval
        self._max_ts = None

    def _punct(self, bound: int) -> EmbeddedPunctuation:
        return EmbeddedPunctuation(Pattern.progress(self.schema, bound))

    def generate(self, budget: float) -> None:
        # rows are emitted a run at a time, each run ending where a
        # punctuation or the budget does
        emit, emit_rows = self.emit, self.emit_rows
        ts_idx = self._ts_idx
        interval = self.punct_interval
        boundary = self._next_boundary
        max_ts = self._max_ts
        run = []
        append = run.append
        emitted = 0
        try:
            for item in self._iter:
                if type(item) is EmbeddedPunctuation:
                    emit_rows(run, 1.0)
                    run.clear()
                    emit(item)
                    continue
                ts = item[ts_idx]
                if ts is not None:
                    if boundary is not None and ts >= boundary:
                        emit_rows(run, 1.0)
                        run.clear()
                        while ts >= boundary:
                            emit(self._punct(boundary - 1))
                            boundary += interval
                    if max_ts is None or ts > max_ts:
                        max_ts = ts
                append(item)
                emitted += 1
                if emitted >= budget:
                    emit_rows(run, 1.0)
                    return
            emit_rows(run, 1.0)
            if self.final_punct and max_ts is not None:
                emit(self._punct(max_ts))
            self.exhausted = True
        finally:
            self._next_boundary = boundary
            self._max_ts = max_ts


def read_stream_file(path: str):
    """Line-based stream file: a header declaring the schema, then one
    comma-separated row per line; '#punct' lines carry pattern syntax."""
    from punctstream.core import parse_pattern

    with open(path) as fh:
        header = fh.readline().strip()
        schema = parse_schema_decl(header)
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#comment"):
                continue
            if line.startswith("#punct"):
                body = line[len("#punct"):].strip()
                try:
                    rows.append(EmbeddedPunctuation(parse_pattern(body, schema)))
                except ValueError as exc:
                    raise RunError(f"{path}:{lineno}: bad punctuation: {exc}") from exc
                continue
            parts = line.split(",")
            if len(parts) != len(schema):
                raise RunError(
                    f"{path}:{lineno}: expected {len(schema)} values, got {len(parts)}"
                )
            try:
                row = tuple(
                    parse_value(p, t) for p, t in zip(parts, schema.attr_types)
                )
                schema.check_row(row)
            except ValueError as exc:
                raise RunError(f"{path}:{lineno}: {exc}") from exc
            rows.append(row)
    return schema, rows


_SCHEMA_DECL_RE = re.compile(r"^\s*schema\s+(\w+)\s*\((.*)\)\s*$")


def parse_schema_decl(text: str) -> Schema:
    """'schema name(attr:type, ..., tsattr:timestamp*)' — '*' marks the
    progress attribute (defaults to the first timestamp attribute)."""
    m = _SCHEMA_DECL_RE.match(text)
    if not m:
        raise ValueError(f"bad schema declaration {text!r}")
    name, body = m.groups()
    attrs, ts_idx = [], None
    for i, part in enumerate(body.split(",")):
        part = part.strip()
        aname, _, atype = part.partition(":")
        atype = atype.strip()
        starred = atype.endswith("*")
        if starred:
            atype = atype[:-1]
        t = AttrType(atype)
        attrs.append((aname.strip(), t))
        if starred:
            ts_idx = i
        elif ts_idx is None and t is AttrType.TIMESTAMP:
            ts_idx = i
    if ts_idx is None:
        raise ValueError(f"schema {name!r} has no timestamp attribute")
    return Schema(name, tuple(attrs), ts_idx)


def format_schema_decl(schema: Schema) -> str:
    parts = []
    for i, (n, t) in enumerate(schema.attributes):
        star = "*" if i == schema.timestamp_attr else ""
        parts.append(f"{n}:{t.value}{star}")
    return f"schema {schema.name}({', '.join(parts)})"


# ---------------------------------------------------------------------------
# Select and Impute: one input, output rows aligned with input rows
# ---------------------------------------------------------------------------


class _InputGuarded(Operator):
    """An operator whose output schema is its input's: assumed feedback
    guards its input and is relayed upstream through the identity
    mapping."""

    feedback = "propagate"

    def __init__(self, node_id, input_schema: Schema):
        super().__init__(node_id, (input_schema,), (input_schema,))
        self.schema = input_schema
        self.mapping = identity_mapping(input_schema)

    def exploit(self, output_port, pattern):
        self.input_guards[0].add(pattern)
        (back,) = derive_input_patterns(pattern, self.mapping)
        self.relay(0, back)


class Select(_InputGuarded):
    """Stateless filter; assumed feedback is simply added to the condition
    (drop matching rows) and relayed upstream through the identity mapping."""

    def __init__(
        self,
        node_id,
        input_schema: Schema,
        predicate="true",
        eval_cost: float = 1.0,
        guard_check_cost: float = 0.0,
    ):
        super().__init__(node_id, input_schema)
        self.pred = compile_predicate(predicate, input_schema)
        self.eval_cost = eval_cost
        self.guard_check_cost = guard_check_cost

    def process_item(self, input_index, item):
        if type(item) is EmbeddedPunctuation:
            self.emit(item)
            return
        self.counters.work_units += self.eval_cost
        if self.pred(item):
            self.emit(item)


class Impute(_InputGuarded):
    """Replaces null readings with an estimate at a configurable per-row
    cost: the last non-null value seen for the same key, else a default.

    The engine drops guarded rows before the expensive step; rows queued
    behind the operator are caught by the same guard when they are
    dequeued, which purges the already-late backlog."""

    def __init__(
        self,
        node_id,
        input_schema: Schema,
        cost: float = 10.0,
        key: Optional[str] = None,
        default=0,
    ):
        super().__init__(node_id, input_schema)
        self.cost = cost
        self.key_idx = input_schema.index_of(key) if key else None
        self.default = default
        self._last = {}  # (key, attr index) -> last non-null value

    def process_item(self, input_index, item):
        if type(item) is EmbeddedPunctuation:
            self.emit(item)
            return
        self.counters.work_units += self.cost
        key_idx = self.key_idx
        key = item[key_idx] if key_idx is not None else None
        last, default = self._last, self.default
        values = list(item)
        for i, v in enumerate(values):
            if v is None:
                values[i] = last.get((key, i), default)
            elif key_idx is not None:
                last[(key, i)] = v
        self.emit(tuple(values))


# ---------------------------------------------------------------------------
# Split
# ---------------------------------------------------------------------------


class Split(Operator):
    """Routes each row to the clean (port 0) or dirty (port 1) output;
    punctuation is forwarded to both.  Feedback from one branch installs an
    output guard on that branch only — the branches are disjoint, so
    relaying upstream would starve the other branch."""

    n_outputs = 2
    row_cost = 1.0
    feedback = "guard"

    def __init__(self, node_id, input_schema: Schema, route="any_null"):
        super().__init__(node_id, (input_schema,), (input_schema, input_schema))
        self.schema = input_schema
        # None for the default route, which process_item tests inline
        self.dirty = None if route == "any_null" else compile_predicate(route, input_schema)

    def process_item(self, input_index, item):
        if type(item) is EmbeddedPunctuation:
            self.emit(item, port=0)
            self.emit(item, port=1)
            return
        dirty = self.dirty
        if dirty is None:
            port = 1 if None in item else 0
        else:
            port = 1 if dirty(item) else 0
        self.emit(item, port)


# ---------------------------------------------------------------------------
# Pace (and plain Union)
# ---------------------------------------------------------------------------


class Pace(Operator):
    """Union of same-schema inputs that bounds inter-branch timestamp
    divergence: rows lagging more than ``tolerance`` behind the high
    watermark are dropped, and assumed feedback covering the stale region
    is thrown upstream at lagging inputs.

    ``feedback_margin`` moves the declared bound above the bare lateness
    threshold.  Declaring more than strictly hopeless is allowed — an
    assumed pattern is a promise to ignore, not an obligation to drop —
    and without the margin everything that survives the upstream guard
    arrives right at the lateness boundary and is lost anyway."""

    row_cost = 1.0

    def __init__(
        self,
        node_id,
        input_schemas: tuple,
        tolerance: Optional[int] = None,
        enforce: bool = True,
        throttle: Optional[int] = None,
        feedback_margin: int = 0,
        divergence_input: Optional[int] = None,
    ):
        if not input_schemas:
            raise ValueError("pace needs at least one input")
        first = input_schemas[0]
        for s in input_schemas[1:]:
            if s.attributes != first.attributes:
                raise ValueError("pace inputs must share one schema")
        super().__init__(node_id, input_schemas, (first,))
        self.schema = first
        self.tolerance = tolerance
        self.enforce = enforce
        self.throttle = throttle if throttle is not None else (
            max(1, tolerance // 2) if tolerance else None
        )
        if tolerance is not None and not (0 <= feedback_margin < tolerance):
            raise ValueError("feedback margin must be within [0, tolerance)")
        self.feedback_margin = feedback_margin
        self.divergence_input = divergence_input
        self._ts = first.timestamp_attr
        self.high_watermark: Optional[int] = None
        self.last_feedback_watermark: Optional[int] = None
        self._input_ts = [None] * len(input_schemas)
        self._punct_bound = [None] * len(input_schemas)
        self._emitted_bound = None
        self.late_counts = [0] * len(input_schemas)
        self.in_totals = [0] * len(input_schemas)
        self.sent_patterns: list = []  # what was actually queued, for the oracle
        self.divergence_series: list = []
        self._arrivals = 0

    def process_item(self, input_index, item):
        if type(item) is EmbeddedPunctuation:
            b = _punct_ts_bound(item.pattern, self._ts)
            if b is not None:
                prev = self._punct_bound[input_index]
                self._punct_bound[input_index] = b if prev is None else max(prev, b)
                if all(x is not None for x in self._punct_bound):
                    merged = min(self._punct_bound)
                    if self._emitted_bound is None or merged > self._emitted_bound:
                        self._emitted_bound = merged
                        self.emit(EmbeddedPunctuation(Pattern.progress(self.schema, merged)))
            return
        ts = item[self._ts]
        arrivals = self._arrivals = self._arrivals + 1
        self.in_totals[input_index] += 1
        if ts is None:
            self.emit(item)
            return
        input_ts = self._input_ts
        prev = input_ts[input_index]
        if prev is None or ts > prev:
            input_ts[input_index] = ts
        high = self.high_watermark
        if high is None or ts > high:
            high = self.high_watermark = ts
        tolerance = self.tolerance
        if tolerance is None:
            self.emit(item)
            return
        threshold = high - tolerance
        if input_index == self.divergence_input:
            self.divergence_series.append((arrivals, high - ts))
        if ts < threshold:
            self.late_counts[input_index] += 1
            if not self.enforce:
                self.emit(item)  # else too late: ignored
        else:
            self.emit(item)
        fb_bound = threshold + self.feedback_margin
        last = self.last_feedback_watermark
        if last is None or fb_bound >= last + self.throttle:
            sent = False
            for i, seen in enumerate(self._input_ts):
                if seen is not None and seen < fb_bound:
                    pat = Pattern.progress(self.schema, fb_bound)
                    if self.send_feedback(i, assumed(pat)):
                        self.sent_patterns.append(pat)
                    sent = True
            if sent:
                self.last_feedback_watermark = fb_bound


class Union(Pace):
    def __init__(self, node_id, input_schemas):
        super().__init__(node_id, input_schemas, tolerance=None, enforce=False)


# ---------------------------------------------------------------------------
# Window aggregates
# ---------------------------------------------------------------------------

def _count_update(partial, v):
    return (partial or 0) + 1


def _sum_update(partial, v):
    return partial if v is None else (partial or 0.0) + v


def _average_update(partial, v):
    if v is None:
        return partial
    s, n = partial or (0.0, 0)
    return (s + v, n + 1)


def _max_update(partial, v):
    if v is None:
        return partial
    return v if partial is None else max(partial, v)


# aggregate kind -> update of a partial with one value (None when null)
_UPDATES = {
    "count": _count_update,
    "sum": _sum_update,
    "average": _average_update,
    "max": _max_update,
}
_AGG_KINDS = tuple(_UPDATES)


class WindowAggregate(Operator):
    """Tumbling-window grouped aggregate over (window start, group keys).

    Output schema is (win, g..., a) with ``win`` the window-start
    timestamp, ``g`` copied group attributes and ``a`` the computed
    aggregate.  Embedded progress punctuation closes covered windows,
    produces their results (subject to output guards and suppression) and
    re-punctuates the output on the window attribute.
    """

    def __init__(
        self,
        node_id,
        input_schema: Schema,
        kind: str,
        range_seconds: int,
        group_by: tuple = (),
        value: Optional[str] = None,
        feedback: str = "propagate",
        update_cost: float = 1.0,
        emit_cost: float = 1.0,
        guard_check_cost: float = 0.0,
        sum_nonneg: bool = False,
    ):
        if kind not in _AGG_KINDS:
            raise ValueError(f"unknown aggregate kind {kind!r}")
        if range_seconds <= 0:
            raise ValueError("window range must be positive")
        if feedback not in FEEDBACK_LEVELS:
            raise ValueError(
                f"feedback must be one of {', '.join(FEEDBACK_LEVELS)}, got {feedback!r}"
            )
        if kind != "count" and value is None:
            raise ValueError(f"{kind} aggregate needs a value attribute")
        self.kind = kind
        self._update = _UPDATES[kind]
        self.range = range_seconds
        self._ts = input_schema.timestamp_attr
        self.group_idx = tuple(input_schema.index_of(g) for g in group_by)
        self._group_of = _picker(self.group_idx)
        self.value_idx = input_schema.index_of(value) if value is not None else None
        agg_name = {"count": "count", "sum": f"sum_{value}", "average": f"avg_{value}", "max": f"max_{value}"}[kind]
        agg_type = AttrType.INT if kind == "count" else AttrType.FLOAT
        out_attrs = [("win", AttrType.TIMESTAMP)]
        out_attrs += [(input_schema.attr_names[i], input_schema.attr_types[i]) for i in self.group_idx]
        out_attrs.append((agg_name, agg_type))
        out_schema = Schema(f"{input_schema.name}_{kind}", tuple(out_attrs), 0)
        super().__init__(node_id, (input_schema,), (out_schema,))
        self.out_schema = out_schema
        self.feedback = feedback
        self.update_cost = update_cost
        self.emit_cost = emit_cost
        self.guard_check_cost = guard_check_cost
        self.sum_nonneg = sum_nonneg
        self.mapping = AttributeMapping(
            output_schema=out_schema,
            input_schemas=(input_schema,),
            origins=(Origin.window(0, self._ts, range_seconds),)
            + tuple(Origin.from_input((0, i)) for i in self.group_idx)
            + (Origin.computed(),),
        )
        self.state = {}  # (win, group tuple) -> partial
        self.suppressed = set()  # keys guarded after purge
        self._value_feedback: list = []  # compiled live constraints (max only)
        self._agg_out_idx = len(out_attrs) - 1
        self._out_punct_bound: Optional[int] = None

    # -- aggregation --------------------------------------------------
    @property
    def delimited_guard_count(self) -> int:
        """Guards that expire through punctuation: input guards plus
        suppressed-window records (output guards on the aggregate value
        are not delimited and persist)."""
        return len(self.input_guards[0]) + len(self.suppressed)

    def _result(self, partial):
        if partial is None:  # only null values arrived: nothing to report
            return None
        if self.kind == "average":
            s, n = partial
            return s / n if n else None
        return partial

    def process_item(self, input_index, item):
        if type(item) is EmbeddedPunctuation:
            bound = _punct_ts_bound(item.pattern, self._ts)
            if bound is not None:
                self._close_windows(bound)
            return
        counters = self.counters
        ts = item[self._ts]
        if ts is None:
            return  # unassignable to a window
        key = ((ts // self.range) * self.range, self._group_of(item))
        if key in self.suppressed:
            counters.guard_drops += 1
            return
        counters.work_units += self.update_cost
        v = item[self.value_idx] if self.value_idx is not None else None
        state = self.state
        partial = state[key] = self._update(state.get(key), v)
        # only a max aggregate has value feedback
        if self._value_feedback:
            cur = self._result(partial)
            if cur is not None and any(test(cur) for test in self._value_feedback):
                self._suppress_key(key)

    def _emit_results(self, keys) -> None:
        """Emit the results of windows ``keys`` in order, taking them out of
        the state; a window that saw only null values has none."""
        state = self.state
        rows = [(w,) + g + (self._result(state.pop((w, g))),) for w, g in keys]
        self.emit_rows([r for r in rows if r[-1] is not None], self.emit_cost)

    def _close_windows(self, ts_bound: int) -> None:
        """Close every window fully covered by the progress bound."""
        self._emit_results(sorted(k for k in self.state if k[0] + self.range - 1 <= ts_bound))
        stale = {k for k in self.suppressed if k[0] + self.range - 1 <= ts_bound}
        self.suppressed -= stale
        # every window starting at or before last_win is now complete
        last_win = (ts_bound + 1) // self.range * self.range - self.range
        if self._out_punct_bound is None or last_win > self._out_punct_bound:
            self._out_punct_bound = last_win
            self.emit(EmbeddedPunctuation(Pattern.progress(self.out_schema, last_win)))

    def finish(self):
        if self.state:
            last_win = max(k[0] for k in self.state)
            self._emit_results(sorted(self.state))
            self.emit(EmbeddedPunctuation(Pattern.progress(self.out_schema, last_win)))
        self.suppressed.clear()

    # -- feedback -----------------------------------------------------
    def _suppress_key(self, key) -> None:
        if key in self.state:
            del self.state[key]
            self.counters.state_purged += 1
        self.suppressed.add(key)
        if self.feedback != "propagate":
            return
        win, groups = key
        names = self.out_schema.attr_names
        by = {"win": Constraint.eq(win)}
        for name, g in zip(names[1:-1], groups):
            by[name] = Constraint.eq(g)
        out_pat = Pattern.of(self.out_schema, **by)
        (back,) = derive_input_patterns(out_pat, self.mapping)
        self.relay(0, back)

    def exploit(self, output_port, pattern):
        constrained = pattern.constrained_indices()
        if self._agg_out_idx not in constrained:
            self._exploit_group_pattern(pattern)
        elif constrained == (self._agg_out_idx,):
            self._exploit_agg_constraint(pattern.constraints[self._agg_out_idx], pattern)
        else:
            self.output_guards[0].add(pattern)

    def _exploit_group_pattern(self, pat: Pattern) -> None:
        matcher = pat.matcher()
        # a window's key as an output row with its aggregate left null
        doomed = [k for k in sorted(self.state) if matcher((k[0],) + k[1] + (None,))]
        for k in doomed:
            del self.state[k]
            self.counters.state_purged += 1
        (back,) = derive_input_patterns(pat, self.mapping)
        if back is not None:
            self.input_guards[0].add(back)
            self.relay(0, back)
        else:
            # no inverse mapping: fall back to guarding the output
            self.output_guards[0].add(pat)
            for k in doomed:
                self.suppressed.add(k)

    def _exploit_agg_constraint(self, c: Constraint, pat: Pattern) -> None:
        grows_into = c.op in (Op.GE, Op.GT)
        monotone = self.kind == "count" or self.kind == "max" or (
            self.kind == "sum" and self.sum_nonneg
        )
        if not (grows_into and monotone):
            # the partial could still move out of (or into) the described
            # region; only the final value may be checked
            self.output_guards[0].add(pat)
            return
        doomed = [
            k
            for k in sorted(self.state)
            if (v := self._result(self.state[k])) is not None and c.matches_value(v)
        ]
        for k in doomed:
            self._suppress_key(k)
        if self.kind == "max":
            self._value_feedback.append(c.compile())


# ---------------------------------------------------------------------------
# Join
# ---------------------------------------------------------------------------


class Join(Operator):
    """Symmetric-hash windowed equi-join.  Output carries every left
    attribute followed by the right attributes that are not join keys;
    join attributes therefore originate in both inputs, which is what lets
    feedback on them propagate to both sides."""

    row_cost = 1.0
    feedback = "propagate"

    def __init__(
        self,
        node_id,
        input_schemas: tuple,
        on: tuple,  # (left attr name, right attr name) pairs
        window: Optional[int] = None,
        name: Optional[str] = None,
    ):
        if len(input_schemas) != 2:
            raise ValueError("join takes exactly two inputs")
        left, right = input_schemas
        if not on:
            raise ValueError("join needs at least one key pair")
        self.left_keys = tuple(left.index_of(l) for l, _ in on)
        self.right_keys = tuple(right.index_of(r) for _, r in on)
        self._keys_of = (_picker(self.left_keys), _picker(self.right_keys))
        for li, ri in zip(self.left_keys, self.right_keys):
            if left.attr_types[li] != right.attr_types[ri]:
                raise ValueError("join attribute types differ")
        if window is not None and window <= 0:
            raise ValueError(f"join window must be positive, got {window!r}")
        self.window = window
        right_extra = tuple(
            i for i in range(len(right)) if i not in self.right_keys
        )
        self._right_extra_of = _picker(right_extra)
        out_attrs = tuple(left.attributes) + tuple(right.attributes[i] for i in right_extra)
        out_schema = Schema(
            name or f"{left.name}_{right.name}", out_attrs, left.timestamp_attr
        )
        super().__init__(node_id, (left, right), (out_schema,))
        self.out_schema = out_schema
        key_partner = dict(zip(self.left_keys, self.right_keys))
        origins = []
        for i in range(len(left)):
            if i in key_partner:
                origins.append(Origin.from_input((0, i), (1, key_partner[i])))
            else:
                origins.append(Origin.from_input((0, i)))
        for i in right_extra:
            origins.append(Origin.from_input((1, i)))
        self.mapping = AttributeMapping(out_schema, (left, right), tuple(origins))
        self.tables = ({}, {})  # key -> list of rows, per input
        self._ts = (left.timestamp_attr, right.timestamp_attr)
        # purging on a timestamp bound is sound only when matches must
        # share a window or the timestamp itself is a join attribute
        self._ts_joined = left.timestamp_attr in self.left_keys and (
            self.right_keys[self.left_keys.index(left.timestamp_attr)]
            == right.timestamp_attr
        )
        self._punct_bound = [None, None]
        self._emitted_bound = None

    def _key(self, input_index, row):
        k = self._keys_of[input_index](row)
        if self.window is not None:
            ts = row[self._ts[input_index]]
            if ts is None:
                return None  # unassignable to a window: never joins
            return ((ts // self.window) * self.window,) + k
        return k

    def process_item(self, input_index, item):
        if type(item) is EmbeddedPunctuation:
            b = _punct_ts_bound(item.pattern, self._ts[input_index])
            if b is not None:
                self._advance_bound(input_index, b)
            return
        key = self._key(input_index, item)
        if key is None:
            return
        matches = self.tables[1 - input_index].get(key)
        if matches:
            # an output row is the left row, then the right row's non-key values
            if input_index == 0:
                left, right_extra_of = tuple(item), self._right_extra_of
                outs = [left + right_extra_of(m) for m in matches]
            else:
                right_extra = self._right_extra_of(item)
                outs = [tuple(m) + right_extra for m in matches]
            self.emit_rows(outs, 1.0)
        self.tables[input_index].setdefault(key, []).append(item)

    def _advance_bound(self, input_index, bound):
        prev = self._punct_bound[input_index]
        self._punct_bound[input_index] = bound if prev is None else max(prev, bound)
        if not (self.window is not None or self._ts_joined):
            return
        if any(b is None for b in self._punct_bound):
            return
        merged = min(self._punct_bound)
        if self._emitted_bound is not None and merged <= self._emitted_bound:
            return
        self._emitted_bound = merged
        # routine expiry of closed regions; not counted as a feedback purge
        for side in (0, 1):
            ts = self._ts[side]
            table = self.tables[side]
            for key in list(table):
                kept = [r for r in table[key] if r[ts] > merged]
                if kept:
                    table[key] = kept
                else:
                    del table[key]
        self.emit(EmbeddedPunctuation(Pattern.progress(self.out_schema, merged)))

    def exploit(self, output_port, pattern):
        derived = derive_input_patterns(pattern, self.mapping)
        if all(p is None for p in derived):
            self.output_guards[0].add(pattern)
            return
        for side, pat in enumerate(derived):
            if pat is None:
                continue
            matcher = pat.matcher()
            table = self.tables[side]
            for key in list(table):
                kept = [r for r in table[key] if not matcher(r)]
                self.counters.state_purged += len(table[key]) - len(kept)
                if kept:
                    table[key] = kept
                else:
                    del table[key]
            self.input_guards[side].add(pat)
            self.relay(side, pat)


# ---------------------------------------------------------------------------
# Sink
# ---------------------------------------------------------------------------


class Sink(Operator):
    """Collects output items in arrival order; optionally injects feedback
    upstream after fixed arrival counts or from a time-driven schedule."""

    n_outputs = 0

    def __init__(
        self,
        node_id,
        input_schema: Schema,
        injections: tuple = (),
        time_injector: Optional[Callable] = None,
        record_divergence: bool = False,
    ):
        super().__init__(node_id, (input_schema,), ())
        self.schema = input_schema
        self.collected: list = []
        self.injections = sorted(injections, key=lambda x: x[0])
        self._injected = 0
        self.sent_patterns: list = []  # what was actually queued, for the oracle
        self.time_injector = time_injector
        self.record_divergence = record_divergence
        self.divergence_series: list = []
        self._ts = input_schema.timestamp_attr
        self._max_ts = None
        self._observed = None
        # rows arrived so far; the engine counts tuples_in a page at a time
        self._arrived = 0

    def process_item(self, input_index, item):
        self.collected.append(item)
        if type(item) is EmbeddedPunctuation:
            b = _punct_ts_bound(item.pattern, self._ts)
            if b is not None and (self._observed is None or b > self._observed):
                self._observe(b)
            return
        arrived = self._arrived = self._arrived + 1
        ts = item[self._ts]
        if ts is not None:
            max_ts = self._max_ts
            if max_ts is None or ts > max_ts:
                max_ts = self._max_ts = ts
            if self.record_divergence:
                self.divergence_series.append((arrived, max_ts - ts))
            observed = self._observed
            if observed is None or ts > observed:
                self._observe(ts)
        injections = self.injections
        while self._injected < len(injections) and arrived >= injections[self._injected][0]:
            _, fb = injections[self._injected]
            self._injected += 1
            if self.send_feedback(0, fb):
                self.sent_patterns.append(fb.pattern)

    def _observe(self, t: int) -> None:
        """Stream time has advanced to ``t``."""
        self._observed = t
        if self.time_injector is not None:
            for fb in self.time_injector(t):
                if self.send_feedback(0, fb):
                    self.sent_patterns.append(fb.pattern)


# ---------------------------------------------------------------------------
# Registry: plan kind -> operator class
# ---------------------------------------------------------------------------

# accepted Python types per scalar annotation; bool is an int in Python but
# never accepted as a number
_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _scalar(annotation) -> Optional[tuple]:
    """(type, None allowed) for a scalar or optional scalar annotation;
    None for any other annotation, which is left unchecked."""
    union = typing.get_origin(annotation) is typing.Union
    args = typing.get_args(annotation) if union else (annotation,)
    scalars = [a for a in args if a is not type(None)]
    if len(scalars) != 1 or scalars[0] not in _SCALARS:
        return None
    return scalars[0], len(scalars) < len(args)


def _fits(value, t: type, optional: bool) -> bool:
    if value is None:
        return optional
    if isinstance(value, bool):
        return t is bool
    return isinstance(value, _SCALARS[t])


class OperatorKind:
    """A plan node kind: the operator class, its number of inputs (None for
    one or more) and the constructor arguments the kind fixes.  The class's
    constructor declares the parameters a plan may set; they are read from
    its signature once, here, and every node's parameters are checked
    against them before the operator is built."""

    def __init__(self, cls, arity: Optional[int], **fixed):
        self.cls = cls
        self.arity = arity
        self.fixed = fixed
        declared = list(inspect.signature(cls, eval_str=True).parameters.values())
        # past the node id and, for operators with inputs, the input schemas
        declared = [p for p in declared[1 if arity == 0 else 2:] if p.name not in fixed]
        self.params = {p.name: _scalar(p.annotation) for p in declared}
        self.required = [p.name for p in declared if p.default is p.empty]

    def __call__(self, node_id: str, input_schemas: tuple, params: dict) -> Operator:
        n = len(input_schemas)
        if self.arity is not None and n != self.arity:
            raise PlanError(f"takes {self.arity} input(s), got {n}")
        for name, value in params.items():
            if name not in self.params:
                raise PlanError(
                    f"unknown parameter {name!r}; accepted: {', '.join(self.params)}"
                )
            check = self.params[name]
            if check is not None and not _fits(value, *check):
                t, optional = check
                expected = t.__name__ + (" or None" if optional else "")
                raise PlanError(f"parameter {name!r} must be {expected}, got {value!r}")
        missing = [name for name in self.required if name not in params]
        if missing:
            raise PlanError(f"missing parameter(s) {', '.join(missing)}")
        # no input or one: positional; more: as one tuple
        schemas = input_schemas if self.arity in (0, 1) else (input_schemas,)
        return self.cls(node_id, *schemas, **self.fixed, **params)


REGISTRY = {
    "source": OperatorKind(Source, 0),
    "select": OperatorKind(Select, 1),
    "split": OperatorKind(Split, 1),
    "impute": OperatorKind(Impute, 1),
    "pace": OperatorKind(Pace, None),
    "union": OperatorKind(Union, None),
    **{kind: OperatorKind(WindowAggregate, 1, kind=kind) for kind in _AGG_KINDS},
    "join": OperatorKind(Join, 2),
    "sink": OperatorKind(Sink, 1),
}
