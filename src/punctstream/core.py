"""Core data model: schemas, rows, punctuation patterns and the two kinds
of punctuation, plus the pattern algebra (matching, subsumption,
conjunction), its text syntax, and ``GuardSet``, the retained feedback
patterns that operators declare and the engine applies.

Rows are plain Python tuples positionally aligned with their schema;
``None`` is the null value.  All types here but ``GuardSet`` are
immutable after construction and safe to share across concurrent
operators.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Union

Row = tuple  # value vector, positionally aligned with a Schema


class SchemaMismatchError(ValueError):
    """Raised when two pattern-algebra arguments disagree on schema."""


class PatternSyntaxError(ValueError):
    """Raised for malformed pattern text."""


class AttrType(enum.Enum):
    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    TIMESTAMP = "timestamp"  # 64-bit integer seconds

    @property
    def orderable(self) -> bool:
        return self is not AttrType.TEXT

    @property
    def discrete(self) -> bool:
        return self in (AttrType.INT, AttrType.TIMESTAMP)


_PYTYPES = {
    AttrType.INT: (int,),
    AttrType.TIMESTAMP: (int,),
    AttrType.FLOAT: (int, float),
    AttrType.TEXT: (str,),
}


@dataclass(frozen=True)
class Schema:
    """Named, ordered attribute list with a designated timestamp attribute."""

    name: str
    attributes: tuple  # of (attr_name, AttrType)
    timestamp_attr: int

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        names = [n for n, _ in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in schema {self.name!r}")
        if not (0 <= self.timestamp_attr < len(self.attributes)):
            raise ValueError("timestamp_attr out of range")
        if self.attributes[self.timestamp_attr][1] is not AttrType.TIMESTAMP:
            raise ValueError("timestamp_attr must index a timestamp attribute")

    def __len__(self) -> int:
        return len(self.attributes)

    # cached per instance (outside the dataclass fields, so equality and
    # hashing are unchanged): the pattern algebra reads them on every call
    @cached_property
    def attr_names(self) -> tuple:
        return tuple(n for n, _ in self.attributes)

    @cached_property
    def attr_types(self) -> tuple:
        return tuple(t for _, t in self.attributes)

    @cached_property
    def orderable(self) -> tuple:
        return tuple(t.orderable for t in self.attr_types)

    @cached_property
    def discrete(self) -> tuple:
        return tuple(t.discrete for t in self.attr_types)

    @cached_property
    def _positions(self) -> dict:
        return {n: i for i, n in enumerate(self.attr_names)}

    def index_of(self, attr_name: str) -> int:
        try:
            return self._positions[attr_name]
        except KeyError:
            raise KeyError(f"no attribute {attr_name!r} in schema {self.name!r}") from None

    def check_row(self, row: Row) -> None:
        if len(row) != len(self.attributes):
            raise ValueError(
                f"row arity {len(row)} != schema {self.name!r} arity {len(self.attributes)}"
            )
        for v, (n, t) in zip(row, self.attributes):
            if v is None:
                continue
            if not isinstance(v, _PYTYPES[t]) or isinstance(v, bool):
                raise ValueError(f"attribute {n!r}: {v!r} is not {t.value}")


class Op(enum.Enum):
    ANY = "*"
    EQ = "="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    RANGE = "range"


# members as module globals: the pattern algebra tests ops on every call,
# and reading a member from its enum class costs far more than a global
_ANY, _EQ, _LT, _LE, _GT, _GE, _RANGE = (
    Op.ANY, Op.EQ, Op.LT, Op.LE, Op.GT, Op.GE, Op.RANGE
)
_COMPARISONS = (_LT, _LE, _GT, _GE, _RANGE)
# text form of the single-value comparisons
_SYMBOLS = {_EQ: "=", _LT: "<", _LE: "<=", _GT: ">", _GE: ">="}


# Every punctuation and feedback message builds a Constraint and a Pattern,
# so both keep their fields in slots, set in an __init__ of their own
# through a module-level object.__setattr__: faster to build than the
# dataclass's frozen __init__, and smaller than an instance dict.
_setattr = object.__setattr__


@dataclass(frozen=True, init=False, slots=True)
class Constraint:
    """Single-attribute constraint of a punctuation pattern.

    ``RANGE`` carries explicit bounds; the canonical half-open interval
    [lo, hi) has ``lo_incl=True, hi_incl=False``.  Other inclusivities
    only arise as conjunction results over float attributes.
    """

    op: Op
    value: object = None
    lo: object = None
    hi: object = None
    lo_incl: bool = True
    hi_incl: bool = False

    def __init__(self, op, value=None, lo=None, hi=None, lo_incl=True, hi_incl=False):
        _setattr(self, "op", op)
        _setattr(self, "value", value)
        _setattr(self, "lo", lo)
        _setattr(self, "hi", hi)
        _setattr(self, "lo_incl", lo_incl)
        _setattr(self, "hi_incl", hi_incl)

    # -- constructors -------------------------------------------------
    @staticmethod
    def wildcard() -> "Constraint":
        return _WILDCARD

    @staticmethod
    def eq(v) -> "Constraint":
        return Constraint(_EQ, v)

    @staticmethod
    def lt(v) -> "Constraint":
        return Constraint(_LT, v)

    @staticmethod
    def le(v) -> "Constraint":
        return Constraint(_LE, v)

    @staticmethod
    def gt(v) -> "Constraint":
        return Constraint(_GT, v)

    @staticmethod
    def ge(v) -> "Constraint":
        return Constraint(_GE, v)

    @staticmethod
    def interval(lo, hi) -> "Constraint":
        if not lo < hi:
            raise ValueError(f"interval requires lo < hi, got [{lo}, {hi})")
        return Constraint(_RANGE, lo=lo, hi=hi)

    # -- evaluation ---------------------------------------------------
    def matches_value(self, v) -> bool:
        op = self.op
        if op is _ANY:
            return True
        if v is None:  # null satisfies only the wildcard
            return False
        if op is _EQ:
            return v == self.value
        if op is _LT:
            return v < self.value
        if op is _LE:
            return v <= self.value
        if op is _GT:
            return v > self.value
        if op is _GE:
            return v >= self.value
        lo_ok = v > self.lo or (self.lo_incl and v == self.lo)
        hi_ok = v < self.hi or (self.hi_incl and v == self.hi)
        return lo_ok and hi_ok

    def compile(self) -> Callable[[object], bool]:
        """Value test specialised to this constraint's op; agrees with
        ``matches_value`` (the interpretive reference) on every value."""
        op = self.op
        if op is _ANY:
            return lambda v: True
        if op is _RANGE:
            lo, hi = self.lo, self.hi
            if lo is None or hi is None:  # null bound: keep the reference's errors
                return self.matches_value
            if self.lo_incl:
                if self.hi_incl:
                    return lambda v: v is not None and lo <= v <= hi
                return lambda v: v is not None and lo <= v < hi
            if self.hi_incl:
                return lambda v: v is not None and lo < v <= hi
            return lambda v: v is not None and lo < v < hi
        x = self.value
        if op is _EQ:
            return lambda v: v is not None and v == x
        if op is _LT:
            return lambda v: v is not None and v < x
        if op is _LE:
            return lambda v: v is not None and v <= x
        if op is _GT:
            return lambda v: v is not None and v > x
        return lambda v: v is not None and v >= x

    @property
    def is_wildcard(self) -> bool:
        return self.op is _ANY

    # -- text form ----------------------------------------------------
    def format(self) -> str:
        op = self.op
        if op is _ANY:
            return "*"
        if op is _RANGE:
            lb = "[" if self.lo_incl else "("
            rb = "]" if self.hi_incl else ")"
            return f"{lb}{_fmt_value(self.lo)},{_fmt_value(self.hi)}{rb}"
        return _SYMBOLS[op] + _fmt_value(self.value)

    def __str__(self) -> str:
        return self.format()


_WILDCARD = Constraint(Op.ANY)


def _fmt_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


# ---------------------------------------------------------------------------
# Bounds form: (lo, lo_strict, hi, hi_strict) with None = unbounded.
# For discrete (int/timestamp) attributes strict bounds are closed up so
# that e.g. <5 and <=4 compare equal.
# ---------------------------------------------------------------------------


def _bounds(c: Constraint, discrete: bool):
    op = c.op
    if op is _ANY:
        return (None, False, None, False)
    if op is _EQ:
        if c.value is None:  # '=null' admits no value: an empty interval
            return (1, False, 0, False)
        return (c.value, False, c.value, False)
    if op is _LT:
        lo, los, hi, his = None, False, c.value, True
    elif op is _LE:
        lo, los, hi, his = None, False, c.value, False
    elif op is _GT:
        lo, los, hi, his = c.value, True, None, False
    elif op is _GE:
        lo, los, hi, his = c.value, False, None, False
    else:
        lo, los, hi, his = c.lo, not c.lo_incl, c.hi, not c.hi_incl
    if discrete:
        if lo is not None and los:
            lo, los = lo + 1, False
        if hi is not None and his:
            hi, his = hi - 1, False
    return (lo, los, hi, his)


def _bounds_empty(b, discrete: bool) -> bool:
    lo, los, hi, his = b
    if lo is None or hi is None:
        return False
    if lo > hi:
        return True
    return lo == hi and (los or his)


def _bounds_subsume(p, q) -> bool:
    """True iff the interval p contains the interval q (same type domain)."""
    plo, plos, phi, phis = p
    qlo, qlos, qhi, qhis = q
    if plo is not None:
        if qlo is None:
            return False
        if plo > qlo or (plo == qlo and plos and not qlos):
            return False
    if phi is not None:
        if qhi is None:
            return False
        if phi < qhi or (phi == qhi and phis and not qhis):
            return False
    return True


def _bounds_intersect(p, q):
    plo, plos, phi, phis = p
    qlo, qlos, qhi, qhis = q
    if plo is None or (qlo is not None and (qlo > plo or (qlo == plo and qlos))):
        lo, los = qlo, qlos
    else:
        lo, los = plo, plos
    if phi is None or (qhi is not None and (qhi < phi or (qhi == phi and qhis))):
        hi, his = qhi, qhis
    else:
        hi, his = phi, phis
    return (lo, los, hi, his)


def _constraint_from_bounds(b, discrete: bool) -> Constraint:
    lo, los, hi, his = b
    if lo is None and hi is None:
        return _WILDCARD
    if lo is not None and hi is not None and lo == hi and not los and not his:
        return Constraint.eq(lo)
    if lo is None:
        return Constraint.lt(hi) if his else Constraint.le(hi)
    if hi is None:
        return Constraint.gt(lo) if los else Constraint.ge(lo)
    if discrete:
        # canonical half-open integer interval
        return Constraint.interval(lo, hi + 1)
    return Constraint(Op.RANGE, lo=lo, hi=hi, lo_incl=not los, hi_incl=his)


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False, slots=True)
class Pattern:
    """Per-attribute constraint vector describing a subset of a stream."""

    schema: Schema
    constraints: tuple

    def __init__(self, schema: Schema, constraints):
        cs = constraints if type(constraints) is tuple else tuple(constraints)
        if len(cs) != len(schema.attributes):
            raise ValueError(f"pattern arity {len(cs)} != schema arity {len(schema)}")
        for c, orderable, name in zip(cs, schema.orderable, schema.attr_names):
            if not orderable and c.op in _COMPARISONS:
                raise ValueError(f"comparison constraint on non-orderable attribute {name!r}")
        _setattr(self, "schema", schema)
        _setattr(self, "constraints", cs)

    @staticmethod
    def all_wildcard(schema: Schema) -> "Pattern":
        return Pattern(schema, (_WILDCARD,) * len(schema))

    @staticmethod
    def of(schema: Schema, **by_name) -> "Pattern":
        """Build a pattern from attribute-name keyword arguments."""
        cs = [_WILDCARD] * len(schema.attributes)
        for name, c in by_name.items():
            cs[schema.index_of(name)] = c
        return Pattern(schema, tuple(cs))

    @staticmethod
    def progress(schema: Schema, bound) -> "Pattern":
        """``ts <= bound`` on the schema's timestamp attribute, the pattern
        of a progress punctuation."""
        cs = [_WILDCARD] * len(schema.attributes)
        cs[schema.timestamp_attr] = Constraint(_LE, bound)
        return Pattern(schema, tuple(cs))

    def constrained_indices(self) -> tuple:
        return tuple(i for i, c in enumerate(self.constraints) if not c.is_wildcard)

    def matches(self, row: Row) -> bool:
        for c, v in zip(self.constraints, row):
            if c.op is _ANY:
                continue
            if not c.matches_value(v):
                return False
        return True

    def matcher(self) -> Callable[[Row], bool]:
        """One closure that tests every non-wildcard constraint inline,
        equivalent to ``matches``.

        The closure is a single expression, one clause per constraint in
        attribute order, each with ``Constraint.compile``'s null
        semantics, so it returns and raises what ``matches`` does and a
        test costs one Python call.  Its source is generated from the
        attribute indices and op symbols alone and compiled once per
        shape (``_matcher_factory``); the constraint values are bound as
        the factory's arguments, never formatted into the source.

        The benchmark tracer patches this method on the class and wraps
        each closure it returns, so callers look it up as
        ``pattern.matcher()`` rather than binding it ahead of time."""
        shape, values = [], []
        for i, c in enumerate(self.constraints):
            op = c.op
            if op is _ANY:
                continue
            if op is not _RANGE:
                shape.append((i, _PY_SYMBOLS[op]))
                values.append(c.value)
            elif c.lo is None or c.hi is None:
                # null bound: the interpretive test, to keep its errors
                shape.append((i, None))
                values.append(c.matches_value)
            else:
                shape.append((i, ("<=" if c.lo_incl else "<", "<=" if c.hi_incl else "<")))
                values += (c.lo, c.hi)
        shape = tuple(shape)
        make = _MATCHER_FACTORIES.get(shape)
        if make is None:
            make = _MATCHER_FACTORIES[shape] = _matcher_factory(shape)
        return make(*values)

    def format(self) -> str:
        return f"{self.schema.name}: [{', '.join([c.format() for c in self.constraints])}]"

    def __str__(self) -> str:
        return self.format()


# Python operator of each single-value comparison, for generated matchers
_PY_SYMBOLS = {**_SYMBOLS, _EQ: "=="}
# matcher shape -> its factory.  It holds code only, never a pattern's
# values, and its size is bounded by the shapes a schema admits: in
# practice a few dozen, against one guard added per feedback message
_MATCHER_FACTORIES: dict = {}


def _matcher_factory(shape: tuple) -> Callable:
    """Compile ``make(*values)``, which returns the matcher for ``shape``:
    an ``(attribute index, test)`` per non-wildcard constraint, where the
    test is a comparison symbol, a pair of them for an interval, or None
    for a call of the bound ``matches_value``."""
    params, clauses = [], []
    for i, test in shape:
        if test is None:
            params.append(f"f{i}")
            clauses.append(f"f{i}(row[{i}])")
        elif type(test) is tuple:
            params += (f"lo{i}", f"hi{i}")
            clauses.append(f"(v := row[{i}]) is not None and lo{i} {test[0]} v {test[1]} hi{i}")
        else:
            params.append(f"x{i}")
            clauses.append(f"(v := row[{i}]) is not None and v {test} x{i}")
    source = (
        f"def make({', '.join(params)}):\n"
        f"    return lambda row: {' and '.join(clauses) or 'True'}\n"
    )
    namespace = {}
    exec(compile(source, "<matcher>", "exec"), namespace)
    return namespace["make"]


def _require_same_schema(a: Pattern, b) -> None:
    if a.schema is not b.schema and a.schema != b.schema:
        raise SchemaMismatchError(
            f"schema mismatch: {a.schema.name!r} vs {b.schema.name!r}"
        )


def matches(row: Row, pattern: Pattern, schema: Optional[Schema] = None) -> bool:
    """True iff every constraint is satisfied by the corresponding value.

    ``schema``, when given, is checked against the pattern's schema; rows
    themselves carry no schema reference.
    """
    if schema is not None and schema != pattern.schema:
        raise SchemaMismatchError(
            f"schema mismatch: {schema.name!r} vs {pattern.schema.name!r}"
        )
    return pattern.matches(row)


def is_empty(q: Pattern) -> bool:
    """True iff some orderable attribute's constraint admits no value, so
    that no row matches q."""
    schema = q.schema
    for qc, orderable, discrete in zip(q.constraints, schema.orderable, schema.discrete):
        if (
            qc.op is not _ANY
            and orderable
            and _bounds_empty(_bounds(qc, discrete), discrete)
        ):
            return True
    return False


def subsumes(p: Pattern, q: Pattern) -> bool:
    """True iff every row matching q also matches p, decided attribute-wise."""
    _require_same_schema(p, q)
    schema = p.schema
    # an unsatisfiable q is subsumed by anything
    if is_empty(q):
        return True
    for pc, qc, orderable, discrete in zip(
        p.constraints, q.constraints, schema.orderable, schema.discrete
    ):
        if pc.op is _ANY:
            continue
        if qc.op is _ANY:
            return False  # q admits nulls (and unbounded values), p does not
        if not orderable:
            if not (pc.op is _EQ and qc.op is _EQ and pc.value == qc.value):
                return False
            continue
        if not _bounds_subsume(_bounds(pc, discrete), _bounds(qc, discrete)):
            return False
    return True


def conjoin(p: Pattern, q: Pattern) -> Optional[Pattern]:
    """Attribute-wise intersection; None when some attribute is unsatisfiable."""
    _require_same_schema(p, q)
    schema = p.schema
    out = []
    for pc, qc, orderable, discrete in zip(
        p.constraints, q.constraints, schema.orderable, schema.discrete
    ):
        if qc.op is _ANY:
            out.append(pc)
            continue
        if pc.op is _ANY:
            out.append(qc)
            continue
        if not orderable:
            if pc.op is _EQ and qc.op is _EQ and pc.value == qc.value:
                out.append(pc)
                continue
            return None
        b = _bounds_intersect(_bounds(pc, discrete), _bounds(qc, discrete))
        if _bounds_empty(b, discrete):
            return None
        out.append(_constraint_from_bounds(b, discrete))
    return Pattern(p.schema, tuple(out))


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


class _Guard:
    """A pattern, its matcher, and the keys ``GuardSet`` places and
    pre-checks it by."""

    __slots__ = ("pattern", "matcher", "eqs", "hi")

    def __init__(self, pattern: Pattern):
        self.pattern = pattern
        self.matcher = None  # set by GuardSet.add
        # (attribute index, value) of every equality constraint; the first
        # one is the guard's key in the probe table
        self.eqs = tuple(
            (i, c.value) for i, c in enumerate(pattern.constraints) if c.op is _EQ
        )
        # inclusive upper bound on the progress attribute, None if unbounded
        c = pattern.constraints[pattern.schema.timestamp_attr]
        self.hi = _bounds(c, True)[2]

    def may_subsume(self, other: "_Guard") -> bool:
        """Cheap necessary condition for ``subsumes(self.pattern,
        other.pattern)`` when ``other`` is satisfiable."""
        if self.hi is not None and (other.hi is None or other.hi > self.hi):
            return False
        cs = other.pattern.constraints
        for i, x in self.eqs:
            c = cs[i]
            if c.op is _ANY or (c.op is _EQ and c.value != x):
                return False
        return True


class GuardSet(dict):
    """Retained feedback patterns with punctuation-driven expiration.

    A guard expires once an embedded punctuation subsuming it has been
    processed: the stream then can no longer produce matching items, so
    keeping the pattern would only accumulate state.

    The set is a dict whose keys are the live guards (``_Guard`` -> None,
    in insertion order), so ``if guards:`` and ``len(guards)`` cost no
    Python call on the per-row path.

    Invariants, kept by ``add`` and ``expire``:

    - Probe table: ``_probe`` holds, per attribute that some guard's first
      equality constrains, ``{value: (matcher, ...)}`` of the guards keyed
      there, and ``_scan`` the matchers of every other guard, all in
      insertion order.  Both are rebuilt from the live guards whenever
      ``add`` or ``expire`` changes them, so ``drop`` only walks tuples:
      one dict probe per indexed attribute, then one matcher call per
      candidate guard.  ``drop`` could test the common shapes inline,
      but it calls the matchers ``Pattern.matcher`` returned, because the
      benchmark tracer counts pattern matches by wrapping those closures.
    - Subsumption-aware add: no live guard subsumes another, an empty
      pattern is never added, and a pattern subsumed by a live guard is
      skipped.  The rows ``drop`` matches are those matched by the
      patterns added and not yet covered by a punctuation, so ``len``
      can be smaller than that count but never larger.

    ``add`` and ``expire`` scan the live guards, which are few, and call
    ``subsumes`` only on those that pass ``_Guard.may_subsume``: a
    punctuation ``ts <= b`` is tried only on guards bounded by ``b``.
    The set is changed only from its operator's thread.
    """

    __slots__ = ("_probe", "_scan")

    def __init__(self):
        super().__init__()
        self._probe = ()  # ((attribute index, {value: (matcher, ...)}), ...)
        self._scan = ()   # (matcher, ...) of the guards without an equality

    def add(self, pattern: Pattern) -> bool:
        """Install ``pattern``; False when it changes nothing ``drop``
        matches (it is empty or a live guard subsumes it)."""
        if is_empty(pattern):
            return False
        new = _Guard(pattern)
        for g in self:
            if g.may_subsume(new) and subsumes(g.pattern, pattern):
                return False
        for g in [
            g for g in self
            if new.may_subsume(g) and subsumes(pattern, g.pattern)
        ]:
            del self[g]
        # looked up on the class at each call: the benchmark tracer
        # patches Pattern.matcher to count guard checks
        new.matcher = pattern.matcher()
        self[new] = None
        self._rebuild()
        return True

    def drop(self, row) -> bool:
        for i, table in self._probe:
            matchers = table.get(row[i])
            if matchers is not None:
                for m in matchers:
                    if m(row):
                        return True
        scan = self._scan
        if scan:  # empty for every zoom guard: skip the loop
            for m in scan:
                if m(row):
                    return True
        return False

    def expire(self, punct_pattern: Pattern) -> int:
        if not self:
            return 0
        punct = _Guard(punct_pattern)
        # subsumes is looked up in this module at each call, here and in
        # add: the benchmark tracer patches it
        doomed = [
            g for g in self
            if punct.may_subsume(g) and subsumes(punct_pattern, g.pattern)
        ]
        if doomed:
            for g in doomed:
                del self[g]
            self._rebuild()
        return len(doomed)

    def _rebuild(self) -> None:
        """Refill the probe table from the live guards."""
        probe, scan = {}, []
        for g in self:
            if g.eqs:
                i, x = g.eqs[0]
                table = probe.get(i)
                if table is None:
                    table = probe[i] = {}
                ms = table.get(x)
                table[x] = (g.matcher,) if ms is None else ms + (g.matcher,)
            else:
                scan.append(g.matcher)
        self._probe = tuple(probe.items())
        self._scan = tuple(scan)


# ---------------------------------------------------------------------------
# Punctuation and stream items
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddedPunctuation:
    """Flows with the data: no future row in this stream matches pattern."""

    pattern: Pattern


class Intent(enum.Enum):
    ASSUMED = "assumed"    # notation: ¬ — matching rows will be ignored downstream
    DESIRED = "desired"    # notation: ? — carried but never exploited here
    DEMANDED = "demanded"  # notation: ! — carried but never exploited here


@dataclass(frozen=True)
class FeedbackPunctuation:
    """Flows upstream on the control channel against the data flow."""

    intent: Intent
    pattern: Pattern


def assumed(pattern: Pattern) -> FeedbackPunctuation:
    return FeedbackPunctuation(Intent.ASSUMED, pattern)


StreamItem = Union[Row, EmbeddedPunctuation]


def is_punct(item: StreamItem) -> bool:
    return type(item) is EmbeddedPunctuation


# ---------------------------------------------------------------------------
# Pattern text syntax:  schema_name: [c1, c2, ...]
# with c in  *  =v  <v  <=v  >v  >=v  [lo,hi)
# ---------------------------------------------------------------------------


def parse_value(text: str, attr_type: AttrType):
    text = text.strip()
    if text == "null":
        return None
    try:
        if attr_type in (AttrType.INT, AttrType.TIMESTAMP):
            return int(text)
        if attr_type is AttrType.FLOAT:
            return float(text)
    except ValueError as exc:
        raise PatternSyntaxError(f"bad {attr_type.value} literal {text!r}") from exc
    return text  # text attribute: bare string


def parse_constraint(text: str, attr_type: AttrType) -> Constraint:
    text = text.strip()
    if text == "*":
        return _WILDCARD
    if text[0] in "[(":
        lo_incl = text[0] == "["
        if text[-1] not in ")]":
            raise PatternSyntaxError(f"unterminated interval {text!r}")
        hi_incl = text[-1] == "]"
        body = text[1:-1]
        parts = body.split(",")
        if len(parts) != 2:
            raise PatternSyntaxError(f"interval needs two bounds: {text!r}")
        lo = parse_value(parts[0], attr_type)
        hi = parse_value(parts[1], attr_type)
        return Constraint(Op.RANGE, lo=lo, hi=hi, lo_incl=lo_incl, hi_incl=hi_incl)
    for sym, ctor in (
        ("<=", Constraint.le),
        (">=", Constraint.ge),
        ("<", Constraint.lt),
        (">", Constraint.gt),
        ("=", Constraint.eq),
    ):
        if text.startswith(sym):
            return ctor(parse_value(text[len(sym):], attr_type))
    raise PatternSyntaxError(f"cannot parse constraint {text!r}")


def _split_top_level(body: str) -> list:
    """Split on commas not nested inside interval brackets."""
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch in "[(":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_pattern(text: str, schema: Schema) -> Pattern:
    text = text.strip()
    if ":" in text.split("[", 1)[0]:
        name, _, rest = text.partition(":")
        if name.strip() != schema.name:
            raise PatternSyntaxError(
                f"pattern names schema {name.strip()!r}, expected {schema.name!r}"
            )
        text = rest.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise PatternSyntaxError(f"pattern body must be bracketed: {text!r}")
    parts = _split_top_level(text[1:-1])
    if len(parts) != len(schema):
        raise PatternSyntaxError(
            f"pattern has {len(parts)} constraints, schema {schema.name!r} has {len(schema)}"
        )
    cs = tuple(
        parse_constraint(part, t) for part, t in zip(parts, schema.attr_types)
    )
    return Pattern(schema, cs)
