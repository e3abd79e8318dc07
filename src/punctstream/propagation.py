"""Output-to-input schema mapping and safe rewriting of feedback patterns.

An operator may relay a feedback pattern to an antecedent only when a
function from its output schema back to that input schema exists for every
constrained attribute.  Constraints on computed or constant attributes, or
constraints spanning attributes that originate in different inputs, block
propagation entirely: suppressing upstream tuples outside the described
subset could silently remove results the feedback never covered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from punctstream.core import (
    AttrType,
    Constraint,
    Op,
    Pattern,
    Schema,
    SchemaMismatchError,
    conjoin,
)


class OriginKind(enum.Enum):
    INPUT = "input"        # copied verbatim from one or more inputs
    WINDOW = "window"      # tumbling-window start derived from an input timestamp
    COMPUTED = "computed"  # no inverse mapping attempted
    CONSTANT = "constant"


@dataclass(frozen=True)
class Origin:
    kind: OriginKind
    # (input_index, attr_index) pairs; INPUT origins shared by both join
    # inputs carry one source per input.  WINDOW origins carry the source
    # timestamp attribute plus the window range.
    sources: tuple = ()
    window_range: int = 0

    @staticmethod
    def from_input(*sources) -> "Origin":
        return Origin(OriginKind.INPUT, tuple(sources))

    @staticmethod
    def window(input_index: int, ts_attr: int, range_seconds: int) -> "Origin":
        return Origin(OriginKind.WINDOW, ((input_index, ts_attr),), range_seconds)

    @staticmethod
    def computed() -> "Origin":
        return Origin(OriginKind.COMPUTED)

    @staticmethod
    def constant() -> "Origin":
        return Origin(OriginKind.CONSTANT)


@dataclass(frozen=True)
class AttributeMapping:
    output_schema: Schema
    input_schemas: tuple  # of Schema (1 unary, 2 binary)
    origins: tuple  # one Origin per output attribute

    def __post_init__(self):
        object.__setattr__(self, "input_schemas", tuple(self.input_schemas))
        object.__setattr__(self, "origins", tuple(self.origins))
        if len(self.origins) != len(self.output_schema):
            raise ValueError("one origin per output attribute required")
        for o in self.origins:
            for inp, attr in o.sources:
                if not (0 <= inp < len(self.input_schemas)):
                    raise ValueError(f"origin references input {inp}, not in plan")
                schema = self.input_schemas[inp]
                if not (0 <= attr < len(schema)):
                    raise ValueError(f"origin references attribute {attr} of {schema.name!r}")


def identity_mapping(schema: Schema) -> AttributeMapping:
    """Unary mapping for schema-preserving operators."""
    return AttributeMapping(
        output_schema=schema,
        input_schemas=(schema,),
        origins=tuple(Origin.from_input((0, i)) for i in range(len(schema))),
    )


# ---------------------------------------------------------------------------
# Window-start constraint -> input-timestamp constraint.  Window starts are
# the multiples of the range r; a row with timestamp t belongs to the window
# starting at floor(t / r) * r.
# ---------------------------------------------------------------------------


def _ceil_mult(v: int, r: int) -> int:
    return -(-v // r) * r


def rewrite_window_constraint(c: Constraint, r: int) -> Optional[Constraint]:
    """Exact inverse image under t -> floor(t/r)*r, or None when the
    constraint matches no window start at all (e.g. equality on a value
    that is not a multiple of the range)."""
    if c.op is Op.ANY:
        return c
    if c.op is Op.EQ:
        if c.value is None or c.value % r != 0:
            return None  # no window start is null
        return Constraint.interval(c.value, c.value + r)
    if c.op is Op.LT:
        return Constraint.lt(_ceil_mult(c.value, r))
    if c.op is Op.LE:
        return Constraint.lt((c.value // r + 1) * r)
    if c.op is Op.GE:
        return Constraint.ge(_ceil_mult(c.value, r))
    if c.op is Op.GT:
        return Constraint.ge((c.value // r + 1) * r)
    # RANGE over window starts; canonical half-open [lo, hi)
    lo = c.lo if c.lo_incl else c.lo + 1
    hi = c.hi + 1 if c.hi_incl else c.hi
    lo, hi = _ceil_mult(lo, r), _ceil_mult(hi, r)
    if lo >= hi:
        return None  # no window start inside the range
    return Constraint.interval(lo, hi)


def derive_input_patterns(
    f: Pattern, m: AttributeMapping
) -> Tuple[Optional[Pattern], ...]:
    """Rewrite a feedback pattern on the output schema onto each input.

    Returns one entry per input: a pattern over that input's schema, or
    None when no safe rewrite exists for it.
    """
    if f.schema != m.output_schema:
        raise SchemaMismatchError(
            f"pattern schema {f.schema.name!r} != mapping output {m.output_schema.name!r}"
        )
    constrained = f.constrained_indices()
    n_inputs = len(m.input_schemas)
    if not constrained:
        # all-wildcard feedback covers everything; rewrite is itself
        return tuple(Pattern.all_wildcard(s) for s in m.input_schemas)

    for i in constrained:
        if m.origins[i].kind in (OriginKind.COMPUTED, OriginKind.CONSTANT):
            return (None,) * n_inputs

    results = []
    for inp in range(n_inputs):
        schema = m.input_schemas[inp]
        per_attr = {}  # input attr index -> list of constraints
        ok = True
        for i in constrained:
            origin = m.origins[i]
            src = next(
                ((a for ii, a in origin.sources if ii == inp)), None
            )
            if src is None:
                ok = False
                break
            c = f.constraints[i]
            if origin.kind is OriginKind.WINDOW:
                c = rewrite_window_constraint(c, origin.window_range)
                if c is None:
                    # the constraint selects no window: no rewrite offered
                    ok = False
                    break
            per_attr.setdefault(src, []).append(c)
        if not ok:
            results.append(None)
            continue
        base = [Constraint.wildcard()] * len(schema)
        for attr, cs in per_attr.items():
            base[attr] = cs[0]
        pattern = Pattern(schema, tuple(base))
        for attr, cs in per_attr.items():
            for c in cs[1:]:
                extra = Pattern.of(schema, **{schema.attr_names[attr]: c})
                pattern = conjoin(pattern, extra)
                if pattern is None:
                    break
            if pattern is None:
                break
        results.append(pattern)
    if all(r is None for r in results):
        # cross-input hazard (or unsatisfiable rewrites): nothing is safe
        return (None,) * n_inputs
    return tuple(results)
