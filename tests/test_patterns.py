"""Pattern algebra: matching, subsumption, conjunction.

The exhaustive checks enumerate small integer domains and compare against
set semantics computed directly from matches(); subsumes/conjoin must
agree with those brute-force sets.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punctstream.core import (
    AttrType,
    Constraint,
    Op,
    Pattern,
    Schema,
    SchemaMismatchError,
    conjoin,
    matches,
    parse_pattern,
    subsumes,
)

C = Constraint


def pat(schema, *cs):
    return Pattern(schema, tuple(cs))


# --- matches ---------------------------------------------------------------


def test_matches_time_bound(ts_value_schema):
    # "all data before 10:00:00 AM" covers a 09:59:00 reading
    p = pat(ts_value_schema, C.le(36000), C.wildcard())
    assert matches((35940, 42), p)
    assert not matches((36060, 42), p)


def test_all_wildcard_matches_everything(ts_value_schema):
    p = Pattern.all_wildcard(ts_value_schema)
    assert matches((0, 0), p)
    assert matches((None, None), p)


def test_joined_tuple_escapes_endpoint_pattern(joined_schema):
    p = pat(joined_schema, C.eq(50), C.wildcard(), C.wildcard(), C.eq(50))
    assert not matches((49, 2, 3, 50), p)
    assert matches((50, 2, 3, 50), p)


def test_null_satisfies_only_wildcard(ts_value_schema):
    assert not matches((None, 5), pat(ts_value_schema, C.le(100), C.wildcard()))
    assert not matches((100, None), pat(ts_value_schema, C.wildcard(), C.ge(0)))
    assert matches((None, None), Pattern.all_wildcard(ts_value_schema))


def test_matches_schema_mismatch(ts_value_schema, left_schema):
    p = Pattern.all_wildcard(ts_value_schema)
    with pytest.raises(SchemaMismatchError):
        matches((1, 2, 3), p, schema=left_schema)


# --- subsumes --------------------------------------------------------------


def test_wider_bound_subsumes_narrower(ts_value_schema):
    wide = pat(ts_value_schema, C.le(36300), C.wildcard())
    narrow = pat(ts_value_schema, C.le(36000), C.wildcard())
    assert subsumes(wide, narrow)
    assert not subsumes(narrow, wide)


def test_wildcard_subsumes_everything(ts_value_schema):
    top = Pattern.all_wildcard(ts_value_schema)
    assert subsumes(top, pat(ts_value_schema, C.eq(3), C.ge(10)))
    assert subsumes(top, top)


def test_distinct_equalities_do_not_subsume(ts_value_schema):
    p = pat(ts_value_schema, C.wildcard(), C.eq(3))
    q = pat(ts_value_schema, C.wildcard(), C.eq(4))
    # value 4 matches q but not p
    assert not subsumes(p, q)


def test_discrete_strict_vs_closed_bounds(ts_value_schema):
    # over integers, < 5 and <= 4 describe the same set
    assert subsumes(
        pat(ts_value_schema, C.lt(5), C.wildcard()),
        pat(ts_value_schema, C.le(4), C.wildcard()),
    )
    assert subsumes(
        pat(ts_value_schema, C.le(4), C.wildcard()),
        pat(ts_value_schema, C.lt(5), C.wildcard()),
    )


# --- conjoin ---------------------------------------------------------------


def test_conjoin_bounds_to_interval(ts_value_schema):
    p = pat(ts_value_schema, C.wildcard(), C.ge(10))
    q = pat(ts_value_schema, C.wildcard(), C.le(20))
    r = conjoin(p, q)
    assert r.constraints[1] == C.interval(10, 21)
    # brute force over 0..30
    for v in range(31):
        assert r.constraints[1].matches_value(v) == (10 <= v <= 20)


def test_conjoin_with_wildcard_is_identity(ts_value_schema):
    p = pat(ts_value_schema, C.le(100), C.eq(7))
    assert conjoin(p, Pattern.all_wildcard(ts_value_schema)) == p
    assert conjoin(Pattern.all_wildcard(ts_value_schema), p) == p


def test_conjoin_disjoint_equalities_unsatisfiable(ts_value_schema):
    p = pat(ts_value_schema, C.wildcard(), C.eq(5))
    q = pat(ts_value_schema, C.wildcard(), C.eq(6))
    assert conjoin(p, q) is None


# --- exhaustive coherence over small domains -------------------------------

_DOMAIN = list(range(8)) + [None]


def _all_constraints(values=range(8)):
    cs = [C.wildcard()]
    for v in values:
        cs += [C.eq(v), C.lt(v), C.le(v), C.gt(v), C.ge(v)]
    for lo in values:
        for hi in values:
            if lo < hi:
                cs.append(C.interval(lo, hi))
    return cs


_SMALL = _all_constraints(range(4))
_INT2 = Schema("d2", (("t", AttrType.TIMESTAMP), ("x", AttrType.INT)), 0)


def test_conjoin_matches_coherence_exhaustive():
    rows = [(a, b) for a in _DOMAIN for b in _DOMAIN]
    singles = _all_constraints(range(4))
    for ca, cb in itertools.product(singles, repeat=2):
        p = pat(_INT2, ca, C.wildcard())
        q = pat(_INT2, cb, C.wildcard())
        r = conjoin(p, q)
        for row in rows:
            both = matches(row, p) and matches(row, q)
            got = False if r is None else matches(row, r)
            assert got == both, f"{p} ⊓ {q} -> {r} at {row}"


def test_subsumes_soundness_exhaustive():
    rows = [(a, b) for a in _DOMAIN for b in _DOMAIN]
    singles = _SMALL
    for ca, cb in itertools.product(singles, repeat=2):
        p = pat(_INT2, C.wildcard(), ca)
        q = pat(_INT2, C.wildcard(), cb)
        if subsumes(p, q):
            for row in rows:
                assert not matches(row, q) or matches(row, p), f"{p} vs {q} at {row}"


# --- property tests --------------------------------------------------------


@st.composite
def constraints(draw):
    kind = draw(st.sampled_from(["*", "=", "<", "<=", ">", ">=", "iv"]))
    if kind == "*":
        return C.wildcard()
    if kind == "iv":
        lo = draw(st.integers(-5, 4))
        hi = draw(st.integers(lo + 1, 6))
        return C.interval(lo, hi)
    v = draw(st.integers(-5, 5))
    return {"=": C.eq, "<": C.lt, "<=": C.le, ">": C.gt, ">=": C.ge}[kind](v)


@st.composite
def patterns(draw, schema=_INT2):
    return Pattern(schema, tuple(draw(constraints()) for _ in schema.attributes))


@given(patterns(), patterns(), st.lists(st.one_of(st.integers(-6, 6), st.none()), min_size=2, max_size=2))
@settings(max_examples=300)
def test_subsumption_implies_containment(p, q, vals):
    row = tuple(vals)
    if subsumes(p, q) and matches(row, q):
        assert matches(row, p)


@given(patterns(), patterns(), st.lists(st.one_of(st.integers(-6, 6), st.none()), min_size=2, max_size=2))
@settings(max_examples=300)
def test_conjoin_coherence_property(p, q, vals):
    row = tuple(vals)
    r = conjoin(p, q)
    got = False if r is None else matches(row, r)
    assert got == (matches(row, p) and matches(row, q))


# --- compiled matchers against the interpretive reference ------------------

_MIXED = Schema(
    "mixed",
    (
        ("t", AttrType.TIMESTAMP),
        ("f", AttrType.FLOAT),
        ("s", AttrType.TEXT),
        ("i", AttrType.INT),
    ),
    0,
)

_FLOATS = [-1.5, -1.0, 0.0, 0.5, 1.0, 2.0]
_TEXTS = ["a", "b", ""]


@st.composite
def ordered_constraints(draw, values):
    """Any op over ``values``; RANGE with all four inclusivities."""
    op = draw(st.sampled_from(list(Op)))
    if op is Op.ANY:
        return C.wildcard()
    if op is Op.RANGE:
        lo, hi = sorted(draw(st.lists(values, min_size=2, max_size=2)))
        return C(Op.RANGE, lo=lo, hi=hi, lo_incl=draw(st.booleans()),
                 hi_incl=draw(st.booleans()))
    if op is Op.EQ:
        return C.eq(draw(st.one_of(values, st.none())))  # '=null' included
    return C(op, value=draw(values))


@st.composite
def mixed_patterns(draw):
    ints = st.integers(-2, 3)
    return Pattern(_MIXED, (
        draw(ordered_constraints(ints)),
        draw(ordered_constraints(st.sampled_from(_FLOATS))),
        draw(st.one_of(st.just(C.wildcard()),
                       st.builds(C.eq, st.one_of(st.sampled_from(_TEXTS), st.none())))),
        draw(ordered_constraints(ints)),
    ))


@st.composite
def mixed_rows(draw):
    ints = st.one_of(st.none(), st.integers(-3, 4))
    floats = st.one_of(
        st.none(), st.sampled_from(_FLOATS + [-3.0, 3.0, 1, float("nan")])
    )
    return (draw(ints), draw(floats),
            draw(st.one_of(st.none(), st.sampled_from(_TEXTS))), draw(ints))


@given(mixed_patterns(), mixed_rows())
@settings(max_examples=600)
def test_matcher_agrees_with_matches(p, row):
    assert p.matcher()(row) == p.matches(row), (p, row)
    for c, v in zip(p.constraints, row):
        assert c.compile()(v) == c.matches_value(v), (c, v)


def test_matcher_covers_every_arity():
    cs = [C.eq(1), C.interval(0.0, 1.0), C.eq("a"), C.ge(2)]
    hit = (1, 0.5, "a", 2)
    for n in range(len(cs) + 1):
        p = Pattern(_MIXED, tuple(cs[:n]) + (C.wildcard(),) * (len(cs) - n))
        m = p.matcher()
        assert m(hit)
        for k in range(n):  # a miss on any one constrained attribute
            assert not m(hit[:k] + (None,) + hit[k + 1:])


def test_null_equality_is_empty(ts_value_schema):
    nothing = pat(ts_value_schema, C.wildcard(), C.eq(None))
    some = pat(ts_value_schema, C.wildcard(), C.lt(5))
    assert not nothing.matches((0, None)) and not nothing.matches((0, 3))
    assert subsumes(some, nothing)
    assert not subsumes(nothing, some)
    assert conjoin(nothing, some) is None


# --- text syntax -----------------------------------------------------------


def test_pattern_round_trip(ts_value_schema):
    p = pat(ts_value_schema, C.le(36000), C.interval(10, 21))
    text = p.format()
    assert text == "reading: [<=36000, [10,21)]"
    assert parse_pattern(text, ts_value_schema) == p


def test_parse_all_forms(ts_value_schema):
    p = parse_pattern("[*, >=50]", ts_value_schema)
    assert p.constraints[0] == C.wildcard()
    assert p.constraints[1] == C.ge(50)
    q = parse_pattern("reading: [<100, =7]", ts_value_schema)
    assert q.constraints == (C.lt(100), C.eq(7))
