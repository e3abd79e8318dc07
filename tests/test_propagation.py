"""Safe rewriting of feedback patterns onto input schemas.

The join examples mirror the A(a,t,id) ⋈ B(t,id,b) equi-join on (t, id):
constraints on join attributes rewrite to both sides, left-only
constraints rewrite to the left side only, and constraints spanning
left- and right-unique attributes admit no safe rewrite at all.
"""

import pytest

from punctstream.core import (
    AttrType,
    Constraint,
    Pattern,
    Schema,
    SchemaMismatchError,
    matches,
)
from punctstream.propagation import (
    AttributeMapping,
    Origin,
    derive_input_patterns,
    identity_mapping,
    rewrite_window_constraint,
)

C = Constraint


@pytest.fixture
def join_mapping(left_schema, right_schema, joined_schema):
    # C(a, t, id, b): a from left only; t, id shared join attributes; b right only
    return AttributeMapping(
        output_schema=joined_schema,
        input_schemas=(left_schema, right_schema),
        origins=(
            Origin.from_input((0, 0)),
            Origin.from_input((0, 1), (1, 0)),
            Origin.from_input((0, 2), (1, 1)),
            Origin.from_input((1, 2)),
        ),
    )


def test_join_attr_feedback_propagates_both_sides(join_mapping, left_schema, right_schema, joined_schema):
    f = Pattern.of(joined_schema, t=C.eq(3), id=C.eq(4))
    left, right = derive_input_patterns(f, join_mapping)
    assert left == Pattern.of(left_schema, t=C.eq(3), id=C.eq(4))
    assert right == Pattern.of(right_schema, t=C.eq(3), id=C.eq(4))


def test_left_only_feedback_propagates_left_only(join_mapping, left_schema, joined_schema):
    f = Pattern.of(joined_schema, a=C.eq(50))
    left, right = derive_input_patterns(f, join_mapping)
    assert left == Pattern.of(left_schema, a=C.eq(50))
    assert right is None


def test_cross_input_feedback_propagates_nowhere(join_mapping, joined_schema):
    f = Pattern.of(joined_schema, a=C.eq(50), b=C.eq(50))
    assert derive_input_patterns(f, join_mapping) == (None, None)


def test_left_and_join_attrs_rewrite_left_only(join_mapping, left_schema, joined_schema):
    f = Pattern.of(joined_schema, a=C.eq(50), t=C.eq(3), id=C.eq(4))
    left, right = derive_input_patterns(f, join_mapping)
    assert left == Pattern.of(left_schema, a=C.eq(50), t=C.eq(3), id=C.eq(4))
    assert right is None


def test_identity_mapping_round_trip(ts_value_schema):
    m = identity_mapping(ts_value_schema)
    assert len(m.origins) == 2
    f = Pattern.of(ts_value_schema, ts=C.le(940))
    (back,) = derive_input_patterns(f, m)
    assert back == f


def test_computed_attribute_blocks_propagation(ts_value_schema):
    # aggregate output (minute, avg_speed): the aggregate value is computed
    out = Schema(
        "avg_out", (("minute", AttrType.TIMESTAMP), ("avg_speed", AttrType.FLOAT)), 0
    )
    m = AttributeMapping(
        output_schema=out,
        input_schemas=(ts_value_schema,),
        origins=(Origin.window(0, 0, 60), Origin.computed()),
    )
    f = Pattern.of(out, avg_speed=C.ge(50.0))
    assert derive_input_patterns(f, m) == (None,)


def test_window_constraint_rewrites_to_timestamp_interval(ts_value_schema):
    out = Schema(
        "cnt_out", (("win", AttrType.TIMESTAMP), ("n", AttrType.INT)), 0
    )
    m = AttributeMapping(
        output_schema=out,
        input_schemas=(ts_value_schema,),
        origins=(Origin.window(0, 0, 60), Origin.computed()),
    )
    f = Pattern.of(out, win=C.eq(120))
    (p,) = derive_input_patterns(f, m)
    assert p.constraints[0] == C.interval(120, 180)

    f2 = Pattern.of(out, win=C.lt(32460))  # windows before 9:01:00
    (p2,) = derive_input_patterns(f2, m)
    assert p2.constraints[0] == C.lt(32460)


@pytest.mark.parametrize("r", [7, 60])
def test_window_rewrite_is_exact(r):
    # brute force: ts matches rewritten constraint iff its window start
    # matches the original constraint; None means the original matches no
    # window start at all
    cases = [
        C.eq(2 * r),
        C.eq(2 * r + 1),  # misaligned equality: selects nothing
        C.lt(13),
        C.le(13),
        C.gt(13),
        C.ge(13),
        C.interval(5, 3 * r),
        C.interval(r + 1, r + 3),  # straddles no window start
        C.eq(None),  # no window start is null
    ]
    for c in cases:
        rc = rewrite_window_constraint(c, r)
        for ts in range(0, 5 * r):
            win = (ts // r) * r
            got = False if rc is None else rc.matches_value(ts)
            assert got == c.matches_value(win), (c, r, ts)


def test_schema_mismatch_rejected(join_mapping, left_schema):
    with pytest.raises(SchemaMismatchError):
        derive_input_patterns(Pattern.all_wildcard(left_schema), join_mapping)


def test_derived_pattern_never_constrains_computed(ts_value_schema):
    out = Schema(
        "o", (("win", AttrType.TIMESTAMP), ("g", AttrType.INT), ("v", AttrType.FLOAT)), 0
    )
    m = AttributeMapping(
        output_schema=out,
        input_schemas=(ts_value_schema,),
        origins=(Origin.window(0, 0, 60), Origin.from_input((0, 1)), Origin.computed()),
    )
    f = Pattern.of(out, g=C.eq(3))
    (p,) = derive_input_patterns(f, m)
    assert p == Pattern.of(ts_value_schema, datavalue=C.eq(3))
