"""Seeded input generators: the table rounding equals ``round()``, and the
generators return exactly the rows of their straightforward reference
versions, kept here verbatim as oracles."""

import random

import pytest
from hypothesis import given, strategies as st

from punctstream.generators import (
    ReadingStreamConfig,
    SensorStreamConfig,
    reading_rows,
    round_cents,
    round_tenths,
    sensor_rows,
)
from punctstream.workloads import _reading_rows

# -- reference generators ----------------------------------------------------


def reference_sensor_rows(config):
    rng = random.Random(config.seed)
    n_det = config.segments * config.detectors_per_segment
    base = [45.0 + 20.0 * rng.random() for _ in range(config.segments)]
    for tick in range(config.duration_seconds // config.resolution_seconds):
        ts = tick * config.resolution_seconds
        for det in range(n_det):
            seg = det // config.detectors_per_segment
            if config.null_fraction and rng.random() < config.null_fraction:
                speed = None
            else:
                speed = round(base[seg] + rng.uniform(-5.0, 5.0), 2)
            yield (det, seg, ts, speed)
        # bounded per-segment drift keeps the baselines non-constant
        for seg in range(config.segments):
            base[seg] = min(75.0, max(20.0, base[seg] + rng.uniform(-0.5, 0.5)))


def reference_reading_rows(config):
    rng = random.Random(config.seed)
    rows = []
    for ts in range(config.n_rows):
        det = ts % config.detectors
        if rng.random() < config.null_fraction:
            speed = None
        else:
            speed = round(40.0 + 30.0 * rng.random(), 2)
        rows.append((det, ts, speed))
    return rows


def reference_workload_rows(rng, n):
    return [
        (
            rng.randrange(4),
            ts,
            None if rng.random() < 0.1 else round(rng.uniform(10.0, 70.0), 1),
        )
        for ts in range(n)
    ]


def same(a, b) -> bool:
    """Equal rows, floats compared as doubles (repr tells -0.0 from 0.0)."""
    return repr(a) == repr(b)


# -- rounding ------------------------------------------------------------------

# values within 1e-9 of a half step, where the table must defer to round()
near_half_cents = st.builds(
    lambda k, d: (k + 0.5) / 100 + d,
    st.integers(-100, 10_100),
    st.floats(-1e-9, 1e-9),
)
near_half_tenths = st.builds(
    lambda k, d: (k + 0.5) / 10 + d,
    st.integers(-10, 1_010),
    st.floats(-1e-9, 1e-9),
)
plain = st.floats(-5.0, 120.0)


@given(st.one_of(plain, near_half_cents))
def test_round_cents_is_round(x):
    assert same(round_cents(x), round(x, 2))


@given(st.one_of(plain, near_half_tenths))
def test_round_tenths_is_round(x):
    assert same(round_tenths(x), round(x, 1))


def test_rounding_at_edges():
    for x in (0.0, -0.0, -0.001, 0.001, 0.004999, 0.005, 99.994, 99.995, 99.999,
              100.0, 1e6, 0.125, 2.675, 1.005, 0.05, 0.15, 0.25):
        assert same(round_cents(x), round(x, 2)), x
        assert same(round_tenths(x), round(x, 1)), x


# -- generators ------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 103])
@pytest.mark.parametrize("null_fraction", [0.0, 0.3])
def test_sensor_rows_match_reference(seed, null_fraction):
    config = SensorStreamConfig(
        duration_seconds=1200, segments=5, detectors_per_segment=7,
        null_fraction=null_fraction, seed=seed,
    )
    assert same(list(sensor_rows(config)), list(reference_sensor_rows(config)))


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 103])
@pytest.mark.parametrize("null_fraction", [0.0, 0.5, 0.9])
def test_reading_rows_match_reference(seed, null_fraction):
    config = ReadingStreamConfig(
        n_rows=3000, detectors=3, null_fraction=null_fraction, seed=seed
    )
    assert same(reading_rows(config), reference_reading_rows(config))


@pytest.mark.parametrize("seed", range(8))
def test_workload_rows_match_reference(seed):
    # the workload draws on from the same generator, so its state must agree too
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert same(_reading_rows(rng, 2000), reference_workload_rows(ref_rng, 2000))
    assert rng.getstate() == ref_rng.getstate()
