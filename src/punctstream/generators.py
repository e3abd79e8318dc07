"""Seeded synthetic sensor streams and the zoom-ahead feedback schedule.

The traffic-style stream models a highway split into segments, each
carrying a fixed set of speed detectors that report once per resolution
interval.  Rows are ordered by timestamp, detectors interleaved within
each tick, so the stream is in timestamp order and can be punctuated by
the source.

The generators draw from one seeded ``random.Random`` in a fixed order, so
a seed always gives the same rows.  Speeds are rounded to cents (tenths in
the workload generator) by table lookup: ``round_cents(x)`` takes
n = ``round(100 * x)`` and returns the table's ``n / 100.0``, which is
exactly ``round(x, 2)``.  For 0 <= x < 100 the computed ``100 * x`` lies
within 1e-12 of the exact product, so away from a half cent n is the
correctly rounded integer that ``round`` finds from the exact value, and
``n / 100.0`` is the double nearest to n/100, which is what ``round``
returns through its correctly rounded decimal string.  Within 1e-7 of a
half cent, at zero (where ``round`` keeps the sign of a negative x) and
outside the table, ``round`` itself is called.  Rows share their speed
floats with the table and their detector and segment ints with each
other, which keeps a large stream's memory down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, cycle, islice, repeat
from typing import Callable, Iterator, List, Optional

from punctstream.core import AttrType, Constraint, Pattern, Schema, assumed

SENSOR_SCHEMA = Schema(
    "sensor",
    (
        ("det", AttrType.INT),
        ("seg", AttrType.INT),
        ("ts", AttrType.TIMESTAMP),
        ("speed", AttrType.FLOAT),
    ),
    2,
)

# two-attribute reading stream for the imputation pipeline
READING_SCHEMA = Schema(
    "reading",
    (
        ("det", AttrType.INT),
        ("ts", AttrType.TIMESTAMP),
        ("speed", AttrType.FLOAT),
    ),
    1,
)


def _table_round(digits: int) -> Callable[[float], float]:
    """``round(x, digits)``, by table lookup for 0 < x < 100 (see the
    module docstring)."""
    scale = 10.0 ** digits
    table = [n / scale for n in range(100 * 10 ** digits)]
    size = len(table)
    near_half = 0.5 - 1e-7

    def rounded(x: float) -> float:
        y = x * scale
        n = round(y)
        if 0 < n < size and -near_half < y - n < near_half:
            return table[n]
        return round(x, digits)

    return rounded


round_cents = _table_round(2)
round_tenths = _table_round(1)


@dataclass(frozen=True)
class SensorStreamConfig:
    duration_seconds: int
    resolution_seconds: int = 20
    segments: int = 9
    detectors_per_segment: int = 40
    null_fraction: float = 0.0
    seed: int = 0


def sensor_rows(config: SensorStreamConfig) -> Iterator[tuple]:
    """Rows (det, seg, ts, speed) in timestamp order; speed is a smooth
    per-segment baseline plus noise, or null at ``null_fraction``."""
    return chain.from_iterable(_sensor_ticks(config))


def _sensor_ticks(config: SensorStreamConfig) -> Iterator[Iterator[tuple]]:
    """The rows of ``sensor_rows``, an iterator per tick."""
    rng = random.Random(config.seed)
    rand = rng.random
    null_fraction = config.null_fraction
    dets = list(range(config.segments * config.detectors_per_segment))
    segs = [det // config.detectors_per_segment for det in dets]
    base = [45.0 + 20.0 * rand() for _ in range(config.segments)]
    for tick in range(config.duration_seconds // config.resolution_seconds):
        # one tick at a time, drawing in detector order; the noise is
        # rng.uniform(-5.0, 5.0) written out as CPython computes it
        speeds = [
            None if null_fraction and rand() < null_fraction
            else round_cents(base[seg] + (-5.0 + 10.0 * rand()))
            for seg in segs
        ]
        yield zip(dets, segs, repeat(tick * config.resolution_seconds), speeds)
        # bounded per-segment drift keeps the baselines non-constant
        for seg in range(config.segments):
            base[seg] = min(75.0, max(20.0, base[seg] + (-0.5 + 1.0 * rand())))


@dataclass(frozen=True)
class ReadingStreamConfig:
    n_rows: int
    detectors: int = 4
    null_fraction: float = 0.5
    seed: int = 0


def reading_rows(config: ReadingStreamConfig) -> List[tuple]:
    """Rows (det, ts, speed), one per second, with ``null_fraction`` of the
    readings missing — the imputation pipeline's input."""
    rng = random.Random(config.seed)
    rand = rng.random
    null_fraction = config.null_fraction
    speeds = [
        None if rand() < null_fraction else round_cents(40.0 + 30.0 * rand())
        for _ in range(config.n_rows)
    ]
    dets = islice(cycle(range(config.detectors)), config.n_rows)
    return list(zip(dets, range(config.n_rows), speeds))


# ---------------------------------------------------------------------------
# Zoom schedule
# ---------------------------------------------------------------------------


@dataclass
class ZoomSchedule:
    """A display cycling through segments, one visible at a time.

    Every ``interval_seconds`` the visible segment advances; the consumer
    then knows it will ignore the other segments' results for that
    interval and says so: for each hidden segment k it sends
    ``assumed [seg=k, win in [t, t+interval)]`` against the aggregate
    output schema.  Patterns are produced ``lead_seconds`` early so the
    round trip completes before the data arrives; the scope is entirely in
    the future, so early installation loses nothing.
    """

    output_schema: Schema
    segments: int
    interval_seconds: int
    duration_seconds: int
    lead_seconds: int = 90
    seg_attr: str = "seg"
    win_attr: str = "win"
    _next_switch: int = field(default=0, init=False)

    def visible_segment(self, t: int) -> int:
        return (t // self.interval_seconds) % self.segments

    def __call__(self, observed_ts: int):
        """Time-injector hook for a sink: returns the feedback due now."""
        out = []
        while (
            self._next_switch < self.duration_seconds
            and observed_ts >= self._next_switch - self.lead_seconds
        ):
            t = self._next_switch
            visible = self.visible_segment(t)
            win_c = Constraint.interval(
                t, min(t + self.interval_seconds, self.duration_seconds)
            )
            for seg in range(self.segments):
                if seg == visible:
                    continue
                out.append(
                    assumed(
                        Pattern.of(
                            self.output_schema,
                            **{self.seg_attr: Constraint.eq(seg), self.win_attr: win_c},
                        )
                    )
                )
            self._next_switch += self.interval_seconds
        return out
