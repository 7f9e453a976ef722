"""Clock primitives: the clock table's readings as a pure function of time, inversion,
exact integration, drift moments, and the one-row hardware clock that grows as it is read."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_sim import deviation_at, reference_reading, reference_time_of_tick

from gradesync import (
    ConstantDrift,
    ContractViolation,
    HardwareClock,
    LogicalClock,
    PiecewiseDrift,
    WhiteDrift,
)
from gradesync.clocks import _SEGMENT_CHUNK, ClockTable


def make_rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- clock table


def test_readings_add_each_rows_drift_ticks():
    # Row 0 is ideal, row 1 runs +100 ppm of a 1 MHz crystal (30e6 nominal plus
    # 3000 drift ticks over 30 s), row 2 runs 50 ticks/s slow from a reading of 7.
    clocks = ClockTable(1e6, [ConstantDrift(0.0), ConstantDrift(100.0), ConstantDrift(-50.0)],
                        [0.0, 0.0, 7.0], 30.0)
    assert clocks.read(0, 5.0) == 5e6
    assert clocks.read(0, 0.0) == 0.0  # any time, in any order
    assert clocks.read(1, 30.0) == pytest.approx(30_003_000.0, abs=1e-6)
    readings = [clocks.read(2, 0.5 * k) for k in range(1, 9)]
    assert np.diff(readings) == pytest.approx([0.5 * (1e6 - 50.0)] * 7, rel=1e-12)
    assert readings[-1] == pytest.approx(7.0 + 4.0 * (1e6 - 50.0), rel=1e-12)


def test_sampling_no_times_gives_two_empty_arrays():
    drift = WhiteDrift(1e-3, make_rng())
    clocks = ClockTable(1e3, [ConstantDrift(0.0), drift], [0.0, 0.0], 1.0)
    ticks, rates = clocks.sample(1, np.array([]))
    assert ticks.shape == rates.shape == (0,)
    assert clocks.sample(1, np.array([0.0]))[1].tolist() == [1e3 + drift.devs[0]]


def test_piecewise_deviation_integrates_each_segment_exactly():
    drift = PiecewiseDrift(((0.0, 1e-4), (20.0, 5e-5)))
    assert drift.starts == (0.0, 20.0, math.inf)
    assert drift.devs == (1e-4, 5e-5)
    # 20 s at 1e-4 plus 10 s at 5e-5.
    assert drift.deviation_integral(0.0, 30.0) == pytest.approx(2.5e-3, rel=1e-12)
    clocks = ClockTable(1.0, [ConstantDrift(0.0), drift], [0.0, 0.0], 30.0)
    assert clocks.read(1, 30.0) == pytest.approx(30.0 + 2.5e-3, rel=1e-12)


def test_time_of_inverts_constant_drift():
    clocks = ClockTable(1e6, [ConstantDrift(100.0), ConstantDrift(-3.0)], [7.0, 0.0], 30.0)
    assert clocks.time_of(0, 30_003_007.0) == pytest.approx(30.0, rel=1e-12)
    assert clocks.time_of(0, 7.0) == 0.0
    assert clocks.time_of([0, 1], [7.0, 0.0]).tolist() == [0.0, 0.0]


def test_time_of_then_read_lands_on_target():
    drifts = [WhiteDrift(1e-4, make_rng(42)), PiecewiseDrift(((0.0, 1e-4), (5.25, -2e-4)))]
    clocks = ClockTable(1.0, drifts, [0.0, 0.0], 700.0)
    for row in (0, 1):
        for target in (17.25, 5.0, 5.5, 600.5):
            assert clocks.read(row, clocks.time_of(row, target)) == pytest.approx(target, abs=1e-9)


def test_crossings_are_every_running_sum_target_each_row_reaches():
    # B = 0.7 s at f0 = 3 makes 2.1-tick rounds, which a running sum adds
    # inexactly, so first + k * step would give other targets.  Row 0 runs at
    # 9 times row 1's rate, so the rows reach from 200 to 1,801 targets; row 0
    # starts at 0 and reads 1,800.9 steps at ``until``, so it reaches one
    # target more than its reading holds whole steps.
    step, until = 0.7 * 3.0, 700.35
    drifts = [ConstantDrift(2.4), ConstantDrift(-2.4), WhiteDrift(2.0, make_rng(5)),
              PiecewiseDrift(((0.0, 1.5), (300.0, -1.5)))]
    clocks = ClockTable(3.0, drifts, [0.0, 0.0, 0.5, 2.0], until)
    first = [0.0, step, 1.0, 5.0]
    expected = []
    for row, target in enumerate(first):  # one target at a time, by a running sum
        while (t := float(clocks.time_of(row, target))) <= until:
            expected.append((t, row, clocks.read(row, t)))
            target += step
    assert [sum(r == row for _, r, _ in expected) for row in range(4)] == [1801, 200, 975, 928]
    assert list(clocks.crossings(np.array(first), step, until)) == sorted(expected)


def test_clock_table_rejects_deviation_at_or_above_nominal():
    for bad in (
        ConstantDrift(1.0),
        PiecewiseDrift(((0.0, 0.5), (3.0, -1.5))),
        WhiteDrift(1.0, make_rng()),
        WhiteDrift(math.nan, make_rng()),  # a NaN bound must not slip through the comparison
    ):
        with pytest.raises(ValueError):
            ClockTable(1.0, [ConstantDrift(0.0), bad], [0.0, 0.0], 1.0)
    ClockTable(1.0, [ConstantDrift(-0.999)], [0.0], 1.0)  # just below is fine


def test_a_constant_drift_is_a_one_piece_schedule_with_its_own_equality():
    drift = ConstantDrift(-3e-4)
    assert (drift.devs[0], drift.starts, drift.devs) == (-3e-4, (0.0, math.inf), (-3e-4,))
    assert (ConstantDrift().devs[0], drift.max_abs_deviation()) == (0.0, 3e-4)
    assert drift == ConstantDrift(-3e-4) and hash(drift) == hash(ConstantDrift(-3e-4))
    assert drift != ConstantDrift(3e-4) and drift != PiecewiseDrift(((0.0, -3e-4),))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_drift_models_reject_non_finite_deviations(bad):
    with pytest.raises(ValueError):
        ConstantDrift(bad)
    with pytest.raises(ValueError):
        PiecewiseDrift(((0.0, 1e-4), (5.0, bad)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    dts=st.lists(st.floats(1e-6, 3.0), min_size=1, max_size=20),
)
def test_hardware_readings_strictly_increase(seed, dts):
    times = np.cumsum([0.0] + dts).tolist()
    drifts = [WhiteDrift(0.5, make_rng(seed)), PiecewiseDrift(((0.0, 0.5), (1.5, -0.5)))]
    clocks = ClockTable(1.0, drifts, [0.0, 0.0], times[-1])
    for row in (0, 1):
        readings = [clocks.read(row, t) for t in times]
        assert all(a < b for a, b in zip(readings, readings[1:]))


def test_same_seed_reproduces_trajectory():
    drifts = [WhiteDrift(1e-4, make_rng(seed)) for seed in (123, 123, 124)]
    clocks = ClockTable(1.0, drifts, [0.0] * 3, 35.0)
    ticks = clocks.sample(np.arange(3)[:, None], 0.7 * np.arange(1, 51))[0].tolist()
    assert ticks[0] == ticks[1]
    assert ticks[0] != ticks[2]


PIECES = ((0.0, 2e-4), (1.3, -4e-4), (4.0, 1e-4))


def _around(t, run):
    """``run`` consecutive floats, the middle one ``t``."""
    for _ in range(run // 2):
        t = math.nextafter(t, -math.inf)
    out = []
    for _ in range(run):
        out.append(t)
        t = math.nextafter(t, math.inf)
    return [x for x in out if x >= 0.0]


@settings(max_examples=150, deadline=None)
@given(
    frac=st.floats(-0.999, 0.999),
    f0=st.sampled_from([1.0, 1e3, 1e6]),
    starts=st.lists(st.floats(0.0, 1e6), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
    anchors=st.lists(st.floats(0.0, 600.0), min_size=1, max_size=6),
    run=st.integers(1, 30),
)
def test_readings_are_a_pure_monotone_function_of_time(frac, f0, starts, seed, anchors, run):
    # One row per drift kind, with deviations up to 0.999 f0, in pieces whose
    # ends are 1.3 and 4 (piecewise) or every integer (white).  Queried at runs
    # of consecutive floats around random times and around piece ends.
    dev = frac * f0
    drifts = [
        ConstantDrift(dev),
        PiecewiseDrift(((0.0, dev), (1.3, -dev), (4.0, dev / 2))),
        WhiteDrift(abs(dev), make_rng(seed)),
    ]
    ends = [1.0, 1.3, 2.0, 4.0, 255.0, 256.0, 257.0]
    times = sorted({x for t in anchors + ends for x in _around(t, run)})
    clocks = ClockTable(f0, drifts, starts, max(times))
    sampled, rates = clocks.sample(np.arange(3)[:, None], np.array(times))
    for row, (drift, start) in enumerate(zip(drifts, starts)):
        readings = [clocks.read(row, t) for t in times]
        # Readings never decrease, from float to float and across piece ends.
        assert all(a <= b for a, b in zip(readings, readings[1:]))
        # The vector path is the scalar path.
        assert sampled[row].tolist() == readings
        assert rates[row].tolist() == [f0 + deviation_at(drift, t) for t in times]
        # The knots built with numpy are the scalar walk's, bit for bit.
        assert readings == [reference_reading(drift, f0, start, t) for t in times]
        # time_of inverts the same pieces: reading there lands within a few ulps.
        for x in [start] + readings[::max(1, len(times) // 8)]:
            t = clocks.time_of(row, x)
            assert t == reference_time_of_tick(drift, f0, start, x)
            assert abs(clocks.read(row, t) - x) <= 4 * math.ulp(x)


def _below(t):
    return math.nextafter(t, 0.0)


STOPS = [
    [0.5, _below(1.3), 1.3, _below(4.0), 4.0, 7.25],
    # each piece end, one ulp below it, and a stop inside the next piece
    [_below(1.3), 1.3, 2.0, _below(4.0), 4.0, 6.5, 9.0],
    # integers for white, from inside a segment, one ulp below and the
    # previous integer, then a jump over several segments and a chunk end
    [0.5, _below(1.0), 1.0, 2.0, _below(3.0), 3.0, 3.5, 7.0, _below(8.0), 8.0,
     _below(_SEGMENT_CHUNK), _SEGMENT_CHUNK, _SEGMENT_CHUNK + 0.5],
]


def test_reads_onto_piece_ends_match_the_reference():
    def drifts():
        return [ConstantDrift(-3e-4), PiecewiseDrift(PIECES), WhiteDrift(5e-4, make_rng(17))]

    clocks = ClockTable(1.0, drifts(), [0.3] * 3, _SEGMENT_CHUNK + 10.0)
    for row, (ref, stops) in enumerate(zip(drifts(), STOPS)):
        for t in stops:
            expected = reference_reading(ref, 1.0, 0.3, t)
            assert clocks.read(row, t) == expected
            target = expected + 2.5
            assert clocks.time_of(row, target) == reference_time_of_tick(ref, 1.0, 0.3, target)


# ---------------------------------------------------------------- hardware clock


@pytest.mark.parametrize("t", [-1e-9, -1.0, math.inf, math.nan])
def test_a_reading_outside_the_time_axis_raises(t):
    clock = HardwareClock(nominal_freq=1.0, drift=WhiteDrift(1e-3, make_rng()))
    with pytest.raises(ContractViolation, match="0 <= t < inf"):
        clock.advance_to(t)


def test_a_tick_target_below_the_start_reading_raises():
    clock = HardwareClock(nominal_freq=1e6, drift=ConstantDrift(100.0), start_ticks=7.0)
    assert clock.time_of_tick(7.0) == 0.0
    for below in (math.nextafter(7.0, 0.0), -1.0, math.inf, math.nan):
        with pytest.raises(ContractViolation, match="start reading 7.0"):
            clock.time_of_tick(below)


@pytest.mark.parametrize("kind, stops", zip(["constant", "piecewise", "white"], STOPS))
def test_advances_onto_piece_ends_match_the_reference(kind, stops):
    # The growing one-row table lands on each piece end, one ulp below it and a
    # chunk end exactly as the scalar walk does.
    def drift():
        return {
            "constant": ConstantDrift(-3e-4),
            "piecewise": PiecewiseDrift(PIECES),
            "white": WhiteDrift(5e-4, make_rng(17)),
        }[kind]

    clock, ref = HardwareClock(1.0, drift(), start_ticks=0.3), drift()
    for t in stops:
        expected = reference_reading(ref, 1.0, 0.3, t)
        assert clock.advance_to(t) == expected
        target = expected + 2.5
        assert clock.time_of_tick(target) == reference_time_of_tick(ref, 1.0, 0.3, target)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["constant", "piecewise", "white"]),
    start=st.floats(0.0, 1e3),
    times=st.lists(st.floats(0.0, 3 * _SEGMENT_CHUNK), min_size=1, max_size=12),
)
def test_a_hardware_clock_grows_its_table_as_it_is_read(kind, start, times):
    # Read in any order, far past the pieces drawn so far and back again, the
    # rebuilt tables give the scalar walk's readings and inversions bit for bit.
    def drift():
        return {
            "constant": ConstantDrift(2e-4),
            "piecewise": PiecewiseDrift(PIECES),
            "white": WhiteDrift(5e-4, make_rng(7)),
        }[kind]

    clock, ref = HardwareClock(1.0, drift(), start_ticks=start), drift()
    for t in times:
        expected = reference_reading(ref, 1.0, start, t)
        assert clock.advance_to(t) == expected
        target = expected + 1.5 * _SEGMENT_CHUNK
        assert clock.time_of_tick(target) == reference_time_of_tick(ref, 1.0, start, target)


# ---------------------------------------------------------------- white drift moments


def test_white_segments_mode_matches_uniform_deviation_moments():
    # Integrated deviation over an interval of length B has mean 0 and
    # variance B * fmax**2 / 3 (uniform per-unit deviations in [-fmax, fmax]).
    b, fmax, n = 30.0, 1e-4, 20_000
    rng = make_rng(11)
    drift = WhiteDrift(fmax, rng)
    extras = np.array([drift.deviation_integral(i * b, (i + 1) * b) for i in range(n)])
    target_var = b * fmax**2 / 3
    assert abs(extras.mean()) < 3 * math.sqrt(target_var / n)
    assert extras.var() == pytest.approx(target_var, rel=0.05)


def test_white_segments_are_unit_pieces_drawn_a_chunk_at_a_time():
    drift = WhiteDrift(0.25, make_rng(3))
    assert (drift.starts, drift.devs) == ([0.0], [])
    drift.deviation_integral(0.0, 3.5)
    assert drift.starts == [float(j) for j in range(_SEGMENT_CHUNK + 1)]
    assert len(drift.devs) == _SEGMENT_CHUNK
    assert all(abs(d) <= 0.25 for d in drift.devs)
    drift.deviation_integral(0.0, _SEGMENT_CHUNK + 0.5)
    assert len(drift.devs) == len(drift.starts) - 1 == 2 * _SEGMENT_CHUNK
    # The same draws as one chunk of twice the size: query order does not matter.
    assert drift.devs == make_rng(3).uniform(-0.25, 0.25, 2 * _SEGMENT_CHUNK).tolist()


def test_white_drift_validates_arguments():
    with pytest.raises(ValueError):
        WhiteDrift(-1e-4, make_rng(0))
    fresh, drawn = WhiteDrift(1e-3, make_rng(0)), WhiteDrift(1e-3, make_rng(0))
    drawn.deviation_integral(0.0, 10.0)
    for drift in (fresh, drawn, ConstantDrift(1e-3)):
        with pytest.raises(ValueError, match="t >= 0"):
            drift.deviation_integral(-1.0, 0.0)


def reference_piecewise_integral(drift, t0, t1):
    """The original generator-based sum over (start, end, deviation) pieces."""

    def pieces():
        j = math.floor(t0)
        while True:
            while len(drift.devs) <= j:
                drift.extend()
            yield max(float(j), t0), float(j + 1), drift.devs[j]
            j += 1

    total = 0.0
    for start, end, dev in pieces():
        if start >= t1:
            break
        total += dev * (min(end, t1) - start)
    return total


WHITE_SPANS = [
    (0.0, 0.0),
    (3.7, 3.7),
    (5.0, 5.0),
    (0.0, 1.0),
    (2.0, 7.0),
    (0.25, 0.75),
    (1.5, 2.5),
    (0.0, 600.0),
    (12.3, 487.9),
    (_SEGMENT_CHUNK - 0.5, _SEGMENT_CHUNK + 0.25),
    (_SEGMENT_CHUNK - 3.0, 2 * _SEGMENT_CHUNK + 3.0),
    (9.0, 4.0),
]


@pytest.mark.parametrize("t0, t1", WHITE_SPANS)
def test_white_integral_equals_the_piecewise_reference_sum(t0, t1):
    new, old = WhiteDrift(1e-3, make_rng(5)), WhiteDrift(1e-3, make_rng(5))
    assert new.deviation_integral(t0, t1) == reference_piecewise_integral(old, t0, t1)
    # and once both realizations are drawn far past the span
    new.deviation_integral(0.0, 3 * _SEGMENT_CHUNK)
    old.deviation_integral(0.0, 3 * _SEGMENT_CHUNK)
    assert new.deviation_integral(t0, t1) == reference_piecewise_integral(old, t0, t1)


@settings(max_examples=200, deadline=None)
@given(t0=st.floats(0.0, 700.0), span=st.floats(0.0, 60.0))
def test_white_integral_equals_the_reference_on_random_spans(t0, span):
    drift = WhiteDrift(1e-3, make_rng(9))
    t1 = t0 + span
    assert drift.deviation_integral(t0, t1) == reference_piecewise_integral(drift, t0, t1)


# ---------------------------------------------------------------- logical clock


def test_logical_read_examples():
    assert LogicalClock().read(7.0) == 7.0
    assert LogicalClock(100.0, 0.5, 10.0).read(30.0) == 110.0
    assert LogicalClock(42.0, 1.3, 5.0).read(5.0) == 42.0  # no elapsed hardware ticks


def test_logical_read_rejects_hardware_rollback():
    clock = LogicalClock(0.0, 1.0, 100.0)
    with pytest.raises(ContractViolation):
        clock.read(99.0)


def test_logical_clock_rate_applies_from_the_update_point():
    faster = LogicalClock(10.0, 2.0, 10.0)
    assert faster.read(10.0) == 10.0
    assert faster.read(13.0) == 16.0
    with pytest.raises(ValueError):
        LogicalClock(10.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        LogicalClock(10.0, -0.5, 10.0)


@settings(max_examples=100, deadline=None)
@given(
    value=st.floats(-1e6, 1e6),
    rate=st.floats(0.5, 2.0),
    hw0=st.floats(0.0, 1e6),
    dhw=st.floats(0.0, 1e6),
)
def test_logical_read_is_affine_in_hardware_ticks(value, rate, hw0, dhw):
    clock = LogicalClock(value, rate, hw0)
    assert clock.read(hw0 + dhw) == pytest.approx(value + rate * dhw, rel=1e-12, abs=1e-9)

