"""Hardware/logical clock primitives: readings as a pure function of time, inversion,
exact integration, drift moments."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradesync import (
    ConstantDrift,
    ContractViolation,
    HardwareClock,
    LogicalClock,
    PiecewiseDrift,
    WhiteDrift,
)
from gradesync.clocks import _SEGMENT_CHUNK


def make_rng(seed=0):
    return np.random.default_rng(seed)


def deviation_at(drift, t):
    """The deviation of the piece that holds ``t``."""
    return drift.devs[bisect_right(drift.starts, t) - 1]


def reference_reading(drift, f0, start, t):
    """The unfloored per-piece formula with plain floats, walking the pieces up from 0."""
    while drift.starts[-1] <= t:
        drift.extend()
    starts, devs = drift.starts, drift.devs
    knot, i = start, 0
    while starts[i + 1] <= t:
        knot += (f0 + devs[i]) * (starts[i + 1] - starts[i])
        i += 1
    return knot + (f0 + devs[i]) * (t - starts[i])


def reference_time_of_tick(drift, f0, start, target):
    """The same walk, stopped at the first piece whose end reads above ``target``."""
    knot, i = start, 0
    while True:
        while len(drift.devs) <= i:
            drift.extend()
        rate = f0 + drift.devs[i]
        end = knot + rate * (drift.starts[i + 1] - drift.starts[i])
        if target < end:
            return drift.starts[i] + (target - knot) / rate
        knot, i = end, i + 1


# ---------------------------------------------------------------- hardware clock


def test_advance_ideal_clock_counts_nominal_ticks():
    clock = HardwareClock(nominal_freq=1.0)
    assert clock.advance_to(5.0) == 5.0
    assert clock.advance_to(0.0) == 0.0  # any time, in any order


def test_advance_with_constant_deviation_adds_drift_ticks():
    # +100 ppm of a 1 MHz crystal over 30 s: 30e6 nominal + 3000 drift ticks.
    clock = HardwareClock(nominal_freq=1e6, drift=ConstantDrift(100e-6 * 1e6))
    assert clock.advance_to(30.0) == pytest.approx(30_003_000.0, abs=1e-6)


def test_advance_accumulates_over_multiple_calls():
    clock = HardwareClock(nominal_freq=1e6, drift=ConstantDrift(-50.0))
    readings = [clock.advance_to(0.5 * k) for k in range(1, 9)]
    assert np.diff(readings) == pytest.approx([0.5 * (1e6 - 50.0)] * 7, rel=1e-12)
    assert readings[-1] == pytest.approx(4.0 * (1e6 - 50.0), rel=1e-12)


@pytest.mark.parametrize("t", [-1e-9, -1.0, math.inf, math.nan])
def test_a_reading_outside_the_time_axis_raises(t):
    clock = HardwareClock(nominal_freq=1.0, drift=WhiteDrift(1e-3, make_rng()))
    with pytest.raises(ContractViolation, match="0 <= t < inf"):
        clock.advance_to(t)
    with pytest.raises(ContractViolation, match="0 <= t < inf"):
        clock.sample(np.array([1.0, t]))


def test_sampling_no_times_gives_two_empty_arrays():
    clock = HardwareClock(nominal_freq=1e3, drift=WhiteDrift(1e-3, make_rng()), quantize=True)
    ticks, rates = clock.sample(np.array([]))
    assert ticks.shape == rates.shape == (0,)
    assert clock.sample(np.array([0.0]))[1].tolist() == [1e3 + clock.drift.devs[0]]


def test_piecewise_deviation_integrates_each_segment_exactly():
    drift = PiecewiseDrift(((0.0, 1e-4), (20.0, 5e-5)))
    assert drift.starts == (0.0, 20.0, math.inf)
    assert drift.devs == (1e-4, 5e-5)
    # 20 s at 1e-4 plus 10 s at 5e-5.
    assert drift.deviation_integral(0.0, 30.0) == pytest.approx(2.5e-3, rel=1e-12)
    clock = HardwareClock(nominal_freq=1.0, drift=drift)
    assert clock.advance_to(30.0) == pytest.approx(30.0 + 2.5e-3, rel=1e-12)


def test_time_of_tick_inverts_constant_drift():
    clock = HardwareClock(nominal_freq=1e6, drift=ConstantDrift(100.0), start_ticks=7.0)
    assert clock.time_of_tick(30_003_007.0) == pytest.approx(30.0, rel=1e-12)
    assert clock.time_of_tick(7.0) == 0.0
    for below in (math.nextafter(7.0, 0.0), -1.0, math.inf, math.nan):
        with pytest.raises(ContractViolation, match="start reading 7.0"):
            clock.time_of_tick(below)


def test_time_of_tick_then_advance_lands_on_target():
    clock = HardwareClock(nominal_freq=1.0, drift=WhiteDrift(1e-4, make_rng(42)))
    for target in (17.25, 5.0, 5.5, 600.5):
        assert clock.advance_to(clock.time_of_tick(target)) == pytest.approx(target, abs=1e-9)


def test_quantize_floors_partial_ticks():
    clock = HardwareClock(nominal_freq=1.0, quantize=True)
    assert clock.advance_to(10.7) == 10
    assert clock.time_of_tick(10.5) == 10.5  # real time is unaffected by readout quantization


def test_hardware_clock_rejects_deviation_at_or_above_nominal():
    with pytest.raises(ValueError):
        HardwareClock(nominal_freq=1.0, drift=ConstantDrift(1.0))
    with pytest.raises(ValueError):
        HardwareClock(nominal_freq=1.0, drift=PiecewiseDrift(((0.0, 0.5), (3.0, -1.5))))
    with pytest.raises(ValueError):
        HardwareClock(nominal_freq=1.0, drift=WhiteDrift(1.0, make_rng()))
    with pytest.raises(ValueError):  # a NaN bound must not slip through the comparison
        HardwareClock(nominal_freq=1.0, drift=WhiteDrift(math.nan, make_rng()))
    HardwareClock(nominal_freq=1.0, drift=ConstantDrift(-0.999))  # just below is fine


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
    clock = HardwareClock(nominal_freq=1.0, drift=WhiteDrift(0.5, make_rng(seed)))
    prev, t = clock.advance_to(0.0), 0.0
    for dt in dts:
        t += dt
        now = clock.advance_to(t)
        assert now > prev
        prev = now


def test_same_seed_reproduces_trajectory():
    def trajectory(seed):
        clock = HardwareClock(nominal_freq=1.0, drift=WhiteDrift(1e-4, make_rng(seed)))
        return [clock.advance_to(0.7 * k) for k in range(1, 51)]

    assert trajectory(123) == trajectory(123)
    assert trajectory(123) != trajectory(124)


KINDS = ["constant", "piecewise", "white"]
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
    kind=st.sampled_from(KINDS),
    frac=st.floats(-0.999, 0.999),
    f0=st.sampled_from([1.0, 1e3, 1e6]),
    start=st.floats(0.0, 1e6),
    seed=st.integers(0, 2**16),
    anchors=st.lists(st.floats(0.0, 600.0), min_size=1, max_size=6),
    run=st.integers(1, 30),
    quantize=st.booleans(),
)
def test_readings_are_a_pure_monotone_function_of_time(
    kind, frac, f0, start, seed, anchors, run, quantize
):
    # Deviations up to 0.999 f0, in pieces whose ends are 1.3 and 4 (piecewise)
    # or every integer (white).  Queried at runs of consecutive floats around
    # random times and around piece ends, in time order and backwards.
    def clock(q):
        dev = frac * f0
        drift = {
            "constant": ConstantDrift(dev),
            "piecewise": PiecewiseDrift(((0.0, dev), (1.3, -dev), (4.0, dev / 2))),
            "white": WhiteDrift(abs(dev), make_rng(seed)),
        }[kind]
        return HardwareClock(nominal_freq=f0, drift=drift, start_ticks=start, quantize=q)

    ends = [1.0, 1.3, 2.0, 4.0, 255.0, 256.0, 257.0]
    times = sorted({x for t in anchors + ends for x in _around(t, run)})
    forward, backward, plain = clock(quantize), clock(quantize), clock(False)
    readings = [forward.advance_to(t) for t in times]
    # Readings never decrease, from float to float and across piece ends.
    assert all(a <= b for a, b in zip(readings, readings[1:]))
    # Query order changes nothing; the vector path is the scalar path.
    assert [backward.advance_to(t) for t in reversed(times)] == readings[::-1]
    ticks, rates = clock(quantize).sample(np.array(times))
    assert ticks.tolist() == readings
    assert rates.tolist() == [f0 + deviation_at(forward.drift, t) for t in times]
    # The knots built a chunk at a time are the scalar walk's, bit for bit.
    unfloored = [plain.advance_to(t) for t in times]
    assert unfloored == [reference_reading(plain.drift, f0, start, t) for t in times]
    assert readings == ([math.floor(x) for x in unfloored] if quantize else unfloored)
    # time_of_tick inverts the same pieces: reading there lands within a few ulps.
    for x in [start] + unfloored[::max(1, len(times) // 8)]:
        t = plain.time_of_tick(x)
        assert t == reference_time_of_tick(plain.drift, f0, start, x)
        assert abs(plain.advance_to(t) - x) <= 4 * math.ulp(x)
    with pytest.raises(ContractViolation):
        plain.time_of_tick(math.nextafter(start, -math.inf))


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


def _below(t):
    return math.nextafter(t, 0.0)


@pytest.mark.parametrize(
    "kind, stops",
    [
        ("constant", [0.5, _below(1.3), 1.3, _below(4.0), 4.0, 7.25]),
        # each piece end, one ulp below it, and a stop inside the next piece
        ("piecewise", [_below(1.3), 1.3, 2.0, _below(4.0), 4.0, 6.5, 9.0]),
        # integers for white, from inside a segment, one ulp below and the
        # previous integer, then a jump over several segments and a chunk end
        ("white", [0.5, _below(1.0), 1.0, 2.0, _below(3.0), 3.0, 3.5, 7.0, _below(8.0), 8.0,
                   _below(_SEGMENT_CHUNK), _SEGMENT_CHUNK, _SEGMENT_CHUNK + 0.5]),
    ],
)
@pytest.mark.parametrize("quantize", [False, True])
def test_advances_onto_piece_ends_match_the_reference(kind, stops, quantize):
    def drift():
        return {
            "constant": ConstantDrift(-3e-4),
            "piecewise": PiecewiseDrift(PIECES),
            "white": WhiteDrift(5e-4, make_rng(17)),
        }[kind]

    clock, ref = HardwareClock(1.0, drift(), start_ticks=0.3, quantize=quantize), drift()
    for t in stops:
        expected = reference_reading(ref, 1.0, 0.3, t)
        assert clock.advance_to(t) == (math.floor(expected) if quantize else expected)
        target = expected + 2.5
        assert clock.time_of_tick(target) == reference_time_of_tick(ref, 1.0, 0.3, target)


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

