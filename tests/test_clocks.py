"""Hardware/logical clock primitives: exact integration, inversion, drift moments."""

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


def reference_advance(clock, real_dt):
    """Advance ``clock`` by ``real_dt`` with the arithmetic ``advance_to`` must reproduce."""
    if real_dt < 0:
        raise ContractViolation(f"cannot advance a clock backwards (dt={real_dt})")
    if real_dt == 0:
        return 0.0
    now = clock._time
    elapsed = clock.nominal_freq * real_dt + clock.drift.deviation_integral(now, now + real_dt)
    clock._time = now + real_dt
    clock._ticks += elapsed
    return elapsed


# ---------------------------------------------------------------- hardware clock


def test_advance_ideal_clock_counts_nominal_ticks():
    clock = HardwareClock(nominal_freq=1.0)
    clock.advance_to(5.0)
    assert clock.read() == 5.0
    assert clock.time == 5.0


def test_advance_with_constant_deviation_adds_drift_ticks():
    # +100 ppm of a 1 MHz crystal over 30 s: 30e6 nominal + 3000 drift ticks.
    clock = HardwareClock(nominal_freq=1e6, drift=ConstantDrift(100e-6 * 1e6))
    clock.advance_to(30.0)
    assert clock.read() == pytest.approx(30_003_000.0, abs=1e-6)


def test_advance_accumulates_over_multiple_calls():
    clock = HardwareClock(nominal_freq=1e6, drift=ConstantDrift(-50.0))
    readings = []
    for k in range(1, 9):
        clock.advance_to(0.5 * k)
        readings.append(clock.read())
    assert np.diff(readings) == pytest.approx([0.5 * (1e6 - 50.0)] * 7, rel=1e-12)
    assert clock.read() == pytest.approx(4.0 * (1e6 - 50.0), rel=1e-12)


def test_advance_rejects_negative_interval():
    clock = HardwareClock(nominal_freq=1.0)
    with pytest.raises(ContractViolation):
        clock.advance_to(-1e-9)
    clock.advance_to(2.0)
    with pytest.raises(ContractViolation):
        clock.advance_to(2.0 - 1e-9)
    clock.advance_to(2.0)  # staying put is allowed
    assert clock.time == 2.0


def test_advance_to_matches_advance_and_rejects_past():
    a = HardwareClock(nominal_freq=1e6, drift=ConstantDrift(30.0))
    b = HardwareClock(nominal_freq=1e6, drift=ConstantDrift(30.0))
    reference_advance(a, 1.25)
    reference_advance(a, 0.75)
    b.advance_to(2.0)
    assert a.read() == pytest.approx(b.read(), rel=1e-15)
    with pytest.raises(ContractViolation):
        b.advance_to(1.0)


def test_piecewise_deviation_integrates_each_segment_exactly():
    drift = PiecewiseDrift(((0.0, 1e-4), (20.0, 5e-5)))
    assert drift.deviation_rate(19.99) == 1e-4
    assert drift.deviation_rate(20.0) == 5e-5
    assert drift.deviation_rate(20.01) == 5e-5
    # 20 s at 1e-4 plus 10 s at 5e-5.
    assert drift.deviation_integral(0.0, 30.0) == pytest.approx(2.5e-3, rel=1e-12)
    clock = HardwareClock(nominal_freq=1.0, drift=drift)
    clock.advance_to(30.0)
    assert clock.read() == pytest.approx(30.0 + 2.5e-3, rel=1e-12)


def test_time_of_tick_inverts_constant_drift():
    clock = HardwareClock(nominal_freq=1e6, drift=ConstantDrift(100.0))
    assert clock.time_of_tick(30_003_000.0) == pytest.approx(30.0, rel=1e-12)
    clock.advance_to(30.0)
    with pytest.raises(ContractViolation):
        clock.time_of_tick(clock.read() - 1.0)


def test_time_of_tick_then_advance_lands_on_target():
    rng = make_rng(42)
    drift = WhiteDrift(1e-4, rng)
    clock = HardwareClock(nominal_freq=1.0, drift=drift)
    clock.advance_to(0.37)
    for target in (5.0, 5.5, 17.25):
        t = clock.time_of_tick(target)
        clock.advance_to(t)
        assert clock.read() == pytest.approx(target, abs=1e-9)


def test_quantize_floors_partial_ticks():
    clock = HardwareClock(nominal_freq=1.0, quantize=True)
    clock.advance_to(10.7)
    assert clock.read() == 10.0
    assert clock.time == 10.7  # real time is unaffected by readout quantization


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
    rng = make_rng(seed)
    drift = WhiteDrift(0.5, rng)
    clock = HardwareClock(nominal_freq=1.0, drift=drift)
    prev = clock.read()
    t = 0.0
    for dt in dts:
        t += dt
        clock.advance_to(t)
        now = clock.read()
        assert now > prev
        prev = now


def test_same_seed_reproduces_trajectory():
    def trajectory(seed):
        drift = WhiteDrift(1e-4, make_rng(seed))
        clock = HardwareClock(nominal_freq=1.0, drift=drift)
        readings = []
        for k in range(1, 51):
            clock.advance_to(0.7 * k)
            readings.append(clock.read())
        return readings

    assert trajectory(123) == trajectory(123)
    assert trajectory(123) != trajectory(124)


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


def test_white_segments_rate_is_bounded_and_constant_within_a_segment():
    rng = make_rng(3)
    drift = WhiteDrift(0.25, rng)
    for j in range(40):
        r0 = drift.deviation_rate(j + 0.1)
        r1 = drift.deviation_rate(j + 0.9)
        assert r0 == r1
        assert abs(r0) <= 0.25


def test_white_drift_validates_arguments():
    with pytest.raises(ValueError):
        WhiteDrift(-1e-4, make_rng(0))
    fresh, drawn = WhiteDrift(1e-3, make_rng(0)), WhiteDrift(1e-3, make_rng(0))
    drawn.deviation_integral(0.0, 10.0)
    for drift in (fresh, drawn):
        with pytest.raises(ValueError, match="t >= 0"):
            drift.deviation_rate(-0.5)
        with pytest.raises(ValueError, match="t >= 0"):
            drift.deviation_integral(-1.0, 0.0)
        with pytest.raises(ValueError, match="t >= 0"):
            drift.piece(-0.5)


def reference_pieces(drift, t_from):
    """The original ``pieces`` generators: (start, end, deviation) from ``t_from`` on."""
    if isinstance(drift, ConstantDrift):
        yield t_from, math.inf, drift.deviation
    elif isinstance(drift, PiecewiseDrift):
        steps = drift.steps
        i = max(bisect_right([s for s, _ in steps], t_from) - 1, 0)
        while i < len(steps):
            end = steps[i + 1][0] if i + 1 < len(steps) else math.inf
            yield max(steps[i][0], t_from), end, steps[i][1]
            i += 1
    else:
        j = math.floor(t_from)
        while True:
            yield max(float(j), t_from), float(j + 1), drift._segment(j)
            j += 1


def reference_piecewise_integral(drift, t0, t1):
    """The original generator-based sum over ``pieces``, kept as the reference."""
    total = 0.0
    for start, end, dev in reference_pieces(drift, t0):
        if start >= t1:
            break
        total += dev * (min(end, t1) - start)
    return total


def reference_time_of_tick(clock, target_ticks):
    """The original generator-based tick inversion, kept as the reference."""
    remaining = target_ticks - clock._ticks
    for start, end, dev in reference_pieces(clock.drift, clock.time):
        rate = clock.nominal_freq + dev
        if end == math.inf:
            return start + remaining / rate
        span = (end - start) * rate
        if span >= remaining:
            return start + remaining / rate
        remaining -= span


@pytest.mark.parametrize(
    "drift, t_start, step",
    [
        (ConstantDrift(3e-4), 0.0, 0.37),
        (ConstantDrift(-2e-4), 12.5, 1.0),
        # targets on both sides of the 1.3 and 4.0 boundaries, from inside a piece and on one
        (PiecewiseDrift(((0.0, 2e-4), (1.3, -4e-4), (4.0, 1e-4))), 0.5, 0.13),
        (PiecewiseDrift(((0.0, 2e-4), (1.3, -4e-4), (4.0, 1e-4))), 1.3, 0.29),
        # a white realization crossing the first _SEGMENT_CHUNK boundary
        ("white", _SEGMENT_CHUNK - 2.3, 0.41),
        ("white", 0.0, 0.25),
    ],
)
def test_time_of_tick_equals_the_generator_reference(drift, t_start, step):
    if drift == "white":
        drift = WhiteDrift(5e-4, make_rng(21))
    clock = HardwareClock(nominal_freq=1.0, drift=drift)
    clock.advance_to(t_start)
    for k in range(40):
        target = clock.read() + k * step
        assert clock.time_of_tick(target) == reference_time_of_tick(clock, target)


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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["constant", "piecewise", "white"]),
    dts=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=30),
)
def test_advance_to_matches_advance_by_the_difference(seed, kind, dts):
    def clock():
        drift = {
            "constant": ConstantDrift(3e-4),
            "piecewise": PiecewiseDrift(((0.0, 2e-4), (1.3, -4e-4), (4.0, 1e-4))),
            "white": WhiteDrift(5e-4, make_rng(seed)),
        }[kind]
        return HardwareClock(nominal_freq=1.0, drift=drift)

    a, b = clock(), clock()
    t = 0.0
    for dt in dts:
        t += dt
        a.advance_to(t)
        reference_advance(b, t - b.time)
        assert a._ticks == b._ticks
        assert a.time == b.time


PIECES = ((0.0, 2e-4), (1.3, -4e-4), (4.0, 1e-4))


def _below(t):
    return math.nextafter(t, 0.0)


@pytest.mark.parametrize(
    "kind, stops",
    [
        ("constant", [0.5, _below(1.3), 1.3, _below(4.0), 4.0, 7.25]),
        # each piece end, one ulp below it, and a stop inside the next piece
        ("piecewise", [_below(1.3), 1.3, 2.0, _below(4.0), 4.0, 6.5, 9.0]),
        # integers for white, reached from inside a segment, from one ulp below
        # and from the previous integer, then a jump over several segments
        ("white", [0.5, _below(1.0), 1.0, 2.0, _below(3.0), 3.0, 3.5, 7.0, _below(8.0), 8.0]),
    ],
)
@pytest.mark.parametrize("quantize", [False, True])
def test_advances_onto_piece_ends_match_the_reference(kind, stops, quantize):
    def clock():
        drift = {
            "constant": ConstantDrift(-3e-4),
            "piecewise": PiecewiseDrift(PIECES),
            "white": WhiteDrift(5e-4, make_rng(17)),
        }[kind]
        return HardwareClock(nominal_freq=1.0, drift=drift, start_ticks=0.3, quantize=quantize)

    a, b = clock(), clock()
    for t in stops:
        reading = a.advance_to(t)
        reference_advance(b, t - b.time)
        assert (a._ticks, a.time) == (b._ticks, b.time)
        assert reading == a.read() == b.read()
        target = b._ticks + 2.5
        assert a.time_of_tick(target) == reference_time_of_tick(b, target)
        assert a.deviation_rate(t) == b.drift.deviation_rate(t)
        assert a.deviation_rate(t + 0.5) == b.drift.deviation_rate(t + 0.5)


class CountingDrift:
    """A drift model that counts the integrals asked of it."""

    def __init__(self, inner):
        self.inner = inner
        self.integrals = 0

    def deviation_rate(self, t):
        return self.inner.deviation_rate(t)

    def deviation_integral(self, t0, t1):
        self.integrals += 1
        return self.inner.deviation_integral(t0, t1)

    def piece(self, t):
        return self.inner.piece(t)

    def max_abs_deviation(self):
        return self.inner.max_abs_deviation()


@pytest.mark.parametrize(
    "inner, inside, crossing",
    [
        (PiecewiseDrift(PIECES), [0.4, _below(1.3), 1.3, 2.0], 6.5),
        ("white", [0.25, 0.75, 1.0, 1.5, 2.0], 3.5),
    ],
)
def test_an_advance_inside_one_piece_asks_the_drift_model_for_no_integral(
    inner, inside, crossing
):
    drift = CountingDrift(WhiteDrift(5e-4, make_rng(4)) if inner == "white" else inner)
    clock = HardwareClock(nominal_freq=1.0, drift=drift)
    for t in inside:  # each stop lies in, or ends, the piece the clock is in
        clock.advance_to(t)
    assert drift.integrals == 0
    clock.advance_to(crossing)
    assert drift.integrals == 1


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

