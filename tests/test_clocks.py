"""Clock primitives: drift models as values and their realizations, the clock table's
readings as a pure function of time, inversion, tables of any horizon, exact per-piece
sums and drift moments."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_sim import Realization, deviation_at, reference_reading, reference_time_of_tick

from gradesync import ConstantDrift, PiecewiseDrift, RandomConstantDrift, WhiteDrift
from gradesync.clocks import ClockTable


def make_rng(seed=0):
    return np.random.default_rng(seed)


def table(f0, drifts, start_ticks, horizon, seeds=None):
    """A clock table of ``drifts`` realized to ``horizon``, row i's from generator seed
    ``seeds[i]`` (i if no seeds are given)."""
    seeds = range(len(drifts)) if seeds is None else seeds
    return ClockTable(f0, [d.pieces(horizon, make_rng(s)) for d, s in zip(drifts, seeds)],
                      start_ticks)


# ---------------------------------------------------------------- clock table


def test_readings_add_each_rows_drift_ticks():
    # Row 0 is ideal, row 1 runs +100 ppm of a 1 MHz crystal (30e6 nominal plus
    # 3000 drift ticks over 30 s), row 2 runs 50 ticks/s slow from a reading of 7.
    clocks = table(1e6, [ConstantDrift(0.0), ConstantDrift(100.0), ConstantDrift(-50.0)],
                   [0.0, 0.0, 7.0], 30.0)
    assert clocks.read(0, 5.0) == 5e6
    assert clocks.read(0, 0.0) == 0.0  # any time, in any order
    assert clocks.read(1, 30.0) == pytest.approx(30_003_000.0, abs=1e-6)
    readings = [clocks.read(2, 0.5 * k) for k in range(1, 9)]
    assert np.diff(readings) == pytest.approx([0.5 * (1e6 - 50.0)] * 7, rel=1e-12)
    assert readings[-1] == pytest.approx(7.0 + 4.0 * (1e6 - 50.0), rel=1e-12)


def test_sampling_no_times_gives_two_empty_arrays():
    clocks = table(1e3, [ConstantDrift(0.0), WhiteDrift(1e-3)], [0.0, 0.0], 1.0, seeds=[0, 0])
    ticks, rates = clocks.sample(1, np.array([]))
    assert ticks.shape == rates.shape == (0,)
    assert clocks.sample(1, np.array([0.0]))[1].tolist() == [1e3 + make_rng().uniform(-1e-3, 1e-3)]


def test_piecewise_deviation_integrates_each_segment_exactly():
    drift = PiecewiseDrift(((0.0, 1e-4), (20.0, 5e-5)))
    assert drift.starts == (0.0, 20.0, math.inf)
    assert drift.devs == (1e-4, 5e-5)
    # 20 s at 1e-4 plus 10 s at 5e-5.
    clocks = table(1.0, [ConstantDrift(0.0), drift], [0.0, 0.0], 30.0)
    assert clocks.read(1, 30.0) == pytest.approx(30.0 + 2.5e-3, rel=1e-12)


def test_time_of_inverts_constant_drift():
    clocks = table(1e6, [ConstantDrift(100.0), ConstantDrift(-3.0)], [7.0, 0.0], 30.0)
    assert clocks.time_of(0, 30_003_007.0) == pytest.approx(30.0, rel=1e-12)
    assert clocks.time_of(0, 7.0) == 0.0
    assert clocks.time_of([0, 1], [7.0, 0.0]).tolist() == [0.0, 0.0]


def test_time_of_then_read_lands_on_target():
    drifts = [WhiteDrift(1e-4), PiecewiseDrift(((0.0, 1e-4), (5.25, -2e-4)))]
    clocks = table(1.0, drifts, [0.0, 0.0], 700.0, seeds=[42, 0])
    for row in (0, 1):
        for target in (17.25, 5.0, 5.5, 600.5):
            assert clocks.read(row, clocks.time_of(row, target)) == pytest.approx(target, abs=1e-9)


def test_crossings_are_every_running_sum_target_each_row_reaches():
    # B = 0.7 s at f0 = 3 makes 2.1-tick rounds, which a running sum adds
    # inexactly, so k * step would give other targets.  Row 0 runs at 9 times
    # row 1's rate, so the rows reach from 201 to 1,800 targets.  Row 0 starts
    # at 0.0, which is no target, and row 1 one float below its first target.
    step, until = 0.7 * 3.0, 700.35
    drifts = [ConstantDrift(2.4), ConstantDrift(-2.4), WhiteDrift(2.0),
              PiecewiseDrift(((0.0, 1.5), (300.0, -1.5)))]
    clocks = table(3.0, drifts, [0.0, np.nextafter(step, 0.0), 0.5, 2.0], until,
                   seeds=[0, 0, 5, 0])
    assert (np.add.accumulate([step] * 1800) != step * np.arange(1, 1801)).any()
    expected = []
    for row in range(4):  # one target at a time, by a running sum
        target = step
        while (t := float(clocks.time_of(row, target))) <= until:
            expected.append((t, row, clocks.read(row, t)))
            target += step
    assert [sum(r == row for _, r, _ in expected) for row in range(4)] == [1800, 201, 974, 929]
    first = float(clocks.time_of(1, step))  # row 1's first target comes first of all, after 0
    assert min(expected)[:2] == (first, 1) and first > 0.0
    columns = clocks.crossings(step, until)  # (times, rows, readings)
    assert list(zip(*[c.tolist() for c in columns])) == sorted(expected)


def test_rows_with_identical_clocks_share_every_instant_in_ascending_row_order():
    # Four rows of one white-drift clock: every instant is reached by all four, and the
    # schedule must list them as the naive per-row construction does, rows ascending.
    step, until, rows = 0.7 * 3.0, 70.35, 4
    clocks = table(3.0, [WhiteDrift(2.0)] * rows, [0.5] * rows, until, seeds=[5] * rows)
    expected = []
    for row in range(rows):  # one target at a time, by a running sum
        target = step
        while (t := float(clocks.time_of(row, target))) <= until:
            expected.append((t, row, clocks.read(row, t)))
            target += step
    times, order, readings = (c.tolist() for c in clocks.crossings(step, until))
    assert len(times) == len(set(times)) * rows > 100
    assert order == list(range(rows)) * (len(times) // rows)
    assert list(zip(times, order, readings)) == sorted(expected)


@pytest.mark.parametrize("f0", [0.0, -1.0])
def test_clock_table_rejects_a_nominal_freq_that_is_not_positive(f0):
    with pytest.raises(ValueError, match="nominal_freq must be positive"):
        table(f0, [ConstantDrift(0.0)], [0.0], 1.0)


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
    drifts = [WhiteDrift(0.5), PiecewiseDrift(((0.0, 0.5), (1.5, -0.5)))]
    clocks = table(1.0, drifts, [0.0, 0.0], times[-1], seeds=[seed, 0])
    for row in (0, 1):
        readings = [clocks.read(row, t) for t in times]
        assert all(a < b for a, b in zip(readings, readings[1:]))


def test_same_seed_reproduces_trajectory():
    clocks = table(1.0, [WhiteDrift(1e-4)] * 3, [0.0] * 3, 35.0, seeds=(123, 123, 124))
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
    # of consecutive floats around random times and around piece ends.  The
    # reference walks its own realization of each row, drawn as far as it reads.
    dev = frac * f0
    drifts = [
        ConstantDrift(dev),
        PiecewiseDrift(((0.0, dev), (1.3, -dev), (4.0, dev / 2))),
        WhiteDrift(abs(dev)),
    ]
    ends = [1.0, 1.3, 2.0, 4.0, 255.0, 256.0, 257.0]
    times = sorted({x for t in anchors + ends for x in _around(t, run)})
    clocks = table(f0, drifts, starts, max(times), seeds=[0, 0, seed])
    sampled, rates = clocks.sample(np.arange(3)[:, None], np.array(times))
    refs = [Realization(d, s) for d, s in zip(drifts, [0, 0, seed])]
    for row, (drift, start) in enumerate(zip(refs, starts)):
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
    # previous integer, then a jump over many segments
    [0.5, _below(1.0), 1.0, 2.0, _below(3.0), 3.0, 3.5, 7.0, _below(8.0), 8.0,
     _below(256.0), 256.0, 256.5],
]
DRIFTS = {"constant": ConstantDrift(-3e-4), "piecewise": PiecewiseDrift(PIECES),
          "white": WhiteDrift(5e-4)}


def test_reads_onto_piece_ends_match_the_reference():
    drifts = list(DRIFTS.values())
    clocks = table(1.0, drifts, [0.3] * 3, 266.0, seeds=[17] * 3)
    for row, (ref, stops) in enumerate(zip([Realization(d, 17) for d in drifts], STOPS)):
        for t in stops:
            expected = reference_reading(ref, 1.0, 0.3, t)
            assert clocks.read(row, t) == expected
            target = expected + 2.5
            assert clocks.time_of(row, target) == reference_time_of_tick(ref, 1.0, 0.3, target)


@pytest.mark.parametrize("kind, stops", zip(DRIFTS, STOPS))
def test_a_table_ending_at_each_stop_matches_the_reference(kind, stops):
    # A one-row table whose horizon is the stop itself: on a piece end, one ulp
    # below it or far out, it reads and inverts as the scalar walk does.
    ref = Realization(DRIFTS[kind], 17)
    for t in stops:
        clocks = table(1.0, [DRIFTS[kind]], [0.3], t, seeds=[17])
        expected = reference_reading(ref, 1.0, 0.3, t)
        assert clocks.read(0, t) == expected
        assert clocks.time_of(0, expected) == reference_time_of_tick(ref, 1.0, 0.3, expected)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(DRIFTS)),
    start=st.floats(0.0, 1e3),
    times=st.lists(st.floats(0.0, 768.0), min_size=1, max_size=12),
)
def test_tables_of_any_horizon_share_one_drift_and_read_it_alike(kind, start, times):
    # Tables of one drift and seed realized to horizons in any order, far past
    # the reference's pieces so far and back again, give the scalar walk's
    # readings and inversions bit for bit.
    ref = Realization(DRIFTS[kind], 7)
    for t in times:
        clocks = table(1.0, [DRIFTS[kind]], [start], t, seeds=[7])
        expected = reference_reading(ref, 1.0, start, t)
        assert clocks.read(0, t) == expected
        assert clocks.time_of(0, expected) == reference_time_of_tick(ref, 1.0, start, expected)


@pytest.mark.parametrize("kind", sorted(DRIFTS))
def test_a_reading_past_the_table_inverts_to_a_time_past_its_horizon(kind):
    # So the simulator's beacon schedule drops every target past ``until``.
    for horizon in (0.0, 1.3, 3.5, 256.5):
        clocks = table(1e3, [DRIFTS[kind]], [0.3], horizon, seeds=[3])
        last = clocks.read(0, horizon)
        targets = last + np.array([1e-6, 1.0, 1e3, 1e9])
        when = clocks.time_of(0, targets)
        assert (when > horizon).all() and (np.diff(when) > 0).all()
        for t, target in zip(when.tolist(), targets.tolist()):
            assert abs(clocks.read(0, t) - target) <= 4 * math.ulp(target)


# ---------------------------------------------------------------- white drift sums


def reference_piecewise_ticks(drift, f0, t0, t1):
    """The ticks from ``t0`` to ``t1`` as a sum over unit pieces, negative if ``t1 < t0``."""
    lo, hi = sorted((t0, t1))
    total, j = 0.0, math.floor(lo)
    while j < hi:
        drift.cover(j)
        total += (f0 + drift.devs[j]) * (min(j + 1.0, hi) - max(float(j), lo))
        j += 1
    return total if t0 <= t1 else -total


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
    (255.5, 256.25),
    (253.0, 515.0),
    (9.0, 4.0),
]


def assert_span_ticks_match(seed, ref, t0, t1, horizon):
    clocks = table(1.0, [WhiteDrift(1e-3)], [0.0], horizon, seeds=[seed])
    r0, r1 = clocks.read(0, t0), clocks.read(0, t1)
    assert (r0, r1) == (reference_reading(ref, 1.0, 0.0, t0), reference_reading(ref, 1.0, 0.0, t1))
    assert r1 - r0 == pytest.approx(reference_piecewise_ticks(ref, 1.0, t0, t1),
                                    rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("t0, t1", WHITE_SPANS)
def test_white_ticks_over_a_span_equal_the_piecewise_reference_sum(t0, t1):
    # Read from a table that ends at the span and from one that ends far beyond.
    ref = Realization(WhiteDrift(1e-3), 5)
    assert_span_ticks_match(5, ref, t0, t1, max(t0, t1))
    assert_span_ticks_match(5, ref, t0, t1, 768.0)


@settings(max_examples=200, deadline=None)
@given(t0=st.floats(0.0, 700.0), span=st.floats(0.0, 60.0))
def test_white_ticks_over_random_spans_equal_the_piecewise_reference_sum(t0, span):
    assert_span_ticks_match(9, Realization(WhiteDrift(1e-3), 9), t0, t0 + span, t0 + span)


# ---------------------------------------------------------------- white drift moments


def test_white_segments_mode_matches_uniform_deviation_moments():
    # Integrated deviation over an interval of length B has mean 0 and
    # variance B * fmax**2 / 3 (uniform per-unit deviations in [-fmax, fmax]).
    b, fmax, n = 30.0, 1e-4, 20_000
    clocks = table(1.0, [WhiteDrift(fmax)], [0.0], n * b, seeds=[11])
    extras = np.diff(clocks.sample(0, b * np.arange(n + 1))[0]) - b
    target_var = b * fmax**2 / 3
    assert abs(extras.mean()) < 3 * math.sqrt(target_var / n)
    assert extras.var() == pytest.approx(target_var, rel=0.05)


# ---------------------------------------------------------------- drift realizations


@pytest.mark.parametrize("horizon", [0.0, 0.5, _below(1.0), 1.0, 3.5, 256.0, 1000.25])
def test_white_pieces_are_unit_segments_each_with_one_draw_of_the_generator(horizon):
    # The segments up to the one that holds the horizon, whose end lies past it.
    k = math.floor(horizon) + 1
    starts, devs = WhiteDrift(0.25).pieces(horizon, make_rng(3))
    assert starts == [float(j) for j in range(k + 1)] and starts[-1] > horizon
    assert devs == make_rng(3).uniform(-0.25, 0.25, k).tolist()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), horizon=st.floats(0.0, 600.0), more=st.floats(0.0, 600.0))
def test_a_white_realization_is_a_prefix_of_one_to_any_later_horizon(seed, horizon, more):
    # So a realization does not depend on how far it is read.
    starts, devs = WhiteDrift(1e-3).pieces(horizon, make_rng(seed))
    longer, longer_devs = WhiteDrift(1e-3).pieces(horizon + more, make_rng(seed))
    assert longer[:len(starts)] == starts and longer_devs[:len(devs)] == devs


def test_a_random_constant_drift_is_one_draw_for_all_time():
    for horizon in (0.0, 3.5, 1e6):
        assert RandomConstantDrift(0.25).pieces(horizon, make_rng(3)) == (
            [0.0, math.inf], [make_rng(3).uniform(-0.25, 0.25)])


@pytest.mark.parametrize("horizon, pieces", [
    (0.0, ([0.0, 1.3], [2e-4])),
    (_below(1.3), ([0.0, 1.3], [2e-4])),
    (1.3, ([0.0, 1.3, 4.0], [2e-4, -4e-4])),
    (4.0, ([0.0, 1.3, 4.0, math.inf], [2e-4, -4e-4, 1e-4])),
])
def test_a_fixed_drift_cuts_its_own_pieces_and_draws_nothing(horizon, pieces):
    rng = make_rng(3)
    state = rng.bit_generator.state
    assert PiecewiseDrift(PIECES).pieces(horizon, rng) == pieces
    assert ConstantDrift(-3e-4).pieces(horizon, rng) == ([0.0, math.inf], [-3e-4])
    assert rng.bit_generator.state == state


def test_drawn_drift_models_are_immutable_values():
    drift = WhiteDrift(0.25)
    assert drift == WhiteDrift(0.25) and hash(drift) == hash(WhiteDrift(0.25))
    assert drift != WhiteDrift(0.5) and drift != RandomConstantDrift(0.25)
    assert drift.max_abs_deviation() == RandomConstantDrift(0.25).max_abs_deviation() == 0.25
    with pytest.raises(dataclasses.FrozenInstanceError):
        drift.max_deviation = 0.5


@pytest.mark.parametrize("model", [WhiteDrift, RandomConstantDrift])
def test_drawn_drift_models_validate_arguments(model):
    with pytest.raises(ValueError, match="max_deviation must be non-negative"):
        model(-1e-4)
