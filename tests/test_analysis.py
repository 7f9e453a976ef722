"""Closed-form stability bounds, fixed points, and steady-state variances, each
cross-checked against the independent round-recursion oracle."""

import inspect
import math
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradesync import analysis, sim
from gradesync import (
    GRADES,
    PISYNC,
    InvalidRegimeError,
    SystemParams,
    error_scale,
    estimate_variance_mc,
    step_size_limit,
    variance,
)


def params(b=1.0, f0=1.0, step=0.1, fmax=0.0, dstd=0.0):
    return SystemParams(
        beacon_period=b, nominal_freq=f0, step_size=step, max_deviation=fmax, delay_std=dstd
    )


def test_stability_bounds_and_their_crossover():
    assert step_size_limit(GRADES, 1.0, 1.0) == 1.0
    assert step_size_limit(PISYNC, 1.0, 1.0) == 2.0
    # The bounds cross where 1/(B*f0)^2 = 2/(B*f0), i.e. B*f0 = 1/2.
    for bf in (0.1, 0.4):
        assert step_size_limit(GRADES, bf, 1.0) > step_size_limit(PISYNC, bf, 1.0)
    for bf in (0.6, 1.0, 30e6):
        assert step_size_limit(GRADES, bf, 1.0) < step_size_limit(PISYNC, bf, 1.0)


def test_fixed_points_are_zero_error_at_the_nominal_rate():
    # Started at zero rate error, the noise-free recursion never leaves it:
    # zero sync error at rate multiplier 1/f0.
    for f0 in (1.0, 1e6):
        p = params(f0=f0, step=1e-9)
        both = estimate_variance_mc(p, (GRADES, PISYNC), rounds=10, trials=4, seed=0)
        for est in both:
            assert (est.mean_error, est.mean_rate_multiplier) == (0.0, 1.0 / f0)


# ---------------------------------------------------------------- variances


def test_noise_free_variance_is_zero():
    assert variance(params(step=0.1), GRADES) == 0.0
    assert variance(params(step=0.1), PISYNC) == 0.0


def test_delay_only_variance_has_the_expected_closed_form():
    # With no frequency deviation the whole steady variance comes from the
    # rate jitter injected by delay noise plus the direct delay term:
    # step*B^2*f0^2*dstd^2 / (1 - step*B^2*f0^2) + dstd^2.
    for b, f0, a, dstd in ((1.0, 1.0, 0.3, 0.01), (2.0, 1.0, 0.05, 0.004), (30.0, 1e6, 1e-16, 1e-5)):
        p = params(b=b, f0=f0, step=a, dstd=dstd)
        w = a * b * b * f0 * f0
        expected = w * dstd**2 / (1.0 - w) + dstd**2
        assert variance(p, GRADES) == pytest.approx(expected, rel=1e-12)


def test_variance_raises_outside_the_contraction_region():
    with pytest.raises(InvalidRegimeError):
        variance(params(step=1.0, dstd=0.01), GRADES)  # denominator exactly 0
    with pytest.raises(InvalidRegimeError):
        variance(params(step=1.2, dstd=0.01), GRADES)
    with pytest.raises(InvalidRegimeError):
        variance(params(step=2.0, dstd=0.01), PISYNC)
    # The variance region is slightly stricter than the mean-stability region
    # once frequency deviation contributes to the denominator.
    fmax = 0.5
    edge = 1.0 / (1.0 + fmax**2 / 3.0)
    with pytest.raises(InvalidRegimeError):
        variance(params(step=edge * 1.001, fmax=fmax, dstd=0.01), GRADES)
    assert variance(params(step=edge * 0.999, fmax=fmax, dstd=0.01), GRADES) > 0


def test_equal_gains_give_equal_variances():
    # One formula in the gain c = step * error_scale * f0: a grades step a and a
    # pisync step a * (2*B*f0) have the same c, so every result is bit-identical.
    rng = np.random.default_rng(19)
    for _ in range(2000):
        b, f0 = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-1, 7)
        fmax, dstd = f0 * rng.uniform(0, 1e-2), b * rng.uniform(0, 1e-3)
        a = rng.uniform(0.01, 0.99) / (b * b * f0 * f0 + b * fmax**2 / 3.0)
        g = params(b=b, f0=f0, step=a, fmax=fmax, dstd=dstd)
        q = params(b=b, f0=f0, step=a * (2.0 * b * f0), fmax=fmax, dstd=dstd)
        assert variance(g, GRADES) == variance(q, PISYNC), (b, f0, a, fmax, dstd)


@settings(max_examples=60, deadline=None)
@given(
    a1=st.floats(0.01, 0.90),
    ratio=st.floats(1.05, 5.0),
    dstd=st.floats(1e-4, 1e-2),
    fmax=st.floats(0.0, 0.05),
)
def test_variance_grows_with_the_step_size(a1, ratio, dstd, fmax):
    a2 = min(a1 * ratio, 0.95)
    if a2 <= a1:
        return
    for proto in (GRADES, PISYNC):
        v1 = variance(params(step=a1, fmax=fmax, dstd=dstd), proto)
        v2 = variance(params(step=a2, fmax=fmax, dstd=dstd), proto)
        assert v2 > v1


# ---------------------------------------------------------------- normalization


@settings(max_examples=80, deadline=None)
@given(
    b=st.floats(0.1, 60.0),
    f0=st.floats(1.0, 1e6),
    frac=st.floats(0.01, 0.9),
    fmax_ppm=st.floats(0.0, 100.0),
    dstd_frac=st.floats(0.0, 1e-3),
)
def test_normalized_params_scale_the_variance_by_one_over_b_squared(
    b, f0, frac, fmax_ppm, dstd_frac
):
    # In round/nominal-tick units (B = f0 = 1) the per-round deviation integral keeps its
    # variance, so max_deviation scales by 1/(f0*sqrt(B)); delay_std scales by 1/B and the
    # step by the ratio of stability bounds.
    for proto in (GRADES, PISYNC):
        limit = step_size_limit(proto, b, f0)
        p = SystemParams(
            beacon_period=b,
            nominal_freq=f0,
            step_size=frac * limit,
            max_deviation=fmax_ppm * 1e-6 * f0,
            delay_std=dstd_frac * b,
        )
        q = SystemParams(
            beacon_period=1.0,
            nominal_freq=1.0,
            step_size=p.step_size * step_size_limit(proto, 1.0, 1.0) / limit,
            max_deviation=p.max_deviation / (f0 * math.sqrt(b)),
            delay_std=p.delay_std / b,
        )
        assert variance(q, proto) == pytest.approx(variance(p, proto) / b**2, rel=1e-9)


# ---------------------------------------------------------------- protocol comparison


def test_variance_winner_flips_exactly_at_half_a_tick_per_round():
    # Same step for both protocols; the two z-variance denominators differ
    # only by their leading constants 1 vs 2*B*f0.
    for b in (0.05, 0.2, 0.4, 0.49):
        p = params(b=b, step=0.1, fmax=0.01, dstd=1e-3)
        assert variance(p, GRADES) < variance(p, PISYNC)
    for b in (0.51, 0.8, 1.0, 1.9):
        p = params(b=b, step=0.1, fmax=0.01, dstd=1e-3)
        assert variance(p, PISYNC) < variance(p, GRADES)
    tie = params(b=0.5, step=0.1, fmax=0.01, dstd=1e-3)
    assert math.isclose(variance(tie, GRADES), variance(tie, PISYNC), rel_tol=1e-12)


def test_convergence_winner_depends_on_the_round_length():
    def contraction(p, protocol):
        # |1 - c*B| in the gain c = step * error_scale * f0 of the noise-free round map.
        c = p.step_size * error_scale(protocol, p.beacon_period, p.nominal_freq) * p.nominal_freq
        return abs(1.0 - c * p.beacon_period)

    # Long rounds: grades' quadratic factor contracts faster at equal step.
    fast = params(b=1.0, step=0.1, dstd=1e-3)
    assert contraction(fast, GRADES) < contraction(fast, PISYNC)
    # Short rounds (B*f0 < 1/2): the quadratic factor is the smaller one.
    slow = params(b=0.3, step=0.5, dstd=1e-3)
    assert contraction(slow, PISYNC) < contraction(slow, GRADES)
    # |1 - 2a| == |1 - a| at a = 2/3: a genuine tie.
    tie = params(b=1.0, step=2.0 / 3.0, dstd=1e-3)
    assert math.isclose(contraction(tie, GRADES), contraction(tie, PISYNC), rel_tol=1e-12,
                        abs_tol=1e-15)


# ---------------------------------------------------------------- Monte-Carlo oracle


def test_mc_oracle_is_exact_without_noise():
    p = params(step=0.2)
    (est,) = estimate_variance_mc(p, (GRADES,), rounds=100, trials=8, seed=0)
    assert est.mean_error == 0.0
    assert est.var_error == 0.0
    assert est.mean_rate_multiplier == 1.0
    assert est.n_samples == 8 * 50


def test_mc_oracle_matches_both_closed_forms_at_a_mixed_noise_point():
    p = params(step=0.1, fmax=1e-4, dstd=1e-4)
    estimates = estimate_variance_mc(p, (GRADES, PISYNC), rounds=800, trials=500, seed=1)
    for proto, est in zip((GRADES, PISYNC), estimates):
        assert est.var_error == pytest.approx(variance(p, proto), rel=0.10)
        assert abs(est.mean_error) <= 3.5 * est.se_mean_error


def test_mc_oracle_matches_the_closed_form_at_a_physical_unit_point():
    # B = 30 s and f0 = 1 MHz: every path must start at rate multiplier 1/f0
    # (z = 0), not 1, or the error grows by 19 orders of magnitude.
    for proto in (GRADES, PISYNC):
        step = 1e-3 * step_size_limit(proto, 30.0, 1e6)
        p = params(b=30.0, f0=1e6, step=step, fmax=100.0, dstd=1e-5)
        (est,) = estimate_variance_mc(p, (proto,), rounds=1200, trials=200, seed=0)
        assert est.var_error == pytest.approx(variance(p, proto), rel=0.10)
        assert abs(est.mean_error) <= 3.5 * est.se_mean_error
        assert est.mean_rate_multiplier == pytest.approx(1e-6, rel=1e-6)


def test_iid_convention_agrees_where_the_difference_convention_does_not():
    # At a delay-dominated operating point the closed forms assume fresh
    # per-round delay noise.  The mechanistic difference convention has
    # E[d^2] = 2*dstd^2 and a z-d cross-correlation, and lands far away.
    p = params(step=0.3, dstd=0.01)
    both = (GRADES, PISYNC)
    iids = estimate_variance_mc(p, both, rounds=800, trials=500, seed=2)
    diffs = estimate_variance_mc(
        p, both, rounds=800, trials=500, seed=2, noise_convention="difference"
    )
    for proto, iid, diff in zip(both, iids, diffs):
        target = variance(p, proto)
        assert abs(iid.var_error - target) / target < 0.05
        assert abs(diff.var_error - target) / target > 0.5


def test_mc_oracle_validates_arguments():
    p = params(step=0.1)
    with pytest.raises(ValueError):
        estimate_variance_mc(p, (GRADES,), noise_convention="bursty")
    with pytest.raises(ValueError):
        estimate_variance_mc(p, (GRADES,), rounds=1)
    with pytest.raises(ValueError):
        estimate_variance_mc(p, ("ntp",))
    with pytest.raises(ValueError, match="protocols"):
        estimate_variance_mc(p, ())
    # A bare name is a sequence of letters, not of protocols.
    with pytest.raises(ValueError, match="protocols"):
        estimate_variance_mc(p, GRADES)


def test_mc_oracle_bounds_protocols_times_trials_before_allocating(monkeypatch):
    p = params(step=0.1, dstd=0.01)
    monkeypatch.setitem(sim.BUDGETS, sim.PATHS, 10)
    assert len(estimate_variance_mc(p, (GRADES, PISYNC), rounds=4, trials=5)) == 2
    monkeypatch.setattr(analysis, "np", None)  # a call that reaches numpy now fails otherwise
    with pytest.raises(ValueError, match="^parameter trials must be at most 5, got 6$"):
        estimate_variance_mc(p, (GRADES, PISYNC), rounds=4, trials=6)
    with pytest.raises(ValueError, match="^parameter trials must be at most 10, got 11$"):
        estimate_variance_mc(p, (GRADES,), rounds=4, trials=11)


def test_mc_oracle_is_deterministic_per_seed():
    p = params(step=0.1, fmax=1e-4, dstd=1e-4)
    (a,) = estimate_variance_mc(p, (GRADES,), rounds=200, trials=50, seed=9)
    (b,) = estimate_variance_mc(p, (GRADES,), rounds=200, trials=50, seed=9)
    (c,) = estimate_variance_mc(p, (GRADES,), rounds=200, trials=50, seed=10)
    assert a == b
    assert a.var_error != c.var_error


@pytest.mark.parametrize("convention", ["iid", "difference"])
def test_a_two_protocol_call_equals_its_one_protocol_calls(convention):
    # Both recursions share one noise stream, drawn 16 rounds at a time, so
    # the round counts straddle a block boundary or stop short of one.
    p = params(step=0.3, fmax=0.01, dstd=0.02)
    for rounds in (2, 17, 41):
        for trials in (1, 7):
            kw = dict(rounds=rounds, trials=trials, seed=rounds, noise_convention=convention)
            pair = estimate_variance_mc(p, (GRADES, PISYNC), **kw)
            grades, pisync = (estimate_variance_mc(p, (proto,), **kw) for proto in (GRADES, PISYNC))
            singles = grades + pisync
            assert repr(pair) == repr(singles)  # repr: a trial count of 1 gives a NaN SE


# Recorded from the oracle that drew every round with Generator.normal, one
# protocol per call; the block draws must reproduce it bit for bit.
PINNED_MC = {
    "iid": (
        "McEstimate(mean_error=-0.0010488887238793278, var_error=0.0005388631731523554, "
        "se_mean_error=0.0017528915722252898, mean_rate_multiplier=1.0011305083644986, "
        "n_samples=63)",
        "McEstimate(mean_error=-0.0015543689210613324, var_error=0.00040842919912179954, "
        "se_mean_error=0.0013993472339320725, mean_rate_multiplier=1.0004656261006457, "
        "n_samples=63)",
    ),
    "difference": (
        "McEstimate(mean_error=-0.0013785338174526623, var_error=0.0015105476875852365, "
        "se_mean_error=0.0021037840590849444, mean_rate_multiplier=0.9998730743379514, "
        "n_samples=63)",
        "McEstimate(mean_error=-0.0009178854150421481, var_error=0.0010899850224051616, "
        "se_mean_error=0.0020164239077879644, mean_rate_multiplier=0.9997874988914104, "
        "n_samples=63)",
    ),
}


@pytest.mark.parametrize("convention", sorted(PINNED_MC))
def test_mc_oracle_reproduces_its_recorded_estimates(convention):
    p = params(step=0.3, fmax=0.01, dstd=0.02)
    estimates = estimate_variance_mc(
        p, (GRADES, PISYNC), rounds=17, trials=7, seed=3, noise_convention=convention
    )
    assert tuple(map(repr, estimates)) == PINNED_MC[convention]


@pytest.mark.parametrize("convention", ["iid", "difference"])
@pytest.mark.parametrize("block_rounds", [1, 3, 64])
def test_the_block_size_does_not_change_the_estimates(monkeypatch, convention, block_rounds):
    # A second thread draws each block while the one before it runs, so a draw
    # into the wrong block, of the wrong length or out of turn shows up as a
    # difference between blockings: rounds 2, 17 and 50 end inside a block, one
    # round past a boundary, and past several.
    p = params(step=0.3, fmax=0.01, dstd=0.02)

    def estimates():
        return [
            repr(estimate_variance_mc(p, protos, rounds=rounds, trials=trials, seed=rounds,
                                      noise_convention=convention))
            for rounds in (2, 17, 50) for trials in (1, 5) for protos in ((GRADES,), (GRADES, PISYNC))
        ]

    default = estimates()
    monkeypatch.setattr(analysis, "_BLOCK_ROUNDS", block_rounds)
    assert estimates() == default


@pytest.mark.parametrize("convention", ["iid", "difference"])
def test_no_draw_lands_in_the_block_that_runs(monkeypatch, convention):
    # Small blocks run between two switches of the interpreter lock, so the
    # drawer cannot overlap them; at 2,000 trials and a 1 µs switch interval it
    # draws while the main thread works through a block.
    p = params(step=0.3, fmax=0.01, dstd=0.02)
    kw = dict(rounds=50, trials=2000, seed=5, noise_convention=convention)
    with monkeypatch.context() as m:
        m.setattr(analysis, "_BLOCK_ROUNDS", 64)
        one_block = estimate_variance_mc(p, (GRADES, PISYNC), **kw)  # nothing to overlap
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert estimate_variance_mc(p, (GRADES, PISYNC), **kw) == one_block
    finally:
        sys.setswitchinterval(interval)


def test_no_oracle_call_leaves_a_thread_running(monkeypatch):
    p = params(step=0.3, fmax=0.01, dstd=0.02)
    before = threading.active_count()
    for rounds in (2, analysis._BLOCK_ROUNDS - 1, 50):  # under a block, one short of it, four
        estimate_variance_mc(p, (GRADES, PISYNC), rounds=rounds, trials=3)
        assert threading.active_count() == before

    real_rng = np.random.default_rng

    class FailsOnItsThirdBlock:
        threads = []  # the thread of every standard_normal call

        def __init__(self, seed):
            self.rng = real_rng(seed)

        def normal(self, *args):
            return self.rng.normal(*args)

        def standard_normal(self, *, out):
            self.threads.append(threading.current_thread())
            if len(self.threads) == 3:
                raise RuntimeError("third block")
            return self.rng.standard_normal(out=out)

    monkeypatch.setattr(np.random, "default_rng", FailsOnItsThirdBlock)
    with pytest.raises(RuntimeError, match="^third block$"):
        estimate_variance_mc(p, (GRADES, PISYNC), rounds=50, trials=3)
    assert threading.active_count() == before
    threads = FailsOnItsThirdBlock.threads
    assert len(threads) == 3 and threading.main_thread() not in threads


@pytest.mark.parametrize("convention", ["iid", "difference"])
def test_an_oracle_call_peaks_within_the_stated_bytes_per_trial(convention):
    # README's analysis row and sim.BUDGETS' comment state one figure; a
    # tracemalloc peak of less than half of it would make the figure no bound.
    root = Path(__file__).resolve().parents[1]
    stated = re.search(r"at most ([\d,]+) bytes per trial for two protocols",
                       (root / "README.md").read_text())
    assert stated is not None
    assert f"at most {stated[1]} bytes per trial" in inspect.getsource(sim)
    stated = int(stated[1].replace(",", ""))
    p = params(step=0.3, fmax=0.01, dstd=0.02)
    estimate_variance_mc(p, (GRADES,), rounds=2, trials=1)  # its lazy imports are not per trial
    for trials in (10_000, 40_000):
        tracemalloc.start()
        try:
            estimate_variance_mc(p, (GRADES, PISYNC), rounds=40, trials=trials,
                                 noise_convention=convention)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stated / 2 <= peak / trials <= stated


# ---------------------------------------------------------------- parameter validation


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(beacon_period=0.0, nominal_freq=1.0, step_size=0.1)
    with pytest.raises(ValueError):
        SystemParams(beacon_period=1.0, nominal_freq=-1.0, step_size=0.1)
    with pytest.raises(ValueError):
        SystemParams(beacon_period=1.0, nominal_freq=1.0, step_size=0.0)
    with pytest.raises(ValueError):
        SystemParams(beacon_period=1.0, nominal_freq=1.0, step_size=0.1, max_deviation=-1.0)
    with pytest.raises(ValueError):
        SystemParams(beacon_period=1.0, nominal_freq=1.0, step_size=0.1, delay_std=-1.0)
    # Non-finite values would make the variance nan or infinite.
    nan, inf = math.nan, math.inf
    base = dict(beacon_period=1.0, nominal_freq=1.0, step_size=0.1)
    for name, value in (("beacon_period", nan), ("beacon_period", inf), ("step_size", nan),
                        ("max_deviation", nan), ("delay_std", inf)):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SystemParams(**{**base, name: value})


# ---------------------------------------------------------------- unknown protocols


@pytest.mark.parametrize(
    "call",
    [
        lambda proto: step_size_limit(proto, 1.0, 1.0),
        lambda proto: error_scale(proto, 1.0, 1.0),
        lambda proto: variance(params(step=0.1, dstd=0.01), proto),
        lambda proto: estimate_variance_mc(params(step=0.1), (proto,), rounds=4, trials=2),
    ],
    ids=["step_size_limit", "error_scale", "variance", "estimate_variance_mc"],
)
def test_every_protocol_entry_point_rejects_an_unknown_protocol(call):
    with pytest.raises(ValueError, match="unknown protocol"):
        call("ntp")
