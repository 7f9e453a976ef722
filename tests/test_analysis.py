"""Closed-form eigenvalues, stability bounds, fixed points, and steady-state
variances, each cross-checked against the independent round-recursion oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradesync import (
    GRADES,
    PISYNC,
    InvalidRegimeError,
    SimConfig,
    SystemParams,
    Topology,
    compare_protocols,
    eigenvalues,
    error_scale,
    estimate_variance_mc,
    rate_error_path,
    step_size_limit,
    variance,
)


def params(b=1.0, f0=1.0, step=0.1, fmax=0.0, dstd=0.0):
    return SystemParams(
        beacon_period=b, nominal_freq=f0, step_size=step, max_deviation=fmax, delay_std=dstd
    )


# ---------------------------------------------------------------- eigenvalues


def test_grades_eigenvalues_examples():
    lam1, lam2 = eigenvalues(params(step=1e-12), GRADES)
    assert lam1 == 0.0
    assert lam2 == pytest.approx(1.0, abs=1e-11)  # vanishing step: no contraction
    assert eigenvalues(params(step=0.5), GRADES)[1] == 0.0  # deadbeat
    assert eigenvalues(params(step=1.0), GRADES)[1] == -1.0  # stability boundary
    lam2 = eigenvalues(params(b=30.0, f0=1e6, step=0.25 * (30e6) ** -2), GRADES)[1]
    assert lam2 == pytest.approx(0.5, rel=1e-12)


def test_pisync_eigenvalues_examples():
    assert eigenvalues(params(step=1e-12), PISYNC)[1] == pytest.approx(1.0, abs=1e-11)
    assert eigenvalues(params(step=1.0), PISYNC)[1] == 0.0  # deadbeat
    assert eigenvalues(params(step=2.0), PISYNC)[1] == -1.0  # stability boundary
    lam2 = eigenvalues(params(b=30.0, f0=1e6, step=0.5 / 30e6), PISYNC)[1]
    assert lam2 == pytest.approx(0.5, rel=1e-12)


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
        for proto in (GRADES, PISYNC):
            assert np.all(rate_error_path(p, proto, rounds=10, z0=0.0) == 0.0)
        both = estimate_variance_mc(p, (GRADES, PISYNC), rounds=10, trials=4, seed=0, z0=0.0)
        for est in both:
            assert (est.mean_error, est.mean_rate_multiplier) == (0.0, 1.0 / f0)


# ---------------------------------------------------------------- noise-free dynamics


def test_path_decay_matches_the_eigenvalue_exactly():
    for proto in (GRADES, PISYNC):
        for step in (0.05, 0.3, 0.45):
            p = params(step=step)
            lam2 = eigenvalues(p, proto)[1]
            path = rate_error_path(p, proto, rounds=20, z0=1e-4)
            ratios = path[1:] / path[:-1]
            assert np.allclose(ratios, lam2, rtol=1e-9)


def test_stability_boundary_is_sharp_at_five_percent():
    z0 = 1e-4
    for proto in (GRADES, PISYNC):
        limit = step_size_limit(proto, 1.0, 1.0)
        below = rate_error_path(params(step=0.95 * limit), proto, rounds=1000, z0=z0)
        above = rate_error_path(params(step=1.05 * limit), proto, rounds=1000, z0=z0)
        assert abs(below[-1]) < 1e-6 * abs(z0)
        assert abs(above[-1]) > 1e6 * abs(z0)


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
def test_normalized_params_preserve_dynamics_and_scale_variance(b, f0, frac, fmax_ppm, dstd_frac):
    for proto in (GRADES, PISYNC):
        p = SystemParams(
            beacon_period=b,
            nominal_freq=f0,
            step_size=frac * step_size_limit(proto, b, f0),
            max_deviation=fmax_ppm * 1e-6 * f0,
            delay_std=dstd_frac * b,
        )
        q = p.normalized(proto)
        assert (q.beacon_period, q.nominal_freq) == (1.0, 1.0)
        assert q.step_size == pytest.approx(frac * step_size_limit(proto, 1.0, 1.0), rel=1e-9)
        lam_q, lam_p = eigenvalues(q, proto)[1], eigenvalues(p, proto)[1]
        assert lam_q == pytest.approx(lam_p, rel=1e-9, abs=1e-12)
        assert variance(q, proto) == pytest.approx(variance(p, proto) / b**2, rel=1e-9)


# ---------------------------------------------------------------- protocol comparison


def test_variance_winner_flips_exactly_at_half_a_tick_per_round():
    # Same step for both protocols; the two z-variance denominators differ
    # only by their leading constants 1 vs 2*B*f0.
    for b in (0.05, 0.2, 0.4, 0.49):
        c = compare_protocols(params(b=b, step=0.1, fmax=0.01, dstd=1e-3))
        assert c.variance_winner == GRADES
        assert c.grades_variance < c.pisync_variance
    for b in (0.51, 0.8, 1.0, 1.9):
        c = compare_protocols(params(b=b, step=0.1, fmax=0.01, dstd=1e-3))
        assert c.variance_winner == PISYNC
        assert c.pisync_variance < c.grades_variance
    tie = compare_protocols(params(b=0.5, step=0.1, fmax=0.01, dstd=1e-3))
    assert tie.variance_winner == "tie"


def test_convergence_winner_depends_on_the_round_length():
    # Long rounds: grades' quadratic factor contracts faster at equal step.
    fast = compare_protocols(params(b=1.0, step=0.1, dstd=1e-3))
    assert fast.convergence_winner == GRADES
    # Short rounds (B*f0 < 1/2): the quadratic factor is the smaller one.
    slow = compare_protocols(params(b=0.3, step=0.5, dstd=1e-3))
    assert slow.convergence_winner == PISYNC
    # |1 - 2a| == |1 - a| at a = 2/3: a genuine tie.
    tie = compare_protocols(params(b=1.0, step=2.0 / 3.0, dstd=1e-3))
    assert tie.convergence_winner == "tie"


def test_comparison_carries_both_closed_forms_verbatim():
    p = params(b=1.2, step=0.2, fmax=0.02, dstd=2e-3)
    c = compare_protocols(p)
    assert c.grades_lambda2 == eigenvalues(p, GRADES)[1]
    assert c.pisync_lambda2 == eigenvalues(p, PISYNC)[1]
    assert c.grades_variance == variance(p, GRADES)
    assert c.pisync_variance == variance(p, PISYNC)


# ---------------------------------------------------------------- Monte-Carlo oracle


def test_mc_oracle_is_exact_without_noise():
    p = params(step=0.2)
    (est,) = estimate_variance_mc(p, (GRADES,), rounds=100, trials=8, seed=0, z0=0.0)
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
        assert iid.noise_convention == "iid"
        assert diff.noise_convention == "difference"
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
        "n_samples=63, noise_convention='iid')",
        "McEstimate(mean_error=-0.0015543689210613324, var_error=0.00040842919912179954, "
        "se_mean_error=0.0013993472339320725, mean_rate_multiplier=1.0004656261006457, "
        "n_samples=63, noise_convention='iid')",
    ),
    "difference": (
        "McEstimate(mean_error=-0.0013785338174526623, var_error=0.0015105476875852365, "
        "se_mean_error=0.0021037840590849444, mean_rate_multiplier=0.9998730743379514, "
        "n_samples=63, noise_convention='difference')",
        "McEstimate(mean_error=-0.0009178854150421481, var_error=0.0010899850224051616, "
        "se_mean_error=0.0020164239077879644, mean_rate_multiplier=0.9997874988914104, "
        "n_samples=63, noise_convention='difference')",
    ),
}


@pytest.mark.parametrize("convention", sorted(PINNED_MC))
def test_mc_oracle_reproduces_its_recorded_estimates(convention):
    p = params(step=0.3, fmax=0.01, dstd=0.02)
    estimates = estimate_variance_mc(
        p, (GRADES, PISYNC), rounds=17, trials=7, seed=3, noise_convention=convention
    )
    assert tuple(map(repr, estimates)) == PINNED_MC[convention]


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
    with pytest.raises(ValueError):
        params(step=0.1).normalized("ntp")
    # Non-finite values would make variance and eigenvalues nan or infinite.
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
        lambda proto: eigenvalues(params(step=0.1), proto),
        lambda proto: variance(params(step=0.1, dstd=0.01), proto),
        lambda proto: params(step=0.1).normalized(proto),
        lambda proto: estimate_variance_mc(params(step=0.1), (proto,), rounds=4, trials=2),
        lambda proto: SimConfig(
            Topology.line(2), 1.0, 1.0, step_policy="adaptive"
        ).resolved_step_size(proto),
    ],
    ids=["step_size_limit", "error_scale", "eigenvalues", "variance", "normalized",
         "estimate_variance_mc", "resolved_step_size"],
)
def test_every_protocol_entry_point_rejects_an_unknown_protocol(call):
    with pytest.raises(ValueError, match="unknown protocol"):
        call("ntp")
