"""Acceptance gate: ten numbered end-to-end criteria, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the CRITERION lines
as they execute (pytest captures stdout otherwise and replays it on failure).
Every criterion computes its measurements first, prints its verdict, and only
then asserts, so a failing run still reports a complete scoreboard line.

Each criterion is measured by a ``criterion_NN`` function that returns
``(ok, detail)`` and reaches the code it measures through its module, so
``tests/test_criteria_can_fail.py`` can show each verdict turning to FAIL under a
monkeypatched mutation.  A criterion's arguments are named after the fixtures it
reads: ``tmp_path``, or ``grid_estimates`` from ``conftest.py``.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from reference_sim import logical_reading

from gradesync import (
    GRADES,
    PISYNC,
    ConstantDrift,
    SimConfig,
    SystemParams,
    Topology,
    analysis,
    cli,
    error_scale,
    estimate_variance_mc,
    protocols,
    sim,
    step_size_limit,
    variance,
)
from gradesync.scenarios import pairwise_config, pairwise_convergence, variance_grid

DECAY_FACTORS = (0.9, 0.5, 0.2, -0.4, -0.8)


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {number} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


# ---------------------------------------------------------------- 1: decay ratios


def _simulated_decay_ratios(protocol: str, lam: float) -> list[float]:
    step = (1.0 - lam) / 2.0 if protocol == GRADES else (1.0 - lam)
    cfg = SimConfig(
        topology=Topology.line(2),
        beacon_period=1.0,
        duration=12.0,
        max_deviation=1e-4,
        drift={2: ConstantDrift(1e-4)},
        protocols=(protocol,),
        step_policy="fixed",
        step_size=step,
        phase_mode="aligned",
        seed=0,
    )
    errs = [e.error for e in sim.run(cfg).node_events(2, protocol)]
    # An error of exactly 0 (a deadbeat step) has no decay ratio after it: count it as infinite.
    return [errs[k + 1] / errs[k] if errs[k] else math.inf for k in range(1, 7)]


def criterion_01() -> tuple[bool, str]:
    t0 = time.perf_counter()
    worst = 0.0
    for lam in DECAY_FACTORS:
        for proto in (GRADES, PISYNC):
            for ratio in _simulated_decay_ratios(proto, lam):
                worst = max(worst, abs(ratio - lam) / abs(lam))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 and elapsed < 10.0
    return ok, (f"5 factors x 2 protocols, worst relative deviation {worst:.2e} "
                f"(tolerance 1e-2), {elapsed:.2f}s")


def test_criterion_01_decay_ratios_match_the_eigenvalues():
    _verdict(1, "per-round error decay matches 1-2aB^2f0^2 / 1-aBf0", *criterion_01())


# ---------------------------------------------------------------- 2: sharp stability boundary


def _noise_free_rate_error(protocol: str, step: float, rounds: int, z0: float) -> float:
    """z after ``rounds`` noise-free rounds of z <- (1 - c*B)*z at B = f0 = 1."""
    c = step * protocols.error_scale(protocol, 1.0, 1.0)  # the gain c = step * error_scale * f0
    z = z0
    for _ in range(rounds):
        z -= c * z
    return z


def criterion_02() -> tuple[bool, str]:
    t0 = time.perf_counter()
    z0 = 1e-4
    margins = []
    for proto in (GRADES, PISYNC):
        limit = protocols.step_size_limit(proto, 1.0, 1.0)
        below = _noise_free_rate_error(proto, 0.95 * limit, 1000, z0)
        above = _noise_free_rate_error(proto, 1.05 * limit, 1000, z0)
        margins.append((abs(below) / z0, abs(above) / z0))
    elapsed = time.perf_counter() - t0
    ok = all(shrunk < 1e-6 and grown > 1e6 for shrunk, grown in margins) and elapsed < 10.0
    return ok, (f"|z_1000|/|z_0|: grades {margins[0][0]:.1e} vs {margins[0][1]:.1e}, "
                f"pisync {margins[1][0]:.1e} vs {margins[1][1]:.1e}, {elapsed:.2f}s")


def test_criterion_02_stability_boundary_is_sharp():
    _verdict(2, "0.95x bound converges, 1.05x diverges over 1000 rounds", *criterion_02())


# ---------------------------------------------------------------- 3+4: variance grid


def criterion_03(grid_estimates, extra_s: float = 0.0) -> tuple[bool, str]:
    """The i.i.d.-convention oracle rows against ``analysis.variance``; ``extra_s`` adds
    the seconds of any further oracle run to the time bound."""
    rows, elapsed = grid_estimates
    t0 = time.perf_counter()
    worst = float(np.max([abs(mc.var_error - ref) / ref  # a NaN fails, as in criterion 4
                          for p, proto, mc in rows for ref in [analysis.variance(p, proto)]]))
    elapsed += extra_s + time.perf_counter() - t0
    ok = len(rows) >= 20 and worst <= 0.10 and elapsed < 120.0
    return ok, (f"i.i.d. per-round delay-noise convention agrees: worst relative error "
                f"{worst:.2%} (tolerance 10%); {2 * len(rows)} estimates in {elapsed:.1f}s")


def test_criterion_03_variance_formulas_match_monte_carlo(grid_estimates):
    # The same grid replayed under the mechanistic difference convention shows
    # which delay-noise reading the closed forms assume.
    t0 = time.perf_counter()
    diff_worst = 0.0
    for i, p in enumerate(variance_grid()):
        estimates = estimate_variance_mc(
            p, (GRADES, PISYNC), rounds=800, trials=400, seed=5 + i, noise_convention="difference"
        )
        for proto, mc in zip((GRADES, PISYNC), estimates):
            ref = variance(p, proto)
            diff_worst = max(diff_worst, abs(mc.var_error - ref) / ref)
    ok, detail = criterion_03(grid_estimates, time.perf_counter() - t0)
    _verdict(
        3,
        "steady variance closed forms vs Monte-Carlo on a 27-point grid",
        ok,
        f"{detail}; the consecutive-difference convention deviates by up to "
        f"{diff_worst:.0%} and is NOT the one the formulas describe",
    )


def criterion_04(grid_estimates) -> tuple[bool, str]:
    """The oracle rows' steady means: error 0 within 3 SE, rate 1/f0 within 0.1%.  A NaN
    anywhere fails: ``np.max`` passes it on, and no comparison with NaN holds."""
    rows, _ = grid_estimates
    worst_mean = float(np.max([
        abs(mc.mean_error) / mc.se_mean_error if mc.se_mean_error != 0 else 0.0
        for _, _, mc in rows
    ]))
    worst_rate = float(np.max([
        abs(mc.mean_rate_multiplier * p.nominal_freq - 1.0) for p, _, mc in rows
    ]))
    ok = worst_mean <= 3.0 and worst_rate <= 1e-3
    return ok, (f"worst |mean error|/SE {worst_mean:.2f} (<= 3), worst relative rate "
                f"offset {worst_rate:.2e} (<= 1e-3) across {len(rows)} grid runs")


def test_criterion_04_steady_means_are_unbiased(grid_estimates):
    _verdict(4, "steady error mean 0 within 3 SE; steady rate 1/f0 within 0.1%",
             *criterion_04(grid_estimates))


# ---------------------------------------------------------------- 5: pairwise re-lock


def criterion_05(tmp_path) -> tuple[bool, str]:
    t0 = time.perf_counter()
    summary = cli.run_scenario("fig1-pairwise", out_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    first = summary["converged_round"]
    second = summary["reconverged_rounds_after_switch"]
    ok = (
        first is not None
        and second is not None
        and first <= 15
        and second <= 15
        and elapsed < 5.0
    )
    return ok, (f"locked in {first} rounds, re-locked {second} rounds after the switch "
                f"(both <= 15), {elapsed:.2f}s")


def test_criterion_05_pairwise_locks_and_relocks_within_15_rounds(tmp_path):
    _verdict(5, "two-node lock and re-lock after a drift step", *criterion_05(tmp_path))


def _relock_rounds(seed: int, **change) -> int | None:
    """Rounds node 2 needs to hold within 25 ppm of the nominal rate again after its drift
    steps from 100 to 50 ppm at round 150 of 300 (B = f0 = 1, aligned phases, a fixed step
    of 0.5); ``change`` replaces fields of that run's config."""
    params = {"rounds": 300, "switch_round": 150, "drift_ppm": 100.0, "drift_ppm_after": 50.0,
              "delay_std": 100e-6 / 30, "step_size": 0.5, "seed": seed}
    trace = sim.run(replace(pairwise_config(params), **change))
    col = trace.node_column(2)
    eff = trace.rate_multipliers[GRADES][:, col] * trace.hw_rates[:, col]
    return pairwise_convergence(trace.times, eff, 150.0, 25e-6)[1]


@pytest.mark.parametrize("seed", [7, 8, 9])
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the adaptive step collapses under "
                   "noise, so the re-lock takes 88, 119 and 103 rounds")
def test_an_adaptive_step_relocks_within_criterion_5s_bound_after_a_drift_step(seed):
    relock = _relock_rounds(seed, step_policy="adaptive", step_size=None)  # from limit/2
    assert relock is not None and relock <= 15, relock


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_a_fixed_step_relocks_within_criterion_5s_bound_after_a_drift_step(seed):
    # The control for the adaptive run above: the same run at the fixed step re-locks in 2.
    relock = _relock_rounds(seed)
    assert relock is not None and relock <= 15, relock


# ---------------------------------------------------------------- 6: adaptive step size


def criterion_06(tmp_path) -> tuple[bool, str]:
    t0 = time.perf_counter()
    summary = cli.run_scenario("fig2-stepsize", out_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    adaptive_rounds = summary["adaptive.convergence_round"]
    small_rounds = summary["const-0.02.convergence_round"]
    spread_ratio = summary["adaptive.steady_error_std"] / summary["const-0.02.steady_error_std"]
    ok = (
        adaptive_rounds is not None
        and small_rounds is not None
        and adaptive_rounds < small_rounds
        and spread_ratio <= 2.0
        and elapsed < 10.0
    )
    return ok, (f"adaptive locked in {adaptive_rounds} rounds vs {small_rounds} for the "
                f"smallest constant step; steady spread ratio {spread_ratio:.2f} (<= 2), "
                f"{elapsed:.2f}s")


def test_criterion_06_adaptive_step_beats_the_smallest_constant(tmp_path):
    _verdict(6, "adaptive step: fast lock without a spread penalty", *criterion_06(tmp_path))


# ---------------------------------------------------------------- 7: 20-node line


def criterion_07(tmp_path) -> tuple[bool, str]:
    t0 = time.perf_counter()
    summary = cli.run_scenario("fig3-multihop", out_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    mean_ratio = summary["post_mean_ratio_grades_over_pisync"]
    max_ratio = summary["post_max_ratio_grades_over_pisync"]
    ok = (
        summary[f"{GRADES}.all_converged"]
        and summary[f"{PISYNC}.all_converged"]
        and 0.5 <= mean_ratio <= 2.0
        and max_ratio <= 1.25
        and elapsed < 180.0
    )
    return ok, (f"5 seeds all converged; mean-skew ratio grades/pisync {mean_ratio:.3f} "
                f"(within [0.5, 2]), peak-skew ratio {max_ratio:.3f} (<= 1.25), {elapsed:.1f}s")


def test_criterion_07_multihop_line_converges_for_both_protocols(tmp_path):
    _verdict(7, "20-node line, 30 s rounds, 20000 s: both protocols converge",
             *criterion_07(tmp_path))


# ---------------------------------------------------------------- 8: head-to-head table


def _contraction(p: SystemParams, protocol: str) -> float:
    """|1 - c*B| of the noise-free round map, in the gain c = step * error_scale * f0."""
    b, f0 = p.beacon_period, p.nominal_freq
    return abs(1.0 - p.step_size * analysis.error_scale(protocol, b, f0) * f0 * b)


def criterion_08() -> tuple[bool, str]:
    # At equal step grades' gain is 2*B*f0 times pisync's, so below B*f0 = 1/2
    # pisync contracts faster and grades has the lower variance, above it the reverse.
    points = [
        SystemParams(b, 1.0, 0.1, max_deviation=0.01, delay_std=1e-3)
        for b in (0.05, 0.1, 0.2, 0.3, 0.4, 0.49, 0.51, 0.6, 0.8, 1.0, 1.5, 1.9)
    ]
    points.append(SystemParams(30.0, 1e6, 1e-16, max_deviation=100.0, delay_std=1e-5))
    checked = 0
    ok = True
    for p in points:
        gv, pv = analysis.variance(p, GRADES), analysis.variance(p, PISYNC)
        gl, pl = _contraction(p, GRADES), _contraction(p, PISYNC)
        short = p.beacon_period * p.nominal_freq < 0.5
        ok = ok and (GRADES if gv < pv else PISYNC) == (GRADES if short else PISYNC)
        ok = ok and (GRADES if gl < pl else PISYNC) == (PISYNC if short else GRADES)
        checked += 1
    return ok, (f"{checked} parameter points (12 normalized, 1 physical 30 s / 1 MHz); "
                f"grades wins variance and pisync convergence exactly when B*f0 < 1/2")


def test_criterion_08_the_winners_flip_at_half_a_tick_per_round():
    _verdict(8, "closed forms: the variance and convergence winners flip at B=1/(2 f0)",
             *criterion_08())


# ---------------------------------------------------------------- 9: diameter scaling


def criterion_09(tmp_path) -> tuple[bool, str]:
    t0 = time.perf_counter()
    summary = cli.run_scenario("scaling", out_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    exponent = summary["exponent"]
    ok = 0.25 <= exponent <= 0.75 and elapsed < 300.0
    return ok, (f"fitted power-law exponent {exponent:.3f} within [0.25, 0.75] "
                f"(10 seeds per diameter), {elapsed:.1f}s")


def test_criterion_09_skew_grows_like_the_square_root_of_the_diameter(tmp_path):
    _verdict(9, "steady skew vs line diameter 4/9/16/25", *criterion_09(tmp_path))


# ---------------------------------------------------------------- 10: protocol logic


def criterion_10() -> tuple[bool, str]:
    checks = []
    # grades' gain bound at B = f0 = 1, as a run derives it: step limit times error scale.
    grades_gain_max = step_size_limit(GRADES, 1.0, 1.0) * error_scale(GRADES, 1.0, 1.0)

    # Stale floods are discarded: on a diamond, where node 4 hears every flood
    # from nodes 2 and 3 at the same instant, each node applies each flood once
    # per protocol, in strictly rising sequence order.
    diamond = sim.run(
        SimConfig(
            topology=Topology(nodes=(1, 2, 3, 4), edges=((1, 2), (1, 3), (2, 4), (3, 4))),
            beacon_period=1.0,
            duration=12.0,
            protocols=(GRADES, PISYNC),
            step_policy="adaptive",
            phase_mode="aligned",
        )
    )
    keys = [(e.node, e.protocol, e.seq) for e in diamond.events]
    checks.append(len(set(keys)) == len(keys))
    for node in (2, 3, 4):
        for proto in (GRADES, PISYNC):
            seqs = [e.seq for e in diamond.node_events(node, proto)]
            checks.append(bool(seqs) and all(a < b for a, b in zip(seqs, seqs[1:])))

    # An accepted message lands the logical clock exactly on the payload: the
    # error is the reading before the jump, and the clock the simulator keeps,
    # (payload, new rate, hw), reads the payload.
    error, _, rate = protocols.update(5.0, 1.0, 0.0, 0.2, 0.0, 4.9, 0.0, grades_gain_max)
    checks.append(error == 5.0 - 4.9 and logical_reading((4.9, rate, 0.0), 0.0) == 4.9)

    # Gain adaptation: double on sign agreement, shrink by three otherwise,
    # clamp to the stability limit, and survive underflow.
    adapt_step = protocols.adapt_step
    checks.append(adapt_step(0.2, 1.0, 1.0, gain_max=1.0) == 0.4)
    checks.append(abs(adapt_step(0.3, 1.0, -1.0, gain_max=1.0) - 0.1) < 1e-15)
    checks.append(abs(adapt_step(0.3, 0.0, 1.0, gain_max=1.0) - 0.1) < 1e-15)
    checks.append(adapt_step(0.8, 1.0, 1.0, gain_max=1.0) == 1.0)
    tiny = 5e-324
    checks.append(adapt_step(tiny, 1.0, -1.0, gain_max=1.0) == tiny)

    # The reference node never corrects itself, even with drift and noise.
    trace = sim.run(
        SimConfig(
            topology=Topology.line(3),
            beacon_period=1.0,
            duration=15.0,
            max_deviation=1e-4,
            delay_std=1e-4,
            drift={1: ConstantDrift(5e-5), 2: ConstantDrift(-1e-4), 3: ConstantDrift(1e-4)},
            protocols=(GRADES, PISYNC),
            step_policy="adaptive",
            phase_mode="random",
            seed=1,
        )
    )
    ref_col = trace.node_column(1)
    checks.append(bool(np.all(trace.rate_multipliers[GRADES][:, ref_col] == 1.0)))
    checks.append(bool(np.all(trace.rate_multipliers[PISYNC][:, ref_col] == 1.0)))
    checks.append(not [e for e in trace.events if e.node == 1])

    return all(checks), (f"{sum(checks)}/{len(checks)} checks: stale-flood discard, exact "
                         f"offset jump, all step-adaptation branches incl. limit clamp and "
                         f"underflow guard, reference immutability")


def test_criterion_10_protocol_logic_invariants():
    _verdict(10, "protocol-logic invariants", *criterion_10())
