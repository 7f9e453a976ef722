"""Acceptance gate: ten numbered end-to-end criteria, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the CRITERION lines
as they execute (pytest captures stdout otherwise and replays it on failure).
Every criterion computes its measurements first, prints its verdict, and only
then asserts, so a failing run still reports a complete scoreboard line.
"""

import time

import numpy as np
import pytest

from gradesync import (
    GRADES,
    PISYNC,
    ConstantDrift,
    LogicalClock,
    SimConfig,
    SyncState,
    SystemParams,
    Topology,
    adapt_step,
    compare_protocols,
    eigenvalues,
    error_scale,
    estimate_variance_mc,
    on_message,
    rate_error_path,
    run,
    step_size_limit,
    variance,
)
from gradesync.cli import run_scenario
from gradesync.scenarios import variance_grid

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
    errs = [e.error for e in run(cfg).node_events(2, protocol)]
    return [errs[k + 1] / errs[k] for k in range(1, 7)]


def test_criterion_01_decay_ratios_match_the_eigenvalues():
    t0 = time.perf_counter()
    worst = 0.0
    for lam in DECAY_FACTORS:
        for proto in (GRADES, PISYNC):
            for ratio in _simulated_decay_ratios(proto, lam):
                worst = max(worst, abs(ratio - lam) / abs(lam))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 and elapsed < 10.0
    _verdict(
        1,
        "per-round error decay matches 1-2aB^2f0^2 / 1-aBf0",
        ok,
        f"5 factors x 2 protocols, worst relative deviation {worst:.2e} "
        f"(tolerance 1e-2), {elapsed:.2f}s",
    )


# ---------------------------------------------------------------- 2: sharp stability boundary


def test_criterion_02_stability_boundary_is_sharp():
    t0 = time.perf_counter()
    z0 = 1e-4
    margins = []
    for proto in (GRADES, PISYNC):
        limit = step_size_limit(proto, 1.0, 1.0)
        below = rate_error_path(
            SystemParams(1.0, 1.0, 0.95 * limit), proto, rounds=1000, z0=z0
        )
        above = rate_error_path(
            SystemParams(1.0, 1.0, 1.05 * limit), proto, rounds=1000, z0=z0
        )
        margins.append((abs(below[-1]) / z0, abs(above[-1]) / z0))
    elapsed = time.perf_counter() - t0
    ok = all(shrunk < 1e-6 and grown > 1e6 for shrunk, grown in margins) and elapsed < 10.0
    _verdict(
        2,
        "0.95x bound converges, 1.05x diverges over 1000 rounds",
        ok,
        f"|z_1000|/|z_0|: grades {margins[0][0]:.1e} vs {margins[0][1]:.1e}, "
        f"pisync {margins[1][0]:.1e} vs {margins[1][1]:.1e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------- 3+4: variance grid


@pytest.fixture(scope="session")
def grid_estimates():
    t0 = time.perf_counter()
    rows = []
    for i, p in enumerate(variance_grid()):
        estimates = estimate_variance_mc(p, (GRADES, PISYNC), rounds=1200, trials=1500, seed=5 + i)
        for proto, mc in zip((GRADES, PISYNC), estimates):
            rows.append((p, proto, variance(p, proto), mc))
    return rows, time.perf_counter() - t0


def test_criterion_03_variance_formulas_match_monte_carlo(grid_estimates):
    rows, elapsed = grid_estimates
    t0 = time.perf_counter()
    iid_worst = max(abs(mc.var_error - ref) / ref for _, _, ref, mc in rows)
    # The same grid replayed under the mechanistic difference convention shows
    # which delay-noise reading the closed forms assume.
    diff_worst = 0.0
    for i, p in enumerate(variance_grid()):
        estimates = estimate_variance_mc(
            p, (GRADES, PISYNC), rounds=800, trials=400, seed=5 + i, noise_convention="difference"
        )
        for proto, mc in zip((GRADES, PISYNC), estimates):
            ref = variance(p, proto)
            diff_worst = max(diff_worst, abs(mc.var_error - ref) / ref)
    elapsed += time.perf_counter() - t0
    ok = len(rows) >= 20 and iid_worst <= 0.10 and elapsed < 120.0
    _verdict(
        3,
        "steady variance closed forms vs Monte-Carlo on a 27-point grid",
        ok,
        f"i.i.d. per-round delay-noise convention agrees: worst relative error "
        f"{iid_worst:.2%} (tolerance 10%); the consecutive-difference convention "
        f"deviates by up to {diff_worst:.0%} and is NOT the one the formulas "
        f"describe; {2 * len(rows)} estimates in {elapsed:.1f}s",
    )


def test_criterion_04_steady_means_are_unbiased(grid_estimates):
    rows, _ = grid_estimates
    worst_mean = max(
        abs(mc.mean_error) / mc.se_mean_error if mc.se_mean_error > 0 else 0.0
        for _, _, _, mc in rows
    )
    worst_rate = max(
        abs(mc.mean_rate_multiplier * p.nominal_freq - 1.0) for p, _, _, mc in rows
    )
    ok = worst_mean <= 3.0 and worst_rate <= 1e-3
    _verdict(
        4,
        "steady error mean 0 within 3 SE; steady rate 1/f0 within 0.1%",
        ok,
        f"worst |mean error|/SE {worst_mean:.2f} (<= 3), worst relative rate "
        f"offset {worst_rate:.2e} (<= 1e-3) across {len(rows)} grid runs",
    )


# ---------------------------------------------------------------- 5: pairwise re-lock


def test_criterion_05_pairwise_locks_and_relocks_within_15_rounds(tmp_path):
    t0 = time.perf_counter()
    summary = run_scenario("fig1-pairwise", out_dir=tmp_path)
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
    _verdict(
        5,
        "two-node lock and re-lock after a drift step",
        ok,
        f"locked in {first} rounds, re-locked {second} rounds after the switch "
        f"(both <= 15), {elapsed:.2f}s",
    )


# ---------------------------------------------------------------- 6: adaptive step size


def test_criterion_06_adaptive_step_beats_the_smallest_constant(tmp_path):
    t0 = time.perf_counter()
    summary = run_scenario("fig2-stepsize", out_dir=tmp_path)
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
    _verdict(
        6,
        "adaptive step: fast lock without a spread penalty",
        ok,
        f"adaptive locked in {adaptive_rounds} rounds vs {small_rounds} for the "
        f"smallest constant step; steady spread ratio {spread_ratio:.2f} (<= 2), "
        f"{elapsed:.2f}s",
    )


# ---------------------------------------------------------------- 7: 20-node line


def test_criterion_07_multihop_line_converges_for_both_protocols(tmp_path):
    t0 = time.perf_counter()
    summary = run_scenario("fig3-multihop", out_dir=tmp_path)
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
    _verdict(
        7,
        "20-node line, 30 s rounds, 20000 s: both protocols converge",
        ok,
        f"5 seeds all converged; mean-skew ratio grades/pisync {mean_ratio:.3f} "
        f"(within [0.5, 2]), peak-skew ratio {max_ratio:.3f} (<= 1.25), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- 8: head-to-head table


def test_criterion_08_protocol_comparison_matches_direct_evaluation():
    points = [
        SystemParams(b, 1.0, 0.1, max_deviation=0.01, delay_std=1e-3)
        for b in (0.05, 0.1, 0.2, 0.3, 0.4, 0.49, 0.51, 0.6, 0.8, 1.0, 1.5, 1.9)
    ]
    points.append(SystemParams(30.0, 1e6, 1e-16, max_deviation=100.0, delay_std=1e-5))
    checked = 0
    ok = True
    for p in points:
        c = compare_protocols(p)
        gv, pv = variance(p, GRADES), variance(p, PISYNC)
        gl, pl = eigenvalues(p, GRADES)[1], eigenvalues(p, PISYNC)[1]
        direct_var = GRADES if gv < pv else PISYNC
        direct_conv = GRADES if abs(gl) < abs(pl) else PISYNC
        predicted_var = GRADES if p.beacon_period * p.nominal_freq < 0.5 else PISYNC
        ok = ok and c.variance_winner == direct_var == predicted_var
        ok = ok and c.convergence_winner == direct_conv
        ok = ok and (c.grades_variance, c.pisync_variance) == (gv, pv)
        checked += 1
    _verdict(
        8,
        "comparison table agrees with the closed forms; variance winner flips at B=1/(2 f0)",
        ok,
        f"{checked} parameter points (12 normalized, 1 physical 30 s / 1 MHz); "
        f"grades wins variance exactly when B*f0 < 1/2",
    )


# ---------------------------------------------------------------- 9: diameter scaling


def test_criterion_09_skew_grows_like_the_square_root_of_the_diameter(tmp_path):
    t0 = time.perf_counter()
    summary = run_scenario("scaling", out_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    exponent = summary["exponent"]
    ok = 0.25 <= exponent <= 0.75 and elapsed < 300.0
    _verdict(
        9,
        "steady skew vs line diameter 4/9/16/25",
        ok,
        f"fitted power-law exponent {exponent:.3f} within [0.25, 0.75] "
        f"(10 seeds per diameter), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- 10: protocol logic


def test_criterion_10_protocol_logic_invariants():
    checks = []
    # grades' error scale and step bound at B = f0 = 1, as a run derives them.
    grades_constants = (error_scale(GRADES, 1.0, 1.0), step_size_limit(GRADES, 1.0, 1.0))

    # Stale floods are discarded: on a diamond, where node 4 hears every flood
    # from nodes 2 and 3 at the same instant, each node applies each flood once
    # per protocol, in strictly rising sequence order.
    diamond = run(
        SimConfig(
            topology=Topology(nodes=(1, 2, 3, 4), edges=((1, 2), (1, 3), (2, 4), (3, 4))),
            beacon_period=1.0,
            duration=12.0,
            protocols=(GRADES, PISYNC),
            step_policy="adaptive",
            phase_mode="aligned",
            record_events=True,
        )
    )
    keys = [(e.node, e.protocol, e.seq) for e in diamond.events]
    checks.append(len(set(keys)) == len(keys))
    for node in (2, 3, 4):
        for proto in (GRADES, PISYNC):
            seqs = [e.seq for e in diamond.node_events(node, proto)]
            checks.append(bool(seqs) and all(a < b for a, b in zip(seqs, seqs[1:])))

    # An accepted message lands the logical clock exactly on the payload.
    state = SyncState(step_size=0.1, clock=LogicalClock(5.0, 1.0, 0.0))
    updated = on_message(state, 4.9, 0.0, *grades_constants)
    checks.append(updated.clock.read(0.0) == 4.9)

    # Step adaptation: double on sign agreement, shrink by three otherwise,
    # clamp to the stability limit, and survive underflow.
    checks.append(adapt_step(0.2, 1.0, 1.0, step_max=1.0) == 0.4)
    checks.append(abs(adapt_step(0.3, 1.0, -1.0, step_max=1.0) - 0.1) < 1e-15)
    checks.append(abs(adapt_step(0.3, 0.0, 1.0, step_max=1.0) - 0.1) < 1e-15)
    checks.append(adapt_step(0.8, 1.0, 1.0, step_max=1.0) == 1.0)
    tiny = 5e-324
    checks.append(adapt_step(tiny, 1.0, -1.0, step_max=1.0) == tiny)

    # The reference node never corrects itself, even with drift and noise.
    trace = run(
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

    ok = all(checks)
    _verdict(
        10,
        "protocol-logic invariants",
        ok,
        f"{sum(checks)}/{len(checks)} checks: stale-flood discard, exact offset "
        f"jump, all step-adaptation branches incl. limit clamp and underflow "
        f"guard, reference immutability",
    )
