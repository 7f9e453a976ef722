"""Named experiment presets and the report helpers behind the CLI.

Each scenario is a dict of overridable parameters plus a runner that builds
configs, runs the simulator (or the analysis oracle), writes CSV artifacts
into an output directory, and returns a flat summary mapping, which
``cli.run_scenario`` writes next to them as summary.csv.  Scenario names
and CSV schemas are part of the tool's external interface; everything here is
deterministic given (scenario, parameters, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

from . import sim
from .analysis import SystemParams, estimate_variance_mc, variance
from .clocks import ConstantDrift, PiecewiseDrift
from .protocols import GRADES, PISYNC, step_size_limit
from .sim import (
    RANDOM_CONSTANT_DRIFT,
    SimConfig,
    SkewTrace,
    Topology,
    _fmt,
    _median,
    convergence_time,
    fit_power_exponent,
    run,
    scaling_experiment,
    write_csv,
    write_skew_csv,
    write_trace_csv,
)

_PHYSICAL_ROUND_SECONDS = 30.0  # reference round length used to normalize delay noise

# The variance formula bound to each protocol, kept because bench/tracer.py wraps
# them; theory-check looks them up when it runs, so each is counted on its own.
grades_variance = partial(variance, protocol=GRADES)
pisync_variance = partial(variance, protocol=PISYNC)


def _at_least(params: dict, name: str, least: int) -> int:
    if int(params[name]) < least:
        raise ValueError(f"parameter {name} must be at least {least}, got {params[name]}")
    return int(params[name])


def _ppm_below_nominal(params: dict, name: str) -> float:
    """A drift of ``params[name]`` ppm as a deviation, whose size must stay below f0 = 1."""
    if not abs(params[name]) < 1e6:
        raise ValueError(f"parameter {name} must be in (-1e6, 1e6), got {params[name]}")
    return params[name] * 1e-6


def _non_negative(params: dict, name: str):
    if not params[name] >= 0:
        raise ValueError(f"parameter {name} must be non-negative, got {params[name]}")
    return params[name]


def write_summary_csv(path: Path, summary: dict) -> None:
    rows = [(k, "" if v is None else v) for k, v in summary.items()]
    write_csv(path, ("metric", "value"), rows)


def report_summary(trace: SkewTrace, protocol: str) -> dict:
    """Convergence time plus the mean and largest skew after it, for one protocol.

    "Converged" means the skew has settled to within 3x the median of its own
    last quarter.  A run that never settles (or only settles in its final
    quarter) reports converged=False, no time and NaN statistics.  The keys are
    converged, convergence_time, post_mean and post_max, in that order.
    """
    times = trace.times
    skew = trace.global_skew(protocol)
    tail = skew[times >= times[-1] * 0.75]
    conv = convergence_time(times, skew, 3.0 * _median(tail))
    if conv is None or conv > times[-1] * 0.75:
        nan = float("nan")
        return {"converged": False, "convergence_time": None, "post_mean": nan, "post_max": nan}
    post = skew[times >= conv]
    return {"converged": True, "convergence_time": conv,
            "post_mean": float(post.mean()), "post_max": float(post.max())}


def _two_node_config(params: dict, drift, step_policy: str, step_size) -> SimConfig:
    """Reference node 1 at the nominal rate and node 2 on ``drift``, in normalized units."""
    rounds = sim.check_budget(sim.CELLS, "rounds", _at_least(params, "rounds", 1),
                              lambda r: 2 * sim.sample_grid(r, 1.0)[0])
    return SimConfig(
        topology=Topology.line(2),
        beacon_period=1.0,
        duration=float(rounds),
        delay_std=params["delay_std"],
        drift={1: ConstantDrift(0.0), 2: drift},
        protocols=(GRADES,),
        step_policy=step_policy,
        step_size=step_size,
        phase_mode="aligned",
        seed=int(params["seed"]),
    )


# ---------------------------------------------------------------- pairwise


def pairwise_config(params: dict) -> SimConfig:
    """Two nodes in normalized units; the non-reference drifts and steps down mid-run."""
    dev0 = _ppm_below_nominal(params, "drift_ppm")
    dev1 = _ppm_below_nominal(params, "drift_ppm_after")
    if not 0 < params["switch_round"] <= _at_least(params, "rounds", 1):
        raise ValueError(
            f"parameter switch_round must be in (0, rounds={params['rounds']}], "
            f"got {params['switch_round']}"
        )
    drift = PiecewiseDrift(((0.0, dev0), (params["switch_round"] * 1.0, dev1)))
    return _two_node_config(params, drift, "fixed", params["step_size"])


def pairwise_convergence(times, eff, switch_t: float, tol: float) -> tuple:
    """Whole rounds (of B = 1) until ``eff`` stays within ``tol`` of the nominal rate 1.

    Two windows are scanned: the samples before the drift switch, counted from
    0, and those from ``switch_t`` to the last sample, counted from the switch.
    A count is None when the rate is still outside the band at its window's end.
    """
    off = np.abs(eff - 1.0)  # the reference runs at exactly the nominal rate
    counts = []
    for t0, inside in ((0.0, times <= switch_t - 1e-9), (switch_t, times >= switch_t)):
        t = convergence_time(times[inside], off[inside], tol)
        counts.append(None if t is None else math.ceil(t - t0 - 1e-9))
    return tuple(counts)


def _run_pairwise(params: dict, out: Path) -> dict:
    tol = _non_negative(params, "rate_tolerance")
    trace = run(pairwise_config(params))
    write_trace_csv(trace, out / "trace.csv")
    write_skew_csv(trace, out / "skew.csv")
    col = trace.node_column(2)
    rates, hw = trace.rate_multipliers[GRADES][:, col], trace.hw_rates[:, col]
    eff = rates * hw  # node 2's logical tick rate per sample
    rows = ((t, t / 1.0, rates[i], hw[i], eff[i], 1.0) for i, t in enumerate(trace.times))
    write_csv(
        out / "frequency.csv",
        ("t_seconds", "round", "rate_multiplier", "hw_rate", "effective_rate", "reference_rate"),
        rows,
        comments=(f"unit_mode=normalized", f"seed={params['seed']}"),
    )
    first, second = pairwise_convergence(trace.times, eff, params["switch_round"] * 1.0, tol)
    return {"converged_round": first, "reconverged_rounds_after_switch": second,
            "rate_tolerance": tol, "rounds": params["rounds"],
            "switch_round": params["switch_round"]}


# ---------------------------------------------------------------- step-size study


def stepsize_configs(params: dict) -> dict[str, SimConfig]:
    """One fixed-step run per listed step size plus one adaptive run."""
    drift = ConstantDrift(_ppm_below_nominal(params, "drift_ppm"))
    limit = step_size_limit(GRADES, 1.0, 1.0)  # checked before any series runs and writes
    if not all(0 < s < limit for s in params["constant_steps"]):
        raise ValueError(f"parameter constant_steps must each be in (0, {limit:g}), "
                         f"got {params['constant_steps']}")
    configs = {
        f"const-{_fmt(s)}": _two_node_config(params, drift, "fixed", s)
        for s in params["constant_steps"]
    }
    if len(configs) < len(params["constant_steps"]):  # a repeated label would overwrite a series
        raise ValueError(
            f"parameter constant_steps must differ in 9 significant digits, "
            f"got {params['constant_steps']}"
        )
    configs["adaptive"] = _two_node_config(params, drift, "adaptive", None)
    return configs


def stepsize_series_stats(events: list, rounds: int, tol: float) -> dict:
    """Convergence round and steady spread of node 2's per-round sync ``events``."""
    if not events:
        raise ValueError("no sync events recorded")
    hits = [e.seq for e in events if abs(e.error) <= tol]
    steady = [e.error for e in events if e.seq > rounds / 2]
    return {
        "convergence_round": min(hits) if hits else None,
        "steady_error_std": float(np.std(steady, ddof=1)) if len(steady) > 1 else float("nan"),
        "steady_error_mean_abs": float(np.mean(np.abs(steady))) if steady else float("nan"),
        "final_step_size": events[-1].step_size,
    }


def _run_stepsize(params: dict, out: Path) -> dict:
    tol = _non_negative(params, "error_tolerance")
    rounds = _at_least(params, "rounds", 3)  # the fewest with 2 errors past rounds / 2
    configs = stepsize_configs(params)
    summary: dict = {"error_tolerance": tol}
    for label, config in configs.items():
        trace = run(config)
        events = trace.node_events(2, GRADES)
        write_csv(
            out / f"errors_{label}.csv",
            ("round", "t_seconds", "error", "step_size", "rate_multiplier"),
            [(e.seq, e.time, e.error, e.step_size, e.rate_multiplier) for e in events],
            comments=(f"unit_mode=normalized", f"seed={params['seed']}", f"series={label}"),
        )
        stats = stepsize_series_stats(events, rounds, tol)
        for k, v in stats.items():
            summary[f"{label}.{k}"] = v
    return summary


# ---------------------------------------------------------------- multi-hop line


def multihop_config(params: dict) -> SimConfig:
    # Adaptive runs start well below the stability limit: with random boot
    # phases the very first sync error can reach a whole beacon period of
    # ticks, and an initial step near limit/2 would push the rate multiplier
    # through zero.  limit/64 survives the worst-case offset chain on a
    # 20-hop line; the adaptation doubles its way back up within a few rounds.
    frac = params["initial_step_fraction"]
    b, f0 = params["beacon_period"], params["nominal_freq"]
    for name in ("beacon_period", "nominal_freq", "duration"):
        if not params[name] > 0:
            raise ValueError(f"parameter {name} must be positive, got {params[name]}")
    if not 0 < frac <= 1:
        raise ValueError(f"parameter initial_step_fraction must be in (0, 1], got {frac}")
    if not 0 <= params["max_dev_ppm"] < 1e6:  # the deviation must stay below nominal_freq
        raise ValueError(
            f"parameter max_dev_ppm must be in [0, 1e6), got {params['max_dev_ppm']}"
        )
    steps = {p: frac * step_size_limit(p, b, f0) for p in (GRADES, PISYNC)}
    samples = sim.sample_grid(params["duration"], b)[0]
    nodes = sim.check_budget(sim.CELLS, "nodes", _at_least(params, "nodes", 2),
                             lambda k: k * samples, f" for duration={params['duration']:g} "
                             f"and beacon_period={b:g}", least=2, other="duration")
    return SimConfig(
        topology=Topology.line(nodes),
        beacon_period=b,
        duration=params["duration"],
        nominal_freq=f0,
        max_deviation=params["max_dev_ppm"] * 1e-6 * f0,
        delay_std=params["delay_std"],
        drift=RANDOM_CONSTANT_DRIFT,
        protocols=(GRADES, PISYNC),
        step_policy="adaptive",
        step_size=steps,
        phase_mode="random",
        seed=int(params["seed"]),
    )


def _run_multihop(params: dict, out: Path) -> dict:
    config = multihop_config(params)
    # A seed's node-rounds, counted as 1 at least so that the cost is at least the seed count.
    work = max(len(config.topology.nodes) * config.duration / config.beacon_period, 1.0)
    count = sim.check_budget(sim.NODE_ROUNDS, "seeds", _at_least(params, "seeds", 1),
                             lambda s: s * work, f" for nodes={params['nodes']}, "
                             f"duration={config.duration:g} and beacon_period="
                             f"{config.beacon_period:g}", least=1, other="duration")
    per_seed: dict[str, list[dict]] = {GRADES: [], PISYNC: []}
    summary: dict = {}
    for seed in range(config.seed, config.seed + count):
        trace = run(replace(config, seed=seed))
        if seed == config.seed:
            write_trace_csv(trace, out / "trace.csv")
            write_skew_csv(trace, out / "skew.csv")
        for proto in (GRADES, PISYNC):
            rep = report_summary(trace, proto)
            per_seed[proto].append(rep)
            for stat, value in rep.items():
                summary[f"seed{seed}.{proto}.{stat}"] = value
        del trace  # so the next seed's run does not hold this one's arrays and log
    for proto in (GRADES, PISYNC):
        reps = per_seed[proto]
        summary[f"{proto}.all_converged"] = all(r["converged"] for r in reps)
        summary[f"{proto}.mean_post_mean"] = float(np.mean([r["post_mean"] for r in reps]))
        summary[f"{proto}.mean_post_max"] = float(np.mean([r["post_max"] for r in reps]))
    # A noise-free run can hold pisync's skew at exactly 0: no ratio then.
    for stat in ("post_mean", "post_max"):
        den = summary[f"{PISYNC}.mean_{stat}"]
        ratio = None if den == 0 else summary[f"{GRADES}.mean_{stat}"] / den
        summary[f"{stat}_ratio_grades_over_pisync"] = ratio
    return summary


# ---------------------------------------------------------------- diameter scaling


def _run_scaling(params: dict, out: Path) -> dict:
    diameters = params["diameters"]
    if len(set(diameters)) < max(2, len(diameters)) or min(diameters) < 1:
        raise ValueError(
            f"parameter diameters needs 2 or more values >= 1, none repeated, got {diameters}"
        )
    if not 0 <= params["max_deviation"] < 1:  # the deviation must stay below nominal_freq = 1
        raise ValueError(
            f"parameter max_deviation must be in [0, 1), got {params['max_deviation']}"
        )
    seed = int(params["seed"])
    result = scaling_experiment(
        diameters,
        range(seed, seed + _at_least(params, "seeds", 1)),
        max_deviation=params["max_deviation"],
        delay_std=params["delay_std"],
        step_size=params["step_size"],
        rounds=_at_least(params, "rounds", 1),
    )
    write_csv(
        out / "scaling.csv",
        ("diameter", "seed", "steady_mean_skew"),
        result.rows,
        comments=("unit_mode=normalized", f"seed={params['seed']}"),
    )
    exponent, intercept = fit_power_exponent(result.aggregate)
    summary: dict = {"exponent": exponent, "intercept": intercept}
    for d in diameters:
        mean, std = result.aggregate[d]
        summary[f"diameter{d}.mean_skew"] = mean
        summary[f"diameter{d}.std_skew"] = std
    return summary


# ---------------------------------------------------------------- formula cross-check


def variance_grid() -> list[SystemParams]:
    """Stable-region parameter grid used to validate the variance formulas."""
    grid = []
    for b in (0.5, 1.0, 2.0):
        for frac in (0.3, 0.6, 0.9):
            for max_dev, delay_std in ((0.02, 0.01), (0.04, 0.004), (0.0, 0.01)):
                step = frac / (b * b + b * max_dev**2 / 3.0)
                grid.append(
                    SystemParams(
                        beacon_period=b,
                        nominal_freq=1.0,
                        step_size=step,
                        max_deviation=max_dev,
                        delay_std=delay_std,
                    )
                )
    return grid


def _run_theory_check(params: dict, out: Path) -> dict:
    tolerance = _non_negative(params, "tolerance")
    convention = str(params["noise_convention"])
    trials = _at_least(params, "trials", 1)
    grid = variance_grid()
    rounds = sim.check_budget(sim.PATH_ROUNDS, "rounds", _at_least(params, "rounds", 2),
                              lambda r: 2 * trials * r * len(grid),  # for 2 protocols
                              f" for trials={trials} and {len(grid)} grid points", least=2,
                              other="trials")
    rows = []
    formula = {GRADES: grades_variance, PISYNC: pisync_variance}
    for i, p in enumerate(grid):
        estimates = estimate_variance_mc(
            p,
            (GRADES, PISYNC),
            rounds=rounds,
            trials=trials,
            seed=int(params["seed"]) + i,
            noise_convention=convention,
        )
        for proto, mc in zip((GRADES, PISYNC), estimates):
            ref = formula[proto](p)
            rows.append({
                "protocol": proto,
                "beacon_period": p.beacon_period,
                "nominal_freq": p.nominal_freq,
                "max_deviation": p.max_deviation,
                "delay_std": p.delay_std,
                "step_size": p.step_size,
                "formula_var": ref,
                "mc_var": mc.var_error,
                "rel_err": abs(mc.var_error - ref) / ref,
                "mc_mean_error": mc.mean_error,
                "mc_se_mean": mc.se_mean_error,
                "mc_mean_rate": mc.mean_rate_multiplier,
                "n_samples": mc.n_samples,
                "noise_convention": convention,
            })
    write_csv(
        out / "theory_check.csv",
        tuple(rows[0]),
        [row.values() for row in rows],
        comments=(f"noise_convention={convention}", f"seed={params['seed']}"),
    )
    worst = max(rows, key=itemgetter("rel_err"))
    return {
        "points": len(rows),
        "noise_convention": convention,
        "max_rel_err": worst["rel_err"],
        "tolerance": tolerance,
        "within_tolerance": worst["rel_err"] <= tolerance,
        "worst_point": f"{worst['protocol']} B={worst['beacon_period']} "
        f"step={_fmt(worst['step_size'])}",
    }


@dataclass(frozen=True)
class Scenario:
    defaults: dict
    runner: Callable[[dict, Path], dict]


SCENARIOS: dict[str, Scenario] = {
    "fig1-pairwise": Scenario(
        {
            "seed": 7,
            "rounds": 60,
            "switch_round": 20,
            "drift_ppm": 100.0,
            "drift_ppm_after": 50.0,
            "step_size": 0.5,
            "delay_std": 100e-6 / _PHYSICAL_ROUND_SECONDS,
            "rate_tolerance": 25e-6,
        },
        _run_pairwise,
    ),
    "fig2-stepsize": Scenario(
        {
            "seed": 11,
            "rounds": 300,
            "drift_ppm": 100.0,
            "delay_std": 100e-6 / _PHYSICAL_ROUND_SECONDS,
            "constant_steps": (0.5, 0.1, 0.02),
            "error_tolerance": 2e-5,
        },
        _run_stepsize,
    ),
    "fig3-multihop": Scenario(
        {
            "seed": 3,
            "seeds": 5,
            "nodes": 20,
            "beacon_period": 30.0,
            "nominal_freq": 1e6,
            "max_dev_ppm": 100.0,
            "delay_std": 100e-6,
            "duration": 20000.0,
            "initial_step_fraction": 1.0 / 64,
        },
        _run_multihop,
    ),
    "scaling": Scenario(
        {
            "seed": 0,
            "seeds": 10,
            "diameters": (4, 9, 16, 25),
            "rounds": 200,
            "step_size": 0.05,
            "max_deviation": 1e-4,
            "delay_std": 1e-4,
        },
        _run_scaling,
    ),
    "theory-check": Scenario(
        {
            "seed": 5,
            "trials": 1500,
            "rounds": 1200,
            "noise_convention": "iid",
            "tolerance": 0.10,
        },
        _run_theory_check,
    ),
}
