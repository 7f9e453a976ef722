"""Named experiment presets and the report helpers behind the CLI.

Each scenario is a dict of overridable parameters plus a runner that builds
configs, runs the simulator (or the analysis oracle), writes CSV artifacts
into an output directory, and returns a flat summary mapping.  Scenario names
and CSV schemas are part of the tool's external interface; everything here is
deterministic given (scenario, parameters, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .analysis import SystemParams, estimate_variance_mc, variance
from .clocks import ConstantDrift, PiecewiseDrift
from .protocols import GRADES, PISYNC, step_size_limit
from .sim import (
    RANDOM_CONSTANT_DRIFT,
    WHITE_DRIFT,
    SimConfig,
    SkewTrace,
    Topology,
    _fmt,
    convergence_time,
    fit_power_exponent,
    run,
    scaling_experiment,
    write_csv,
    write_skew_csv,
    write_trace_csv,
)

_PHYSICAL_ROUND_SECONDS = 30.0  # reference round length used to normalize delay noise

# The variance formula bound to each protocol; theory-check looks these names
# up when it runs, so each protocol's evaluations can be wrapped on their own.
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


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty array (NaN if any value is), without its numpy.ma import."""
    ordered = np.sort(values)  # NaNs sort last
    mid = len(ordered) // 2
    if math.isnan(ordered[-1]):
        return math.nan
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def report_summary(trace: SkewTrace, protocol: str) -> dict:
    """Convergence time plus post-convergence skew statistics for one protocol.

    "Converged" means the skew has settled to within 3x the median of its own
    last quarter.  A run that never settles (or only settles in its final
    quarter) reports converged=False and NaN statistics.
    """
    times = trace.times
    skew = trace.global_skew(protocol)
    tail = skew[times >= times[-1] * 0.75]
    threshold = 3.0 * _median(tail)
    conv = convergence_time(times, skew, threshold)
    converged = conv is not None and conv <= times[-1] * 0.75
    if not converged:
        return {
            "converged": False,
            "convergence_time": None,
            "threshold": threshold,
            "post_max": float("nan"),
            "post_mean": float("nan"),
            "post_std": float("nan"),
        }
    post = skew[times >= conv]
    return {
        "converged": True,
        "convergence_time": conv,
        "threshold": threshold,
        "post_max": float(post.max()),
        "post_mean": float(post.mean()),
        "post_std": float(post.std(ddof=1) if post.size > 1 else 0.0),
    }


def effective_rates(trace: SkewTrace, node: int, protocol: str) -> np.ndarray:
    """Logical tick rate (rate multiplier x instantaneous hardware rate) per sample."""
    col = trace.node_column(node)
    return trace.rate_multipliers[protocol][:, col] * trace.hw_rates[:, col]


def sustained_entry_time(times, series, target, tol, t_from, t_until) -> float | None:
    """First instant in [t_from, t_until] from which |series-target| stays <= tol.

    None if the series is still outside the band at t_until.
    """
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    mask = (times >= t_from) & (times <= t_until)
    if not mask.any():
        raise ValueError("empty window")
    return convergence_time(times[mask], np.abs(series[mask] - target), tol)


def rounds_after(t: float | None, t0: float) -> float | None:
    """Whole rounds (of B = 1) from ``t0`` to ``t``."""
    if t is None:
        return None
    return math.ceil((t - t0) - 1e-9)


def _two_node_config(params: dict, drift, step_policy: str, step_size) -> SimConfig:
    """Reference node 1 at the nominal rate and node 2 on ``drift``, in normalized units."""
    return SimConfig(
        topology=Topology.line(2),
        beacon_period=1.0,
        duration=float(_at_least(params, "rounds", 1)),
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


def pairwise_convergence(trace: SkewTrace, params: dict, tol: float) -> dict:
    """Rounds to enter (and re-enter, after the drift switch) the rate band."""
    switch_t = params["switch_round"] * 1.0
    eff = effective_rates(trace, node=2, protocol=GRADES)
    ref_rate = 1.0  # the reference runs at exactly the nominal rate here
    t_first = sustained_entry_time(
        trace.times, eff, ref_rate, tol, 0.0, switch_t - 1e-9
    )
    t_second = sustained_entry_time(
        trace.times, eff, ref_rate, tol, switch_t, trace.times[-1]
    )
    return {
        "converged_round": rounds_after(t_first, 0.0),
        "reconverged_rounds_after_switch": rounds_after(t_second, switch_t),
        "rate_tolerance": tol,
    }


def _run_pairwise(params: dict, out: Path) -> dict:
    tol = _non_negative(params, "rate_tolerance")
    trace = run(pairwise_config(params))
    write_trace_csv(trace, out / "trace.csv")
    write_skew_csv(trace, out / "skew.csv")
    eff = effective_rates(trace, node=2, protocol=GRADES)
    col = trace.node_column(2)
    rows = [
        (
            t,
            t / 1.0,
            trace.rate_multipliers[GRADES][i, col],
            trace.hw_rates[i, col],
            eff[i],
            1.0,
        )
        for i, t in enumerate(trace.times)
    ]
    write_csv(
        out / "frequency.csv",
        ("t_seconds", "round", "rate_multiplier", "hw_rate", "effective_rate", "reference_rate"),
        rows,
        comments=(f"unit_mode=normalized", f"seed={params['seed']}"),
    )
    summary = pairwise_convergence(trace, params, tol=tol)
    summary["rounds"] = params["rounds"]
    summary["switch_round"] = params["switch_round"]
    write_summary_csv(out / "summary.csv", summary)
    return summary


# ---------------------------------------------------------------- step-size study


def stepsize_configs(params: dict) -> dict[str, SimConfig]:
    """One fixed-step run per listed step size plus one adaptive run."""
    drift = ConstantDrift(_ppm_below_nominal(params, "drift_ppm"))
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


def stepsize_series_stats(trace: SkewTrace, rounds: int, tol: float) -> dict:
    """Convergence round and steady spread of node 2's per-round sync errors."""
    events = trace.node_events(2, GRADES)
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
        stats = stepsize_series_stats(trace, rounds, tol)
        for k, v in stats.items():
            summary[f"{label}.{k}"] = v
    write_summary_csv(out / "summary.csv", summary)
    return summary


# ---------------------------------------------------------------- multi-hop line


def multihop_config(params: dict, seed: int) -> SimConfig:
    # Adaptive runs start well below the stability limit: with random boot
    # phases the very first sync error can reach a whole beacon period of
    # ticks, and an initial step near limit/2 would push the rate multiplier
    # through zero.  limit/64 survives the worst-case offset chain on a
    # 20-hop line; the adaptation doubles its way back up within a few rounds.
    frac = params["initial_step_fraction"]
    b, f0 = params["beacon_period"], params["nominal_freq"]
    for name in ("beacon_period", "nominal_freq"):
        if not params[name] > 0:
            raise ValueError(f"parameter {name} must be positive, got {params[name]}")
    if not 0 < frac <= 1:
        raise ValueError(f"parameter initial_step_fraction must be in (0, 1], got {frac}")
    if not 0 <= params["max_dev_ppm"] < 1e6:  # the deviation must stay below nominal_freq
        raise ValueError(
            f"parameter max_dev_ppm must be in [0, 1e6), got {params['max_dev_ppm']}"
        )
    steps = {p: frac * step_size_limit(p, b, f0) for p in (GRADES, PISYNC)}
    return SimConfig(
        topology=Topology.line(_at_least(params, "nodes", 2)),
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
        seed=seed,
        record_events=False,
    )


def _run_multihop(params: dict, out: Path) -> dict:
    seeds = [int(params["seed"]) + i for i in range(_at_least(params, "seeds", 1))]
    per_seed: dict[str, list[dict]] = {GRADES: [], PISYNC: []}
    summary: dict = {}
    for i, seed in enumerate(seeds):
        trace = run(multihop_config(params, seed))
        if i == 0:
            write_trace_csv(trace, out / "trace.csv")
            write_skew_csv(trace, out / "skew.csv")
        for proto in (GRADES, PISYNC):
            rep = report_summary(trace, proto)
            per_seed[proto].append(rep)
            summary[f"seed{seed}.{proto}.converged"] = rep["converged"]
            summary[f"seed{seed}.{proto}.convergence_time"] = rep["convergence_time"]
            summary[f"seed{seed}.{proto}.post_mean"] = rep["post_mean"]
            summary[f"seed{seed}.{proto}.post_max"] = rep["post_max"]
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
    write_summary_csv(out / "summary.csv", summary)
    return summary


# ---------------------------------------------------------------- diameter scaling


def _run_scaling(params: dict, out: Path) -> dict:
    diameters = params["diameters"]
    if len(set(diameters)) < 2 or min(diameters) < 1:
        raise ValueError(f"parameter diameters needs 2 distinct values >= 1, got {diameters}")
    seeds = [int(params["seed"]) + i for i in range(_at_least(params, "seeds", 1))]
    result = scaling_experiment(
        diameters,
        seeds,
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
    write_summary_csv(out / "summary.csv", summary)
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
    rounds = _at_least(params, "rounds", 2)
    rows = []
    max_rel_err = 0.0
    worst = None
    formula = {GRADES: grades_variance, PISYNC: pisync_variance}
    for i, p in enumerate(variance_grid()):
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
            rel = abs(mc.var_error - ref) / ref
            if rel > max_rel_err:
                max_rel_err = rel
                worst = (proto, p)
            rows.append(
                (
                    proto,
                    p.beacon_period,
                    p.nominal_freq,
                    p.max_deviation,
                    p.delay_std,
                    p.step_size,
                    ref,
                    mc.var_error,
                    rel,
                    mc.mean_error,
                    mc.se_mean_error,
                    mc.mean_rate_multiplier,
                    mc.n_samples,
                    convention,
                )
            )
    write_csv(
        out / "theory_check.csv",
        (
            "protocol",
            "beacon_period",
            "nominal_freq",
            "max_deviation",
            "delay_std",
            "step_size",
            "formula_var",
            "mc_var",
            "rel_err",
            "mc_mean_error",
            "mc_se_mean",
            "mc_mean_rate",
            "n_samples",
            "noise_convention",
        ),
        rows,
        comments=(f"noise_convention={convention}", f"seed={params['seed']}"),
    )
    summary = {
        "points": len(rows),
        "noise_convention": convention,
        "max_rel_err": max_rel_err,
        "tolerance": tolerance,
        "within_tolerance": max_rel_err <= tolerance,
        "worst_point": f"{worst[0]} B={worst[1].beacon_period} step={_fmt(worst[1].step_size)}",
    }
    write_summary_csv(out / "summary.csv", summary)
    return summary


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
