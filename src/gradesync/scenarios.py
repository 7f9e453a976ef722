"""Named experiment presets and the report helpers behind the CLI.

Each scenario is a table of overridable parameters, each with its default and
the interval it accepts (which ``cli.run_scenario`` checks before a run), and a
runner that builds configs, runs the simulator (or the analysis oracle), writes
CSV artifacts into an output directory, and returns a flat summary mapping,
which ``cli.run_scenario`` writes next to them as summary.csv.  Scenario names
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
    WHITE_DRIFT,
    SimConfig,
    SkewTrace,
    Topology,
    _fmt,
    _median,
    convergence_time,
    fit_power_exponent,
    run,
    write_csv,
    write_skew_csv,
    write_trace_csv,
)

_PHYSICAL_ROUND_SECONDS = 30.0  # reference round length used to normalize delay noise

# The variance formula bound to each protocol, kept because bench/tracer.py wraps
# them; theory-check looks them up when it runs, so each is counted on its own.
grades_variance = partial(variance, protocol=GRADES)
pisync_variance = partial(variance, protocol=PISYNC)

_FIXED_STEP = f"(0, {step_size_limit(GRADES, 1.0, 1.0):g})"  # a grades step at B = f0 = 1
_PPM_BELOW_NOMINAL = "(-1e6, 1e6)"  # a drift whose deviation stays below f0 = 1
_B_OR_F0 = "[1e-60, 1e60]"  # keeps (B * f0)**2, in grades' step limit, finite and above 0


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
    rounds = sim.check_budget(sim.CELLS, "rounds", params["rounds"],
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
    if params["switch_round"] > params["rounds"]:
        raise ValueError(f"parameter switch_round must be in [1, rounds={params['rounds']}], "
                         f"got {params['switch_round']}")
    drift = PiecewiseDrift(((0.0, params["drift_ppm"] * 1e-6),
                            (params["switch_round"] * 1.0, params["drift_ppm_after"] * 1e-6)))
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
    tol = params["rate_tolerance"]
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
    drift = ConstantDrift(params["drift_ppm"] * 1e-6)
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
    tol, rounds = params["error_tolerance"], params["rounds"]
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
    # 20-hop line.  The adaptation does not climb back from there: under noise
    # it divides by 3 about as often as it doubles, so the step keeps falling
    # (default seed 3: grades starts at 1.7e-17 and ends between 1.2e-160 and
    # 3.5e-65 across the nodes, median 2.3e-140, in meta["final_state"]).
    # ROADMAP item 1 would bound the adaptation, item 20 the first error.
    frac = params["initial_step_fraction"]
    b, f0 = params["beacon_period"], params["nominal_freq"]
    steps = {p: frac * step_size_limit(p, b, f0) for p in (GRADES, PISYNC)}
    samples = sim.sample_grid(params["duration"], b)[0]
    nodes = sim.check_budget(sim.CELLS, "nodes", params["nodes"],
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
    count = sim.check_budget(sim.NODE_ROUNDS, "seeds", params["seeds"],
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


def scaling_experiment(params: dict) -> list[tuple[int, int, float]]:
    """Steady global skew of grades on reference-rooted lines of growing diameter.

    For each of the ``diameters`` and each seed in ``range(seed, seed + seeds)``
    a line of diameter+1 nodes with white drift and unit beacon period and
    nominal frequency is run for ``rounds`` rounds; its row is (diameter, seed,
    the mean global skew over the second half of the run).

    Beacons are staggered by hop distance so each round's sync wave sweeps
    the chain end to end within one beacon period.  That is the schedule
    under which neighbouring nodes inherit the *same* upstream noise
    realization and per-hop errors accumulate as a spatial random walk — the
    regime the square-root-of-diameter growth law describes.  Free-running
    ("random") phases add a full refresh of relay state per hop of propagation
    lag, which decorrelates the nodes and steepens the measured growth.
    """
    diameters, rounds, seed = params["diameters"], params["rounds"], int(params["seed"])
    if len(set(diameters)) < max(2, len(diameters)):  # a repeat would misstate its spread
        raise ValueError(f"parameter diameters needs 2 or more values, none repeated, "
                         f"got {diameters}")
    samples = sim.sample_grid(rounds, 1.0)[0]
    sim.check_budget(sim.CELLS, "diameters", max(diameters), lambda d: (d + 1) * samples,
                     f" for rounds={rounds}", least=1, other="rounds")
    seed_rounds = rounds * sum([d + 1 for d in diameters])  # node-rounds of one seed
    count = sim.check_budget(sim.NODE_ROUNDS, "seeds", params["seeds"],
                             lambda s: s * seed_rounds,
                             f" for rounds={rounds} and diameters={diameters}", least=1,
                             other="rounds")
    rows = []
    for d in diameters:
        for s in range(seed, seed + count):
            trace = run(SimConfig(
                topology=Topology.line(d + 1), beacon_period=1.0, duration=float(rounds),
                max_deviation=params["max_deviation"], delay_std=params["delay_std"],
                drift=WHITE_DRIFT, protocols=(GRADES,), step_policy="fixed",
                step_size=params["step_size"], phase_mode="staggered", seed=s))
            steady = trace.times >= trace.times[-1] * 0.5
            rows.append((d, s, float(trace.global_skew(GRADES)[steady].mean())))
            del trace  # so the next run does not hold this one's arrays and log
    return rows


def _run_scaling(params: dict, out: Path) -> dict:
    rows = scaling_experiment(params)
    write_csv(out / "scaling.csv", ("diameter", "seed", "steady_mean_skew"), rows,
              comments=("unit_mode=normalized", f"seed={params['seed']}"))
    aggregate = {}  # diameter -> (mean, std over seeds)
    for d in params["diameters"]:
        skews = np.array([m for dd, _, m in rows if dd == d])
        aggregate[d] = (float(skews.mean()), float(skews.std(ddof=1) if len(skews) > 1 else 0.0))
    summary = dict(zip(("exponent", "intercept"), fit_power_exponent(aggregate)))
    for d, (mean, std) in aggregate.items():
        summary |= {f"diameter{d}.mean_skew": mean, f"diameter{d}.std_skew": std}
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
    tolerance = params["tolerance"]
    convention = str(params["noise_convention"])
    trials = params["trials"]
    grid = variance_grid()
    rounds = sim.check_budget(sim.PATH_ROUNDS, "rounds", params["rounds"],
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
    runner: Callable[[dict, Path], dict]
    params: dict[str, tuple]  # name -> (default, interval as a refusal prints it, or None)

    def __post_init__(self):  # stored once, not rebuilt per read: a caller may edit them
        object.__setattr__(self, "defaults", {k: d for k, (d, _) in self.params.items()})
        object.__setattr__(self, "ranges",
                           {k: r for k, (_, r) in self.params.items() if r is not None})


SCENARIOS: dict[str, Scenario] = {
    "fig1-pairwise": Scenario(_run_pairwise, {
        "seed": (7, "[0, inf)"),
        "rounds": (60, "[1, inf)"),
        "switch_round": (20, "[1, inf)"),  # <= rounds
        "drift_ppm": (100.0, _PPM_BELOW_NOMINAL),
        "drift_ppm_after": (50.0, _PPM_BELOW_NOMINAL),
        "step_size": (0.5, _FIXED_STEP),
        "delay_std": (100e-6 / _PHYSICAL_ROUND_SECONDS, "[0, inf)"),
        "rate_tolerance": (25e-6, "[0, inf)"),
    }),
    "fig2-stepsize": Scenario(_run_stepsize, {
        "seed": (11, "[0, inf)"),
        "rounds": (300, "[3, inf)"),  # the fewest with 2 errors past rounds / 2
        "drift_ppm": (100.0, _PPM_BELOW_NOMINAL),
        "delay_std": (100e-6 / _PHYSICAL_ROUND_SECONDS, "[0, inf)"),
        "constant_steps": ((0.5, 0.1, 0.02), _FIXED_STEP),
        "error_tolerance": (2e-5, "[0, inf)"),
    }),
    "fig3-multihop": Scenario(_run_multihop, {
        "seed": (3, "[0, inf)"),
        "seeds": (5, "[1, inf)"),
        "nodes": (20, "[2, inf)"),
        "beacon_period": (30.0, _B_OR_F0),
        "nominal_freq": (1e6, _B_OR_F0),
        "max_dev_ppm": (100.0, "[0, 1e6)"),
        "delay_std": (100e-6, "[0, inf)"),
        "duration": (20000.0, "(0, inf)"),
        "initial_step_fraction": (1.0 / 64, "(0, 1]"),
    }),
    "scaling": Scenario(_run_scaling, {
        "seed": (0, "[0, inf)"),
        "seeds": (10, "[1, inf)"),
        "diameters": ((4, 9, 16, 25), "[1, inf)"),
        "rounds": (200, "[1, inf)"),
        "step_size": (0.05, _FIXED_STEP),
        "max_deviation": (1e-4, "[0, 1)"),
        "delay_std": (1e-4, "[0, inf)"),
    }),
    "theory-check": Scenario(_run_theory_check, {
        "seed": (5, "[0, inf)"),
        "trials": (1500, "[1, inf)"),
        "rounds": (1200, "[2, inf)"),
        "noise_convention": ("iid", None),
        "tolerance": (0.10, "[0, inf)"),
    }),
}
