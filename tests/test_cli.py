"""Command-line front-end: argument handling, overrides, exit codes, artifacts."""

import dataclasses
import hashlib
import math
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gradesync import scenarios, sim
from gradesync.cli import check_ranges, main, parse_config_file, run_scenario
from gradesync.errors import ContractViolation
from gradesync.scenarios import SCENARIOS, Scenario
from gradesync.sim import SimConfig

QUICK_FIG1 = {"rounds": "8", "switch_round": "3"}


# ---------------------------------------------------------------- config parsing


def test_parse_config_file_accepts_comments_and_blank_lines(tmp_path):
    path = tmp_path / "overrides.cfg"
    path.write_text(
        """
        # quick run
        rounds = 8

        switch_round=3
        """
    )
    assert parse_config_file(path) == {"rounds": "8", "switch_round": "3"}


def test_parse_config_file_reports_the_offending_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("rounds = 8\njust some words\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2: expected key=value"):
        parse_config_file(path)


def test_parse_config_file_missing_file(tmp_path):
    with pytest.raises(ValueError, match="cannot read config file"):
        parse_config_file(tmp_path / "nope.cfg")


# ---------------------------------------------------------------- run_scenario


def test_unknown_scenario_lists_the_valid_names(tmp_path):
    with pytest.raises(ValueError, match="fig1-pairwise"):
        run_scenario("fig9", out_dir=tmp_path)


def test_unknown_parameter_is_rejected_with_the_valid_set(tmp_path):
    with pytest.raises(ValueError, match="unknown parameter 'alpha'"):
        run_scenario("fig1-pairwise", {"alpha": "0.1"}, out_dir=tmp_path)


def test_unparseable_value_is_a_usage_error(tmp_path):
    with pytest.raises(ValueError, match="cannot parse"):
        run_scenario("fig1-pairwise", {"rounds": "eight"}, out_dir=tmp_path)
    with pytest.raises(ValueError, match="cannot parse"):
        run_scenario("fig1-pairwise", {"step_size": "big"}, out_dir=tmp_path)


def test_scenario_writes_artifacts_and_returns_the_summary(tmp_path):
    summary = run_scenario("fig1-pairwise", QUICK_FIG1, out_dir=tmp_path)
    out = tmp_path / "fig1-pairwise"
    for name in ("trace.csv", "skew.csv", "frequency.csv", "summary.csv"):
        assert (out / name).is_file()
    assert summary["converged_round"] <= 8
    assert summary["reconverged_rounds_after_switch"] <= 8
    assert summary["rounds"] == 8


def test_seed_parameter_overrides_and_cli_seed_wins(tmp_path):
    run_scenario("fig1-pairwise", {**QUICK_FIG1, "seed": "123"}, out_dir=tmp_path / "a")
    text = (tmp_path / "a" / "fig1-pairwise" / "trace.csv").read_text()
    assert "# seed=123" in text
    run_scenario(
        "fig1-pairwise", {**QUICK_FIG1, "seed": "123"}, out_dir=tmp_path / "b", seed=77
    )
    text = (tmp_path / "b" / "fig1-pairwise" / "trace.csv").read_text()
    assert "# seed=77" in text


def test_reruns_are_byte_identical(tmp_path):
    run_scenario("fig1-pairwise", QUICK_FIG1, out_dir=tmp_path / "a")
    run_scenario("fig1-pairwise", QUICK_FIG1, out_dir=tmp_path / "b")
    a_dir = tmp_path / "a" / "fig1-pairwise"
    b_dir = tmp_path / "b" / "fig1-pairwise"
    names = sorted(p.name for p in a_dir.iterdir())
    assert names == sorted(p.name for p in b_dir.iterdir())
    for name in names:
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


# SHA-256 of every CSV the two pairwise scenarios write at their defaults, as
# tests/default_outputs.sha256 records them, and the other three write at small
# sizes.  The outputs are deterministic, so any change in them, down to the
# last printed digit, shows up here.  The small fig3 run covers both protocols,
# adaptive steps and random-constant drift; the small scaling run covers white
# drift and staggered phases; the small theory-check rows mix text, integer and
# float columns.
GOLDEN_OVERRIDES = {
    "fig3-multihop": {"seeds": "1", "nodes": "4", "duration": "900"},
    "scaling": {"seeds": "2", "diameters": "2,3", "rounds": "30"},
    "theory-check": {"trials": "20", "rounds": "40"},
}


def recorded_defaults(scenario: str) -> dict[str, str]:
    """The digest of each file of ``scenario`` that tests/default_outputs.sha256 lists."""
    lines = (Path(__file__).parent / "default_outputs.sha256").read_text().splitlines()
    return {path.removeprefix(f"{scenario}/"): digest
            for digest, path in map(str.split, lines) if path.startswith(f"{scenario}/")}


GOLDEN_SHA256 = {
    "fig1-pairwise": recorded_defaults("fig1-pairwise"),
    "fig2-stepsize": recorded_defaults("fig2-stepsize"),
    "fig3-multihop": {
        "skew.csv":
            "64d0a28bad3a57baa26503d5f1b598ff1e552c35d49955204ea5231b86280dd6",
        "summary.csv":
            "605926a451d72b66ed7e111e0f11fd51e2d861983fd0f744b25e7101821028d4",
        "trace.csv":
            "b8540ef414d3c3af14153b882435fc168afe1f56e2c117e397bb066fe6641ff6",
    },
    "scaling": {
        "scaling.csv":
            "c20a47a10402c212e7d3e2a603d0b4e84f580678188e5d902cd24465e6ce3855",
        "summary.csv":
            "ad7dadb045a3e887564e98c16472ff79e2e4fd5e0df6e4f037206ecf6b134ac8",
    },
    "theory-check": {
        "summary.csv":
            "eed47de5251140f96c1b7a9c9e14d57104fc25ba52f9a7c041eed4bcc2546b30",
        "theory_check.csv":
            "db38ce6777f96dcb96315aaa04ad7230aad4ef2d07389219d08b4529b7cd5c06",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_default_outputs_match_their_recorded_hashes(tmp_path, name):
    run_scenario(name, GOLDEN_OVERRIDES.get(name), out_dir=tmp_path)
    out = tmp_path / name
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    assert digests == GOLDEN_SHA256[name]


# ---------------------------------------------------------------- main / exit codes


def args_for(tmp_path, *extra):
    return ["--scenario", "fig1-pairwise", "--out", str(tmp_path), *extra]


def test_main_success_prints_summary_and_artifact_location(tmp_path, capsys):
    code = main(args_for(tmp_path, "--set", "rounds=8", "--set", "switch_round=3"))
    out = capsys.readouterr().out
    assert code == 0
    assert "converged_round = " in out
    assert f"artifacts written under {tmp_path / 'fig1-pairwise'}" in out


def test_main_unknown_scenario_exits_2(tmp_path, capsys):
    code = main(["--scenario", "fig9", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_main_malformed_set_exits_2(tmp_path, capsys):
    code = main(args_for(tmp_path, "--set", "rounds"))
    assert code == 2
    assert "--set expects key=value" in capsys.readouterr().err


def test_main_bad_value_exits_2(tmp_path, capsys):
    code = main(args_for(tmp_path, "--set", "rounds=eight"))
    assert code == 2
    assert "cannot parse" in capsys.readouterr().err


def test_main_invalid_parameter_combination_exits_2(tmp_path, capsys):
    # A syntactically fine override that violates a simulation constraint.
    code = main(args_for(tmp_path, "--set", "step_size=9.9"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_main_bad_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense\n")
    code = main(args_for(tmp_path, "--config", str(bad)))
    assert code == 2
    assert "expected key=value" in capsys.readouterr().err


def test_main_out_at_a_regular_file_exits_2_naming_the_directory(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["--scenario", "fig1-pairwise", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {taken / 'fig1-pairwise'}: ")


def test_set_overrides_beat_config_file_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rounds=9\nswitch_round=3\n")
    code = main(args_for(tmp_path, "--config", str(cfg), "--set", "rounds=7"))
    out = capsys.readouterr().out
    assert code == 0
    assert "rounds = 7" in out


@pytest.mark.parametrize(
    "scenario, override, parameter",
    [
        ("scaling", "diameters=", "diameters"),
        ("scaling", "diameters=4,x", "diameters"),
        ("scaling", "diameters=4,4,9", "diameters"),  # a repeat would run twice
        ("fig1-pairwise", "switch_round=100", "switch_round"),  # past rounds=60
        ("fig2-stepsize", "constant_steps=abc", "constant_steps"),
        ("fig2-stepsize", "constant_steps=0.5,0.5,0.1", "constant_steps"),  # one would vanish
        ("fig2-stepsize", "constant_steps=0.1,0.1000000001", "constant_steps"),  # same label
    ],
)
def test_an_empty_list_or_a_rule_across_parameters_exits_2_naming_the_parameter(
    tmp_path, capsys, scenario, override, parameter
):
    code = main(["--scenario", scenario, "--set", override, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: parameter {parameter}")


INT_PARAMETERS = [(scenario, key) for scenario, spec in sorted(SCENARIOS.items())
                  for key, value in sorted(spec.defaults.items())
                  if isinstance(value[0] if isinstance(value, tuple) else value, int)]


# 10**19 seeds are more than a range's len() can count (sys.maxsize).
HUGE_INTS = [(*case, 10**15) for case in INT_PARAMETERS if case[1] != "seed"]
HUGE_INTS.append(("scaling", "seeds", 10**19))


@pytest.mark.parametrize("scenario, parameter, huge", HUGE_INTS)
def test_a_huge_int_parameter_exits_2_at_once_naming_itself(
    tmp_path, scenario, parameter, huge
):
    # Every int parameter but seed sets a run's memory or work, so a huge value
    # (the last of a tuple) must be refused before any run or oracle call.  The
    # 2 GB address-space limit turns a list grown without bound into a quick failure.
    default = SCENARIOS[scenario].defaults[parameter]
    value = ",".join(map(str, default[:-1] + (huge,))) if isinstance(default, tuple) else huge
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9,) * 2); "
            "from gradesync.cli import main; sys.exit(main(sys.argv[1:]))")
    argv = ["--scenario", scenario, "--set", f"{parameter}={value}", "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=2)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: parameter {parameter} "), proc.stderr


# Values well past an end of their interval; the generated cases below take the nearest.
@pytest.mark.parametrize("scenario, override, message", [
    ("fig2-stepsize", "constant_steps=0.5,3", "constant_steps must be in (0, 1), got 3.0"),
    ("scaling", "max_deviation=2", "max_deviation must be in [0, 1), got 2.0"),
    ("fig3-multihop", "duration=-5", "duration must be in (0, inf), got -5.0"),
    ("theory-check", "noise_convention=foo",
     "noise_convention must be 'iid' or 'difference', got 'foo'"),
    ("fig1-pairwise", "rate_tolerance=-1", "rate_tolerance must be in [0, inf), got -1.0"),
    ("fig2-stepsize", "error_tolerance=-1", "error_tolerance must be in [0, inf), got -1.0"),
    ("theory-check", "tolerance=-1", "tolerance must be in [0, inf), got -1.0"),
    ("fig3-multihop", "max_dev_ppm=-5", "max_dev_ppm must be in [0, 1e6), got -5.0"),
    ("fig1-pairwise", "drift_ppm=2e6", "drift_ppm must be in (-1e6, 1e6), got 2000000.0"),
    ("fig1-pairwise", "drift_ppm_after=-2e6",
     "drift_ppm_after must be in (-1e6, 1e6), got -2000000.0"),
    ("fig2-stepsize", "drift_ppm=2e6", "drift_ppm must be in (-1e6, 1e6), got 2000000.0"),
    ("scaling", "step_size=5", "step_size must be in (0, 1), got 5.0"),
    ("fig3-multihop", "initial_step_fraction=2",
     "initial_step_fraction must be in (0, 1], got 2.0"),
    ("fig2-stepsize", "rounds=0", "rounds must be in [3, inf), got 0"),
    ("fig2-stepsize", "rounds=1", "rounds must be in [3, inf), got 1"),
    ("theory-check", "rounds=0", "rounds must be in [2, inf), got 0"),
    ("theory-check", "trials=-3", "trials must be in [1, inf), got -3"),
])
def test_a_refusal_names_the_parameter_that_was_set_before_writing_anything(
    tmp_path, capsys, scenario, override, message
):
    code = main(["--scenario", scenario, "--set", override, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: parameter {message}\n"
    assert not list(tmp_path.rglob("*.csv"))


def outside(interval: str, kind: type) -> list:
    """The nearest value of type ``kind`` past each finite end of ``interval``: an open end
    itself, one past a closed int end, the next float past a closed float end."""
    ends = [float(end) for end in interval[1:-1].split(",")]
    values = []
    for end, closed, away in zip(ends, (interval[0] == "[", interval[-1] == "]"), (-1, 1)):
        if not math.isfinite(end):
            continue
        if not closed:
            values.append(kind(end))
        else:
            values.append(int(end) + away if kind is int
                          else math.nextafter(end, away * math.inf))
    return values


def range_refusals():
    """Per scenario and numeric parameter: each value past an end of its interval, nan and
    inf for a float, 1 followed by 400 zeros for an int; in a tuple, as its last element."""
    for scenario, spec in SCENARIOS.items():
        for name, interval in spec.ranges.items():
            default = spec.defaults[name]
            kind = type(default[-1] if isinstance(default, tuple) else default)
            bad = [(v, f"must be in {interval}") for v in outside(interval, kind)]
            finite = [math.nan, math.inf] if kind is float else [10**400]
            bad += [(v, "must be finite") for v in finite]
            for v, rule in bad:
                raw = str(v)
                if isinstance(default, tuple):
                    raw = ",".join(map(str, default[:-1] + (v,)))
                yield pytest.param(scenario, name, raw, f"error: parameter {name} {rule}, got {v}\n",
                                   id=f"{scenario}-{name}={'1e400' if v == 10**400 else v}")


@pytest.mark.parametrize("scenario, name, raw, err", range_refusals())
def test_a_value_past_its_interval_exits_2_before_the_output_directory_is_made(
    tmp_path, capsys, scenario, name, raw, err
):
    routes = [("--set", f"{name}={raw}")]
    if name == "seed":  # the one parameter with a flag of its own
        (tmp_path / "seed.cfg").write_text(f"seed={raw}\n")
        routes += [("--config", str(tmp_path / "seed.cfg")), ("--seed", raw)]
    for route in routes:
        assert main(["--scenario", scenario, *route, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == err
        assert not (tmp_path / scenario).exists()


@pytest.mark.parametrize("scenario, override", [
    ("fig1-pairwise", "switch_round=100"),
    ("fig1-pairwise", "rounds=100000000"),
    ("scaling", "diameters=4,4"),
    ("scaling", "seeds=100000000"),
    ("theory-check", "noise_convention=foo"),
    ("theory-check", "rounds=100000000"),
    ("theory-check", "trials=1000000"),
    ("fig2-stepsize", "constant_steps=0.1,0.1000000001"),
    ("fig3-multihop", "seeds=100000"),
    ("fig3-multihop", "nodes=100000000"),
])
def test_a_refusal_inside_the_runner_leaves_no_scenario_directory(
    tmp_path, capsys, scenario, override
):
    # Cross-parameter rules and budgets are checked once the runner starts, after
    # the directory is made; a refusal there removes it again.
    assert main(["--scenario", scenario, "--set", override, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: parameter ")
    assert not (tmp_path / scenario).exists()


def test_a_refusal_inside_the_runner_keeps_a_directory_it_did_not_make(tmp_path, capsys):
    kept = tmp_path / "scaling"
    kept.mkdir()
    assert main(["--scenario", "scaling", "--set", "diameters=4,4", "--out", str(tmp_path)]) == 2
    assert kept.is_dir()
    (kept / "scaling.csv").write_text("")  # a directory with files in it stays as it is
    assert main(["--scenario", "scaling", "--set", "diameters=4,4", "--out", str(tmp_path)]) == 2
    assert [p.name for p in kept.iterdir()] == ["scaling.csv"]


@pytest.mark.parametrize("scenario, step", [
    ("fig1-pairwise", "step_size=0.9"),
    ("fig2-stepsize", "constant_steps=0.9"),
])
def test_a_contract_violation_leaves_no_empty_scenario_directory(tmp_path, capsys, scenario, step):
    # 90% drift drives node 2's rate below zero at t=1, before any file is written.
    out = tmp_path / "fresh"
    argv = ["--scenario", scenario, "--set", "drift_ppm=900000", "--set", step, "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("contract violation: node 2 at t=1: ")
    assert not (out / scenario).exists()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_number_a_scenario_takes_has_an_interval_holding_its_default(scenario):
    spec = SCENARIOS[scenario]
    numbers = {name for name, value in spec.defaults.items()
               if not isinstance(value[0] if isinstance(value, tuple) else value, str)}
    assert set(spec.ranges) == numbers
    check_ranges(spec.defaults, spec.ranges)


def test_the_readme_table_lists_every_interval():
    # The table under "| parameter | <scenario> | ..." in README's Command line section.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header, _, *rows = readme.split("\n| parameter | ", 1)[1].split("\n\n", 1)[0].splitlines()
    scenarios_named = [cell.strip() for cell in header.strip(" |").split("|")]
    stated = {}
    for row in rows:
        parameter, *cells = [cell.strip(" `") for cell in row.strip(" |").split("|")]
        stated.update({(s, parameter): c for s, c in zip(scenarios_named, cells) if c})
    assert stated == {(s, name): interval for s, spec in SCENARIOS.items()
                      for name, interval in spec.ranges.items()}


FIG3_DURATION_TOO_LARGE = ("duration is too large: even nodes=2 for duration=900 and "
                           "beacon_period=30 asks for more than {} trace cells (samples x nodes)")


@pytest.mark.parametrize("bound, overrides, message", [
    # 900 s sampled every 10 s are 91 samples: 2 nodes take 182 cells.
    (182, ("nodes=3", "seeds=1", "duration=900"),
     "nodes must be at most 2 for duration=900 and beacon_period=30, got 3"),
    (181, ("nodes=3", "seeds=1", "duration=900"), FIG3_DURATION_TOO_LARGE.format(181)),
    (100, ("nodes=2", "seeds=1", "duration=900"), FIG3_DURATION_TOO_LARGE.format(100)),
    (None, ("nodes=20000", "seeds=1"),  # 2,001 samples
     "nodes must be at most 9995 for duration=20000 and beacon_period=30, got 20000"),
])
def test_main_oversized_fig3_line_exits_2_naming_nodes_or_else_duration(
    tmp_path, capsys, monkeypatch, bound, overrides, message
):
    # fig3 samples every B/3 like every trace: the message names
    # nodes and the most nodes that fit at its duration, or duration when not
    # even 2 nodes, the fewest fig3 accepts, fit.
    if bound is not None:
        monkeypatch.setitem(sim.BUDGETS, sim.CELLS, bound)
    argv = ["--scenario", "fig3-multihop", "--out", str(tmp_path)]
    code = main(argv + [arg for o in overrides for arg in ("--set", o)])
    assert code == 2
    assert capsys.readouterr().err == f"error: parameter {message}\n"


@pytest.mark.parametrize("scenario, overrides, message", [
    ("fig3-multihop", ("nodes=10000000",),
     "nodes must be at most 9995 for duration=20000 and beacon_period=30, got 10000000"),
    # 601 samples a line: (d + 1) * 601 cells fit for d up to 33,276.
    ("scaling", ("diameters=4,10000000", "seeds=1"),
     "diameters must be at most 33276 for rounds=200, got 10000000"),
    ("fig1-pairwise", ("rounds=4000000",), "rounds must be at most 3333333, got 4000000"),
    ("fig2-stepsize", ("rounds=4000000",), "rounds must be at most 3333333, got 4000000"),
    # Not even the fewest nodes (2) or the least diameter (1) fit.
    ("fig3-multihop", ("duration=1e9",),
     "duration is too large: even nodes=2 for duration=1e+09 and beacon_period=30 asks for "
     "more than 20000000 trace cells (samples x nodes)"),
    ("scaling", ("rounds=100000000",),
     "rounds is too large: even diameters=1 for rounds=100000000 asks for more than 20000000 "
     "trace cells (samples x nodes)"),
])
def test_an_oversized_trace_exits_2_before_any_line_is_built(
    tmp_path, capsys, monkeypatch, scenario, overrides, message
):
    built = []
    line = sim.Topology.line
    monkeypatch.setattr(sim.Topology, "line", staticmethod(lambda n: built.append(n) or line(n)))
    argv = ["--scenario", scenario, "--out", str(tmp_path)]
    assert main(argv + [arg for o in overrides for arg in ("--set", o)]) == 2
    assert capsys.readouterr().err == f"error: parameter {message}\n"
    assert built == []  # not even scaling's diameter-4 lines


# The SimConfig fields that every scenario leaves at one value, and why each stays.
SINGLE_VALUED_FIELDS = {
    "drop_probability": "ROADMAP item 15 wires it into fig1-pairwise and fig2-stepsize",
}


def test_every_simconfig_field_takes_two_values_across_the_default_scenarios(
    tmp_path, monkeypatch
):
    # A field that no scenario varies is an option that only tests reach.
    # theory-check builds no SimConfig; scaling's configs are caught where its helper runs them.
    defaults = {name: dict(scenario.defaults) for name, scenario in SCENARIOS.items()}
    fig3 = defaults["fig3-multihop"]
    configs = [scenarios.pairwise_config(defaults["fig1-pairwise"]),
               *scenarios.stepsize_configs(defaults["fig2-stepsize"]).values(),
               *[scenarios.multihop_config({**fig3, "seed": fig3["seed"] + i})
                 for i in range(fig3["seeds"])]]
    flat = SimpleNamespace(times=np.zeros(1), global_skew=lambda protocol: np.ones(1))
    monkeypatch.setattr(scenarios, "run", lambda config: configs.append(config) or flat)
    SCENARIOS["scaling"].runner(defaults["scaling"], tmp_path)
    assert len(configs) == 1 + 4 + 5 + 40
    values = {field.name: [] for field in dataclasses.fields(SimConfig)}
    for config in configs:
        for name, seen in values.items():
            if getattr(config, name) not in seen:
                seen.append(getattr(config, name))
    assert {name for name, seen in values.items() if len(seen) < 2} == set(SINGLE_VALUED_FIELDS)


@pytest.mark.parametrize("beacon_period", ["1e-300", "1e300"])
def test_main_extreme_beacon_period_exits_2_naming_beacon_period_and_nominal_freq(
    tmp_path, capsys, beacon_period
):
    # grades' step size limit would overflow to inf at 1e-300 s and underflow to 0 at
    # 1e300 s; the interval refuses both before the limit is computed.
    overrides = (f"beacon_period={beacon_period}", "seeds=1", "nodes=2")
    argv = ["--scenario", "fig3-multihop", "--out", str(tmp_path)]
    code = main(argv + [arg for o in overrides for arg in ("--set", o)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: parameter beacon_period must be in [1e-60, 1e60], got {float(beacon_period)}\n"
    )


@pytest.mark.parametrize("beacon_period", ["1e-60", "1e60"])
@pytest.mark.parametrize("nominal_freq", ["1e-60", "1e60"])
def test_fig3_at_each_corner_of_its_beacon_period_and_nominal_freq_runs_or_names_a_parameter(
    tmp_path, capsys, beacon_period, nominal_freq
):
    overrides = (f"beacon_period={beacon_period}", f"nominal_freq={nominal_freq}",
                 "seeds=1", "nodes=2")
    argv = ["--scenario", "fig3-multihop", "--out", str(tmp_path)]
    code = main(argv + [arg for o in overrides for arg in ("--set", o)])
    err = capsys.readouterr().err
    assert (code, err) == (0, "") or (code == 2 and err.startswith("error: parameter ")), err


@pytest.mark.parametrize("scenario", ["fig1-pairwise", "fig2-stepsize"])
def test_main_oversized_rounds_exits_2_naming_rounds_and_the_most_accepted(
    tmp_path, capsys, monkeypatch, scenario
):
    # Two nodes sampled at t = 0 and 3 times a round: 2 * (3 * rounds + 1) trace cells.
    argv = ["--scenario", scenario, "--out", str(tmp_path)]
    if scenario == "fig1-pairwise":
        argv += ["--set", "switch_round=1"]
    assert main(argv + ["--set", "rounds=3333334"]) == 2
    assert capsys.readouterr().err == (
        "error: parameter rounds must be at most 3333333, got 3333334\n"
    )
    monkeypatch.setitem(sim.BUDGETS, sim.CELLS, 20)  # 3 rounds fill the 2 x 10 cells
    assert main(argv + ["--set", "rounds=4"]) == 2
    assert capsys.readouterr().err == "error: parameter rounds must be at most 3, got 4\n"
    assert main(argv + ["--set", "rounds=3"]) == 0


def test_fig2_at_three_rounds_reports_every_spread(tmp_path):
    summary = run_scenario("fig2-stepsize", {"rounds": "3"}, out_dir=tmp_path)
    spreads = [v for k, v in summary.items() if k.endswith(("steady_error_std", "mean_abs"))]
    assert len(spreads) == 8 and all(math.isfinite(v) for v in spreads)


def test_noise_free_multihop_reports_no_ratio_instead_of_dividing_by_zero(tmp_path, capsys):
    overrides = ("nodes=2", "seeds=1", "duration=3000", "max_dev_ppm=0", "delay_std=0")
    argv = ["--scenario", "fig3-multihop", "--out", str(tmp_path)]
    code = main(argv + [arg for o in overrides for arg in ("--set", o)])
    assert code == 0
    assert "pisync.mean_post_mean = 0.0" in capsys.readouterr().out
    rows = (tmp_path / "fig3-multihop" / "summary.csv").read_text().splitlines()
    assert "post_mean_ratio_grades_over_pisync," in rows
    assert "post_max_ratio_grades_over_pisync," in rows


def test_contract_violation_exits_3(tmp_path, capsys, monkeypatch):
    def runner(params, out):
        (out / "partial.csv").write_text("")  # what a run wrote before it failed stays
        raise ContractViolation("node 2 at t=1: boom")

    monkeypatch.setitem(SCENARIOS, "boom", Scenario(runner, {"seed": (0, "[0, inf)")}))
    code = main(["--scenario", "boom", "--out", str(tmp_path)])
    assert code == 3
    assert "contract violation:" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "boom").iterdir()] == ["partial.csv"]


def test_a_runner_that_writes_no_file_still_gets_its_summary_csv(tmp_path, monkeypatch):
    def runner(params, out):
        return {"a": 1.5, "b": None}

    monkeypatch.setitem(SCENARIOS, "quiet", Scenario(runner, {"seed": (0, "[0, inf)")}))
    assert main(["--scenario", "quiet", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "quiet" / "summary.csv").read_text() == "metric,value\na,1.5\nb,\n"


def test_main_oversized_oracle_exits_2_naming_trials(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(sim.BUDGETS, sim.PATHS, 10)
    code = main(["--scenario", "theory-check", "--set", "trials=6", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: parameter trials must be at most 5, got 6\n"


def test_missing_scenario_flag_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_format_is_an_argparse_error(tmp_path):
    for value in ("json", "csv"):  # CSV is the only artifact format, with no flag
        with pytest.raises(SystemExit) as exc:
            main(args_for(tmp_path, "--format", value))
        assert exc.value.code == 2


def test_module_entry_point_runs_a_scenario(tmp_path):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "gradesync",
            "--scenario",
            "fig1-pairwise",
            "--set",
            "rounds=8",
            "--set",
            "switch_round=3",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "artifacts written under" in result.stdout
    assert (tmp_path / "fig1-pairwise" / "summary.csv").is_file()


def test_a_scenario_run_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma, which costs about 1.5 MB of peak memory.
    code = (
        "import sys\n"
        "from gradesync.cli import run_scenario\n"
        "overrides = {'nodes': '4', 'seeds': '1', 'duration': '1200'}\n"
        f"summary = run_scenario('fig3-multihop', overrides, out_dir={str(tmp_path)!r})\n"
        "assert summary, summary\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "fig3-multihop" / "summary.csv").is_file()


def traces_alive_at_each_run(monkeypatch) -> list[int]:
    """A list that gets, as each ``scenarios.run`` starts, how many earlier traces are alive."""
    traces, alive = [], []

    def tracked(config):
        alive.append(sum(ref() is not None for ref in traces))
        trace = sim.run(config)
        traces.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(scenarios, "run", tracked)
    return alive


def test_each_multihop_seed_frees_its_trace_before_the_next_seed_runs(tmp_path, monkeypatch):
    # A trace holds its (samples x nodes) arrays and its update log; keeping
    # the last seed's alive during the next run only raises peak memory.
    alive = traces_alive_at_each_run(monkeypatch)
    run_scenario("fig3-multihop", {"nodes": "4", "seeds": "3", "duration": "300"},
                 out_dir=tmp_path)
    assert alive == [0, 0, 0]


def test_each_scaling_run_frees_its_trace_before_the_next_run(tmp_path, monkeypatch):
    alive = traces_alive_at_each_run(monkeypatch)
    run_scenario("scaling", {"diameters": "2,3", "seeds": "2", "rounds": "20"}, out_dir=tmp_path)
    assert alive == [0, 0, 0, 0]


def test_fig1_streams_its_frequency_rows_to_the_csv(tmp_path, monkeypatch):
    # A list of 900k row tuples of numpy scalars doubles the peak memory of a
    # 300,000-round run; rows built as they are written hold one at a time.
    written = {}

    def recording(path, columns, rows, comments=()):
        written[Path(path).name] = rows
        sim.write_csv(path, columns, rows, comments)

    monkeypatch.setattr(scenarios, "write_csv", recording)
    run_scenario("fig1-pairwise", QUICK_FIG1, out_dir=tmp_path)
    rows = written["frequency.csv"]
    assert iter(rows) is rows  # an iterator, consumed as it is written
    lines = (tmp_path / "fig1-pairwise" / "frequency.csv").read_text().splitlines()
    assert len(lines) == 2 + 1 + 3 * 8 + 1  # comments, header, a sample every third round


@pytest.mark.parametrize("rounds, switch_round, rate_tolerance, step_size, expected", [
    (30, 30, 25e-6, 0.5, (2, None)),  # the second window holds the last sample only
    (60, 60, 1e-6, 0.5, (60, None)),  # the band is entered in the last round before the switch
    (30, 3, 25e-6, 0.9, (None, 15)),
    (30, 20, 25e-6, 0.9, (18, 5)),
    (7, 3, 0.0, 0.5, (None, None)),  # a band of width 0 is never entered
])
def test_fig1_summary_at_its_window_edges(
    tmp_path, rounds, switch_round, rate_tolerance, step_size, expected
):
    overrides = {"rounds": str(rounds), "switch_round": str(switch_round),
                 "rate_tolerance": str(rate_tolerance), "step_size": str(step_size)}
    summary = run_scenario("fig1-pairwise", overrides, out_dir=tmp_path)
    assert (summary["converged_round"], summary["reconverged_rounds_after_switch"]) == expected
