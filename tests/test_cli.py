"""Command-line front-end: argument handling, overrides, exit codes, artifacts."""

import hashlib
import math
import subprocess
import sys
from pathlib import Path

import pytest

from gradesync import scenarios, sim
from gradesync.cli import main, parse_config_file, run_scenario
from gradesync.errors import ContractViolation
from gradesync.scenarios import SCENARIOS, Scenario

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


# SHA-256 of every CSV the two pairwise scenarios write at their defaults, and
# the other three write at small sizes.  The outputs are deterministic, so
# any change in them, down to the last printed digit, shows up here.  The
# small fig3 run covers both protocols, adaptive steps and random-constant
# drift; the small scaling run covers white drift and staggered phases; the
# small theory-check rows mix text, integer and float columns.
GOLDEN_OVERRIDES = {
    "fig3-multihop": {"seeds": "1", "nodes": "4", "duration": "900"},
    "scaling": {"seeds": "2", "diameters": "2,3", "rounds": "30"},
    "theory-check": {"trials": "20", "rounds": "40"},
}
GOLDEN_SHA256 = {
    "fig1-pairwise": {
        "frequency.csv":
            "70069bc62228fb9c4bb3e68d39a142fb9d91c650b3d1f54d560be3c9c13c205d",
        "skew.csv":
            "b0af95cc41460aeb9007e8218f9688d441a26fb6127fdd1eb00f882e85901afe",
        "summary.csv":
            "cafe6a0a989efa4803eac8860db734e3061abac5ea41ad77e141333608655154",
        "trace.csv":
            "1b1b7c5a4cd39b4a52029d1fcaeb95687646e79a02eed772d47c696c1cc47ebe",
    },
    "fig2-stepsize": {
        "errors_adaptive.csv":
            "9d85d3fdc8ef12c3abf0a6a717f8c6125bfc73f6f52f4d6dd1f28b22ec280fda",
        "errors_const-0.02.csv":
            "81b6f93ff1e506262e29e357e6319d13e47415a1e9ce84396802d8def1666c1f",
        "errors_const-0.1.csv":
            "2121c86811bf8fa5b277eb3f5fe39889912ed6daaeb3d2ffa231798de4889599",
        "errors_const-0.5.csv":
            "1c8461bbf1e8046f756eaf04f8e99820b801bcfab0e8d1d8a8be29b74c30c8ae",
        "summary.csv":
            "87212d4ed35e4cb98a0bb2b50114bdca1b61d6e705844bb944a3c484ec36db3a",
    },
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
        ("fig3-multihop", "seeds=0", "seeds"),
        ("fig3-multihop", "nodes=1", "nodes"),
        ("scaling", "seeds=0", "seeds"),
        ("theory-check", "trials=0", "trials"),
        ("scaling", "diameters=", "diameters"),
        ("scaling", "diameters=4,x", "diameters"),
        ("scaling", "diameters=0,4", "diameters"),
        ("scaling", "diameters=4,4,9", "diameters"),  # a repeat would run twice
        ("fig1-pairwise", "switch_round=100", "switch_round"),  # past rounds=60
        ("fig2-stepsize", "constant_steps=abc", "constant_steps"),
        ("fig2-stepsize", "constant_steps=0.5,0.5,0.1", "constant_steps"),  # one would vanish
        ("fig2-stepsize", "constant_steps=0.1,0.1000000001", "constant_steps"),  # same label
    ],
)
def test_main_empty_count_or_list_exits_2_naming_the_parameter(
    tmp_path, capsys, scenario, override, parameter
):
    code = main(["--scenario", scenario, "--set", override, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and parameter in err


@pytest.mark.parametrize(
    "scenario, overrides, parameter",
    [
        ("fig1-pairwise", ("drift_ppm_after=nan",), "drift_ppm_after"),
        ("fig1-pairwise", ("delay_std=inf",), "delay_std"),
        ("fig2-stepsize", ("constant_steps=0.5,nan",), "constant_steps"),
        (
            "fig3-multihop",
            ("delay_std=nan", "seeds=1", "nodes=3", "duration=300"),
            "delay_std",
        ),
        ("fig3-multihop", ("beacon_period=nan",), "beacon_period"),
        ("fig3-multihop", ("duration=inf",), "duration"),
        ("fig3-multihop", ("beacon_period=0",), "beacon_period"),
        ("fig3-multihop", ("nominal_freq=0",), "nominal_freq"),
    ],
)
def test_main_non_finite_or_zero_value_exits_2_naming_the_parameter(
    tmp_path, capsys, scenario, overrides, parameter
):
    argv = ["--scenario", scenario, "--out", str(tmp_path)]
    code = main(argv + [arg for o in overrides for arg in ("--set", o)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and parameter in err


@pytest.mark.parametrize(
    "scenario, override, parameter",
    [
        ("fig1-pairwise", "rate_tolerance=-1", "rate_tolerance"),
        ("fig2-stepsize", "error_tolerance=-1", "error_tolerance"),
        ("theory-check", "tolerance=-1", "tolerance"),
        ("fig3-multihop", "max_dev_ppm=-5", "max_dev_ppm"),
        ("fig3-multihop", "max_dev_ppm=1e6", "max_dev_ppm"),  # the deviation reaches f0
        ("fig1-pairwise", "drift_ppm=2e6", "drift_ppm"),
        ("fig1-pairwise", "drift_ppm_after=-1e6", "drift_ppm_after"),
        ("fig2-stepsize", "drift_ppm=2e6", "drift_ppm"),
        ("theory-check", "noise_convention=foo", "noise_convention"),
        ("scaling", "step_size=5", "step_size"),
        ("fig1-pairwise", "step_size=0", "step_size"),
    ],
)
def test_main_out_of_range_value_exits_2_naming_the_parameter(
    tmp_path, capsys, scenario, override, parameter
):
    code = main(["--scenario", scenario, "--set", override, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and parameter in err


@pytest.mark.parametrize(
    "make, parameter, value",
    [
        (scenarios.pairwise_config, "drift_ppm", 1e6),
        (scenarios.pairwise_config, "drift_ppm_after", -2e6),
        (scenarios.stepsize_configs, "drift_ppm", -1e6),
        (scenarios.stepsize_configs, "drift_ppm", math.nan),
    ],
)
def test_drift_of_a_million_ppm_or_more_is_rejected_naming_the_parameter(make, parameter, value):
    # At 1e6 ppm the deviation reaches the nominal frequency of 1.
    scenario = "fig1-pairwise" if make is scenarios.pairwise_config else "fig2-stepsize"
    params = {**SCENARIOS[scenario].defaults, parameter: value}
    with pytest.raises(ValueError, match=rf"parameter {parameter} must be in \(-1e6, 1e6\)"):
        make(params)


def test_main_oversized_sample_grid_exits_2_naming_duration_and_sample_period(
    tmp_path, capsys, monkeypatch
):
    # 2 nodes x 91 samples (900 s at B/3 = 10 s) is over a bound of 100 cells.
    monkeypatch.setattr(sim, "MAX_SAMPLE_CELLS", 100)
    overrides = ("nodes=2", "seeds=1", "duration=900")
    argv = ["--scenario", "fig3-multihop", "--out", str(tmp_path)]
    code = main(argv + [arg for o in overrides for arg in ("--set", o)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "duration" in err and "sample_period" in err


@pytest.mark.parametrize("beacon_period", ["1e-300", "1e300"])
def test_main_extreme_beacon_period_exits_2_naming_beacon_period_and_nominal_freq(
    tmp_path, capsys, beacon_period
):
    # grades' step size limit overflows to inf at 1e-300 s and underflows to 0 at 1e300 s.
    overrides = (f"beacon_period={beacon_period}", "seeds=1", "nodes=2")
    argv = ["--scenario", "fig3-multihop", "--out", str(tmp_path)]
    code = main(argv + [arg for o in overrides for arg in ("--set", o)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: beacon_period=") and "nominal_freq=" in err


@pytest.mark.parametrize("fraction", ["2", "0"])
def test_main_initial_step_fraction_outside_0_1_exits_2_naming_it(tmp_path, capsys, fraction):
    argv = ["--scenario", "fig3-multihop", "--set", f"initial_step_fraction={fraction}"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: parameter initial_step_fraction must be in (0, 1], got {fraction}.0\n"


@pytest.mark.parametrize("scenario", ["fig1-pairwise", "fig2-stepsize", "scaling"])
def test_main_zero_rounds_exits_2_naming_rounds(tmp_path, capsys, scenario):
    code = main(["--scenario", scenario, "--set", "rounds=0", "--out", str(tmp_path)])
    assert code == 2
    least = 3 if scenario == "fig2-stepsize" else 1
    assert capsys.readouterr().err == f"error: parameter rounds must be at least {least}, got 0\n"


@pytest.mark.parametrize("rounds", [1, 2])
def test_main_fig2_without_two_steady_half_errors_exits_2_naming_rounds(tmp_path, capsys, rounds):
    # The steady half is the rounds after rounds / 2; its spread needs two errors.
    argv = ["--scenario", "fig2-stepsize", "--set", f"rounds={rounds}", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: parameter rounds must be at least 3, got {rounds}\n"


def test_fig2_at_three_rounds_reports_every_spread(tmp_path):
    summary = run_scenario("fig2-stepsize", {"rounds": "3"}, out_dir=tmp_path)
    spreads = [v for k, v in summary.items() if k.endswith(("steady_error_std", "mean_abs"))]
    assert len(spreads) == 8 and all(math.isfinite(v) for v in spreads)


@pytest.mark.parametrize(
    "override, least", [("rounds=0", 2), ("rounds=1", 2), ("trials=0", 1), ("trials=-3", 1)]
)
def test_main_theory_check_needs_two_rounds_and_a_trial(
    tmp_path, capsys, monkeypatch, override, least
):
    # Checked before the first oracle call, and reported under the parameter's name.
    monkeypatch.setattr(scenarios, "estimate_variance_mc", lambda *a, **k: pytest.fail("ran"))
    code = main(["--scenario", "theory-check", "--set", override, "--out", str(tmp_path)])
    name, value = override.split("=")
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: parameter {name} must be at least {least}, got {value}\n"


@pytest.mark.parametrize("form", [("--seed", "-1"), ("--set", "seed=-1")])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_main_negative_seed_exits_2_naming_seed(tmp_path, capsys, scenario, form):
    code = main(["--scenario", scenario, *form, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: parameter seed must be non-negative, got -1\n"


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
        raise ContractViolation("node 2 at t=1: boom")

    monkeypatch.setitem(SCENARIOS, "boom", Scenario({"seed": 0}, runner))
    code = main(["--scenario", "boom", "--out", str(tmp_path)])
    assert code == 3
    assert "contract violation:" in capsys.readouterr().err


def test_missing_scenario_flag_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_format_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(args_for(tmp_path, "--format", "json"))
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
