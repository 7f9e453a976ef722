"""``scripts/run_all_scenarios.py``: a refused input ends as ``gradesync`` itself ends it, and
``--check`` reads only what its own runs wrote."""

import importlib.util
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gradesync.cli import run_scenario
from gradesync.scenarios import SCENARIOS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_scenarios.py"


@pytest.fixture
def script(monkeypatch):
    """The script as a module, checking the default listing only: the 2,000-node line and the
    difference-convention theory-check would double the time and test nothing more here."""
    spec = importlib.util.spec_from_file_location("run_all_scenarios", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RUNS", ())
    return module


def test_a_negative_seed_exits_2_with_an_error_line_and_no_traceback(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--seed", "-1", "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: parameter seed must be in [0, inf), got -1\n"
    assert "Traceback" not in proc.stderr + proc.stdout
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [[], ["--check"]])
def test_out_at_a_regular_file_exits_2_with_an_error_line_and_no_traceback(tmp_path, flags):
    # Exit 1 is what --check gives a listing that differs; a refused --out is not one.
    taken = tmp_path / "taken"
    taken.write_text("")
    proc = subprocess.run([sys.executable, str(SCRIPT), *flags, "--out", str(taken)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    made = taken if flags else taken / "fig1-pairwise"  # --check makes its own directory first
    assert proc.stderr.startswith(f"error: cannot create output directory {made}: ")
    assert "Traceback" not in proc.stderr + proc.stdout


def test_check_ignores_a_csv_an_earlier_run_left_under_out(tmp_path, script, capsys):
    run_scenario("fig2-stepsize", {"constant_steps": "0.3"}, out_dir=tmp_path)
    assert script.check(tmp_path) == 0, capsys.readouterr().out
    assert capsys.readouterr().out == "ok  tests/default_outputs.sha256\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2-stepsize"]  # check-* removed


def test_check_fails_on_a_csv_a_run_writes_and_no_listing_names(tmp_path, script, capsys,
                                                                 monkeypatch):
    fig1 = SCENARIOS["fig1-pairwise"]

    def runner(params, out):
        (out / "extra.csv").write_text("")
        return fig1.runner(params, out)

    monkeypatch.setitem(SCENARIOS, "fig1-pairwise", replace(fig1, runner=runner))
    # fig1 alone: the test above checks the whole default listing once.
    monkeypatch.setattr(script, "SCENARIOS", {"fig1-pairwise": SCENARIOS["fig1-pairwise"]})
    assert script.check(tmp_path) == 1
    out = capsys.readouterr().out
    assert out.startswith("DIFFERS  tests/default_outputs.sha256\n")
    assert "  fig1-pairwise/extra.csv\n" in out
    (kept,) = tmp_path.iterdir()  # kept, to look at what differs
    assert out.endswith(f"outputs kept in {kept}\n")
    assert (kept / "fig1-pairwise" / "extra.csv").exists()
