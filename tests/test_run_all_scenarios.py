"""``scripts/run_all_scenarios.py``: a refused input ends as ``gradesync`` itself ends it."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_scenarios.py"


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
    assert proc.stderr.startswith(
        f"error: cannot create output directory {taken / 'fig1-pairwise'}: ")
    assert "Traceback" not in proc.stderr + proc.stdout
