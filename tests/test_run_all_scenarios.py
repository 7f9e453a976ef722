"""``scripts/run_all_scenarios.py``: a refused input ends as ``gradesync`` itself ends it."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_scenarios.py"


def test_a_negative_seed_exits_2_with_an_error_line_and_no_traceback(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--seed", "-1", "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: parameter seed must be in [0, inf), got -1\n"
    assert "Traceback" not in proc.stderr + proc.stdout
    assert not list(tmp_path.iterdir())
