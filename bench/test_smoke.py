"""Smoke test of the benchmark harness, at tiny workload sizes.

    python3 -m pytest -q bench/test_smoke.py

Each workload runs through the same child process, check and tally the
benchmark uses, with the workload's ``tiny`` overrides.  The first run becomes
the reference; a rerun must match it exactly, and a perturbed, missing or
flipped output must be counted as a failed run.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import check
import run
from workloads import WORKLOADS

def tiny_run(name: str, mode: str = "full") -> dict:
    workload = WORKLOADS[name]
    return run.run_child(workload, 0, mode, overrides=workload.tiny)


def tiny_reference(name: str) -> dict:
    result = tiny_run(name)
    return check.reference_entry(result["out_dir"], result["summary"])


def scale_sampled_value(out_dir: Path, reference: dict, factor: float) -> None:
    """Multiply the last non-zero numeric field of a sampled row of the first artifact."""
    name, artifact = next(iter(reference["artifacts"].items()))
    path = out_dir / name
    lines = path.read_text().splitlines()
    first_row = len(artifact["comments"]) + 1
    for index, row in artifact["sample"]:
        fields = row.split(",")
        for j in reversed(range(len(fields))):
            try:
                value = float(fields[j])
            except ValueError:
                continue
            if value != 0.0:
                fields[j] = repr(value * factor)
                lines[first_row + index] = ",".join(fields)
                path.write_text("\n".join(lines) + "\n")
                return
    raise AssertionError(f"no non-zero numeric field sampled in {name}")


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload_reference(request):
    return request.param, tiny_reference(request.param)


def test_a_rerun_matches_its_reference_exactly(workload_reference):
    name, reference = workload_reference
    record = run.checked(tiny_run(name), reference)
    assert record["ok"], record["problems"]
    assert record["max_rel_output_diff"] == 0.0
    for metric in ("wall_s", "work_per_s", "peak_rss_mb"):
        assert run.at_reference_speed(record, metric) > 0
    assert run.at_reference_speed(tiny_run(name, "setup"), "setup_s") > 0


def test_a_perturbed_artifact_is_counted_as_a_failed_run(workload_reference):
    name, reference = workload_reference
    runs = [run.checked(tiny_run(name), reference)]
    perturbed = tiny_run(name)
    scale_sampled_value(Path(perturbed["out_dir"]), reference, 1.001)
    runs.append(run.checked(perturbed, reference))
    assert run.outcome(runs) == {"correct": False, "attempted": 2, "failed": 1}
    assert any("relative" in p for p in runs[1]["problems"]), runs[1]["problems"]


def test_a_change_within_tolerance_passes(workload_reference):
    name, reference = workload_reference
    result = tiny_run(name)
    scale_sampled_value(Path(result["out_dir"]), reference, 1.0 + check.REL_TOL / 10)
    record = run.checked(result, reference)
    assert record["ok"], record["problems"]
    assert 0.0 < record["max_rel_output_diff"] <= check.REL_TOL


def test_a_missing_artifact_fails(workload_reference):
    name, reference = workload_reference
    result = tiny_run(name)
    (Path(result["out_dir"]) / "summary.csv").unlink()
    record = run.checked(result, reference)
    assert not record["ok"]
    assert "summary.csv: missing" in record["problems"]


@pytest.mark.parametrize("name, key", [("fig3-multihop", "grades.all_converged"),
                                       ("theory-check", "within_tolerance")])
def test_a_flipped_boolean_summary_field_fails(name, key):
    reference = tiny_reference(name)
    result = tiny_run(name)
    result["summary"][key] = not result["summary"][key]
    record = run.checked(result, reference)
    assert not record["ok"]
    assert any(p.startswith(f"summary {key}:") for p in record["problems"])


def test_the_traced_run_reports_every_per_layer_metric():
    added_by_the_parent = {"trace.overhead_s", "check.max_rel_output_diff"}
    names = {m["name"] for m in run.BENCHMARK["per_layer"]} - added_by_the_parent
    for name in WORKLOADS:
        assert set(tiny_run(name, "trace")["layers"]) == names
    assert [w["name"] for w in run.BENCHMARK["workloads"]] == list(WORKLOADS)


def test_outputs_that_differ_from_the_reference_are_counted_as_failed_runs():
    """Tiny fig3 outputs checked against the full-size reference, through ``measure``."""
    workload = WORKLOADS["fig3-multihop"]
    tiny = dataclasses.replace(workload, overrides={**workload.overrides, **workload.tiny})
    metrics, runs, counts = run.measure(tiny, 0, 0.1, time.monotonic() + 60)
    assert set(metrics) == {m["name"] for m in run.BENCHMARK["end_to_end"]}
    full = [r for r in runs if r["mode"] == "full"]
    assert full and all(not r["ok"] for r in full)
    assert run.outcome(runs)["failed"] == len(full)
    assert counts["setup_s"] == run.SETUP_PROBES and metrics["setup_s"] > 0


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scaling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
