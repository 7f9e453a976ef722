"""``scripts/record_bench.py``: the per-workload record it writes into a BENCH file."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "record_bench.py"
spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
record_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_bench)


def test_a_workload_record_holds_both_runs_metrics_tallies_and_environment():
    # One short run per side; the Tier-1 timing is not run here (it would run this test).
    assert record_bench.workload_names() == [
        "fig3-multihop", "line-2000", "scaling", "theory-check"]
    record = record_bench.record_workload("fig3-multihop", seconds=1)
    assert set(record) == {"end_to_end", "per_layer"}
    for part, names in (("end_to_end", {"wall_s", "setup_s", "work_per_s", "peak_rss_mb"}),
                        ("per_layer", {"sim.run.calls", "sim.events", "trace.overhead_s",
                                       "check.max_rel_output_diff"})):
        run = record[part]
        assert (run["correct"], run["failed"]) == (True, 0) and run["attempted"] >= 1
        assert names <= set(run["metrics"])
        assert all(set(m) == {"value", "unit"} for m in run["metrics"].values())
        assert set(record_bench.ENV_FIELDS) | {"samples", "trace"} <= set(run["env"])
        assert run["env"]["trace"] == (part == "per_layer")
    assert record["end_to_end"]["env"]["src_lines"] > 0


def test_a_scenario_record_holds_the_median_of_its_fresh_processes():
    assert record_bench.scenario_names() == [
        "fig1-pairwise", "fig2-stepsize", "fig3-multihop", "scaling", "theory-check"]
    record = record_bench.record_scenario("fig1-pairwise")
    assert set(record) == {"wall_s", "runs_s"}
    assert len(record["runs_s"]) == record_bench.SCENARIO_RUNS == 3
    assert all(0 < s < 60 for s in record["runs_s"])
    assert record["wall_s"] == sorted(record["runs_s"])[1]


def test_recording_refuses_uncommitted_changes_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # The env's git_commit is read from HEAD, so it names the measured code only when clean.
    monkeypatch.setattr(record_bench, "uncommitted", lambda: " M src/gradesync/sim.py\n")
    out = tmp_path / "BENCH_0.json"
    assert record_bench.main(["--out", str(out)]) == 1
    assert not out.exists()
    assert "src/gradesync/sim.py" in capsys.readouterr().err


def test_tier1_runs_the_command_of_the_workflows_tier1_step():
    workflow = (SCRIPT.parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    step = workflow.split("- name: Tier-1 tests\n", 1)[1].split("- name:", 1)[0]
    command = " ".join(step.split("run: >-", 1)[1].split())
    assert command == "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python " + " ".join(
        record_bench.TIER1)


def test_the_tier1_session_refuses_an_unknown_config_option_or_marker(pytestconfig):
    # pyproject.toml's strict_config and strict_markers are in force, so a misspelt option
    # (xfail_stict) stops the run instead of leaving every known gap unable to fail.
    assert pytestconfig.getini("strict_config") is True
    assert pytestconfig.getini("strict_markers") is True
