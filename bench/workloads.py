"""The benchmark's workloads: which scenario each runs and with which overrides.

Why each workload is there is recorded in ``BENCHMARK.json`` and
``bench/README.md``.  Every workload goes through
``gradesync.cli.run_scenario``.  The benchmark's ``--seed n`` selects the
scenario seed ``default + n % SEED_OFFSETS``, so offset 0 is the scenario's own
default seed and every seed a run can ask for has stored reference outputs
under ``bench/reference``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SEED_OFFSETS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    overrides: dict = field(default_factory=dict)
    # Overrides that shrink the run to well under a second, for the smoke test.
    tiny: dict = field(default_factory=dict)
    # What the workload reports as work_per_s: "node_rounds" inside
    # gradesync.sim.run, or "draws" inside gradesync.analysis.estimate_variance_mc.
    work: str = "node_rounds"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig3-multihop",
            "fig3-multihop",
            tiny={"seeds": "1", "nodes": "4", "duration": "900"},
        ),
        Workload(
            "scaling",
            "scaling",
            tiny={"seeds": "2", "diameters": "2,3", "rounds": "30"},
        ),
        Workload(
            "theory-check",
            "theory-check",
            tiny={"trials": "20", "rounds": "40"},
            work="draws",
        ),
        Workload(
            "line-2000",
            "fig3-multihop",
            overrides={"nodes": "2000", "seeds": "1", "duration": "600"},
            tiny={"nodes": "60", "duration": "300"},
        ),
    )
}
