"""Correctness check: compare a run's artifacts and summary with stored references.

A reference holds, for each CSV artifact, its SHA-256, its comment and header
lines, its row count, every ``SAMPLE_ROWS``-th data row and the sum of
absolute values of each numeric column; and the scenario's summary mapping.

An artifact whose bytes match the reference is exact.  Otherwise its comments,
header and row count must match exactly, and every sampled field and column
sum must match within ``REL_TOL``, so a change that only reorders
floating-point arithmetic can pass.  A run fails when an artifact is missing or
extra, a numeric field moves beyond the tolerance, a text field changes, or a
boolean summary field (``*.converged``, ``*.all_converged``,
``within_tolerance``) flips.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

REL_TOL = 1e-6
ABS_TOL = 1e-12
SAMPLE_ROWS = 64


def _split(text: str):
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return comments, body[0], body[1:]


def _number(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def _column_sums(rows: list[str]) -> list[float | None]:
    """Sum of |value| per column; None for a column that is not all numeric."""
    sums: list[float | None] = []
    for column in zip(*(row.split(",") for row in rows)):
        values = [_number(f) for f in column]
        sums.append(None if None in values else math.fsum(abs(v) for v in values))
    return sums


def _sample(rows: list[str]) -> list[list]:
    stride = max(1, len(rows) // SAMPLE_ROWS)
    picks = sorted(set(range(0, len(rows), stride)) | ({len(rows) - 1} if rows else set()))
    return [[i, rows[i]] for i in picks]


def fingerprint(path: Path) -> dict:
    data = path.read_bytes()
    comments, header, rows = _split(data.decode())
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "comments": comments,
        "header": header,
        "rows": len(rows),
        "sample": _sample(rows),
        "column_abs_sums": _column_sums(rows),
    }


def reference_entry(out_dir: Path, summary: dict) -> dict:
    return {
        "artifacts": {p.name: fingerprint(p) for p in sorted(Path(out_dir).glob("*.csv"))},
        "summary": summary,
    }


class Comparison:
    def __init__(self):
        self.problems: list[str] = []
        self.max_rel_diff = 0.0

    def number(self, where: str, got: float, want: float) -> None:
        if math.isnan(got) or math.isnan(want):
            if not (math.isnan(got) and math.isnan(want)):
                self.problems.append(f"{where}: {got!r} != {want!r}")
            return
        diff = abs(got - want)
        scale = max(abs(got), abs(want))
        rel = diff / scale if scale > 0 else 0.0
        self.max_rel_diff = max(self.max_rel_diff, rel)
        if diff > ABS_TOL and rel > REL_TOL:
            self.problems.append(f"{where}: {got!r} != {want!r} (relative {rel:.3g})")

    def value(self, where: str, got, want) -> None:
        numeric = (int, float)
        if isinstance(got, bool) or isinstance(want, bool) or not (
            isinstance(got, numeric) and isinstance(want, numeric)
        ):
            if got != want:
                self.problems.append(f"{where}: {got!r} != {want!r}")
        else:
            self.number(where, float(got), float(want))

    def field(self, where: str, got: str, want: str) -> None:
        g, w = _number(got), _number(want)
        if g is None or w is None:
            if got != want:
                self.problems.append(f"{where}: {got!r} != {want!r}")
        else:
            self.number(where, g, w)


def compare(out_dir: Path, summary: dict, reference: dict) -> Comparison:
    """Check one run's artifacts under ``out_dir`` and its summary against ``reference``."""
    cmp = Comparison()
    out_dir = Path(out_dir)
    present = {p.name for p in out_dir.glob("*.csv")}
    for name in sorted(present - set(reference["artifacts"])):
        cmp.problems.append(f"{name}: unexpected artifact")
    for name, ref in reference["artifacts"].items():
        if name not in present:
            cmp.problems.append(f"{name}: missing")
            continue
        data = (out_dir / name).read_bytes()
        if hashlib.sha256(data).hexdigest() == ref["sha256"]:
            continue
        comments, header, rows = _split(data.decode())
        if comments != ref["comments"] or header != ref["header"] or len(rows) != ref["rows"]:
            cmp.problems.append(f"{name}: comments, header or row count changed")
            continue
        for i, want_row in ref["sample"]:
            got, want = rows[i].split(","), want_row.split(",")
            if len(got) != len(want):
                cmp.problems.append(f"{name} row {i}: {len(got)} fields, expected {len(want)}")
                continue
            for j, (g, w) in enumerate(zip(got, want)):
                cmp.field(f"{name} row {i} column {j}", g, w)
        for j, (g, w) in enumerate(zip(_column_sums(rows), ref["column_abs_sums"])):
            if g is None or w is None:
                if (g is None) != (w is None):
                    cmp.problems.append(f"{name} column {j}: numeric type changed")
            else:
                cmp.number(f"{name} column {j} sum of |x|", g, w)
    want_summary = reference["summary"]
    if set(summary) != set(want_summary):
        cmp.problems.append(f"summary keys differ: {sorted(set(summary) ^ set(want_summary))}")
    for key in sorted(set(summary) & set(want_summary)):
        cmp.value(f"summary {key}", summary[key], want_summary[key])
    return cmp
