"""Command-line front-end: run a named scenario, write CSV artifacts.

Exit codes: 0 success, 2 usage error (unknown scenario/parameter, malformed --set or
config file, a number or seed that does not parse, is not finite or lies outside its
``ranges`` interval, unusable --out, an unwritable artifact, a run over one of ``sim.BUDGETS``,
delay noise under 3 spacings of a run's readings), 3 contract violation inside a simulation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ContractViolation
from .scenarios import SCENARIOS, write_summary_csv


def _pair(text: str, refusal: str) -> tuple[str, str]:
    """``key=value`` text as a stripped (key, value) pair; ValueError(refusal) without ``=``."""
    if "=" not in text:
        raise ValueError(refusal)
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def parse_config_file(path: Path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    overrides: dict[str, str] = {}
    try:
        text = path.read_text()
    except OSError as err:
        raise ValueError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, value = _pair(line, f"{path}:{lineno}: expected key=value, got {raw!r}")
        overrides[key] = value
    return overrides


def _coerce(name: str, raw: str, template) -> object:
    """``raw`` as the type of ``template``; a tuple template takes a comma-separated list,
    every element of which must parse, so an empty list or element is refused."""
    is_list = isinstance(template, tuple)
    kind = type(template[0] if is_list else template)
    try:
        values = [kind(s) for s in (raw.split(",") if is_list else [raw])]
    except ValueError as err:
        raise ValueError(f"parameter {name}: cannot parse {raw!r}") from err
    return tuple(values) if is_list else values[0]


def check_ranges(params: dict, ranges: dict[str, str]) -> None:
    """Refuse a number, or a tuple's element, that is not finite or lies outside the
    interval ``ranges`` gives its parameter, such as ``"[1, inf)"`` or ``"(0, 1]"``."""
    for name, interval in ranges.items():
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        for v in params[name] if isinstance(params[name], tuple) else (params[name],):
            if not abs(v) <= sys.float_info.max:  # ints as well: 10**400 is no float
                raise ValueError(f"parameter {name} must be finite, got {v}")
            if not ((lo <= v if interval[0] == "[" else lo < v)
                    and (v <= hi if interval[-1] == "]" else v < hi)):
                raise ValueError(f"parameter {name} must be in {interval}, got {v}")


def run_scenario(
    name: str, overrides: dict[str, str] | None = None, out_dir=None, seed: int | None = None
) -> dict:
    """Resolve parameters, run the scenario, write artifacts and summary.csv under out_dir/name."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    scenario = SCENARIOS[name]
    params = dict(scenario.defaults)
    for key, raw in (overrides or {}).items():
        if key not in params:
            raise ValueError(
                f"unknown parameter {key!r} for scenario {name}; "
                f"valid: {', '.join(sorted(params))}"
            )
        params[key] = _coerce(key, raw, params[key])
    if seed is not None:
        params["seed"] = _coerce("seed", str(seed), params["seed"])
    check_ranges(params, scenario.ranges)
    out = Path(out_dir if out_dir is not None else "results") / name
    made = not out.exists()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ValueError(f"cannot create output directory {out}: {err}") from err
    try:
        summary = scenario.runner(params, out)
        write_summary_csv(out / "summary.csv", summary)
    except (OSError, ValueError, ContractViolation) as err:
        if made and not any(out.iterdir()):  # a failed run leaves no empty directory behind
            out.rmdir()
        if isinstance(err, OSError):
            raise ValueError(f"cannot write artifacts under {out}: {err}") from err
        raise
    return summary


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradesync",
        description="Clock-sync protocol simulations and theory cross-checks.",
    )
    parser.add_argument(
        "--scenario", required=True, metavar="NAME",
        help=f"one of: {', '.join(sorted(SCENARIOS))}",
    )
    parser.add_argument(
        "--set", action="append", default=[], dest="overrides", metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable)",
    )
    parser.add_argument("--config", type=Path, help="key=value file of overrides")
    parser.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = parse_config_file(args.config) if args.config is not None else {}
        overrides.update(_pair(item, f"--set expects key=value, got {item!r}")
                         for item in args.overrides)
        summary = run_scenario(args.scenario, overrides, args.out, seed=args.seed)
    except ValueError as err:  # bad input: a flag, a parameter or a value the run rejects
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ContractViolation as err:
        print(f"contract violation: {err}", file=sys.stderr)
        return 3
    for key, value in summary.items():
        print(f"{key} = {value}")
    print(f"artifacts written under {Path(args.out) / args.scenario}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
