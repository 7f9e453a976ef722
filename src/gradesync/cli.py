"""Command-line front-end: run a named scenario, write CSV artifacts.

Exit codes: 0 success, 2 usage error (unknown scenario/parameter, malformed
--set or config file), 3 runtime contract violation inside a simulation.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import ContractViolation
from .scenarios import SCENARIOS


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
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _coerce(name: str, raw: str, template) -> object:
    """``raw`` as the type of ``template``; a tuple template takes a comma-separated list."""
    is_list = isinstance(template, tuple)
    kind = type(template[0] if is_list else template)
    try:
        values = [kind(s) for s in raw.split(",") if s] if is_list else [kind(raw)]
    except ValueError as err:
        raise ValueError(f"parameter {name}: cannot parse {raw!r}") from err
    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
        raise ValueError(f"parameter {name} must be finite, got {raw!r}")
    return tuple(values) if is_list else values[0]


def run_scenario(
    name: str, overrides: dict[str, str] | None = None, out_dir=None, seed: int | None = None
) -> dict:
    """Resolve parameters, run the scenario, write artifacts under out_dir/name."""
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
        params["seed"] = seed
    if params["seed"] < 0:
        raise ValueError(f"parameter seed must be non-negative, got {params['seed']}")
    out = Path(out_dir if out_dir is not None else "results") / name
    out.mkdir(parents=True, exist_ok=True)
    return scenario.runner(params, out)


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
    parser.add_argument("--format", choices=["csv"], default="csv", help="artifact format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides: dict[str, str] = {}
        if args.config is not None:
            overrides.update(parse_config_file(args.config))
        for item in args.overrides:
            if "=" not in item:
                raise ValueError(f"--set expects key=value, got {item!r}")
            key, value = item.split("=", 1)
            overrides[key.strip()] = value.strip()
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
