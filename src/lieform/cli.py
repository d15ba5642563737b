"""Command-line driver.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(Courant violation or non-finite values), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from .forms import NonFiniteValueError
from .output import read_error_table
from .reconstruct import CourantError, SchemeKind
from .scenarios import (apply_overrides, builtin_scenario, fit_convergence_slope,
                        run_scenario, scenario_names)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _parse_res(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad resolution list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty resolution list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieform",
        description="Advect discrete differential forms and reproduce "
                    "the built-in experiment scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a built-in scenario")
    run.add_argument("scenario", choices=scenario_names())
    run.add_argument("--res", type=_parse_res, default=None,
                     metavar="N[,N...]", help="override resolution list")
    run.add_argument("--dt", type=float, default=None,
                     help="override base time step (scaled with h)")
    run.add_argument("--steps", type=int, default=None,
                     help="override per-leg step count; without --dt, "
                          "dt becomes the leg's duration over this count")
    run.add_argument("--scheme", choices=[k.value for k in SchemeKind],
                     default=None, help="run a single scheme only")
    run.add_argument("--out", default="out", help="artifact directory")

    slope = sub.add_parser("slope", help="fit convergence slopes from errors.csv")
    slope.add_argument("table", metavar="errors.csv")
    return parser


def _cmd_run(args) -> int:
    scenario = builtin_scenario(args.scenario)
    scenario = apply_overrides(scenario, resolutions=args.res, dt=args.dt,
                               steps=args.steps, scheme=args.scheme)
    records = run_scenario(scenario, args.out)
    for r in records:
        print(f"{r.resolution:>4} {r.scheme.value:<6} "
              f"l1={r.l1:.6e} l2={r.l2:.6e} ({r.runtime_ms:.1f} ms)")
    print(f"wrote {len(records)} records to {args.out}/errors.csv")
    return EXIT_OK


def _cmd_slope(args) -> int:
    records = read_error_table(args.table)
    by_scheme: dict[SchemeKind, list] = {}
    for r in records:
        by_scheme.setdefault(r.scheme, []).append(r)
    for scheme, group in by_scheme.items():
        fit = fit_convergence_slope(group)
        for key in ("l1", "l2"):
            value = fit[key]
            shown = value if isinstance(value, str) else f"{value:.6g}"
            print(f"{scheme.value} {key} {shown}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return EXIT_CONFIG if stop.code not in (0, None) else EXIT_OK
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_slope(args)
    except (CourantError, NonFiniteValueError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
