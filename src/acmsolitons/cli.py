"""Command line front end: run suites on a fixture, print a summary.

Exit status 0 means every check passed, 1 means at least one failed,
2 means the configuration or evaluation failed outright.
"""

from __future__ import annotations

import argparse
import sys
import time

from .config import (
    ALL_SUITES,
    ConfigError,
    builtin_config,
    builtin_names,
    load_config,
    set_run_setting,
)
from .suites import build_report, report_json, run_suites
from .tensor import StructureError


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="verify",
        description=(
            "Verify curvature and soliton identities on a chart fixture."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--builtin", choices=builtin_names(), help="run a built-in fixture"
    )
    source.add_argument("--config", metavar="PATH", help="run a definition file")
    parser.add_argument(
        "--suites", metavar="S1,S2",
        help=f"comma-separated subset of: {', '.join(ALL_SUITES)}",
    )
    parser.add_argument(
        "--a", metavar="A1,A2", dest="a_grid",
        help="comma-separated deformation parameters (all > 0)",
    )
    parser.add_argument("--points", help="sample count")
    parser.add_argument("--seed", help="sampling seed")
    parser.add_argument(
        "--report", metavar="PATH", help="write the JSON report here"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-check lines"
    )
    return parser.parse_args(argv)


def _apply_overrides(config, args) -> None:
    for key, raw in (("suites", args.suites), ("a", args.a_grid),
                     ("points", args.points), ("seed", args.seed)):
        if raw is not None:
            set_run_setting(config, key, raw, f"--{key}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if args.builtin is not None:
            config = builtin_config(args.builtin)
        else:
            config = load_config(args.config)
        _apply_overrides(config, args)
    except (ConfigError, StructureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        checks = run_suites(config)
    except StructureError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    report = build_report(config, checks)
    if args.report is not None:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report_json(report))
        except OSError as err:
            print(f"error: cannot write report {args.report}: {err}",
                  file=sys.stderr)
            return 2

    if not args.quiet:
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            line = (
                f"{status} {c.check_id}  max_residual={c.max_residual:.3e}"
                f"  tol={c.tolerance:.1e}"
            )
            if c.classification is not None:
                line += f"  [{c.classification}]"
            if c.detail is not None:
                line += f"  ({c.detail})"
            print(line)
    n_pass = sum(1 for c in checks if c.passed)
    print(
        f"{n_pass}/{len(checks)} checks passed on {config.name} "
        f"in {elapsed:.2f}s (seed {config.seed}, {config.points} points)"
    )
    return 0 if report["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
