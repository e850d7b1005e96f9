#!/usr/bin/env python3
"""Hash the JSON report of repeated identical runs.

All hashes must agree; any drift means nondeterminism crept into
sampling, iteration order, or serialization.
"""

import argparse
import hashlib
import sys

from acmsolitons.config import (
    ConfigError, builtin_config, builtin_names, load_config,
)
from acmsolitons.suites import build_report, report_json, run_suites


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--fixture", choices=builtin_names(),
                        help="a built-in fixture (default kenmotsu3)")
    source.add_argument("--config", metavar="PATH",
                        help="a definition file instead of a built-in fixture")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--points", type=int, default=None,
                        help="override the fixture's sample count")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to compare reports")
    if args.points is not None and args.points < 1:
        parser.error("--points must be at least 1")

    digests = []
    for k in range(args.runs):
        try:
            if args.config is not None:
                config = load_config(args.config)
            else:
                config = builtin_config(args.fixture or "kenmotsu3")
        except ConfigError as err:
            parser.error(str(err))
        if args.points is not None:
            config.points = args.points
        text = report_json(build_report(config, run_suites(config)))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        digests.append(digest)
        print(f"run {k + 1}: sha256 {digest}")
    if len(set(digests)) == 1:
        print(f"deterministic: {args.runs} identical reports "
              f"({len(text)} bytes)")
        return 0
    print("NONDETERMINISTIC: report bytes differ between runs")
    return 1


if __name__ == "__main__":
    sys.exit(main())
