#!/usr/bin/env python3
"""Hash the JSON report of repeated identical runs.

All hashes must agree; any drift means nondeterminism crept into
sampling, iteration order, or serialization.

With --digests, print instead one sha256 per built-in fixture and per
--config file (which may then be given more than once), at the fixture's
own point count and at --points (default 256), one report each.  Two
checkouts that write the same report bytes print the same lines, so
comparing them is one diff of the two outputs.
"""

import argparse
import hashlib
import sys

from acmsolitons.config import (
    ConfigError, builtin_config, builtin_names, load_config,
)
from acmsolitons.suites import build_report, report_json, run_suites

_DIGEST_POINTS = 256


def _digest(config) -> tuple:
    text = report_json(build_report(config, run_suites(config)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), len(text)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--fixture", choices=builtin_names(),
                        help="a built-in fixture (default kenmotsu3)")
    source.add_argument("--config", metavar="PATH", action="append",
                        help="a definition file instead of a built-in fixture")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--points", type=int, default=None,
                        help="override the fixture's sample count")
    parser.add_argument("--digests", action="store_true",
                        help="print one sha256 per built-in fixture and "
                             "--config file, at its own and at --points "
                             f"(default {_DIGEST_POINTS}) points")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to compare reports")
    if args.points is not None and args.points < 1:
        parser.error("--points must be at least 1")
    configs = args.config or []
    if args.digests and args.fixture is not None:
        parser.error("--digests covers every built-in fixture; "
                     "drop --fixture")
    if not args.digests and len(configs) > 1:
        parser.error("--config may be given more than once only "
                     "with --digests")

    def load(path):
        try:
            return load_config(path)
        except ConfigError as err:
            parser.error(str(err))

    if args.digests:
        for path in configs:
            load(path)  # refuse a bad file before any report is made
        loaders = [lambda name=name: builtin_config(name)
                   for name in builtin_names()]
        loaders += [lambda path=path: load(path) for path in configs]
        points = _DIGEST_POINTS if args.points is None else args.points
        for make in loaders:
            for count in (None, points):
                config = make()
                if count is not None:
                    config.points = count
                digest, _ = _digest(config)
                print(f"{config.name} {config.points} points: sha256 {digest}")
        return 0

    digests = []
    for k in range(args.runs):
        if configs:
            config = load(configs[0])
        else:
            config = builtin_config(args.fixture or "kenmotsu3")
        if args.points is not None:
            config.points = args.points
        digest, size = _digest(config)
        digests.append(digest)
        print(f"run {k + 1}: sha256 {digest}")
    if len(set(digests)) == 1:
        print(f"deterministic: {args.runs} identical reports ({size} bytes)")
        return 0
    print("NONDETERMINISTIC: report bytes differ between runs")
    return 1


if __name__ == "__main__":
    sys.exit(main())
