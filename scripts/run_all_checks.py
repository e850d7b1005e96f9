#!/usr/bin/env python3
"""Run every built-in fixture and summarize the outcomes.

The two Kenmotsu fixtures must pass everything.  euclidean3 and sphere2
are negative controls: euclidean3 carries a valid almost contact metric
structure that is not Kenmotsu, sphere2 has no structure at all, so both
must fail in the expected, well-reported way.  Exit status 0 means every
fixture behaved as intended.
"""

import argparse
import sys

from acmsolitons.config import builtin_config, builtin_names
from acmsolitons.suites import build_report, run_suites

EXPECT_ALL_PASS = {"kenmotsu3": True, "kenmotsu3-wide": True,
                   "euclidean3": False, "sphere2": False}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=None,
                        help="override the sample count of every fixture")
    args = parser.parse_args()
    if args.points is not None and args.points < 1:
        parser.error("--points must be at least 1")

    ok = True
    for name in builtin_names():
        config = builtin_config(name)
        if args.points is not None:
            config.points = args.points
        checks = run_suites(config)
        report = build_report(config, checks)
        n_pass = sum(1 for c in checks if c.passed)
        expected = EXPECT_ALL_PASS[name]
        as_intended = report["all_pass"] == expected
        ok = ok and as_intended
        verdict = "as intended" if as_intended else "UNEXPECTED"
        print(f"{name:15s} {n_pass:3d}/{len(checks):3d} passed "
              f"(expected all_pass={expected}): {verdict}")
        if not as_intended:
            for c in checks:
                if c.passed != expected:
                    print(f"    {'PASS' if c.passed else 'FAIL'} "
                          f"{c.check_id}  max_residual={c.max_residual:.3e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
