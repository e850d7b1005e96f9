#!/usr/bin/env python3
"""Run every built-in fixture and summarize the outcomes.

Each fixture names the checks it is meant to fail, as ``fnmatch``
patterns of check ids without their ``[a=...]`` tag; every other check
must pass.  The Kenmotsu fixtures pass everything, except that
kenmotsu5-gh, Einstein but not a space form, must fail the full (0,4)
riemann soliton equation, and kenmotsu3-sph, whose round-sphere fibre
makes it no Einstein chart, must fail every residual of the candidates it
shares with kenmotsu3 (none solves its soliton equation there) and the
inequality suite's soliton reconstruction; kenmotsu3-sph-soliton and
kenmotsu3-hyp-soliton carry the genuine gradient soliton of such a chart,
over a round and a hyperbolic fibre, and pass everything.  euclidean3 and
sphere2 are negative controls: euclidean3 carries a valid almost contact
metric structure that is not Kenmotsu, sphere2 has no structure at all,
so both must fail in the expected, well-reported way.  Exit status 0
means every fixture behaved as intended.
"""

import argparse
import sys
from fnmatch import fnmatchcase

from acmsolitons.config import builtin_config, builtin_names
from acmsolitons.suites import run_suites

EXPECTED_FAILURES = {
    "kenmotsu3": (),
    "kenmotsu3-hyp-soliton": (),
    "kenmotsu3-sph": (
        "riemann-soliton/*/full", "riemann-soliton/*/traced",
        "riemann-soliton/*/scalar", "ricci-soliton/*/full",
        "ricci-soliton/*/scalar", "inequality/*/reconstruction",
    ),
    "kenmotsu3-sph-soliton": (),
    "kenmotsu3-trivial": (),
    "kenmotsu3-wide": (),
    "kenmotsu5-gh": ("riemann-soliton/*/full",),
    "euclidean3": ("kenmotsu/*", "*/kenmotsu-gate"),
    "sphere2": ("*/requires-structure",),
}


def expected_to_fail(name: str, check_id: str) -> bool:
    key = check_id.split("[")[0]
    return any(fnmatchcase(key, p) for p in EXPECTED_FAILURES[name])


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
        n_pass = sum(1 for c in checks if c.passed)
        failing = [expected_to_fail(name, c.check_id) for c in checks]
        unexpected = [c for c, f in zip(checks, failing) if c.passed == f]
        ok = ok and not unexpected
        verdict = "UNEXPECTED" if unexpected else "as intended"
        print(f"{name:21s} {n_pass:3d}/{len(checks):3d} passed "
              f"(expected {sum(failing)} failing): {verdict}")
        for c in unexpected:
            print(f"    {'PASS' if c.passed else 'FAIL'} "
                  f"{c.check_id}  max_residual={c.max_residual:.3e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
