"""Record the verdict fingerprints that every benchmark op is checked against.

    python3 perfbench/make_reference.py

Runs each workload once per seed, at its full size and at its smoke-test
size, and requires every run of a workload to give the same fingerprint
(check ids, pass flags, classifications, per-check point counts and
all_pass; residual values are left out).  Writes ``reference.json``.  Run
it only on a commit whose verdicts are known to be right: the benchmark
treats any later difference as a failed op.
"""

from __future__ import annotations

import json
import re
import sys

from worker import import_package
from workloads import REFERENCE_PATH, WORKLOADS, fingerprint, run_op

SEEDS = (0, 1, 2, 3, 7, 42, 1234, 99991)


def main() -> int:
    acm = import_package()
    reference = {}
    for workload in WORKLOADS.values():
        sizes = (None, workload.smoke_points)
        seen = None
        for seed in SEEDS:
            for points in sizes:
                _, _, reports = run_op(acm, workload, seed, points)
                prints = [fingerprint(json.loads(text)) for text in reports]
                if seen is None:
                    seen = prints
                elif prints != seen:
                    print(f"{workload.name}: seed {seed}, points {points}: "
                          "verdicts differ from the first run", file=sys.stderr)
                    return 1
            print(f"{workload.name}: seed {seed} agrees", flush=True)
        reference[workload.name] = {
            "seeds": list(SEEDS),
            "points": {item.name: [item.points, workload.smoke_points]
                       for item in workload.items},
            "reports": seen,
        }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(dumps(reference) + "\n")
    return 0


def dumps(reference: dict) -> str:
    """Indented JSON with one check per line."""
    lines = {}

    def token(check):
        key = f"@{len(lines)}@"
        lines[key] = json.dumps(check)
        return key

    shaped = {
        name: {**entry, "reports": [
            {**fp, "checks": [token(c) for c in fp["checks"]]}
            for fp in entry["reports"]
        ]}
        for name, entry in reference.items()
    }
    text = json.dumps(shaped, indent=1, sort_keys=True)
    return re.sub(r'"(@\d+@)"', lambda m: lines[m.group(1)], text)


if __name__ == "__main__":
    sys.exit(main())
