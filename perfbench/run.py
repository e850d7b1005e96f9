"""Benchmark of the acmsolitons ``verify`` operation.

    python3 perfbench/run.py --workload k3-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                # every workload, plain then traced

With ``--workload``, one run: the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics for ``--trace 0`` and the per-layer ones for
``--trace 1``.  Without it, every workload is run both ways and every
metric is printed by name with its unit; the exit status is 0 only when
every op of every run was correct.

Each run happens in a child process (``worker.py``), so each workload gets
its own peak RSS; this process waits for it, and kills it if it overruns.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# time a child may take beyond its measuring time (set-up, the last op,
# the determinism re-run) before it is killed; a run must end in 180 s
GRACE_S = 120


def run_child(workload, seed, seconds, trace, points=None):
    """(result or None, stdout, stderr) of one worker run."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if points is not None:
        cmd += ["--points", str(points)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, out, err + f"\nworker killed after {seconds + GRACE_S} s\n"
    if proc.returncode != 0 or not out.strip():
        return None, out, err
    return json.loads(out.splitlines()[-1]), out, err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--points", type=int, default=None,
                        help="sample count of every fixture (smoke test sizes)")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]

    if args.workload is not None:
        result, out, err = run_child(args.workload, args.seed, seconds,
                                     args.trace or 0, args.points)
        sys.stderr.write(err)
        if result is None:
            sys.stderr.write(out)
            return 1
        sys.stdout.write(out)
        return 0

    traces = (0, 1) if args.trace is None else (args.trace,)
    summary = []
    ok = True
    for workload in WORKLOADS:
        for trace in traces:
            result, out, err = run_child(workload, args.seed, seconds, trace,
                                         args.points)
            sys.stderr.write(err)
            if result is None:
                sys.stderr.write(out)
                summary.append(f"{workload:10s} trace {trace}: run failed")
                ok = False
                continue
            sys.stdout.write("".join(out.splitlines(keepends=True)[:-1]))
            summary.append(
                f"{workload:10s} trace {trace}: correct={result['correct']} "
                f"fail_ratio={result['failed']}/{result['attempted']}"
            )
            ok = ok and result["correct"]
    print("\n".join(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
