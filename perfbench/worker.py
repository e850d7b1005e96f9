"""One benchmark run of one workload, in a process of its own.

    python3 perfbench/worker.py --workload k3-dense --seed 1 --seconds 30 --trace 0

``run.py`` starts this; it can also be run directly.  It imports the
package from ``src/`` next to this directory, runs verify ops in a closed
loop (one client, no threads) for ``--seconds``, checks every op's verdicts
against ``reference.json`` and its report bytes against the first op's,
prints one line per metric, writes a sidecar JSON under ``out/``, and
prints the result object as its last line.

``--trace 0`` times plain ops and reports the end-to-end metrics.
``--trace 1`` alternates plain and traced ops and reports the per-layer
metrics of the traced ones, plus the tracing overhead (traced minus plain
median op time).

Every time reported is scaled for host speed (see ``calibrate.py``): units
of fixed work are timed before the first op, after each op and, by a timer
signal, inside each plain op, and each op's wall time (less the probe's) is
multiplied by ``REFERENCE_S`` over the mean unit time around and inside it.
The unscaled wall times go to the sidecar and the console too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_S, Probe, calibrate, scale  # noqa: E402
from tracing import (  # noqa: E402
    PER_LAYER, SUITE_NAMES, Recorder, install, op_metrics, uninstall,
)
from workloads import (  # noqa: E402
    WORKLOADS, fingerprint_mismatch, load_reference, run_op, time_setup,
)

END_TO_END = (
    ("verify_s.p50", "s"),
    ("verify_s.tail", "s"),
    ("points_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# setup_s is timed before the loop, on a clean heap: SETUP_BATCHES
# batches of SETUP_BATCH config loads each, every batch between two
# calibrations; it is the median over batches of the batch's scaled median
# load.  An op's own load is not used: it follows the previous op's heavy
# work, so its cost depends on how many ops fit in a run.
SETUP_BATCHES = 5
SETUP_BATCH = 20


def import_package():
    """The acmsolitons package of this checkout, never one from elsewhere."""
    sys.path.insert(0, str(SRC))
    import acmsolitons

    where = Path(acmsolitons.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise ImportError(f"acmsolitons imported from {where}, not {SRC}")
    if set(acmsolitons.ALL_SUITES) != set(SUITE_NAMES):
        raise RuntimeError("suite list changed; update tracing.SUITE_NAMES")
    return acmsolitons


def source_revision() -> dict:
    """git revision when this is a git checkout, and a digest of src/."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=20,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        rev = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git": rev or "unknown", "src_sha256": digest.hexdigest()}


def tail(values):
    """(value, percentile): the highest percentile with >= 10 ops above it.

    With 10 ops or fewer no percentile qualifies; the tail is then the
    slowest op (p100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


class Checker:
    """Counts ops and the ones whose output is wrong."""

    def __init__(self, reference: list):
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"op {self.attempted}: {message}")

    def check(self, reports) -> None:
        """Verdicts against the reference, bytes against the first op."""
        for expected, text in zip(self.reference, reports, strict=True):
            problem = fingerprint_mismatch(expected, text)
            if problem is not None:
                self.fail(problem)
                return
        digest = hashlib.sha256("".join(reports).encode()).hexdigest()
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            self.fail("report bytes differ from the first op's")

    def run(self, op):
        """Run one op; None when it raised.

        The previous op's garbage is collected first, untimed, so each op
        starts from a clean heap as a fresh ``verify`` process would.
        """
        gc.collect()
        self.attempted += 1
        try:
            result = op()
        except Exception as err:  # a failing op is counted, not fatal
            self.fail(f"{type(err).__name__}: {err}")
            return None
        self.check(result[2])
        return result


class Calibrated:
    """Runs ops between calibrations, with a probe inside when asked.

    ``units`` keeps every calibration unit time, in order, for the sidecar.
    """

    def __init__(self, checker: Checker):
        self.checker = checker
        self.last = calibrate()
        self.units = list(self.last)

    def run(self, op, probe=True):
        """(wall seconds less the probe's, scaled seconds, result), or None
        when the op raised."""
        sampler = Probe()

        def probed():
            with sampler:
                return op()

        done = self.checker.run(probed if probe else op)
        before, self.last = self.last, calibrate()
        self.units += sampler.units + self.last
        if done is None:
            return None
        seconds = done[0] - sampler.spent
        return seconds, scale(seconds, before + sampler.units + self.last), done


def measure_setup(acm, workload, args):
    """(scaled set-up seconds, raw load seconds); see SETUP_BATCHES."""
    gc.collect()
    before = calibrate()
    batches, loads = [], []
    for _ in range(SETUP_BATCHES):
        batch = [time_setup(acm, workload, args.seed, args.points)
                 for _ in range(SETUP_BATCH)]
        after = calibrate()
        batches.append(scale(statistics.median(batch), before + after))
        loads.extend(batch)
        before = after
    return statistics.median(batches), loads


def run_plain(acm, workload, args, checker):
    """(wall op seconds, scaled op seconds, op set-up seconds, unit times)."""
    runner = Calibrated(checker)
    times, scaled, setups = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not times or time.perf_counter() < deadline:
        done = runner.run(lambda: run_op(acm, workload, args.seed, args.points))
        if done is None:
            if checker.attempted >= 3 and not times:
                break
            continue
        times.append(done[0])
        scaled.append(done[1])
        setups.append(done[2][1])
    return times, scaled, setups, runner.units


def run_traced(acm, workload, args, checker):
    """Alternate plain and traced ops; per-layer metrics of the traced.

    Times are scaled for host speed: the per-layer seconds of a traced op
    by the same factor as the op itself.
    """
    recorder = Recorder()
    runner = Calibrated(checker)
    units = dict(PER_LAYER)
    plain, traced, per_op = [], [], []
    sidecar = {}

    def traced_op():
        undo = install(recorder, acm)
        recorder.reset()
        recorder.keep_spans = not traced
        try:
            return recorder.call("verify", run_op, acm, workload, args.seed,
                                 args.points, recorder)
        finally:
            uninstall(undo)

    def plain_op():
        return run_op(acm, workload, args.seed, args.points)

    deadline = time.perf_counter() + args.seconds
    pair = 0
    while not (plain and traced) or time.perf_counter() < deadline:
        order = (plain_op, traced_op) if pair % 2 == 0 else (traced_op, plain_op)
        pair += 1
        for op in order:
            # a probe would interrupt the spans, so traced ops go without
            done = runner.run(op, probe=op is plain_op)
            if done is None:
                continue
            seconds, scaled, _ = done
            if op is plain_op:
                plain.append(scaled)
                continue
            traced.append(scaled)
            factor = scaled / seconds
            per_op.append({
                name: value * factor if units[name] == "s" else value
                for name, value in op_metrics(recorder).items()
            })
            if len(traced) == 1:
                base = min((s[2] for s in recorder.spans), default=0.0)
                sidecar["spans"] = [
                    [i, name, start - base, end - base, parent]
                    for i, name, start, end, parent in sorted(recorder.spans)
                ]
            sidecar["tallies"] = {
                name: list(t) for name, t in sorted(recorder.stats.items()) if t[0]
            }
        if checker.attempted >= 6 and not (plain and traced):
            break
    if not (plain and traced):
        return plain, traced, {}, sidecar
    # counts repeat exactly from op to op; median_low keeps them integers
    metrics = {
        name: (statistics.median_low if isinstance(value, int)
               else statistics.median)([op[name] for op in per_op])
        for name, value in per_op[0].items()
    }
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    counts = [
        {k: v for k, v in op.items() if isinstance(v, int)} for op in per_op
    ]
    sidecar["counts_repeat"] = all(c == counts[0] for c in counts)
    sidecar["plain_op_scaled_seconds"] = plain
    sidecar["traced_op_scaled_seconds"] = traced
    sidecar["unit_seconds"] = runner.units
    return plain, traced, metrics, sidecar


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--points", type=int, default=None,
                        help="sample count of every item (smoke test sizes)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.points is not None and args.points <= 0:
        parser.error("--points must be positive")

    acm = import_package()
    import numpy

    workload = WORKLOADS[args.workload]
    reference = load_reference()[workload.name]["reports"]
    points = [item.points if args.points is None else args.points
              for item in workload.items]
    meta = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "points": dict(zip((item.name for item in workload.items), points)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        **source_revision(),
    }

    checker = Checker(reference)
    if args.trace == 0:
        calibrate()  # warm-up, untimed
        setup, loads = measure_setup(acm, workload, args)
        times, scaled, op_setups, unit_times = run_plain(acm, workload, args,
                                                         checker)
        if not times:
            print("\n".join(checker.problems), file=sys.stderr)
            return 1
        if checker.first is not None and len(times) == 1:
            # determinism needs a second report; this op is not timed
            checker.run(lambda: run_op(acm, workload, args.seed, args.points))
        tail_value, tail_pct = tail(scaled)
        values = {
            "verify_s.p50": statistics.median(scaled),
            "verify_s.tail": tail_value,
            "points_per_s": sum(points) * len(scaled) / sum(scaled),
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        wall = {
            "verify_s.p50": statistics.median(times),
            "verify_s.tail": tail(times)[0],
            "points_per_s": sum(points) * len(times) / sum(times),
            "setup_s": statistics.median(loads),
        }
        sidecar = {"op_seconds": times, "op_scaled_seconds": scaled,
                   "unit_seconds": unit_times,
                   "reference_s": REFERENCE_S, "wall": wall,
                   "setup_seconds": loads, "op_setup_seconds": op_setups,
                   "tail": {"percentile": tail_pct, "ops": len(times)}}
        notes = [f"verify_s.tail is p{tail_pct:.1f} of {len(times)} ops",
                 f"fail_ratio {checker.failed}/{checker.attempted}",
                 "times scaled for host speed; unscaled wall: " + ", ".join(
                     f"{name} {value:.6g}" for name, value in wall.items()),
                 f"{len(unit_times)} calibration units, median "
                 f"{statistics.median(unit_times):.5f} s "
                 f"(reference {REFERENCE_S} s)"]
    else:
        calibrate()  # warm-up, untimed
        plain, traced, values, sidecar = run_traced(acm, workload, args, checker)
        if not values:
            print("\n".join(checker.problems), file=sys.stderr)
            return 1
        units = dict(PER_LAYER)
        notes = [f"{len(traced)} traced and {len(plain)} plain ops; "
                 f"tracing overhead {values['trace.overhead_s']:+.4f} s per op",
                 f"fail_ratio {checker.failed}/{checker.attempted}"]

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    meta["loadavg_end"] = os.getloadavg()
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"metadata": meta, "result": result,
                   "problems": checker.problems, **sidecar}, fh)

    print(f"# {workload.name} seed {args.seed} points {meta['points']} "
          f"python {meta['python']} numpy {meta['numpy']} nproc {meta['nproc']} "
          f"load {meta['loadavg_start']} -> {meta['loadavg_end']} "
          f"rev {meta['git'][:12]} src {meta['src_sha256'][:12]}")
    for line in notes + checker.problems:
        print(f"# {line}")
    for name, unit in units.items():
        print(f"{workload.name:10s} {name:38s} {values[name]:>14.6g} {unit}")
    print(f"# sidecar {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
