#!/usr/bin/env python3
"""Compare the benchmark metrics of two git revisions in alternating runs.

    python3 scripts/perf_ab.py BASE [CHANGE] --workload k5-sweep --pairs 8
    python3 scripts/perf_ab.py BASE --workload k3-dense,controls
    python3 scripts/perf_ab.py BASE --workload all

Each revision is extracted with ``git archive`` into a directory of its
own, so both sides run from the same kind of copy (identical sources read
from the working checkout run measurably slower than from such a copy).
Without CHANGE the change is the working tree, uncommitted work included:
the files git tracks or would track (``git ls-files --cached --others
--exclude-standard``) are copied as they are on disk into a directory of
their own, as ``git archive`` extracts a commit.  Then
``perfbench/worker.py --trace 0`` runs once per revision, pair and
workload (--workload: one name, a comma list, or ``all`` for every
workload of BENCHMARK.json), the two sides alternating which goes first,
every pair at its own seed.  The script prints each pair's
``verify_s.p50`` (scaled for host speed, in ms) and which side was
faster.  Then, per workload and end-to-end metric of BENCHMARK.json, it
prints the median of each side, the pairs the change won (better in the
metric's direction; ties count for neither side) and the distance
between the quartiles of the base's runs, and flags ``WORSE`` a change
median that is worse than the base's by more than the metric's
``bound``, read as a fraction of the base median.  BENCHMARK.json is
only read.  Exit status 1 means some run failed or read an op incorrect,
and 3 that some summary line says ``WORSE``, so the script can gate a
change.

With --dry-run, print the commands instead of running them.
"""

import argparse
import io
import json
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRIC = "verify_s.p50"
WORKTREE = "working tree"


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _workloads(arg: str, benchmark: dict) -> list:
    """The workload names of --workload, in order; ``all`` names every
    workload of the benchmark."""
    known = [w["name"] for w in benchmark["workloads"]]
    names = known if arg == "all" else [n.strip() for n in arg.split(",")]
    unknown = [n for n in names if n not in known]
    if unknown:
        raise ValueError(f"unknown workload {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(known)}, or all")
    return names


def _extract(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True)
    if archive.returncode != 0:
        raise RuntimeError(f"git archive {rev} failed: "
                           f"{archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")


def _copy_worktree(into: Path) -> None:
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], capture_output=True)
    if listed.returncode != 0:
        raise RuntimeError(f"git ls-files failed: "
                           f"{listed.stderr.decode().strip()}")
    for name in listed.stdout.decode().split("\0"):
        source = ROOT / name
        # a tracked file deleted in the working tree is left out
        if name and source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def _worker(args, workload: str, seed: int) -> list:
    cmd = [sys.executable, "perfbench/worker.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    if args.points is not None:
        cmd += ["--points", str(args.points)]
    return cmd


def _run(cmd: list, cwd: Path) -> dict:
    """The end-to-end metrics of one worker run, by name."""
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{shlex.join(cmd)} in {cwd} failed:\n"
                           f"{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{shlex.join(cmd)} in {cwd}: "
                           f"{result['failed']} of {result['attempted']} "
                           "ops incorrect")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _order(pair: int) -> tuple:
    """The sides in the order they run: the base first in even pairs."""
    return ("base", "change") if pair % 2 == 0 else ("change", "base")


def _text(value: float, unit: str) -> str:
    return f"{1e3 * value:.3f} ms" if unit == "s" else f"{value:.6g} {unit}"


def _summary(workload: str, runs: dict, metrics: list) -> list:
    """Per end-to-end metric, the lines comparing the two sides' runs of
    one workload."""
    lines = []
    for m in metrics:
        if m["name"] not in runs["base"][0]:
            continue
        base = [run[m["name"]] for run in runs["base"]]
        change = [run[m["name"]] for run in runs["change"]]
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        b, c = statistics.median(base), statistics.median(change)
        line = (f"{workload} {m['name']}: base {_text(b, m['unit'])}, change "
                f"{_text(c, m['unit'])}, change better in {wins} of "
                f"{len(base)} pairs")
        if len(base) >= 2:
            q1, _, q3 = statistics.quantiles(base, n=4)
            line += f", base interquartile distance {_text(q3 - q1, m['unit'])}"
        if sign * (c - b) > m["bound"] * abs(b):
            line += f"; WORSE by more than its bound {m['bound']:g}"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("change", nargs="?", default=None,
                        help="git revision of the change (default: the "
                        "working tree, uncommitted work included)")
    parser.add_argument("--workload", default="k5-sweep",
                        help="a workload, a comma list of them, or all")
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measuring time of each run")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i runs seed + i")
    parser.add_argument("--points", type=int, default=None,
                        help="sample count of every fixture")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the commands, run nothing")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    benchmark = _benchmark()
    try:
        workloads = _workloads(args.workload, benchmark)
    except ValueError as err:
        parser.error(str(err))
    revs = {"base": args.base, "change": args.change or WORKTREE}

    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in revs}
        if args.dry_run:
            for side, rev in revs.items():
                print(f"git ls-files --cached --others --exclude-standard | "
                      f"copy into {dirs[side]}" if rev == WORKTREE
                      else f"git archive {rev} | tar -x -C {dirs[side]}")
            for pair in range(args.pairs):
                for workload in workloads:
                    for side in _order(pair):
                        cmd = shlex.join(
                            _worker(args, workload, args.seed + pair))
                        print(f"(cd {dirs[side]} && {cmd})")
            return 0
        try:
            for side, rev in revs.items():
                if rev == WORKTREE:
                    _copy_worktree(dirs[side])
                else:
                    _extract(rev, dirs[side])
            runs = {w: {side: [] for side in revs} for w in workloads}
            for pair in range(args.pairs):
                seed = args.seed + pair
                for workload in workloads:
                    for side in _order(pair):
                        runs[workload][side].append(
                            _run(_worker(args, workload, seed), dirs[side]))
                    base, change = (runs[workload][side][-1][METRIC]
                                    for side in revs)
                    print(f"pair {pair + 1} seed {seed} {workload}: base "
                          f"{1e3 * base:.3f} ms, change {1e3 * change:.3f} ms "
                          f"({'change' if change < base else 'base'} faster)",
                          flush=True)
        except RuntimeError as err:
            print(err, file=sys.stderr)
            return 1

    print(f"base {revs['base']}, change {revs['change']}")
    worse = False
    for workload in workloads:
        for line in _summary(workload, runs[workload],
                             benchmark["end_to_end"]):
            print(line)
            worse |= "WORSE" in line
    return 3 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
