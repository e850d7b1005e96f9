#!/usr/bin/env python3
"""Compare the benchmark time of two git revisions in alternating runs.

    python3 scripts/perf_ab.py BASE [CHANGE] --workload k5-sweep --pairs 8

Each revision is extracted with ``git archive`` into a directory of its
own, so both sides run from the same kind of copy (identical sources read
from the working checkout run measurably slower than from such a copy).
Without CHANGE the change is the working tree, uncommitted work included:
the files git tracks or would track (``git ls-files --cached --others
--exclude-standard``) are copied as they are on disk into a directory of
their own, as ``git archive`` extracts a commit.  Then ``perfbench/worker.py --trace 0`` runs once per revision and pair,
the two sides alternating which goes first, every pair at its own seed.
The script prints each pair's ``verify_s.p50`` (scaled for host speed,
in ms), which side was faster, the number of pairs the change won, the
median of each side and the distance between the quartiles of the base's
runs, then each side's median of every other end-to-end metric.  Exit
status 1 means some run failed or read an op incorrect.

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


def _worker(args, seed: int) -> list:
    cmd = [sys.executable, "perfbench/worker.py", "--workload", args.workload,
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("change", nargs="?", default=None,
                        help="git revision of the change (default: the "
                        "working tree, uncommitted work included)")
    parser.add_argument("--workload", default="k5-sweep")
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
    revs = {"base": args.base, "change": args.change or WORKTREE}

    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in revs}
        if args.dry_run:
            for side, rev in revs.items():
                print(f"git ls-files --cached --others --exclude-standard | "
                      f"copy into {dirs[side]}" if rev == WORKTREE
                      else f"git archive {rev} | tar -x -C {dirs[side]}")
            for pair in range(args.pairs):
                for side in _order(pair):
                    cmd = shlex.join(_worker(args, args.seed + pair))
                    print(f"(cd {dirs[side]} && {cmd})")
            return 0
        try:
            for side, rev in revs.items():
                if rev == WORKTREE:
                    _copy_worktree(dirs[side])
                else:
                    _extract(rev, dirs[side])
            runs = {side: [] for side in revs}
            for pair in range(args.pairs):
                seed = args.seed + pair
                for side in _order(pair):
                    runs[side].append(_run(_worker(args, seed), dirs[side]))
                base, change = (runs[side][-1][METRIC] for side in revs)
                print(f"pair {pair + 1} seed {seed}: base {1e3 * base:.3f} ms, "
                      f"change {1e3 * change:.3f} ms "
                      f"({'change' if change < base else 'base'} faster)",
                      flush=True)
        except RuntimeError as err:
            print(err, file=sys.stderr)
            return 1

    times = {side: [run[METRIC] for run in runs[side]] for side in revs}
    wins = sum(c < b for b, c in zip(times["base"], times["change"]))
    print(f"{args.workload} {METRIC}: change faster in {wins} of "
          f"{args.pairs} pairs")
    for side, rev in revs.items():
        print(f"{side} {rev}: median {1e3 * statistics.median(times[side]):.3f} ms")
    if args.pairs >= 2:
        q1, _, q3 = statistics.quantiles(times["base"], n=4)
        print(f"base interquartile distance {1e3 * (q3 - q1):.3f} ms")
    for name in runs["base"][0]:
        if name != METRIC:
            print(f"{name} median: " + ", ".join(
                f"{side} {statistics.median(run[name] for run in runs[side]):.6g}"
                for side in revs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
