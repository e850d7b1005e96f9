#!/usr/bin/env python3
"""Hash the JSON report of repeated identical runs.

All hashes must agree; any drift means nondeterminism crept into
sampling, iteration order, or serialization.

With --digests, print instead one sha256 per built-in fixture and per
--config file (which may then be given more than once), at the fixture's
own point count and at --points (default 256), one report each.  Two
checkouts that write the same report bytes print the same lines, so
comparing them is one diff of the two outputs.

With --against REV, make that comparison: extract src/ of the git
revision REV with ``git archive`` into a temporary directory, print the
--digests lines of both trees (each in a subprocess), and print per
(fixture, points) line whether the two reports are the ``same`` or
``differ``, naming the fixtures found on one side only.  Exit status 1
means some report differs.
"""

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from acmsolitons.config import (
    ConfigError, builtin_config, builtin_names, load_config,
)
from acmsolitons.suites import build_report, report_json, run_suites

_DIGEST_POINTS = 256


def _digest(config) -> tuple:
    text = report_json(build_report(config, run_suites(config)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), len(text)


def _digest_lines(src, args) -> dict:
    """The --digests lines of the package under ``src``, run in a
    subprocess, as "<fixture> <count> points" -> sha256, in printed order."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--digests", *args],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"--digests failed on {src}:\n{proc.stderr}")
    return dict(line.split(": sha256 ") for line in proc.stdout.splitlines())


def _against(rev: str, args) -> int:
    """Print, per --digests line of this tree or of ``rev``, whether the
    two reports are the same; 1 if any differs, 2 if either side fails."""
    root = Path(__file__).resolve().parents[1]
    archive = subprocess.run(["git", "-C", str(root), "archive", rev, "src"],
                             capture_output=True)
    try:
        if archive.returncode != 0:
            raise RuntimeError(f"git archive {rev} failed: "
                               f"{archive.stderr.decode().strip()}")
        with tempfile.TemporaryDirectory() as tmp:
            with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
                tar.extractall(tmp, filter="data")
            theirs = _digest_lines(Path(tmp) / "src", args)
        ours = _digest_lines(root / "src", args)
    except RuntimeError as err:
        print(err, file=sys.stderr)
        return 2
    differ = False
    for key in list(ours) + [k for k in theirs if k not in ours]:
        if key in ours and key in theirs:
            differ = differ or ours[key] != theirs[key]
            print(f"{key}: {'same' if ours[key] == theirs[key] else 'differs'}")
        else:
            print(f"{key}: only in {'this tree' if key in ours else rev}")
    return 1 if differ else 0


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
    parser.add_argument("--against", metavar="REV",
                        help="compare the --digests lines of this tree with "
                             "those of git revision REV")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to compare reports")
    if args.points is not None and args.points < 1:
        parser.error("--points must be at least 1")
    configs = args.config or []
    if args.digests and args.fixture is not None:
        parser.error("--digests covers every built-in fixture; "
                     "drop --fixture")
    if not (args.digests or args.against) and len(configs) > 1:
        parser.error("--config may be given more than once only "
                     "with --digests or --against")

    def load(path):
        try:
            return load_config(path)
        except ConfigError as err:
            parser.error(str(err))

    if args.against is not None:
        if args.fixture is not None:
            parser.error("--against covers every built-in fixture; "
                         "drop --fixture")
        passed = []
        for path in configs:
            load(path)
            passed += ["--config", str(Path(path).resolve())]
        if args.points is not None:
            passed += ["--points", str(args.points)]
        return _against(args.against, passed)

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
