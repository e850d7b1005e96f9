"""The maintenance scripts under scripts/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

from acmsolitons.config import builtin_names

ROOT = Path(__file__).resolve().parents[1]


def test_run_all_checks_keeps_negative_controls_negative():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_checks.py"),
         "--points", "8"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = {
        line.split()[0]: line for line in proc.stdout.splitlines() if line
    }
    assert sorted(verdicts) == sorted(builtin_names())
    for line in verdicts.values():
        assert line.endswith("as intended"), line
