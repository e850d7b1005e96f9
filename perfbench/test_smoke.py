"""Smoke test of the benchmark: every workload at tiny sizes.

Checks the result schema against BENCHMARK.json and the correctness gate;
no timing value is asserted.  Run with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, calibrate, scale  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from worker import END_TO_END, tail  # noqa: E402
from workloads import WORKLOADS, fingerprint_mismatch, load_reference  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace),
                     "--points", str(WORKLOADS[workload].smoke_points))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= (1 if trace == 0 else 2)
    declared = BENCHMARK["end_to_end" if trace == 0 else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert not isinstance(metric["value"], bool)


def test_benchmark_json_matches_the_code():
    for listed in BENCHMARK["workloads"]:
        assert listed["why"] == WORKLOADS[listed["name"]].why
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def _report_from(expected, points=8):
    """A report whose verdicts are exactly ``expected``."""
    return {
        "fixture": expected["fixture"],
        "points": points,
        "all_pass": expected["all_pass"],
        "checks": [
            {"id": cid, "pass": ok, "points": points if n == "all" else n,
             "max_residual": 0.0,
             **({} if cls is None else {"classification": cls})}
            for cid, ok, cls, n in expected["checks"]
        ],
    }


@pytest.mark.parametrize("change", ("pass", "classification", "points", "drop"))
def test_a_changed_verdict_is_a_mismatch(change):
    expected = load_reference()["k3-dense"]["reports"][0]
    report = _report_from(expected)
    assert fingerprint_mismatch(expected, json.dumps(report)) is None
    soliton = next(c for c in report["checks"] if "classification" in c)
    if change == "pass":
        soliton["pass"] = False
    elif change == "classification":
        soliton["classification"] = "mixed"
    elif change == "points":
        soliton["points"] -= 1
    else:
        report["checks"].remove(soliton)
    problem = fingerprint_mismatch(expected, json.dumps(report))
    assert problem is not None and soliton["id"] in problem


def test_controls_reference_fails_as_intended():
    for fp in load_reference()["controls"]["reports"]:
        assert fp["all_pass"] is False
        gates = [c for c in fp["checks"]
                 if c[0].endswith(("/kenmotsu-gate", "/requires-structure"))]
        assert gates and not any(c[1] for c in gates)


def test_tail_is_the_highest_percentile_with_ten_ops_above():
    assert tail(list(range(20))) == (9, 50.0)
    assert tail(list(range(100))) == (89, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_scaling_divides_out_host_speed():
    assert scale(2.0, [REFERENCE_S]) == pytest.approx(2.0)
    # a host half as fast doubles the op and the calibrations alike
    assert scale(4.0, [2 * REFERENCE_S] * 3) == pytest.approx(2.0)
    assert scale(3.0, [REFERENCE_S, 2 * REFERENCE_S]) == pytest.approx(2.0)
    assert all(seconds > 0.0 for seconds in calibrate())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "controls", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
