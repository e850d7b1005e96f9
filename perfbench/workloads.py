"""Workload definitions, the verify operation, and the verdict fingerprint.

One op is what a user pays for on each ``verify`` invocation: build a fresh
``VerificationConfig`` (so every per-chart cache starts cold), then
``run_suites``, ``build_report`` and ``report_json``.  A workload is a tuple
of items; one op runs every item of its workload once.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


@dataclass(frozen=True)
class Item:
    """One fixture run inside an op; suites and a grid are the fixture's."""

    name: str
    points: int
    builtin: bool = True

    def load(self, acm, seed: int, points: int = None):
        """A fresh config for this item, with the op's seed and size."""
        if self.builtin:
            config = acm.builtin_config(self.name)
        else:
            config = acm.load_config(HERE / "fixtures" / f"{self.name}.ini")
        config.seed = seed
        config.points = self.points if points is None else points
        return config


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items: tuple
    smoke_points: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "k3-dense",
            "kenmotsu3, 8 suites, 256 points: per-point evaluation "
            "(evaluate, metric_at, curvature_bundle, residuals) dominates",
            (Item("kenmotsu3", 256),),
            smoke_points=3,
        ),
        Workload(
            "k5-sweep",
            "5-d kenmotsu5, 8 suites, 16 points, 8 a values: per-frame work "
            "(deform, 625 second partials per point) dominates",
            (Item("kenmotsu5", 16, builtin=False),),
            smoke_points=2,
        ),
        Workload(
            "controls",
            "euclidean3 then sphere2 at 1024 points: refusal paths (gate, "
            "requires-structure) with no deformation",
            (Item("euclidean3", 1024), Item("sphere2", 1024)),
            smoke_points=8,
        ),
    )
}


def _plain(name, fn, *args):
    return fn(*args)


def run_op(acm, workload: Workload, seed: int, points: int = None,
           recorder=None):
    """Run one verify op; return (wall seconds, setup seconds, reports).

    ``reports`` holds the JSON text of each item's report, produced inside
    the timed region so the serialization cost is paid.  With a recorder,
    each call the benchmark makes into the package is a span.
    """
    call = _plain if recorder is None else recorder.call
    clock = time.perf_counter
    setup = 0.0
    reports = []
    start = clock()
    for item in workload.items:
        t0 = clock()
        config = call("config.load", item.load, acm, seed, points)
        setup += clock() - t0
        checks = call("suites.run_suites", acm.run_suites, config)
        report = call("suites.build_report", acm.build_report, config, checks)
        reports.append(call("suites.report_json", acm.report_json, report))
    return clock() - start, setup, reports


def time_setup(acm, workload: Workload, seed: int,
               points: int = None) -> float:
    """Seconds to load every item's config, the set-up part of one op."""
    start = time.perf_counter()
    for item in workload.items:
        item.load(acm, seed, points)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# verdict fingerprint

def fingerprint(report: dict) -> dict:
    """Verdicts of one report, without residual values.

    A check's point count is written "all" when it equals the sample count,
    so one fingerprint serves every size at which the verdicts agree.
    """
    total = report["points"]
    return {
        "fixture": report["fixture"],
        "all_pass": report["all_pass"],
        "checks": [
            [
                c["id"],
                c["pass"],
                c.get("classification"),
                "all" if c["points"] == total else c["points"],
            ]
            for c in sorted(report["checks"], key=lambda c: c["id"])
        ],
    }


def fingerprint_mismatch(expected: dict, report_text: str):
    """None when the report's verdicts match ``expected``, else a message."""
    got = fingerprint(json.loads(report_text))
    if got == expected:
        return None
    if got["all_pass"] != expected["all_pass"]:
        return (f"{got['fixture']}: all_pass {got['all_pass']}, "
                f"expected {expected['all_pass']}")
    want = {c[0]: c for c in expected["checks"]}
    have = {c[0]: c for c in got["checks"]}
    for cid in sorted(set(want) | set(have)):
        if want.get(cid) != have.get(cid):
            return f"{got['fixture']}: {cid}: {have.get(cid)} != {want.get(cid)}"
    return f"{got['fixture']}: fingerprint differs"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
