"""Golden verdicts: each builtin's checks at its default config.

``tests/data/golden_checks.json`` pins, per builtin fixture, every check's
id, anchor, tolerance, point count, verdict, classification and detail.
``max_residual`` is left out, and every ``%.3e`` number inside a detail is
masked, so the file pins what a check claims and decides, not the rounding
of its residual.

Regenerate the data (only when a change of verdicts is intended) with

    PYTHONPATH=src python tests/test_report_golden.py
"""

import json
import re
from pathlib import Path

import pytest

from acmsolitons.config import builtin_config, builtin_names
from acmsolitons.suites import run_suites

DATA = Path(__file__).parent / "data" / "golden_checks.json"

_SCI = re.compile(r"-?\d\.\d{3}e[+-]\d{2,3}")


def _pinned(check) -> dict:
    out = {
        "id": check.check_id,
        "anchor": check.anchor,
        "tolerance": float(check.tolerance),
        "points": int(check.points),
        "pass": bool(check.passed),
        "classification": check.classification,
        "detail": check.detail,
    }
    if check.detail is not None:
        out["detail"] = _SCI.sub("<num>", check.detail)
    return out


def golden(name: str) -> list:
    return [_pinned(c) for c in run_suites(builtin_config(name))]


@pytest.fixture(scope="module")
def expected():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_every_builtin_is_pinned(expected):
    assert sorted(expected) == sorted(builtin_names())


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_checks_match_golden(expected, name):
    got = golden(name)
    want = expected[name]
    assert [c["id"] for c in got] == [c["id"] for c in want]
    for g, w in zip(got, want):
        assert g == w, g["id"]


def test_mask_keeps_text_and_hides_numbers():
    detail = "max |Lap_bar f| = 1.234e-05 at a = 2; condition residual = 0.000e+00"
    assert _SCI.sub("<num>", detail) == (
        "max |Lap_bar f| = <num> at a = 2; condition residual = <num>"
    )


if __name__ == "__main__":
    # one check per line, so a change of verdicts reads as a short diff
    blocks = [
        f"{json.dumps(name)}: [\n"
        + ",\n".join(json.dumps(c, sort_keys=True) for c in golden(name))
        + "\n]"
        for name in builtin_names()
    ]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
