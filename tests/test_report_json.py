"""``report_json`` writes the bytes of the indented pure-Python encoding.

The reference is ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``,
the writer's former body; reports are compared as text, so any moved byte
fails.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from acmsolitons.suites import report_json


def _reference(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# text with the characters json escapes or writes as \uXXXX
_TEXT = st.text(
    alphabet=st.sampled_from(list('ab "\\/\n\t\x00\x7fé€😀{}[],:')) | st.characters(),
    max_size=12,
)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1e-300, 1e300, -1e300, 5e-324, 1.0, 0.1]
)


@st.composite
def _checks(draw):
    check = {
        "id": draw(_TEXT),
        "anchor": draw(_TEXT),
        "points": draw(st.integers(min_value=0, max_value=10 ** 6)),
        "max_residual": draw(_FLOATS),
        "tolerance": draw(_FLOATS),
        "pass": draw(st.booleans()),
    }
    if draw(st.booleans()):
        check["classification"] = draw(_TEXT)
    if draw(st.booleans()):
        check["detail"] = draw(_TEXT)
    return check


@st.composite
def _reports(draw):
    return {
        "fixture": draw(_TEXT),
        "version": "0.5.1",
        "seed": draw(st.integers(min_value=0, max_value=2 ** 63)),
        "points": draw(st.integers(min_value=1, max_value=4096)),
        "a_grid": draw(st.lists(_FLOATS, max_size=4)),
        "suites": draw(st.lists(_TEXT, max_size=3)),
        "all_pass": draw(st.booleans()),
        "checks": draw(st.none() | st.lists(_checks(), max_size=5)),
    }


@settings(max_examples=300, deadline=None)
@given(_reports())
def test_same_bytes_as_the_indented_encoder(report):
    assert report_json(report) == _reference(report)


def test_edge_reports():
    check = {
        "id": 'a"b\\c', "anchor": "R_bar = a R + (a-1) T, é ≤ 1",
        "points": 0, "max_residual": -0.0, "tolerance": 1e-300,
        "pass": False, "detail": "line\nbreak }, {",
    }
    bare = {k: v for k, v in check.items() if k != "detail"}
    for checks in (None, [], [check], [bare, check, dict(check, tolerance=1e300)]):
        report = {"fixture": "x", "a_grid": [0.5, 1.0], "all_pass": True,
                  "checks": checks}
        assert report_json(report) == _reference(report)
    assert report_json({"fixture": "x"}) == _reference({"fixture": "x"})
