"""``report_json`` writes the bytes of the indented pure-Python encoding.

The reference is ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``,
the writer's former body; reports are compared as text, so any moved byte
fails.
"""

import json
import math

import numpy as np
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


# small pools, so that the writer's memos of heads and float texts hit
_POOL_TEXT = st.sampled_from(
    ["A", "R_bar = a R + (a-1) T, é ≤ 1", 'q"\\/', "\x00\x1f\x7f\n\t", "😀", ""]
)
_POOL_FLOAT = st.sampled_from([
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5,
    123456789012345680.0, 1e-8, 2.5, -1e300,
])


@st.composite
def _pooled_checks(draw):
    check = {
        "id": draw(_POOL_TEXT),
        "anchor": draw(_POOL_TEXT),
        "points": draw(st.sampled_from([0, 16, 2 ** 70])),
        "max_residual": draw(_POOL_FLOAT),
        "tolerance": draw(_POOL_FLOAT),
        "pass": draw(st.booleans()),
    }
    for key in ("classification", "detail"):
        if draw(st.booleans()):
            check[key] = draw(_POOL_TEXT)
    return check


# ways a check dict can fail to be schema-shaped, each taking json's path
_NOT_SCHEMA = [
    lambda c: {**c, "extra": 1},
    lambda c: {k: v for k, v in c.items() if k != "points"},
    lambda c: {k: v for k, v in c.items() if k != "anchor"},
    lambda c: {**c, "classification": None},
    lambda c: {**c, "detail": ["a", {"b": -0.0}]},
    lambda c: {**c, "anchor": ["unhashable"]},
    lambda c: {**c, "points": True},
    lambda c: {**c, "points": 16.0},
    lambda c: {**c, "max_residual": 1},
    lambda c: {**c, "tolerance": np.float64(1e-8)},
    lambda c: {**c, "pass": 1},
    lambda c: {**c, "id": _Text("subclassed")},
    lambda c: _Dict(c),
    lambda c: [c["id"], c["max_residual"]],
    lambda c: c["id"],
    lambda c: {},
]


class _Text(str):
    pass


class _Dict(dict):
    pass


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(_pooled_checks(), st.none() | st.sampled_from(_NOT_SCHEMA)),
    min_size=1, max_size=12,
))
def test_pooled_checks_hit_the_memos(drawn):
    checks = [check if spoil is None else spoil(check) for check, spoil in drawn]
    report = {"fixture": "x", "a_grid": [0.5, -0.0], "checks": checks}
    assert report_json(report) == _reference(report)


def test_signed_zeros_in_either_order():
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        checks = [
            {"id": f"c{i}", "anchor": "A", "points": 1, "max_residual": x,
             "tolerance": y, "pass": True}
            for i, (x, y) in enumerate([(first, second), (second, first),
                                        (first, first), (second, second)])
        ]
        report = {"checks": checks}
        text = report_json(report)
        assert text == _reference(report)
        assert text.count('"max_residual": -0.0,') == 2
        assert text.count('"tolerance": -0.0\n') == 2


def test_non_finite_and_changing_forms():
    values = [math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5,
              123456789012345680.0]
    checks = [
        {"id": f"c{i}{j}", "anchor": "A", "points": 1, "max_residual": x,
         "tolerance": y, "pass": False, "detail": "d"}
        for i, x in enumerate(values) for j, y in enumerate(values)
    ]
    report = {"checks": checks}
    text = report_json(report)
    assert text == _reference(report)
    for form in ("NaN", "Infinity", "-Infinity", "5e-324", "1e+16", "1e-05",
                 "1.2345678901234568e+17"):
        assert f'"max_residual": {form},' in text
        assert f'"tolerance": {form}\n' in text


def test_text_escapes_in_every_field():
    odd = "é ≤ 😀 \x00\x01\x1f\x7f   \\ \" /\n\r\t\b\f"
    check = {"id": odd, "anchor": odd, "points": 3, "max_residual": 1.5,
             "tolerance": 2.0, "pass": True, "classification": odd,
             "detail": odd}
    report = {"checks": [check, dict(check, id="second")]}
    assert report_json(report) == _reference(report)


def test_other_check_containers_take_json():
    check = {"id": "c", "anchor": "A", "points": 1, "max_residual": 0.5,
             "tolerance": 1.0, "pass": True}
    for checks in ((check, check), {"c": check}, "checks", 3):
        report = {"fixture": "x", "checks": checks}
        assert report_json(report) == _reference(report)
