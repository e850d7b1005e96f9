"""Which non-finite residual a soliton suite refuses first.

A soliton suite checks each candidate on the base frame and on the
deformed (A, N) frame, then the Reeb, solenoidal and orthogonal claims on
the deformed frame.  When several residuals are non-finite, the refusal
names the first of them in that order (each candidate's base frame, then
its deformed frame, candidates in config order, the frame-wide claims
last), and inside one of them the earliest (a, sample).  The texts below
were read from the suites as they stood when every candidate and frame
was reduced on its own, and must not move.
"""

import numpy as np
import pytest

from acmsolitons import builtin_config, suites
from acmsolitons.expr import EvalError, parse_expr
from acmsolitons.suites import SuiteError, run_suites

RESIDUALS = suites.soliton_residuals
XI_COMPATIBILITY = suites.xi_compatibility


def _config(kind):
    config = builtin_config("kenmotsu3")
    config.points = 4
    config.suites = (f"{kind}-solitons",)
    return config


def _poison(monkeypatch, spots):
    """Make ``soliton_residuals`` read NaN at each (candidate, frame, key,
    flat index) of ``spots``; frame is "base" or "deformed"."""
    def poisoned(frame, cand, at):
        res = dict(RESIDUALS(frame, cand, at))
        where = "deformed" if len(at.shape) > 1 else "base"
        for name, on, key, index in spots:
            if (name, on) == (cand.name, where):
                values = np.array(np.broadcast_to(res[key], at.shape), dtype=float)
                values.flat[index] = np.nan
                res[key] = values
        return res

    monkeypatch.setattr(suites, "soliton_residuals", poisoned)


def _refusal(kind):
    with pytest.raises(SuiteError) as info:
        run_suites(_config(kind))
    return str(info.value)


# the four samples of kenmotsu3 at seed 42, as refusals name them
SAMPLES = [
    "{'x': 0.5479120971119267, 'y': -0.12224312049589536, 'z': 2.03738760789809}",
    "{'x': 0.3947360581187278, 'y': -0.8116453042247009, 'z': 2.1719657043822695}",
    "{'x': 0.5222794039807059, 'y': 0.5721286105539076, 'z': 1.1973306775768777}",
    "{'x': -0.09922812420886573, 'y': -0.25840395153483753, 'z': 2.115779737175892}",
]


def _text(kind, check, sample, a):
    return (f"suite {kind}-solitons: check {kind}-soliton/{check} has "
            f"residual nan at sample {SAMPLES[sample]} [a={a}]")


# (kind, spots: (candidate, frame, key, flat index), the refusal's text);
# a flat index on the deformed frame is row * 4 + sample, rows a = 0.5, 1,
# 2 and 3.7
CASES = [
    ("riemann", [("riemann-grad", "base", "full", 2)],
     _text("riemann", "riemann-grad/full", 2, 1)),
    ("riemann", [("riemann-vector", "deformed", "scalar", 9)],
     _text("riemann", "riemann-vector/scalar[a=2]", 1, 2)),
    # the earlier candidate's base frame wins over a later candidate's
    # earlier sample
    ("riemann", [("riemann-grad", "base", "traced", 3),
                 ("riemann-vector", "base", "full", 0)],
     _text("riemann", "riemann-grad/traced", 3, 1)),
    # two candidates on both frames: the first candidate's deformed frame
    # comes before the second's base frame, whatever the samples
    ("riemann", [("riemann-grad", "deformed", "full", 15),
                 ("riemann-vector", "base", "full", 0),
                 ("riemann-vector", "deformed", "scalar", 0)],
     _text("riemann", "riemann-grad/full[a=3.7]", 3, 3.7)),
    # inside one frame, the earliest (a, sample), then the first claim
    ("riemann", [("riemann-grad", "deformed", "full", 8),
                 ("riemann-grad", "deformed", "scalar", 7),
                 ("riemann-grad", "deformed", "lambda", 7)],
     _text("riemann", "riemann-grad/scalar[a=1]", 3, 1)),
    ("ricci", [("ricci-grad", "base", "scalar", 1)],
     _text("ricci", "ricci-grad/scalar", 1, 1)),
    ("ricci", [("ricci-vector", "deformed", "full", 12)],
     _text("ricci", "ricci-vector/full[a=3.7]", 0, 3.7)),
    ("ricci", [("ricci-grad", "deformed", "lambda", 13),
               ("ricci-vector", "base", "full", 0),
               ("ricci-vector", "deformed", "full", 0)],
     _text("ricci", "ricci-grad/lambda-gradient[a=3.7]", 1, 3.7)),
    ("ricci", [("ricci-vector", "base", "scalar", 3),
               ("ricci-vector", "deformed", "scalar", 0)],
     _text("ricci", "ricci-vector/scalar", 3, 1)),
]


@pytest.mark.parametrize(
    "kind, spots, text", CASES,
    ids=[f"{kind}-{len(spots)}-{i}" for i, (kind, spots, _) in enumerate(CASES)],
)
def test_first_refusal(monkeypatch, kind, spots, text):
    _poison(monkeypatch, spots)
    assert _refusal(kind) == text


def test_candidates_come_before_the_frame_wide_claims(monkeypatch):
    _poison(monkeypatch, [("riemann-vector", "deformed", "traced", 14)])
    def poisoned(kind, structure, point):
        res = dict(XI_COMPATIBILITY(kind, structure, point))
        res["premise_residual"] = np.full(point.shape, np.nan)
        return res

    monkeypatch.setattr(suites, "xi_compatibility", poisoned)
    assert _refusal("riemann") == _text(
        "riemann", "riemann-vector/traced[a=3.7]", 2, 3.7
    )
    _poison(monkeypatch, [])
    assert _refusal("riemann") == _text(
        "riemann", "reeb-compatibility[a=0.5]", 0, 0.5
    )


def test_a_residual_refused_before_a_later_failure(monkeypatch):
    """A non-finite candidate residual is refused even when a claim
    computed after it fails to evaluate."""
    _poison(monkeypatch, [("ricci-vector", "deformed", "full", 5)])

    def failing(kind, structure, f, point):
        raise EvalError("log of a non-positive value", parse_expr("log(x)"))

    monkeypatch.setattr(suites, "orthogonal_gradient_values", failing)
    assert _refusal("ricci") == _text(
        "ricci", "ricci-vector/full[a=1]", 1, 1
    )
    _poison(monkeypatch, [])
    assert _refusal("ricci") == (
        "suite ricci-solitons: log of a non-positive value in 'log(x)'"
    )
