"""The one function that turns suite claims into checks, on synthetic data."""

import numpy as np
import pytest

from acmsolitons.geometry import Samples, with_a
from acmsolitons.suites import Claim, SuiteError, _closed_tol, _emit

GRID = np.array([0.5, 1.0, 2.0])
N = 4


@pytest.fixture
def batch():
    """An (A, N) batch: three values of a over four samples."""
    return with_a(Samples({"x": np.array([0.0, 0.25, 0.5, 0.75])}), GRID)


def _by_id(checks):
    return {c.check_id: c for c in checks}


def test_one_check_per_row_of_a(batch):
    residual = np.array([[1e-3, 2e-3, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 5e-9],
                         [0.0, 0.0, 0.0, 0.0]])
    checks = _by_id(_emit(batch, "s", None, [Claim("k", "A", 1e-8, residual)]))
    assert sorted(checks) == ["s/k[a=0.5]", "s/k[a=1]", "s/k[a=2]"]
    worst = checks["s/k[a=0.5]"]
    assert (worst.max_residual, worst.passed, worst.points) == (2e-3, False, N)
    assert worst.anchor == "A" and worst.detail is None
    assert checks["s/k[a=1]"].max_residual == 5e-9
    assert checks["s/k[a=1]"].passed
    assert checks["s/k[a=2]"].max_residual == 0.0


def test_base_batch_has_one_untagged_row():
    base = Samples({"x": np.linspace(0.0, 0.3, N)})
    (check,) = _emit(base, "s", None, [Claim("k", "A", 1e-8, np.full(N, 1e-9))])
    assert check.check_id == "s/k"
    assert check.max_residual == 1e-9 and check.passed


def test_repeated_key_takes_the_larger_residual(batch):
    claims = [
        Claim("k", "A", 1e-8, np.array([[1e-9], [3e-9], [0.0]])),
        Claim("k", "A", 1e-8, np.array([[2e-9], [1e-9], [4e-9]])),
    ]
    checks = _emit(batch, "s", None, claims)
    assert [c.max_residual for c in sorted(checks, key=lambda c: c.check_id)] \
        == [2e-9, 3e-9, 4e-9]


def test_tolerance_may_depend_on_a(batch):
    checks = _by_id(_emit(batch, "s", None, [
        Claim("k", "A", _closed_tol, np.full((3, N), 1e-10)),
    ]))
    assert checks["s/k[a=1]"].tolerance == 1e-12
    assert not checks["s/k[a=1]"].passed
    assert checks["s/k[a=0.5]"].tolerance == 1e-8
    assert checks["s/k[a=2]"].passed


def test_override_replaces_every_tolerance(batch):
    claims = [
        Claim("k", "A", _closed_tol, np.full((3, N), 1e-10)),
        Claim("j", "B", 1e-9, 0.0),
        Claim("m", "C", 1e-9, 1e-10, np.zeros((3, N), dtype=bool)),
    ]
    checks = _emit(batch, "s", 1e-11, claims)
    assert len(checks) == 9
    assert {c.tolerance for c in checks} == {1e-11}
    assert [c.passed for c in checks if c.check_id.startswith("s/k")] \
        == [False] * 3


def test_vacuous_and_partial_applicability(batch):
    applies = np.array([[False] * N,
                        [True, False, True, False],
                        [True] * N])
    residual = np.array([[9.0] * N,
                         [1e-10, 9.0, 2e-10, 9.0],
                         [3e-10] * N])
    checks = _by_id(_emit(batch, "s", None, [
        Claim("k", "A", 1e-9, residual, applies, hypothesis="hypothesis P"),
    ]))
    vacuous = checks["s/k[a=0.5]"]
    assert (vacuous.points, vacuous.max_residual, vacuous.passed) == (0, 0.0, True)
    assert vacuous.detail == "hypothesis P fails at every sample; no claim checked"
    partial = checks["s/k[a=1]"]
    assert (partial.points, partial.max_residual, partial.passed) == (2, 2e-10, True)
    assert partial.detail == f"checked at 2 of {N} samples"
    full = checks["s/k[a=2]"]
    assert (full.points, full.detail) == (N, None)


def test_default_hypothesis_text(batch):
    (check, *_) = _emit(batch, "s", None, [
        Claim("k", "A", 1e-9, 0.0, np.zeros(N, dtype=bool)),
    ])
    assert check.detail == "hypothesis fails at every sample; no claim checked"


def test_labels_classify_each_row(batch):
    labels = np.array([["steady"] * N,
                       ["steady", "shrinking", "steady", "steady"],
                       ["expanding"] * N])
    checks = _by_id(_emit(batch, "s", None, [
        Claim("k", "A", 1e-8, 0.0, labels=labels),
        Claim("j", "B", 1e-8, 0.0),
    ]))
    assert checks["s/k[a=0.5]"].classification == "steady"
    assert checks["s/k[a=1]"].classification == "mixed"
    assert checks["s/k[a=2]"].classification == "expanding"
    assert checks["s/j[a=1]"].classification is None


def test_nan_names_check_row_and_sample(batch):
    residual = np.zeros((3, N))
    residual[2, 1] = np.nan
    with pytest.raises(SuiteError) as info:
        _emit(batch, "s", None, [
            Claim("ok", "A", 1e-8, 0.0),
            Claim("k", "B", 1e-8, residual),
        ])
    message = str(info.value)
    assert "check s/k[a=2] has residual nan" in message
    assert "at sample {'x': 0.25} [a=2]" in message


def test_nan_where_hypothesis_fails_is_ignored(batch):
    residual = np.full((3, N), np.nan)
    applies = np.zeros((3, N), dtype=bool)
    checks = _emit(batch, "s", None, [Claim("k", "A", 1e-8, residual, applies)])
    assert all(c.passed and c.points == 0 for c in checks)
