"""The one function that turns suite claims into checks, on synthetic data.

``_worst`` reduces a suite's claims stacked into one array, to columns;
the per-claim loop it replaced is kept below as ``_reference_worst``, and
the two must give the same worst values bit for bit, the same counts and
the same SuiteError text.  ``_emit`` builds each key's checks from those
columns; the emitter it replaced, one branch per key and row over
per-key dicts, is kept below as ``_reference_emit``, and the two must
give equal checks, floats equal to the bit, or the same SuiteError text.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acmsolitons import load_config, suites
from acmsolitons.expr import A, a_tag, locate
from acmsolitons.geometry import Samples, with_a
from acmsolitons.suites import (
    CheckResult, Claim, SuiteError, _closed_tol, _emit, _worst, run_suites,
)

ROOT = Path(__file__).resolve().parents[1]

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
    checks = _by_id(_emit(batch, "s", [Claim("k", "A", 1e-8, residual)]))
    assert sorted(checks) == ["s/k[a=0.5]", "s/k[a=1]", "s/k[a=2]"]
    worst = checks["s/k[a=0.5]"]
    assert (worst.max_residual, worst.passed, worst.points) == (2e-3, False, N)
    assert worst.anchor == "A" and worst.detail is None
    assert checks["s/k[a=1]"].max_residual == 5e-9
    assert checks["s/k[a=1]"].passed
    assert checks["s/k[a=2]"].max_residual == 0.0


def test_base_batch_has_one_untagged_row():
    base = Samples({"x": np.linspace(0.0, 0.3, N)})
    (check,) = _emit(base, "s", [Claim("k", "A", 1e-8, np.full(N, 1e-9))])
    assert check.check_id == "s/k"
    assert check.max_residual == 1e-9 and check.passed


def test_repeated_key_takes_the_larger_residual(batch):
    claims = [
        Claim("k", "A", 1e-8, np.array([[1e-9], [3e-9], [0.0]])),
        Claim("k", "A", 1e-8, np.array([[2e-9], [1e-9], [4e-9]])),
    ]
    checks = _emit(batch, "s", claims)
    assert [c.max_residual for c in sorted(checks, key=lambda c: c.check_id)] \
        == [2e-9, 3e-9, 4e-9]


def test_tolerance_may_depend_on_a(batch):
    checks = _by_id(_emit(batch, "s", [
        Claim("k", "A", _closed_tol, np.full((3, N), 1e-10)),
    ]))
    assert checks["s/k[a=1]"].tolerance == 1e-12
    assert not checks["s/k[a=1]"].passed
    assert checks["s/k[a=0.5]"].tolerance == 1e-8
    assert checks["s/k[a=2]"].passed


def test_vacuous_and_partial_applicability(batch):
    applies = np.array([[False] * N,
                        [True, False, True, False],
                        [True] * N])
    residual = np.array([[9.0] * N,
                         [1e-10, 9.0, 2e-10, 9.0],
                         [3e-10] * N])
    checks = _by_id(_emit(batch, "s", [
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
    (check, *_) = _emit(batch, "s", [
        Claim("k", "A", 1e-9, 0.0, np.zeros(N, dtype=bool)),
    ])
    assert check.detail == "hypothesis fails at every sample; no claim checked"


def test_labels_classify_each_row(batch):
    labels = np.array([["steady"] * N,
                       ["steady", "shrinking", "steady", "steady"],
                       ["expanding"] * N])
    checks = _by_id(_emit(batch, "s", [
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
        _emit(batch, "s", [
            Claim("ok", "A", 1e-8, 0.0),
            Claim("k", "B", 1e-8, residual),
        ])
    message = str(info.value)
    assert "check s/k[a=2] has residual nan" in message
    assert "at sample {'x': 0.25} [a=2]" in message


def test_nan_where_hypothesis_fails_is_ignored(batch):
    residual = np.full((3, N), np.nan)
    applies = np.zeros((3, N), dtype=bool)
    checks = _emit(batch, "s", [Claim("k", "A", 1e-8, residual, applies)])
    assert all(c.passed and c.points == 0 for c in checks)


def test_shared_labels_classify_every_claim(batch):
    shared = np.array([["steady"] * N,
                       ["steady", "expanding", "steady", "steady"],
                       ["shrinking"] * N])
    checks = _by_id(_emit(batch, "s", [
        Claim("full", "A", 1e-8, 0.0, labels=shared),
        Claim("scalar", "B", 1e-8, 0.0, labels=shared),
        Claim("other", "C", 1e-8, 0.0, labels=np.full(N, "expanding")),
    ]))
    for key in ("full", "scalar"):
        assert [checks[f"s/{key}{a_tag(a)}"].classification for a in GRID] \
            == ["steady", "mixed", "shrinking"]
    assert {checks[f"s/other{a_tag(a)}"].classification for a in GRID} \
        == {"expanding"}


def test_lowest_group_is_refused_first(batch):
    early, late = np.zeros((3, N)), np.zeros((3, N))
    early[0, 0] = np.inf
    late[2, 3] = np.nan
    with pytest.raises(SuiteError) as info:
        _emit(batch, "s", [
            Claim("k", "A", 1e-8, early, group=1),
            Claim("j", "B", 1e-8, late, group=0),
            Claim("m", "C", 1e-8, early, group=2),
        ])
    assert str(info.value).startswith("check s/j[a=2] has residual nan at "
                                      "sample {'x': 0.75} [a=2]")
    assert info.value.group == 0


def test_tag_row_once_per_batch(batch, monkeypatch):
    tagged = []
    monkeypatch.setattr(suites, "a_tag", lambda a: tagged.append(a) or a_tag(a))
    for _ in range(2):
        checks = _emit(batch, "s", [Claim("k", "A", 1e-8, 0.0)])
        assert [c.check_id for c in checks] == ["s/k[a=0.5]", "s/k[a=1]", "s/k[a=2]"]
    assert tagged == GRID.tolist()


def test_one_emit_per_frame(monkeypatch):
    """A kenmotsu5.ini run emits once per suite and frame: each soliton
    suite on the base and on the deformed frame, the rest once each."""
    config = load_config(ROOT / "perfbench" / "fixtures" / "kenmotsu5.ini")
    config.points = 2
    prefixes = []
    emit = suites._emit

    def counted(batch, prefix, claims):
        prefixes.append(prefix)
        return emit(batch, prefix, claims)

    monkeypatch.setattr(suites, "_emit", counted)
    run_suites(config)
    assert len(prefixes) == 10
    assert prefixes.count("riemann-soliton") == prefixes.count("ricci-soliton") == 2


def test_no_claims_no_checks(batch):
    assert _emit(batch, "s", []) == []
    keys, worst, counts = _worst(batch, [], str)
    assert keys == [] and worst.shape == counts.shape == (0, len(GRID))


def _reference_worst(batch, items, check_id):
    """The per-claim reduction ``_worst`` replaced: one masked max, one
    finiteness test and, per key, one count for each claim."""
    shape = batch.shape
    rows = []
    for key, residual, *mask in items:
        mask = mask[0] if mask else None
        applies = True if mask is None else np.broadcast_to(mask, shape)
        residual = np.broadcast_to(residual, shape)
        top = np.max(residual, axis=-1, where=applies, initial=0.0)
        rows.append((key, residual, applies, top))
    if not all(np.isfinite(top).all() for *_, top in rows):
        bad = np.array([applies & ~np.isfinite(r) for _, r, applies, _ in rows])
        flat = bad.reshape(len(rows), -1)
        s = int(np.argmax(flat.any(axis=0)))
        key, residual, *_ = rows[int(np.argmax(flat[:, s]))]
        tag = a_tag(np.broadcast_to(batch[A], shape).flat[s]) if len(shape) > 1 else ""
        raise SuiteError(
            f"check {check_id(key)}{tag} has residual {residual.flat[s]} at "
            f"sample {locate(batch, bad.any(axis=0))}"
        )
    worst = {}
    covered = {}
    for key, _, applies, top in rows:
        held = worst.get(key, 0.0)
        worst[key] = np.where(top > held, top, held)  # a tie keeps +0.0
        covered[key] = covered.get(key, False) | applies
    return worst, {
        key: np.count_nonzero(np.broadcast_to(m, shape), axis=-1)
        for key, m in covered.items()
    }


RESIDUALS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-12, 3e-9, 2.5, np.nan, np.inf]),
    st.floats(min_value=0.0, max_value=1e3),
)


@st.composite
def batch_and_items(draw):
    """An (N,) or (A, N) batch and items for ``_worst`` on it: keys that
    repeat, residuals and masks of every shape that broadcasts to the
    batch, masks absent, None, partial or all false."""
    n = draw(st.integers(1, 5))
    rows = draw(st.sampled_from([None, 1, 2, 3]))
    batch = Samples({"x": np.linspace(0.0, 0.75, n)})
    if rows is not None:
        batch = with_a(batch, GRID[:rows])
    shape = batch.shape

    def array(elements, dtype):
        sub = draw(st.sampled_from([shape, shape[-1:], shape[:-1] + (1,), ()]))
        size = math.prod(sub)
        values = draw(st.lists(elements, min_size=size, max_size=size))
        return np.array(values, dtype=dtype).reshape(sub)

    items = []
    for _ in range(draw(st.integers(1, 6))):
        key = draw(st.sampled_from(["k", "j", "m"]))
        residual = array(RESIDUALS, float)
        mask = draw(st.sampled_from(["absent", "none", "mask", "false"]))
        if mask == "absent":
            items.append((key, residual))
        elif mask == "none":
            items.append((key, residual, None))
        elif mask == "mask":
            items.append((key, residual, array(st.booleans(), bool)))
        else:
            items.append((key, residual, np.zeros(shape, dtype=bool)))
    return batch, items


def _outcome(batch, items):
    """The worst values as bytes and the counts, per key in order, of
    ``_worst`` and of ``_reference_worst``, or the text of the SuiteError
    each raised."""
    def check_id(key):
        return f"s/{key}"

    try:
        keys, worst, counts = _worst(batch, items, check_id)
        stacked = (
            [(key, row.tobytes()) for key, row in zip(keys, worst)],
            [(key, row.tolist()) for key, row in zip(keys, counts)],
        )
    except SuiteError as err:
        stacked = str(err)
    try:
        worst, counts = _reference_worst(batch, items, check_id)
        looped = (
            [(key, np.asarray(v, dtype=float).tobytes()) for key, v in worst.items()],
            [(key, np.asarray(n).tolist()) for key, n in counts.items()],
        )
    except SuiteError as err:
        looped = str(err)
    return stacked, looped


@settings(max_examples=400, deadline=None)
@given(batch_and_items())
def test_stacked_reduction_equals_per_claim_loop(case):
    stacked, looped = _outcome(*case)
    assert stacked == looped


def test_zero_ties_read_positive_zero(batch):
    _, worst, _ = _worst(batch, [("k", -0.0), ("k", np.full((3, N), -0.0))], str)
    assert worst[0].tobytes() == np.zeros(3).tobytes()


def _reference_emit(batch, prefix, claims):
    """The emitter ``_emit`` replaced: the per-key dicts of the reduction
    (here ``_reference_worst``), and per key and row of a one branch for
    the vacuous, partial and full cases."""
    shape = batch.shape
    npts = shape[-1]
    a_row = [1.0] if len(shape) == 1 else np.ravel(batch[A]).tolist()
    tags = [""] if len(shape) == 1 else [a_tag(a) for a in a_row]
    items = [(c.key, c.residual, c.applies) for c in claims]
    worst, counts = _reference_worst(batch, items, lambda key: f"{prefix}/{key}")
    first = {c.key: c for c in reversed(claims)}
    tols, classes = {}, {id(None): [None] * len(a_row)}
    checks = []
    for key, tops in worst.items():
        c = first[key]
        tops, ns = np.asarray(tops).tolist(), np.asarray(counts[key]).tolist()
        if len(shape) == 1:
            tops, ns = [tops], [ns]
        if id(c.tol) not in tols:
            tols[id(c.tol)] = ([c.tol(a) for a in a_row] if callable(c.tol)
                               else [c.tol] * len(a_row))
        if id(c.labels) not in classes:
            rows = np.broadcast_to(c.labels, shape).reshape(len(a_row), npts)
            same = (rows == rows[:, :1]).all(axis=1)
            classes[id(c.labels)] = np.where(same, rows[:, 0], "mixed").tolist()
        for tag, top, n, tol, cls in zip(tags, tops, ns, tols[id(c.tol)],
                                         classes[id(c.labels)]):
            if n == 0:
                top, passed = 0.0, True
                detail = f"{c.hypothesis} fails at every sample; no claim checked"
            else:
                passed = top <= tol
                detail = f"checked at {n} of {npts} samples" if n < npts else None
            checks.append(CheckResult(f"{prefix}/{key}{tag}", c.anchor, n, top,
                                      tol, passed, cls, detail))
    return checks


def _half_a(a):
    return 1e-3 * a


LABELS = st.sampled_from(["steady", "shrinking", "expanding"])


@st.composite
def batch_and_claims(draw):
    """An (N,) or (A, N) batch and claims on it: keys that repeat,
    tolerances that are numbers or functions of a, residuals of every
    shape that broadcasts to the batch (sample-free ones too), masks
    absent, partial or all false, and labels absent, shared or mixed."""
    batch, items = draw(batch_and_items())
    shape = batch.shape
    labels = []
    claims = []
    for key, residual, *mask in items:
        tol = draw(st.sampled_from([1e-8, 2.5, 0.0, _closed_tol, _half_a]))
        if residual.shape == () and draw(st.booleans()):
            residual = float(residual)
        choice = draw(st.sampled_from(["none", "new", "shared"]))
        if choice == "new" or (choice == "shared" and not labels):
            sub = draw(st.sampled_from([shape, shape[-1:], shape[:-1] + (1,), ()]))
            size = math.prod(sub)
            values = draw(st.lists(LABELS, min_size=size, max_size=size))
            labels.append(np.array(values).reshape(sub))
        label = None if choice == "none" else labels[-1]
        hypothesis = draw(st.sampled_from(["hypothesis", "hypothesis P"]))
        claims.append(Claim(key, f"anchor of {key}", tol, residual,
                            mask[0] if mask else None, label, hypothesis))
    return batch, claims


def _bits(checks):
    """Each check's fields, its floats as their bytes with their types."""
    return [
        (c.check_id, c.anchor, c.points, type(c.points),
         np.float64(c.max_residual).tobytes(), type(c.max_residual),
         np.float64(c.tolerance).tobytes(), type(c.tolerance),
         c.passed, c.classification, c.detail)
        for c in checks
    ]


def _emitted(emit, batch, claims):
    try:
        return _bits(emit(batch, "s", claims))
    except SuiteError as err:
        return str(err)


@settings(max_examples=400, deadline=None)
@given(batch_and_claims())
def test_columnar_emitter_equals_reference(case):
    batch, claims = case
    assert _emitted(_emit, batch, claims) == _emitted(_reference_emit, batch, claims)
