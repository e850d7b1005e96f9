"""The one elimination behind the metric's inverse and its positive
definiteness, against LAPACK.

``geometry._gauss_jordan`` replaced ``np.linalg.inv`` and a batched
Cholesky factorization, whose refusal a per-sample Cholesky loop located.
The references are LAPACK's inverse and that loop, kept here.  On random
symmetric positive definite batches at d = 2, 3, 5 and 7 the inverse must
give g inv = I within 1e-12; on diagonal metrics it must be LAPACK's
inverse bit for bit (the reciprocals of the diagonal), which is why the
reports of charts with diagonal metrics keep their bytes.  An indefinite,
a singular and a NaN sample are each refused, and the message names the
same first sample as the Cholesky loop's mask (for NaN, joined with the
finiteness check that ran before it).  The kernel reads its
input without writing into it: the input may be the memoised buffer of an
evaluated metric.

RuntimeWarning is an error here: a refused sample divides by a zero or
NaN pivot only inside the kernel's ``np.errstate``.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from acmsolitons import geometry
from acmsolitons.expr import A, Const, Coord
from acmsolitons.geometry import ChartManifold, _gauss_jordan
from acmsolitons.tensor import StructureError, component_major, sample_major

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

DIMS = (2, 3, 5, 7)
# a single matrix, length-1 sample axes, an (N,) batch, and a bound a
# axis with one sample or N
LEADS = ((), (1,), (8,), (3, 1), (3, 8))


def _cholesky_succeeds(g: np.ndarray) -> np.ndarray:
    """Per sample, whether g factors: the loop that located the sample a
    batched Cholesky factorization refused."""
    ok = []
    for block in g.reshape((-1,) + g.shape[-2:]):
        try:
            np.linalg.cholesky(block)
            ok.append(True)
        except np.linalg.LinAlgError:
            ok.append(False)
    return np.array(ok).reshape(g.shape[:-2])


def _spd(lead, d, seed):
    rng = np.random.default_rng(100 * seed + 10 * d + len(lead))
    x = rng.normal(size=lead + (d, d))
    g = x @ np.swapaxes(x, -1, -2) + d * np.eye(d)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def _layouts(g):
    """``g`` contiguous and as the sample-major view of a component-major
    buffer, the layout of an evaluated metric."""
    return {"contiguous": g,
            "transposed": sample_major(component_major(g, 2), 2)}


def _point(lead):
    """A point whose sample shape is ``lead``."""
    n = lead[-1] if lead else None
    point = {"x": 0.25 if n is None else np.arange(n, dtype=float)}
    if len(lead) == 2:
        point[A] = 0.5 + np.arange(lead[0], dtype=float)[:, None]
    return point


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("d", DIMS)
def test_inverse_matches_lapack(d, lead):
    g = _spd(lead, d, seed=1)
    eye = np.eye(d)
    lapack = np.linalg.inv(g)
    assert np.max(np.abs(g @ lapack - eye)) <= 1e-12
    for label, x in _layouts(g).items():
        before = np.array(x)
        inv, definite = _gauss_jordan(x)
        assert_array_equal(x, before, err_msg=label)  # only read
        assert inv.shape == g.shape, label
        assert definite.shape == lead and np.all(definite), label
        assert np.max(np.abs(g @ inv - eye)) <= 1e-12, label
        assert np.max(np.abs(inv - lapack)) <= 1e-12 * np.max(np.abs(lapack))


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("d", DIMS)
def test_diagonal_inverse_is_lapacks(d, lead):
    rng = np.random.default_rng(d + len(lead))
    diagonal = np.exp(rng.uniform(-3.0, 3.0, size=lead + (d,)))
    g = diagonal[..., None] * np.eye(d)
    for label, x in _layouts(g).items():
        inv, definite = _gauss_jordan(x)
        assert np.all(definite), label
        assert_array_equal(inv, np.linalg.inv(g), err_msg=label)
        assert_array_equal(np.diagonal(inv, axis1=-2, axis2=-1),
                           1.0 / diagonal, err_msg=label)


def _bad(kind, d):
    """One symmetric matrix that is not positive definite."""
    if kind == "indefinite":
        # first pivot 1, second 1 - 2 * 2 = -3
        g = np.eye(d)
        g[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]
    elif kind == "singular":
        g = np.ones((d, d))  # rank 1: the second pivot is exactly 0
    else:
        g = np.eye(d)
        g[d - 1, d - 1] = np.nan
    return g


@pytest.mark.parametrize("kind", ["indefinite", "singular", "nan"])
@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("d", DIMS)
def test_refusal_names_the_choleskys_sample(d, lead, kind):
    g = _spd(lead, d, seed=2)
    flat = g.reshape((-1, d, d))
    # the bad matrix at the last sample and, where there is room, at a
    # middle one too, which the message must name
    flat[-1] = _bad(kind, d)
    if flat.shape[0] > 4:
        flat[4] = _bad(kind, d)
    for label, x in _layouts(g).items():
        _, definite = _gauss_jordan(x)
        # OpenBLAS factors a NaN matrix without complaint (its test is
        # pivot <= 0); the metric's finiteness check, which runs first,
        # refused such a sample before the factorization saw it
        ok = _cholesky_succeeds(g) & np.all(np.isfinite(g), axis=(-2, -1))
        assert_array_equal(definite, ok, err_msg=label)
        message = "metric of chart not positive definite"
        with pytest.raises(StructureError) as ref:
            geometry._refuse(~ok, message, _point(lead))
        with pytest.raises(StructureError) as got:
            geometry._refuse(~definite, message, _point(lead))
        assert str(got.value) == str(ref.value), label


def test_chart_refuses_an_indefinite_sample():
    # g = [[1, x], [x, 1]] is positive definite for |x| < 1, singular at
    # x = 1 and indefinite beyond; the chart names the first such sample
    x = Coord("x")
    chart = ChartManifold(["x", "y"], [[Const(1.0), x], [x, Const(1.0)]],
                          name="tilted")
    xs = np.array([0.0, 0.5, -0.9, 1.0, 0.3, 2.0])
    point = {"x": xs, "y": np.zeros_like(xs)}
    g = chart.metric_values(point)
    with pytest.raises(StructureError) as ref:
        geometry._refuse(~_cholesky_succeeds(g),
                         "metric of tilted not positive definite", point)
    with pytest.raises(StructureError) as got:
        chart.metric_at_cached(point)
    assert str(got.value) == str(ref.value)
    assert "{'x': 1.0, 'y': 0.0}" in str(got.value)
    # the samples before it are accepted, and their inverse is LAPACK's
    # within 1e-12
    head = {k: v[:3] for k, v in point.items()}
    m = chart.metric_at_cached(head)
    assert np.max(np.abs(m.inv - np.linalg.inv(g[:3]))) <= 1e-12
