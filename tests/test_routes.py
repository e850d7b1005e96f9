"""One route per quantity: xi(eta(V)), the configured vector fields and
Lap_bar(f).

xi(eta(V)) comes from exact partials of eta and V; the symbolic route it
replaced (build the tree of eta(V), differentiate it along xi, evaluate)
is kept here as the reference, on a test-only chart whose xi, eta and V
are non-constant polynomials, so no term of the product rule is 0.  Every
builtin's divergence-free field has sigma = xi(eta(V)) = 0, so the
solenoidal trace identity is also run on kenmotsu3 with the field
U = e^{-2z} d/dz added: div U = 0 and sigma = -2 e^{-2z}.

Every candidate with a configured vector potential holds that field
itself, and Lap_bar(f) has one function, ``deformation.laplacian_bar``,
which section2, the inequality battery, the harmonic transfer and the
gradient lambda all call, with no second name on ``DeformedStructure``;
its old five-argument formula is the bit-exact reference.
"""

from functools import reduce

import numpy as np
import pytest

from acmsolitons.config import _BUILTINS, load_config_text
from acmsolitons.deformation import deform, laplacian_bar
from acmsolitons.expr import A, Const, add, diff, evaluate, mul, parse_expr
from acmsolitons.geometry import (
    AcmStructure,
    ChartManifold,
    ScalarField,
    VectorField,
    divergence,
    laplacian,
    sample_batch,
    with_a,
    xi_derivatives,
)
from acmsolitons.solitons import solenoidal_implied, xi_of_eta_potential

A_GRID = np.array([0.5, 1.0, 2.0, 3.7])
COORDS = ("x", "y", "z")


def _tree(text):
    return parse_expr(text, coords=COORDS + (A,))


def _xi_of_eta_ref(structure, field, point):
    """The deleted symbolic route: the tree of eta(V), differentiated along
    xi, evaluated at ``point``."""
    coords = structure.manifold.coords
    d = structure.manifold.dim
    eta_v = reduce(
        add, (mul(structure.eta[i], field.exprs[i]) for i in range(d)),
        Const(0.0),
    )
    xi_eta_v = reduce(
        add, (mul(structure.xi[k], diff(eta_v, coords[k])) for k in range(d)),
        Const(0.0),
    )
    return evaluate(xi_eta_v, point)


@pytest.fixture(scope="module")
def polynomial_frame():
    """A flat 3-d chart with polynomial xi and eta (no almost contact
    structure: xi(eta(V)) is defined for any pair), and its bound batch."""
    one, zero = _tree("1"), _tree("0")
    metric = [[one if i == j else zero for j in range(3)] for i in range(3)]
    man = ChartManifold(COORDS, metric, name="polynomial")
    structure = AcmStructure(
        man, [[zero] * 3 for _ in range(3)],
        [_tree(t) for t in ("x*y", "1 + z^2", "x - 2*y*z")],
        eta=[_tree(t) for t in ("y^2 - z", "x*z", "1 + x*y")],
    )
    points = sample_batch(man, {c: (-1.5, 1.5) for c in COORDS}, 32, seed=7)
    return structure, with_a(points, A_GRID)


@pytest.mark.parametrize("components", [
    ("x^2*z", "y - z", "x*y*z"),
    ("a*x", "y^2 + 3", "a^2*z - x"),
])
def test_xi_of_eta_matches_the_symbolic_route(polynomial_frame, components):
    structure, pa = polynomial_frame
    field = VectorField([_tree(t) for t in components])
    got = xi_of_eta_potential(structure, field, pa)
    ref = _xi_of_eta_ref(structure, field, pa)
    assert np.max(np.abs(ref)) > 1.0  # no term of the product rule is 0
    got, ref = np.broadcast_arrays(got, ref)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-12


@pytest.fixture(scope="module")
def kenmotsu3_u():
    """kenmotsu3 with the divergence-free field U = e^{-2z} d/dz, whose
    sigma = xi(eta(U)) = -2 e^{-2z} is not 0."""
    text = _BUILTINS["kenmotsu3"]
    assert text.count("W = 1, 0, 0\n") == 1
    text = text.replace("W = 1, 0, 0\n", "W = 1, 0, 0\nU = 0, 0, exp(-2*z)\n")
    config = load_config_text(text, source="tests:kenmotsu3-u")
    points = sample_batch(config.manifold, config.box, config.points,
                          config.seed)
    return config, points


def test_sigma_of_a_solenoidal_field(kenmotsu3_u):
    config, points = kenmotsu3_u
    u = config.vectors["U"]
    sigma = xi_of_eta_potential(config.structure, u, with_a(points, A_GRID))
    assert np.array_equal(np.broadcast_to(sigma, (points.count,)),
                          -2.0 * np.exp(-2.0 * points["z"]))
    # so the soliton suites take U as solenoidal
    assert np.max(np.abs(divergence(config.manifold, u, points))) <= 1e-9


@pytest.mark.parametrize("kind", ["riemann", "ricci"])
def test_solenoidal_trace_with_sigma(kenmotsu3_u, kind):
    config, points = kenmotsu3_u
    res = solenoidal_implied(kind, config.structure, config.vectors["U"],
                             with_a(points, A_GRID))
    scale = np.maximum(1.0, np.abs(res["scal"]))
    worst = np.max(res["trace_residual"] / scale, axis=-1)
    assert worst.shape == A_GRID.shape
    assert np.all(worst <= 1e-9)


def test_vector_candidates_hold_the_configured_field(kenmotsu3):
    fields = [c.field for c in kenmotsu3.candidates if c.potential == "vector"]
    assert len(fields) == 2
    assert all(f is kenmotsu3.vectors["V"] for f in fields)


def _laplacian_bar_ref(n, a, lap, xif, xixif):
    """Lap_bar(f) as the five-argument formula it was."""
    return (
        lap / a
        - 2.0 * n * (a - 1.0) / (a * a) * xif
        - (a - 1.0) / (a * a) * xixif
    )


@pytest.mark.parametrize("fixture, scalar", [
    ("kenmotsu3", None),
    ("kenmotsu5", "exp(z) + x1*y2 - z^2"),
])
def test_one_laplacian_bar(request, fixture, scalar):
    config = request.getfixturevalue(fixture)
    man = config.manifold
    f = (config.scalar if scalar is None
         else ScalarField(parse_expr(scalar, coords=man.coords)))
    pts = sample_batch(man, config.box, 16, config.seed)
    ds = deform(config.structure, A_GRID)
    got = laplacian_bar(ds.base, f, ds.at(pts))
    assert got is laplacian_bar(ds.base, f, ds.at(pts))
    assert not hasattr(ds, "laplacian_closed")
    xif, xixif = xi_derivatives(ds.base, f, pts)
    ref = _laplacian_bar_ref(ds.n, ds.at(pts)[A], laplacian(man, f, pts),
                             xif, xixif)
    assert np.array_equal(got, ref)
