"""The curvature bundle equals an exact symbolic oracle.

The oracle reads a chart's definition file, parses its metric entries
with sympy (``^`` becomes ``**``) and differentiates them with sympy
alone, so it shares no code with ``expr.diff`` or with the curvature
kernel.  It builds Gamma, R13 by the textbook d_a Gamma route, R04 = R13
lowered by g, Ric and scal symbolically, for the base chart and for the
deformed chart g_bar = a g + a(a-1) eta (x) eta, eta = g(xi, .), at
a = 3.7.  Each quantity of ``curvature_bundle`` at 4 sample points must
match within 1e-12 of max(1, max |oracle|); a quantity with one sample,
which reads no coordinate, must match at each point.

kenmotsu5-gh is 5-dimensional, not diagonal and not a space form, so no
slot symmetry or constant curvature hides a wrong term; kenmotsu3-wide is
the 3-dimensional warped product on a domain reaching z near 0; linear3
(``tests/data/linear3.ini``) has constant first partials against a metric
that varies from sample to sample.  A hypothesis sweep runs the warped
products dx3^2 + V^2 (dx1^2 + dx2^2), V = 1 + c x3, over the warping
constant c and over a, against one oracle symbolic in both.

The scalar operators (grad, Hess, Lap, L_{grad f} g and xi(f), xi(xi(f)))
are checked the same way on kenmotsu3-wide and kenmotsu5-gh, base and
deformed, with xi_bar = xi/a, for a scalar whose mixed second partials do
not fold to one tree, so the mean of both orders is what is tested.
"""

import configparser
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from conftest import expand
from hypothesis import given, settings, strategies as st

import acmsolitons
from acmsolitons import builtin_config, parse_expr
from acmsolitons.config import load_config, load_config_text
from acmsolitons.deformation import deform
from acmsolitons.geometry import (
    ScalarField, curvature_bundle, grad, gradient_lie_derivative, hessian,
    laplacian, sample_batch, xi_derivatives,
)

FIXTURES = Path(acmsolitons.__file__).parent / "fixtures"
LINEAR3 = Path(__file__).parent / "data" / "linear3.ini"
A_VALUE = sp.Rational(37, 10)
POINTS = 4
TOL = 1e-12
KEYS = ("gamma", "R13", "R04", "Ric", "scal")


def _parse(text: str, symbols: dict):
    return sp.sympify(text.replace("^", "**"), locals=symbols)


def _path(name: str) -> Path:
    return LINEAR3 if name == "linear3" else FIXTURES / f"{name}.ini"


def _config(name: str):
    return load_config(LINEAR3) if name == "linear3" else builtin_config(name)


def _christoffel(g, inv, x) -> list:
    """Gamma[l][i][j] of the sympy metric ``g`` with inverse ``inv``."""
    d = len(x)
    dg = [[[sp.diff(g[i, j], x[k]) for j in range(d)] for i in range(d)]
          for k in range(d)]
    return [[[sp.expand(sum(
        inv[l, k] * (dg[i][j][k] + dg[j][i][k] - dg[k][i][j])
        for k in range(d)) / 2) for j in range(d)] for i in range(d)]
        for l in range(d)]


def _bundle(g, x) -> list:
    """[Gamma, R13, R04, Ric, scal] of the sympy metric ``g`` in the
    coordinate symbols ``x``, as nested lists of expressions."""
    d = len(x)
    inv = sp.simplify(g.inv())
    gamma = _christoffel(g, inv, x)
    r13 = [[[[0] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
    for l in range(d):
        for a in range(d):
            for b in range(a + 1, d):
                for c in range(d):
                    value = (
                        sp.diff(gamma[l][b][c], x[a])
                        - sp.diff(gamma[l][a][c], x[b])
                        + sum(gamma[l][a][m] * gamma[m][b][c]
                              - gamma[l][b][m] * gamma[m][a][c]
                              for m in range(d))
                    )
                    r13[l][a][b][c] = value
                    r13[l][b][a][c] = -value
    r04 = [[[[sum(r13[l][a][b][c] * g[l, e] for l in range(d))
              for e in range(d)] for c in range(d)] for b in range(d)]
           for a in range(d)]
    ric = [[sum(r13[a][a][b][c] for a in range(d)) for c in range(d)]
           for b in range(d)]
    scal = sum(inv[b, c] * ric[b][c] for b in range(d) for c in range(d))
    return [gamma, r13, r04, ric, scal]


def _assert_matches(bundle, want, keys=KEYS):
    """Each ``keys`` entry of ``bundle`` against the oracle's values at each
    sample point, ``want`` holding one list of them per point."""
    for k, key in enumerate(keys):
        ref = np.array([np.asarray(w[k], dtype=float) for w in want])
        got = np.asarray(bundle[key])
        if key in ("R13", "R04"):
            got = expand(got, raised=key == "R13")
        assert got.shape[1:] == ref.shape[1:], key
        assert got.shape[0] in (1, len(want)), key
        got = np.broadcast_to(got, ref.shape)
        scale = max(1.0, float(np.max(np.abs(ref))))
        err = float(np.max(np.abs(got - ref)))
        assert err <= TOL * scale, f"{key}: {err:.3e} at scale {scale:.3e}"


def _chart(name: str, deformed: bool) -> tuple:
    """(coordinate names, their symbols, g, xi) of a chart's definition
    file as sympy data; deformed, g_bar and xi_bar = xi/a at ``A_VALUE``."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(_path(name).read_text(encoding="utf-8"))
    man = parser["manifold"]
    names = [c.strip() for c in man["coordinates"].split(",")]
    x = sp.symbols(names, real=True)
    symbols = dict(zip(names, x))
    d = len(x)
    g = sp.zeros(d, d)
    for i in range(d):
        for j in range(i, d):
            text = man.get(f"g_{names[i]}_{names[j]}",
                           man.get(f"g_{names[j]}_{names[i]}", "0"))
            g[i, j] = g[j, i] = _parse(text, symbols)
    xi = sp.Matrix([_parse(t, symbols)
                    for t in parser["structure"]["xi"].split(",")])
    if deformed:
        eta = g * xi
        g = A_VALUE * g + A_VALUE * (A_VALUE - 1) * (eta * eta.T)
        xi = xi / A_VALUE
    return names, x, g, xi


@lru_cache(maxsize=None)
def _oracle(name: str, deformed: bool):
    """(coordinate names, a function of one point's coordinates giving
    each of ``KEYS`` as nested lists)."""
    names, x, g, _ = _chart(name, deformed)
    return names, sp.lambdify(x, _bundle(g, x), "numpy", cse=True)


CASES = [(name, deformed)
         for name in ("kenmotsu5-gh", "kenmotsu3-wide", "linear3")
         for deformed in (False, True)]


@pytest.mark.parametrize(
    "name, deformed", CASES,
    ids=[f"{n}-{'deformed' if dfm else 'base'}" for n, dfm in CASES],
)
def test_curvature_bundle_matches_sympy(name, deformed):
    names, oracle = _oracle(name, deformed)
    config = _config(name)
    batch = sample_batch(config.manifold, config.box, POINTS, config.seed)
    if deformed:
        ds = deform(config.structure, float(A_VALUE))
        bundle = curvature_bundle(ds.manifold, ds.at(batch))
    else:
        bundle = curvature_bundle(config.manifold, batch)
    assert tuple(config.manifold.coords) == tuple(names)
    _assert_matches(bundle, [oracle(*(p[c] for c in names))
                             for p in batch.points()])


SCALARS = {
    "kenmotsu3-wide": "x*y*exp(z) + sin(x - 2*y)",
    "kenmotsu5-gh": "x1*tau*exp(z) + sin(x2 - x3)",
}
SCALAR_KEYS = ("grad", "hessian", "laplacian", "gradient_lie_derivative",
               "xi f", "xi xi f")


@lru_cache(maxsize=None)
def _scalar_oracle(name: str, deformed: bool):
    """(coordinate names, a function of one point's coordinates giving
    each of ``SCALAR_KEYS`` for the scalar ``SCALARS[name]``): the
    gradient g^ij d_j f, Hess_ij = d_i d_j f - Gamma^k_ij d_k f, its
    trace, L_V g of V = grad f from the coordinate formula, xi^k d_k f and
    xi^k d_k (xi(f))."""
    names, x, g, xi = _chart(name, deformed)
    d = len(x)
    f = _parse(SCALARS[name], dict(zip(names, x)))
    inv = sp.simplify(g.inv())
    gamma = _christoffel(g, inv, x)
    df = [sp.diff(f, c) for c in x]
    v = [sum(inv[i, j] * df[j] for j in range(d)) for i in range(d)]
    hess = [[sp.diff(df[i], x[j]) - sum(gamma[k][i][j] * df[k]
                                        for k in range(d))
             for j in range(d)] for i in range(d)]
    lie = [[sum(v[k] * sp.diff(g[i, j], x[k]) + g[k, j] * sp.diff(v[k], x[i])
                + g[i, k] * sp.diff(v[k], x[j]) for k in range(d))
            for j in range(d)] for i in range(d)]
    lap = sum(inv[i, j] * hess[i][j] for i in range(d) for j in range(d))
    xif = sum(xi[k] * df[k] for k in range(d))
    xixif = sum(xi[k] * sp.diff(xif, x[k]) for k in range(d))
    return names, sp.lambdify(x, [v, hess, lap, lie, xif, xixif], "numpy",
                              cse=True)


SCALAR_CASES = [(name, deformed) for name in SCALARS
                for deformed in (False, True)]


@pytest.mark.parametrize(
    "name, deformed", SCALAR_CASES,
    ids=[f"{n}-{'deformed' if dfm else 'base'}" for n, dfm in SCALAR_CASES],
)
def test_scalar_operators_match_sympy(name, deformed):
    names, oracle = _scalar_oracle(name, deformed)
    config = _config(name)
    f = ScalarField(parse_expr(SCALARS[name], config.manifold.coords))
    batch = sample_batch(config.manifold, config.box, POINTS, config.seed)
    structure, point = config.structure, batch
    if deformed:
        ds = deform(config.structure, float(A_VALUE))
        structure, point = ds.structure, ds.at(batch)
    man = structure.manifold
    got = {
        "grad": grad(man, f, point),
        "hessian": hessian(man, f, point),
        "laplacian": laplacian(man, f, point),
        "gradient_lie_derivative": gradient_lie_derivative(man, f, point),
    }
    got["xi f"], got["xi xi f"] = xi_derivatives(structure, f, point)
    assert tuple(man.coords) == tuple(names)
    _assert_matches(got, [oracle(*(p[c] for c in names))
                          for p in batch.points()], SCALAR_KEYS)


@lru_cache(maxsize=None)
def _warped_oracle():
    """The bundle of a g + a(a-1) dx3^2 for g = dx3^2 + V^2 (dx1^2 + dx2^2),
    V = 1 + c x3, as a function of (x1, x2, x3, c, a); a = 1 is the base."""
    x = sp.symbols("x1 x2 x3", real=True)
    c, a = sp.symbols("c a", real=True)
    v = 1 + c * x[2]
    g = sp.diag(v ** 2, v ** 2, 1)
    g = a * g + a * (a - 1) * sp.diag(0, 0, 1)
    return sp.lambdify((*x, c, a), _bundle(g, x), "numpy", cse=True)


_WARPED = """
[manifold]
name = warped3
coordinates = x1, x2, x3
constraints = 1 + ({c})*x3
g_x1_x1 = (1 + ({c})*x3)^2
g_x2_x2 = (1 + ({c})*x3)^2
g_x3_x3 = 1

[structure]
phi_x2_x1 = 1
phi_x1_x2 = -1
xi = 0, 0, 1

[run]
seed = 7
points = 4
box_x1 = -1, 1
box_x2 = -1, 1
box_x3 = -0.5, 0.5
"""


@settings(max_examples=25, deadline=None)
@given(
    c=st.floats(-1.5, 1.5).map(lambda c: round(c, 6)),
    a=st.floats(0.2, 5.0).map(lambda a: round(a, 6)),
)
def test_warped_products_match_sympy(c, a):
    # 1 + c x3 >= 0.25 on the box, so every sample lies in the domain
    oracle = _warped_oracle()
    config = load_config_text(_WARPED.format(c=f"{c:.6f}"), source="tests:warped3")
    batch = sample_batch(config.manifold, config.box, POINTS, config.seed)
    points = [(p["x1"], p["x2"], p["x3"]) for p in batch.points()]
    _assert_matches(curvature_bundle(config.manifold, batch),
                    [oracle(*p, c, 1.0) for p in points])
    ds = deform(config.structure, a)
    _assert_matches(curvature_bundle(ds.manifold, ds.at(batch)),
                    [oracle(*p, c, a) for p in points])
