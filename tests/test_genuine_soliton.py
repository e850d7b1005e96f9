"""The genuine gradient soliton of a deformed 3-d Kenmotsu warped product.

Locally a 3-d Kenmotsu manifold is dt^2 + e^{2t} h_N with a surface
(N, h_N) (Kenmotsu, Tohoku Math. J. 24 (1972)); here h_N is the space
form 4(dx^2 + dy^2)/(1 + K(x^2 + y^2))^2 of curvature K, and eta = dt,
xi = d/dt.  Deformed by a > 0 it is g_bar = a^2 dt^2 + a e^{2t} h_N, and
sympy shows, with K and a symbolic, that V = grad_bar f_a for

    f_a = e^t + a K e^{-2t}/6

solves both soliton equations of g_bar:

* ricci:   (1/2) L_V g_bar + Ric_bar = lambda g_bar,
           lambda = (e^t - 2)/a^2 + 2K e^{-2t}/(3a);
* riemann: 2 R_bar + (L_V g_bar) (*) g_bar = lambda g_bar (*) g_bar,
           lambda = (2e^t - 1)/a^2 + K e^{-2t}/(3a).

At K = 0 the chart is kenmotsu3's and both lambdas are its candidates'.
The curvature is built here from sympy alone, in the package's
convention R04[a, b, c, d] = g(R(d_a, d_b) d_c, d_d) with
R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z, under
which hyperbolic space has R = -(1/2) g (*) g.  The builtins
kenmotsu3-sph-soliton (K = 1) and kenmotsu3-hyp-soliton (K = -1, the
upper half-plane model of the fibre) carry f_a, V and both lambdas; their
expressions are checked against these at sample points.
"""

import itertools

import numpy as np
import pytest
import sympy as sp

from acmsolitons.config import builtin_config
from acmsolitons.expr import evaluate

X, Y, T = sp.symbols("x y t", real=True)
COORDS = (X, Y, T)
K = sp.Symbol("K", real=True)
A = sp.Symbol("a", positive=True)

F = sp.exp(T) + A * K * sp.exp(-2 * T) / 6
LAMBDA = {
    "ricci": (sp.exp(T) - 2) / A**2 + 2 * K * sp.exp(-2 * T) / (3 * A),
    "riemann": (2 * sp.exp(T) - 1) / A**2 + K * sp.exp(-2 * T) / (3 * A),
}


def _metric(a, k):
    w = 4 * sp.exp(2 * T) / (1 + k * (X**2 + Y**2)) ** 2
    return sp.diag(a * w, a * w, a * a)


def _christoffel(g):
    """Gamma[l][i][j] = (1/2) g^lk (d_i g_jk + d_j g_ik - d_k g_ij)."""
    inv = g.inv()
    return [[[sp.simplify(sum(
        inv[l, k] * (sp.diff(g[j, k], COORDS[i]) + sp.diff(g[i, k], COORDS[j])
                     - sp.diff(g[i, j], COORDS[k])) for k in range(3)) / 2)
        for j in range(3)] for i in range(3)] for l in range(3)]


def _riemann(g, gamma):
    """R04[a, b, c, d] = g(R(d_a, d_b) d_c, d_d)."""
    r = sp.MutableDenseNDimArray.zeros(3, 3, 3, 3)
    for a, b, c in itertools.product(range(3), repeat=3):
        up = [sp.diff(gamma[l][b][c], COORDS[a])
              - sp.diff(gamma[l][a][c], COORDS[b])
              + sum(gamma[l][a][e] * gamma[e][b][c]
                    - gamma[l][b][e] * gamma[e][a][c] for e in range(3))
              for l in range(3)]
        for d in range(3):
            r[a, b, c, d] = sp.simplify(sum(g[d, l] * up[l] for l in range(3)))
    return r


def _ricci(g, r04):
    """Ric(Y, Z) = trace of X -> R(X, Y)Z."""
    inv = g.inv()
    return sp.Matrix(3, 3, lambda b, c: sp.simplify(sum(
        r04[a, b, c, d] * inv[d, a] for a in range(3) for d in range(3))))


def _kulkarni_nomizu(h, k):
    """(h (*) k)(X, Y, Z, W) = h(X, W) k(Y, Z) + h(Y, Z) k(X, W)
    - h(X, Z) k(Y, W) - h(Y, W) k(X, Z)."""
    return sp.MutableDenseNDimArray(
        [h[a, d] * k[b, c] + h[b, c] * k[a, d] - h[a, c] * k[b, d]
         - h[b, d] * k[a, c]
         for a, b, c, d in itertools.product(range(3), repeat=4)],
        (3, 3, 3, 3),
    )


def _lie(g, v):
    """(L_V g)_ij = V^k d_k g_ij + g_kj d_i V^k + g_ik d_j V^k."""
    return sp.Matrix(3, 3, lambda i, j: sp.simplify(sum(
        v[k] * sp.diff(g[i, j], COORDS[k])
        + g[k, j] * sp.diff(v[k], COORDS[i])
        + g[i, k] * sp.diff(v[k], COORDS[j]) for k in range(3))))


@pytest.fixture(scope="module")
def deformed():
    g = _metric(A, K)
    r04 = _riemann(g, _christoffel(g))
    v = g.inv() * sp.Matrix([sp.diff(F, c) for c in COORDS])
    return {"g": g, "R04": r04, "Ric": _ricci(g, r04), "V": v,
            "lie": _lie(g, v)}


def test_convention_gives_hyperbolic_space_its_sign():
    g = _metric(1, 0)
    r04 = _riemann(g, _christoffel(g))
    gg = _kulkarni_nomizu(g, g)
    assert all(sp.simplify(r04[i] + gg[i] / 2) == 0
               for i in itertools.product(range(3), repeat=4))
    assert sp.simplify(_ricci(g, r04) + 2 * g) == sp.zeros(3, 3)


def test_potential_is_the_deformed_gradient(deformed):
    # grad_bar f = (1/a) grad f - ((a-1)/a^2) xi(f) xi = f'/a^2 d/dt
    want = [0, 0, sp.diff(F, T) / A**2]
    assert [sp.simplify(c - w) for c, w in zip(deformed["V"], want)] == [0] * 3


def test_ricci_equation(deformed):
    g, lam = deformed["g"], LAMBDA["ricci"]
    residual = deformed["lie"] / 2 + deformed["Ric"] - lam * g
    assert residual.applyfunc(sp.simplify) == sp.zeros(3, 3)


def test_riemann_equation(deformed):
    g, lam = deformed["g"], LAMBDA["riemann"]
    lhs = _kulkarni_nomizu(deformed["lie"] - lam * g, g)
    r04 = deformed["R04"]
    assert all(sp.simplify(2 * r04[i] + lhs[i]) == 0
               for i in itertools.product(range(3), repeat=4))


def test_flat_fibre_gives_kenmotsu3s_candidates():
    config = builtin_config("kenmotsu3")
    point = {"x": 0.3, "y": -0.2, "z": 1.4, "a": 2.5}
    at = {X: point["x"], Y: point["y"], T: point["z"], A: point["a"], K: 0}
    for cand in config.candidates:
        want = float(LAMBDA[cand.kind].subs(at))
        assert evaluate(cand.lam.exprs[0], point) == pytest.approx(
            want, rel=1e-14)
    assert evaluate(config.scalar.exprs[0], point) == pytest.approx(
        float(F.subs(at)), rel=1e-14)


def test_hyperbolic_fibre_of_the_builtin():
    # the upper half-plane (dx^2 + dy^2)/y^2 has Ric = K h, K = -1
    h = sp.diag(1 / Y**2, 1 / Y**2, 1)
    ric = _ricci(h, _riemann(h, _christoffel(h)))
    assert sp.simplify(ric[:2, :2] + h[:2, :2]) == sp.zeros(2, 2)


@pytest.mark.parametrize("name, curvature", [
    ("kenmotsu3-sph-soliton", 1), ("kenmotsu3-hyp-soliton", -1),
])
def test_builtin_carries_the_soliton(name, curvature):
    config = builtin_config(name)
    v = [sp.Integer(0), sp.Integer(0), sp.diff(F, T) / A**2]
    rng = np.random.default_rng(7)
    for _ in range(4):
        point = {"x": rng.uniform(-1, 1), "y": rng.uniform(0.6, 1),
                 "z": rng.uniform(-0.4, 2), "a": rng.uniform(0.5, 4)}
        at = {X: point["x"], Y: point["y"], T: point["z"], A: point["a"],
              K: curvature}
        assert evaluate(config.scalar.exprs[0], point) == pytest.approx(
            float(F.subs(at)), rel=1e-13)
        for got, want in zip(config.vectors["V"].exprs, v):
            assert evaluate(got, point) == pytest.approx(
                float(want.subs(at)), rel=1e-13, abs=1e-15)
        for cand in config.candidates:
            assert evaluate(cand.lam.exprs[0], point) == pytest.approx(
                float(LAMBDA[cand.kind].subs(at)), rel=1e-13)
