"""No Kenmotsu chart meets the premise of the Reeb scenario.

A deformed-Reeb soliton forces the base Ricci tensor
-k(g - eta (x) eta) - 2n g (``solitons._reeb_forced``), with k = 2n-1 for
the riemann kind and 1 for the ricci kind.  Locally every Kenmotsu
manifold is a warped product dt^2 + c e^{2t} g_N (Kenmotsu, Tohoku Math.
J. 24 (1972)), and sympy shows here that its Ricci tensor is never the
forced one:

* n = 1: every surface metric is locally conformally flat, so
  g = dt^2 + c e^{2t} e^{2u(x,y)} (dx^2 + dy^2) covers every 3-d Kenmotsu
  chart.  Ric minus the forced Ricci vanishes except on the fibre
  diagonal, where it is c e^{2t+2u} - Lap u; its t-derivative
  2c e^{2t+2u} is positive, so it vanishes for no open set of t.
* n = 2: on g = dt^2 + c e^{2t} g_N with a generic diagonal 4-d fibre
  metric g_N (the Ricci formula needs no Kaehler fibre), the fibre block
  of Ric is Ric_N - 2n g_hat, g_hat = c e^{2t} g_N, against the forced
  -(k + 2n) g_hat.  Their difference Ric_N + k g_hat has the t-derivative
  2k g_hat, positive definite, for both kinds.

The Ricci tensor is built here from sympy alone, in the package's
convention Ric(Y, Z) = trace of X -> R(X, Y)Z, under which hyperbolic
space (c = 1, u = 0) has Ric = -2g and Ric(xi, xi) = -2n.
"""

import numpy as np
import pytest
import sympy as sp

from acmsolitons.solitons import _reeb_forced

T = sp.Symbol("t", real=True)
C = sp.Symbol("c", positive=True)


def _ricci(g, x):
    """Ric[b, c] = d_a Gamma^a_bc - d_c Gamma^a_ab + Gamma^a_ae Gamma^e_bc
    - Gamma^a_ce Gamma^e_ab of the sympy metric ``g`` in coordinates ``x``."""
    d = len(x)
    inv = g.inv()
    gamma = [[[sum(inv[l, k] * (sp.diff(g[j, k], x[i]) + sp.diff(g[i, k], x[j])
                                - sp.diff(g[i, j], x[k])) for k in range(d)) / 2
               for j in range(d)] for i in range(d)] for l in range(d)]
    ric = sp.zeros(d, d)
    for b in range(d):
        for c in range(d):
            ric[b, c] = sum(
                sp.diff(gamma[a][b][c], x[a]) - sp.diff(gamma[a][a][b], x[c])
                + sum(gamma[a][a][e] * gamma[e][b][c]
                      - gamma[a][c][e] * gamma[e][a][b] for e in range(d))
                for a in range(d)
            )
    return ric


def _forced(g, n, k):
    """-k(g - eta (x) eta) - 2n g for eta = dt, t the last coordinate."""
    d = g.shape[0]
    ee = sp.zeros(d, d)
    ee[d - 1, d - 1] = 1
    return -k * (g - ee) - 2 * n * g


@pytest.mark.parametrize("n", [1, 2])
def test_forced_ricci_is_the_packages(n):
    # the forced tensor below is the one the Reeb-compatibility claims use
    rng = np.random.default_rng(n)
    d = 2 * n + 1
    g = rng.normal(size=(d, d))
    g = g @ g.T + d * np.eye(d)
    ee = np.zeros((d, d))
    ee[-1, -1] = 1.0
    for kind, k in (("riemann", 2 * n - 1), ("ricci", 1)):
        want = np.array(_forced(sp.Matrix(g), n, k), dtype=float)
        np.testing.assert_allclose(_reeb_forced(kind, g, ee, n), want,
                                   rtol=1e-15, atol=1e-15)


def test_three_dimensional_kenmotsu_charts_miss_the_premise():
    x, y = sp.symbols("x y", real=True)
    u = sp.Function("u", real=True)(x, y)
    w = C * sp.exp(2 * T) * sp.exp(2 * u)
    g = sp.diag(w, w, 1)
    ric = _ricci(g, (x, y, T))
    hyperbolic = ric.subs({u: 0, C: 1}).doit()
    assert sp.simplify(hyperbolic + 2 * g.subs({u: 0, C: 1})) == sp.zeros(3, 3)
    lap = sp.diff(u, x, 2) + sp.diff(u, y, 2)
    # k = 2n - 1 = 1 for the riemann kind at n = 1, as for the ricci kind
    residual = (ric - _forced(g, 1, 1)).applyfunc(sp.simplify)
    diagonal = w - lap
    for i in range(3):
        for j in range(3):
            want = diagonal if i == j < 2 else 0
            assert sp.simplify(residual[i, j] - want) == 0, (i, j)
    slope = sp.simplify(sp.diff(diagonal, T))
    assert sp.simplify(slope - 2 * w) == 0
    assert slope.is_positive


def test_five_dimensional_warped_products_miss_the_premise():
    n = 2
    xs = sp.symbols("x1 x2 x3 x4", real=True)
    fibre = [sp.Function(f"p{i}", positive=True)(*xs) for i in range(2 * n)]
    g_n = sp.diag(*fibre)
    g = sp.diag(*[C * sp.exp(2 * T) * p for p in fibre], 1)
    ric = _ricci(g, (*xs, T))
    ric_n = _ricci(g_n, xs)
    g_hat = g[:2 * n, :2 * n]
    # the warped-product Ricci: fibre block Ric_N - 2n g_hat, no mixed
    # (t, fibre) terms and Ric(xi, xi) = -2n
    assert (ric[:2 * n, :2 * n] - (ric_n - 2 * n * g_hat)).applyfunc(
        sp.simplify) == sp.zeros(2 * n, 2 * n)
    assert [sp.simplify(ric[2 * n, i]) for i in range(2 * n + 1)] == (
        [0] * (2 * n) + [-2 * n])
    for k in (2 * n - 1, 1):  # riemann, ricci
        forced = _forced(g, n, k)
        assert forced[2 * n, :] == ric[2 * n, :].applyfunc(sp.simplify)
        assert (forced[:2 * n, :2 * n] + (k + 2 * n) * g_hat).expand() == (
            sp.zeros(2 * n, 2 * n))
        # so Ric minus the forced Ricci is Ric_N + k g_hat on the fibre and
        # zero elsewhere; its t-derivative is 2k g_hat, positive definite,
        # so it vanishes for no open set of t
        slope = (ric_n + k * g_hat).diff(T)
        assert (slope - 2 * k * g_hat).expand() == sp.zeros(2 * n, 2 * n)
        assert all(slope[i, i].is_positive for i in range(2 * n))
