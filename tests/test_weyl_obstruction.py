"""At n = 2 a riemann almost soliton needs a conformally flat chart.

The riemann soliton equation 2 R + (L_V g) o g = lambda g o g makes the
curvature a Kulkarni-Nomizu product, R = (1/2)(lambda g - L_V g) o g.  A
Kulkarni-Nomizu product h o g has no Weyl part, so the Weyl tensor
W = R - P o g, P = (Ric - scal g / (2(m-1))) / (m-2) the Schouten tensor
of an m-manifold, must vanish, whatever V is.  sympy shows here, in the
package's conventions (R(X, Y, Z, W) = g(R(X, Y)Z, W), Ric(Y, Z) the trace
of X -> R(X, Y)Z, o as in ``tensor.kulkarni_nomizu``):

* h o g has no Weyl part, for a generic symmetric h and diagonal g;
* on the deformation g_bar = a^2 dz^2 + a e^{2z} (h1 + h2) of the Kenmotsu
  chart dz^2 + e^{2z} (h1 + h2), h1 and h2 surface metrics of constant
  curvature K1 and K2, W vanishes if and only if K1 = K2 = 0, the
  hyperbolic chart of ``perfbench/fixtures/kenmotsu5.ini``: at the origin
  of the fibre its components are multiples of 3 K1 + K2, K1 + K2,
  K1 + 3 K2 and K1 - K2, which vanish together only there.  So on
  S^2 x S^2 or S^2 x H^2 fibres no riemann almost soliton exists;
* gradient solitons still exist there for the (0, 2) premise of the
  inequalities: with equal curvatures K, f_a = e^z + a K e^{-2z}/6 solves
  the ricci premise Ric_bar = -Hess_bar f + lambda g_bar, so f_a/(2n-1)
  solves the riemann one Ric_bar = -(2n-1) Hess_bar f + beta g_bar, while
  f_a itself does not unless K = 0.
"""

import itertools

import sympy as sp

Z = sp.Symbol("z", real=True)
A = sp.Symbol("a", positive=True)
K1, K2 = sp.symbols("K1 K2", real=True)
FIBRE = sp.symbols("x1 y1 x2 y2", real=True)
COORDS = (*FIBRE, Z)
ORIGIN = {x: 0 for x in FIBRE}


def _christoffel(g, x):
    """Gamma[l][i][j] of the diagonal sympy metric ``g``."""
    d = len(x)
    return [[[sp.cancel((sp.diff(g[j, l], x[i]) + sp.diff(g[i, l], x[j])
                           - sp.diff(g[i, j], x[l])) / (2 * g[l, l]))
              for j in range(d)] for i in range(d)] for l in range(d)]


def _riemann(g, x):
    """R04[a, b, c, d] = g_dl (d_a Gamma^l_bc - d_b Gamma^l_ac
    + Gamma^l_ae Gamma^e_bc - Gamma^l_be Gamma^e_ac) of the diagonal
    metric ``g``, as a dict over index tuples."""
    d = len(x)
    gamma = _christoffel(g, x)
    out = {}
    for a, b, c, l in itertools.product(range(d), repeat=4):
        r13 = (sp.diff(gamma[l][b][c], x[a]) - sp.diff(gamma[l][a][c], x[b])
               + sum(gamma[l][a][e] * gamma[e][b][c]
                     - gamma[l][b][e] * gamma[e][a][c] for e in range(d)))
        out[a, b, c, l] = g[l, l] * r13
    return out


def _kn(h, k, x, y, z, w):
    return (h[x, w] * k[y, z] + h[y, z] * k[x, w]
            - h[x, z] * k[y, w] - h[y, w] * k[x, z])


def _weyl(r04, g):
    """W = R04 - P o g of a (0,4) tensor under the diagonal metric ``g``."""
    d = g.shape[0]
    ric = sp.Matrix(d, d, lambda b, c: sum(r04[a, b, c, a] / g[a, a]
                                           for a in range(d)))
    scal = sum(ric[i, i] / g[i, i] for i in range(d))
    schouten = (ric - scal / (2 * (d - 1)) * g) / (d - 2)
    return {k: r04[k] - _kn(schouten, g, *k) for k in r04}, ric


def _surface(k, x, y):
    """The conformal factor of the surface metric of constant curvature k."""
    return 4 / (1 + k * (x ** 2 + y ** 2)) ** 2


def _deformed(k1, k2):
    """g_bar = a^2 dz^2 + a e^{2z} (h1 + h2) in coordinates ``COORDS``."""
    x1, y1, x2, y2 = FIBRE
    w1 = A * sp.exp(2 * Z) * _surface(k1, x1, y1)
    w2 = A * sp.exp(2 * Z) * _surface(k2, x2, y2)
    return sp.diag(w1, w1, w2, w2, A ** 2)


def test_kulkarni_nomizu_products_have_no_weyl_part():
    d = 5
    g = sp.diag(*sp.symbols(f"g0:{d}", positive=True))
    h = sp.Matrix(d, d, lambda i, j: sp.Symbol(f"h{min(i, j)}{max(i, j)}"))
    product = {k: _kn(h, g, *k)
               for k in itertools.product(range(d), repeat=4)}
    weyl, _ = _weyl(product, g)
    assert all(sp.cancel(w) == 0 for w in weyl.values())


def test_weyl_tensor_vanishes_only_on_flat_fibres():
    g = _deformed(K1, K2)
    weyl, _ = _weyl(_riemann(g, COORDS), g)
    at_origin = {k: sp.factor(sp.simplify(w.subs(ORIGIN)))
                 for k, w in weyl.items()}
    # every component at the origin is a multiple of a linear form in K1
    # and K2, and together they vanish at K1 = K2 = 0 alone
    forms = set()
    for w in at_origin.values():
        if w != 0:
            numerator = sp.numer(sp.together(w))
            forms |= {f for f in sp.factor_list(numerator)[1]
                      if f[0].free_symbols & {K1, K2}}
    forms = {f for f, _ in forms}
    assert forms == {3 * K1 + K2, K1 + K2, K1 + 3 * K2, K1 - K2}
    assert sp.solve(list(forms), [K1, K2], dict=True) == [{K1: 0, K2: 0}]
    # S^2 x S^2 and S^2 x H^2 fibres have a Weyl part
    for k1, k2 in ((1, 1), (1, -1)):
        assert any(w.subs({K1: k1, K2: k2}) != 0 for w in at_origin.values())
    # the flat fibre: W vanishes identically, not at the origin alone
    flat = _deformed(0, 0)
    weyl, _ = _weyl(_riemann(flat, COORDS), flat)
    assert all(sp.simplify(w) == 0 for w in weyl.values())


def test_one_scalar_per_kind_on_equal_round_fibres():
    n = 2
    k = sp.Symbol("K", real=True)
    g = _deformed(k, k)
    ric = _weyl(_riemann(g, COORDS), g)[1]
    gamma = _christoffel(g, COORDS)

    def hessian(f):
        return sp.Matrix(5, 5, lambda i, j: sp.diff(f, COORDS[i], COORDS[j])
                         - sum(gamma[l][i][j] * sp.diff(f, COORDS[l])
                               for l in range(5)))

    def premise(weight, f):
        """(beta, residual): Ric_bar + weight Hess_bar f - beta g_bar, with
        beta read off the dz^2 entry."""
        rest = (ric + weight * hessian(f)).applyfunc(sp.simplify)
        beta = sp.simplify(rest[4, 4] / g[4, 4])
        return beta, (rest - beta * g).applyfunc(sp.simplify)

    f_a = sp.exp(Z) + A * k * sp.exp(-2 * Z) / 6
    lam, residual = premise(1, f_a)
    assert residual == sp.zeros(5, 5)
    assert sp.simplify(lam - ((sp.exp(Z) - 4) / A ** 2
                              + 2 * k * sp.exp(-2 * Z) / (3 * A))) == 0
    # the riemann premise, k = 2n - 1, with the same beta
    beta, residual = premise(2 * n - 1, f_a / (2 * n - 1))
    assert residual == sp.zeros(5, 5)
    assert sp.simplify(beta - lam) == 0
    # f_a itself misses it, but on a flat fibre
    _, residual = premise(2 * n - 1, f_a)
    assert residual != sp.zeros(5, 5)
    assert residual.subs(k, 0).applyfunc(sp.simplify) == sp.zeros(5, 5)
