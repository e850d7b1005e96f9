"""The curvature bundle equals an exact symbolic oracle.

The oracle reads a built-in fixture's definition file, parses its metric
entries with sympy (``^`` becomes ``**``) and differentiates them with
sympy alone, so it shares no code with ``expr.diff`` or with the curvature
kernel.  It builds Gamma, R13 by the textbook d_a Gamma route, R04 = R13
lowered by g, Ric and scal symbolically, for the base chart and for the
deformed chart g_bar = a g + a(a-1) eta (x) eta, eta = g(xi, .), at
a = 3.7.  Each quantity of ``curvature_bundle`` at 4 sample points must
match within 1e-12 of max(1, max |oracle|).

kenmotsu5-gh is 5-dimensional, not diagonal and not a space form, so no
slot symmetry or constant curvature hides a wrong term; kenmotsu3-wide is
the 3-dimensional warped product on a domain reaching z near 0.
"""

import configparser
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import acmsolitons
from acmsolitons import builtin_config
from acmsolitons.deformation import deform
from acmsolitons.geometry import curvature_bundle, sample_batch

FIXTURES = Path(acmsolitons.__file__).parent / "fixtures"
A_VALUE = sp.Rational(37, 10)
POINTS = 4
TOL = 1e-12
KEYS = ("gamma", "R13", "R04", "Ric", "scal")


def _parse(text: str, symbols: dict):
    return sp.sympify(text.replace("^", "**"), locals=symbols)


@lru_cache(maxsize=None)
def _oracle(name: str, deformed: bool):
    """(coordinate symbols, a function of one point's coordinates giving
    each of ``KEYS`` as an array)."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string((FIXTURES / f"{name}.ini").read_text(encoding="utf-8"))
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
    if deformed:
        xi = sp.Matrix([_parse(t, symbols)
                        for t in parser["structure"]["xi"].split(",")])
        eta = g * xi
        g = A_VALUE * g + A_VALUE * (A_VALUE - 1) * (eta * eta.T)
    inv = sp.simplify(g.inv())
    dg = [[[sp.diff(g[i, j], x[k]) for j in range(d)] for i in range(d)]
          for k in range(d)]
    gamma = [[[sp.expand(sum(
        inv[l, k] * (dg[i][j][k] + dg[j][i][k] - dg[k][i][j])
        for k in range(d)) / 2) for j in range(d)] for i in range(d)]
        for l in range(d)]
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
    f = sp.lambdify(x, [gamma, r13, r04, ric, scal], "numpy", cse=True)
    return names, f


CASES = [(name, deformed) for name in ("kenmotsu5-gh", "kenmotsu3-wide")
         for deformed in (False, True)]


@pytest.mark.parametrize(
    "name, deformed", CASES,
    ids=[f"{n}-{'deformed' if dfm else 'base'}" for n, dfm in CASES],
)
def test_curvature_bundle_matches_sympy(name, deformed):
    names, oracle = _oracle(name, deformed)
    config = builtin_config(name)
    batch = sample_batch(config.manifold, config.box, POINTS, config.seed)
    if deformed:
        ds = deform(config.structure, float(A_VALUE))
        bundle = curvature_bundle(ds.manifold, ds.at(batch))
    else:
        bundle = curvature_bundle(config.manifold, batch)
    assert tuple(config.manifold.coords) == tuple(names)
    want = [
        [np.asarray(v, dtype=float) for v in oracle(*(p[c] for c in names))]
        for p in batch.points()
    ]
    for k, key in enumerate(KEYS):
        ref = np.array([w[k] for w in want])
        got = np.asarray(bundle[key])
        assert got.shape == ref.shape, key
        scale = max(1.0, float(np.max(np.abs(ref))))
        err = float(np.max(np.abs(got - ref)))
        assert err <= TOL * scale, f"{key}: {err:.3e} at scale {scale:.3e}"
