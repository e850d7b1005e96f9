"""Both soliton kinds through one equation, Ric = -(k/2) L_V g + beta g.

The reference functions here are the per-kind closed forms that
``solitons`` wrote out before the two kinds became the constants
k = 2n-1, beta = 2n lambda - div V (riemann) and k = 1, beta = lambda
(ricci); they are kept verbatim.  The merged code is compared with them at
n = 1, 2, 3, on synthetic random data that the closed forms read through
stand-ins for the chart quantities.  At n = 1 both kinds have k = 1, so
only n >= 2 tells them apart.  The rows include xi(f) = 0, Lap(f) = 0,
both, and Lap_bar(f) = 0, which select the hypotheses of the battery that
no builtin fixture meets.

The tolerance is fixed from the dtype: each closed form is a sum of at
most 8 terms of at most 8 rounded operations, so evaluating it in another
order moves it by at most about 64 eps times its largest term.  2^10 eps
(2.3e-13) relative to max(1, max |reference|) allows for a largest term
16 times that scale; on these O(1) data, with a in [0.5, 3.7], the merged
forms stay within 2 eps of the reference, while a wrong coefficient moves
a value by O(1).

Sympy is the exact oracle for the algebra that the merge relies on: the
reconstruction identity and the remainder of the deformed bound follow from
Ric_bar = -k Hess_bar f + beta g_bar, and lambda = (beta + div V)/(2n)
gives back the riemann lambdas the paper states.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

from acmsolitons import deformation, solitons
from acmsolitons.geometry import with_a
from acmsolitons.solitons import (
    _battery,
    _reeb_forced,
    _trace,
    orthogonal_gradient_values,
    soliton_residuals,
    theorem_lambda,
    xi_compatibility,
)
from acmsolitons.tensor import MetricData
from test_solitons import reeb_soliton_general

TOL = 2.0 ** 10 * np.finfo(float).eps
NS = (1, 2, 3)
KINDS = ("riemann", "ricci")
A_GRID = np.array([0.5, 1.0, 2.0, 3.7])
A_COL = A_GRID[:, None]  # the grid in front of the sample axis
N = 6  # rows: random, xi(f) = 0, Lap f = 0, both, Lap_bar f = 0, random


def _close(got, ref, scale=None):
    got, ref = np.broadcast_arrays(np.asarray(got, float), np.asarray(ref, float))
    if scale is None:
        scale = max(1.0, float(np.max(np.abs(ref))))
    assert float(np.max(np.abs(got - ref))) <= TOL * scale


class _Synthetic:
    """N samples of a (2n+1)-dimensional chart: a random metric, xi = eta =
    the last coordinate vector, and random values of xi(f), xi(xi(f)),
    Lap f and xi(eta(V))."""

    def __init__(self, n, seed):
        rng = np.random.default_rng(seed)
        d = 2 * n + 1
        self.n = n
        self.point = {"z": np.zeros(N)}
        self.e = np.zeros((N, d))
        self.e[:, -1] = 1.0
        m = rng.normal(size=(N, d, d))
        g = m @ np.swapaxes(m, -1, -2) + d * np.eye(d)
        self.metric = MetricData(g=g, inv=np.linalg.inv(g), dg=None)
        self.manifold = SimpleNamespace(
            coords=(), metric_at_cached=lambda point: self.metric
        )
        self.xif = rng.uniform(-2.0, 2.0, N)
        self.xif[[1, 3]] = 0.0
        self.xixif = rng.uniform(-2.0, 2.0, N)
        self.lap = rng.uniform(-2.0, 2.0, N)
        self.lap[[2, 3]] = 0.0
        # Lap_bar f = Lap f/a - ((a-1)/a^2)(2n xi(f) + xi(xi f)) = 0 at a = 2
        self.lap[4] = 0.5 * (2 * n * self.xif[4] + self.xixif[4])
        self.sigma = rng.uniform(-2.0, 2.0, N)
        self.sigma[1] = 0.0

    def xi_values(self, point):
        return self.e

    eta_values = xi_values


@pytest.fixture(params=NS)
def synthetic(request, monkeypatch):
    s = _Synthetic(request.param, seed=request.param)
    monkeypatch.setattr(
        solitons, "xi_derivatives", lambda st, f, p: (s.xif, s.xixif)
    )
    monkeypatch.setattr(solitons, "laplacian", lambda man, f, p: s.lap)
    # Lap_bar reads them in deformation; laplacian_bar itself stays real
    monkeypatch.setattr(
        deformation, "xi_derivatives", lambda st, f, p: (s.xif, s.xixif)
    )
    monkeypatch.setattr(deformation, "laplacian", lambda man, f, p: s.lap)
    monkeypatch.setattr(
        solitons, "xi_of_eta_potential", lambda st, v, p: s.sigma
    )
    return s


# ---------------------------------------------------------------------------
# the per-kind closed forms, as written before the merge

def _theorem_lambda_ref(kind, scenario, n, a, sigma, hess_xx, lap, eta_grad):
    a2 = a * a
    if scenario == "reeb":
        if kind == "riemann":
            return (a - 1.0) / a2
        return -2.0 * n / a2
    if scenario == "solenoidal":
        if kind == "riemann":
            return (2 * n - 1.0) / (2 * n) * sigma - 1.0 / a2
        return sigma - 2.0 * n / a2
    if kind == "riemann":
        return (
            lap / (2 * n * a)
            - (a - 1.0) / a2 * eta_grad
            + (2 * n - a) / (2 * n * a2) * hess_xx
            - 1.0 / a2
        )
    return hess_xx / a2 - 2.0 * n / a2


def _reeb_forced_ref(kind, g, ee, n):
    if kind == "riemann":
        return -(4 * n - 1.0) * g + (2 * n - 1.0) * ee
    return -(2 * n + 1.0) * g + ee


def _reeb_general_ref(kind, n, a, lambda_bar, g, ee):
    if kind == "riemann":
        cg = 2 * n * a * lambda_bar - (4 * n - 1.0) - 2 * n * (a - 1.0) / a
        ce = (
            2 * n * a * (a - 1.0) * lambda_bar
            + (4 * n - 1.0 - 2 * n * a)
            + 2 * n * (a - 1.0) / a
        )
    else:
        cg = a * lambda_bar - 1.0 - 2 * n * (a - 1.0) / a
        ce = a * (a - 1.0) * lambda_bar + 1.0 + 2 * n * (a - 1.0) / a
    # the g-trace of cg g + ce eta (x) eta for a unit eta; the scal written
    # before the merge agreed with it only at the pinned lambda
    scal = (2 * n + 1) * cg + ce
    return cg[..., None, None] * g + ce[..., None, None] * ee, scal


def _orthogonal_ref(kind, n, a, lap):
    if kind == "riemann":
        lam = lap / (2 * n * a) - 1.0 / (a * a)
        scal = -(2 * n - 1.0) * lap - 2 * n * (2 * n + 1.0)
    else:
        lam = -2.0 * n / (a * a)
        scal = -lap - 2 * n * (2 * n + 1.0)
    return lam, scal


def _residuals_ref(kind, n, g, ric, scal, lie, div_v, lam):
    lam_t = lam[..., None, None]
    if kind == "ricci":
        return {
            "full": np.max(np.abs(0.5 * lie + ric - lam_t * g), axis=(-2, -1)),
            "scalar": np.abs(scal - ((2 * n + 1) * lam - div_v)),
        }
    eq4 = (
        0.5 * lie
        + ric / (2 * n - 1)
        - ((2 * n * lam - div_v) / (2 * n - 1))[..., None, None] * g
    )
    eq9 = scal - 2 * n * ((2 * n + 1) * lam - 2.0 * div_v)
    return {
        "traced": np.max(np.abs(eq4), axis=(-2, -1)),
        "scalar": np.abs(eq9),
    }


def _battery_ref(kind, n, a, lam_bar, data, gate_tol):
    scal_g = data["scal"]
    hess_sq, ric_sq = data["hess_sq"], data["ric_sq"]
    lap_g, xif, xixif = data["lap"], data["xif"], data["xixif"]
    hess_bar_sq, ric_bar_sq = data["hess_bar_sq"], data["ric_bar_sq"]
    lap_bar = data["lap_bar"]
    q = (a - 1.0) / a
    a2 = a * a
    items = []

    def put(name, lhs, rhs, *, equality=False, applicable=True):
        items.append(
            {
                "check": name,
                "lhs": lhs,
                "rhs": rhs,
                "margin": lhs - rhs,
                "equality": equality,
                "applicable": applicable,
            }
        )

    orthogonal = np.abs(xif) <= gate_tol
    harmonic = np.abs(lap_g) <= gate_tol
    solenoidal_bar = np.abs(lap_bar) <= gate_tol
    if kind == "riemann":
        c = float((2 * n - 1) ** 2)
        put(
            "reconstruction",
            hess_bar_sq,
            (
                ric_bar_sq
                - 4 * n * n * (2 * n + 1) * lam_bar ** 2
                + 16 * n * n * lap_bar * lam_bar
                - (6 * n - 1) * lap_bar ** 2
            )
            / c,
            equality=True,
        )
        put(
            "deformed-bound",
            ric_bar_sq,
            c * (hess_bar_sq - lap_bar ** 2 / (2 * n + 1)),
        )
        put(
            "deformed-bound-solenoidal",
            ric_bar_sq,
            c * hess_bar_sq,
            applicable=solenoidal_bar,
        )
        put(
            "base-bound",
            ric_sq,
            c * hess_sq
            - 4 * n * q * scal_g
            - 4 * n * n * (2 * n + 1) * q * q
            - c / (2 * n + 1) * lap_g ** 2
            - 2 * c / (2 * n + 1) * q * (xif - xixif) * lap_g
            + 2 * n * c / (2 * n + 1) * q * q * xif ** 2
            - 2 * c * (n + n * a + a) * (a - 1.0) / ((2 * n + 1) * a2) * xixif ** 2
            + 2 * c * (2 * n + a) * (a - 1.0) / ((2 * n + 1) * a2) * xif * xixif,
        )
        put(
            "base-bound-orthogonal",
            ric_sq,
            c * hess_sq
            - c / (2 * n + 1) * lap_g ** 2
            + 4 * n * (2 * n - 1) * q * lap_g
            + 4 * n * n * (2 * n + 1) * (a2 - 1.0) / a2,
            applicable=orthogonal,
        )
        put(
            "base-bound-orthogonal-harmonic",
            ric_sq,
            c * hess_sq + 4 * n * n * (2 * n + 1) * (a2 - 1.0) / a2,
            applicable=orthogonal & harmonic,
        )
        put(
            "base-bound-solenoidal",
            ric_sq,
            c * hess_sq + (a2 - 1.0) / a2 * (4 * n * n - c * xixif ** 2),
            applicable=solenoidal_bar,
        )
    else:
        put(
            "reconstruction",
            hess_bar_sq,
            ric_bar_sq - (2 * n + 1) * lam_bar ** 2 + 2.0 * lap_bar * lam_bar,
            equality=True,
        )
        put(
            "deformed-bound",
            ric_bar_sq,
            hess_bar_sq - lap_bar ** 2 / (2 * n + 1),
        )
        put(
            "deformed-bound-solenoidal",
            ric_bar_sq,
            hess_bar_sq,
            applicable=solenoidal_bar,
        )
        put(
            "base-bound",
            ric_sq,
            hess_sq
            - 4 * n * q * scal_g
            - 4 * n * n * (2 * n + 1) * q * q
            - lap_g ** 2 / (2 * n + 1)
            - 2.0 / (2 * n + 1) * q * (xif - xixif) * lap_g
            + 2 * (2 * n + a) * (a - 1.0) / ((2 * n + 1) * a2) * xif * xixif
            + 2 * n / (2 * n + 1) * q * q * xif ** 2
            - 2 * (n + n * a + a) * (a - 1.0) / ((2 * n + 1) * a2) * xixif ** 2,
        )
        put(
            "base-bound-orthogonal",
            ric_sq,
            hess_sq
            - lap_g ** 2 / (2 * n + 1)
            + 4 * n * q * lap_g
            + 4 * n * n * (2 * n + 1) * (a2 - 1.0) / a2,
            applicable=orthogonal,
        )
        put(
            "base-bound-orthogonal-harmonic",
            ric_sq,
            hess_sq + 4 * n * n * (2 * n + 1) * (a2 - 1.0) / a2,
            applicable=orthogonal & harmonic,
        )
        put(
            "base-bound-solenoidal",
            ric_sq,
            hess_sq + (a2 - 1.0) / a2 * (4 * n * n - xixif ** 2),
            applicable=solenoidal_bar,
        )
    return items


# ---------------------------------------------------------------------------
# merged code against the reference

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scenario", ["reeb", "solenoidal", "gradient"])
def test_theorem_lambda(synthetic, kind, scenario):
    s = synthetic
    potential = None if scenario == "reeb" else object()
    got = theorem_lambda(kind, scenario, s, potential,
                         with_a(s.point, A_GRID))
    ref = _theorem_lambda_ref(
        kind, scenario, s.n, A_COL, s.sigma, s.xixif, s.lap, s.xif
    )
    _close(got, ref)


@pytest.mark.parametrize("kind", KINDS)
def test_reeb_forced_ricci(synthetic, kind):
    s = synthetic
    g = s.metric.g
    ee = s.e[:, :, None] * s.e[:, None, :]
    _close(_reeb_forced(kind, g, ee, s.n), _reeb_forced_ref(kind, g, ee, s.n))


@pytest.mark.parametrize("kind", KINDS)
def test_reeb_soliton_general(synthetic, kind):
    s = synthetic
    lam = np.random.default_rng(7).uniform(-2.0, 2.0, (len(A_GRID), N))
    got = reeb_soliton_general(kind, s, s.point, A_GRID, lam)
    ee = s.e[:, :, None] * s.e[:, None, :]
    ric, scal = _reeb_general_ref(kind, s.n, A_COL, lam, s.metric.g, ee)
    _close(got["ric"], ric)
    _close(got["scal"], scal)


@pytest.mark.parametrize("kind", KINDS)
def test_orthogonal_gradient_values(synthetic, kind):
    s = synthetic
    got = orthogonal_gradient_values(kind, s, object(),
                                     with_a(s.point, A_GRID))
    lam, scal = _orthogonal_ref(kind, s.n, A_COL, s.lap)
    _close(got["lambda_bar"], lam)
    _close(got["scal"], scal)
    assert got["applicable"].tolist() == (s.xif == 0.0).tolist()


@pytest.mark.parametrize("kind", KINDS)
def test_reeb_compatibility_star(synthetic, kind):
    # the base Reeb pair solves the base equation at lambda = 0 resp. -2n
    s = synthetic
    star = xi_compatibility(kind, s, with_a(s.point, A_GRID))["lambda_star"]
    assert star == (0.0 if kind == "riemann" else -2.0 * s.n)


@pytest.mark.parametrize("kind", KINDS)
def test_soliton_residuals(synthetic, kind, monkeypatch):
    s = synthetic
    rng = np.random.default_rng(8)
    d = 2 * s.n + 1
    ric = rng.normal(size=(N, d, d))
    lie = rng.normal(size=(N, d, d))
    scal, div_v, lam = rng.uniform(-2.0, 2.0, (3, N))
    div_v[1] = 0.0
    bundle = {
        "metric": s.metric, "Ric": ric + np.swapaxes(ric, -1, -2),
        "scal": scal, "R04": np.zeros((N, d * (d - 1) // 2, d, d)),
    }
    monkeypatch.setattr(solitons, "curvature_bundle", lambda man, p: bundle)
    monkeypatch.setattr(
        solitons, "_lie_and_div", lambda man, v, p: (lie, div_v)
    )
    monkeypatch.setattr(solitons, "evaluate", lambda e, p: lam)
    structure = SimpleNamespace(n=s.n, manifold=None, xi_field=None)
    candidate = SimpleNamespace(kind=kind, lam=None, potential="reeb",
                                field=None, scalar=None)
    got = soliton_residuals(structure, candidate, with_a(s.point, 1.0))
    ref = _residuals_ref(
        kind, s.n, s.metric.g, bundle["Ric"], scal, lie, div_v, lam
    )
    two = "full" if kind == "ricci" else "traced"
    _close(got[two], ref[two])
    _close(got["scalar"], ref["scalar"])


def _norms(n, seed):
    """Random ``_gradient_norms`` data over the rows of the module doc."""
    rng = np.random.default_rng(seed)
    data = {
        key: rng.uniform(-2.0, 2.0, N)
        for key in ("scal", "hess_sq", "ric_sq", "lap", "xif", "xixif")
    }
    for key in ("ric_bar_sq", "hess_bar_sq", "lap_bar"):
        data[key] = rng.uniform(-2.0, 2.0, (len(A_GRID), N))
    data["xif"][[1, 3]] = 0.0
    data["lap"][[2, 3]] = 0.0
    data["lap_bar"][:, 4] = 0.0
    return data


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("kind", KINDS)
def test_battery(kind, n):
    data = _norms(n, seed=10 + n)
    lam = np.random.default_rng(20 + n).uniform(-2.0, 2.0, (len(A_GRID), N))
    got = _battery(n, _trace(kind, n), A_COL, lam, data)
    ref = _battery_ref(kind, n, A_COL, lam, data, 1e-9)
    assert [e["check"] for e in got] == [e["check"] for e in ref]
    for new, old in zip(got, ref):
        assert new["equality"] == old["equality"], old["check"]
        assert np.array_equal(
            np.broadcast_to(new["applicable"], (len(A_GRID), N)),
            np.broadcast_to(old["applicable"], (len(A_GRID), N)),
        ), old["check"]
        for field in ("lhs", "rhs", "margin"):
            _close(new[field], old[field])
    # every hypothesis holds at some row and fails at another
    for e in ref[2:]:
        if e["applicable"] is not True:
            assert np.any(e["applicable"]) and not np.all(e["applicable"])


# ---------------------------------------------------------------------------
# the exact oracle

def _symmetric(m, name):
    return sp.Matrix(m, m, lambda i, j: sp.Symbol(
        f"{name}_{min(i, j)}{max(i, j)}"
    ))


@pytest.mark.parametrize("n", NS)
def test_norm_identities_follow_from_the_equation(n):
    # in a g_bar-orthonormal frame at a point, Ric_bar = -k Hess_bar f
    # + beta g_bar with Hess_bar f a generic symmetric matrix
    m = 2 * n + 1
    k, beta = sp.symbols("k beta")
    hess = _symmetric(m, "h")
    ric = -k * hess + beta * sp.eye(m)
    ric_sq = (ric * ric).trace()
    hess_sq = (hess * hess).trace()
    lap, scal = hess.trace(), ric.trace()
    numerator = ric_sq + 2 * k * beta * lap - m * beta ** 2
    assert sp.expand(k ** 2 * hess_sq - numerator) == 0
    remainder = ric_sq - k ** 2 * (hess_sq - lap ** 2 / m)
    assert sp.expand(remainder - scal ** 2 / m) == 0

    # the battery's reconstruction and deformed-bound margin are these
    rng = np.random.default_rng(30 + n)
    entries = sorted(hess.free_symbols, key=str)
    values = dict(zip(entries, rng.uniform(-2.0, 2.0, len(entries))))

    def number(e):
        return float(e.subs(values))

    for kind in KINDS:
        tr = _trace(kind, n)
        values[k], values[beta] = tr.k, 0.7
        data = _norms(n, seed=0)
        data.update(
            ric_bar_sq=number(ric_sq), hess_bar_sq=number(hess_sq),
            lap_bar=number(lap),
        )
        lam = tr.lam(0.7, data["lap_bar"])
        items = {e["check"]: e for e in _battery(n, tr, 2.0, lam, data)}
        # both sides cancel terms of the size of |Ric_bar|^2
        scale = max(1.0, data["ric_bar_sq"], tr.k ** 2 * data["hess_bar_sq"])
        _close(items["reconstruction"]["rhs"], number(numerator / k ** 2), scale)
        _close(items["deformed-bound"]["margin"], number(scal ** 2 / m), scale)


def test_riemann_lambdas_from_beta():
    n, a, sigma, xif, xixif, lap = sp.symbols("n a sigma xif xixif lap")
    k = 2 * n - 1

    def lam(xi_eta_v, div_v):
        return (k * xi_eta_v - 2 * n / a ** 2 + div_v) / (2 * n)

    # Lap_bar(f) = Lap(f)/a - ((a-1)/a^2)[2n xi(f) + xi(xi(f))]
    lap_bar = lap / a - (a - 1) / a ** 2 * (2 * n * xif + xixif)
    # the riemann lambdas of the module docstring, with eta(grad f) = xi(f)
    # and Hess(f)(xi, xi) = xi(xi(f)) over a Kenmotsu base
    stated = {
        "reeb": ((a - 1) / a ** 2, lam(0, 2 * n / a)),
        "solenoidal": (
            (2 * n - 1) / (2 * n) * sigma - 1 / a ** 2, lam(sigma, 0)
        ),
        "gradient": (
            lap / (2 * n * a) - (a - 1) / a ** 2 * xif
            + (2 * n - a) / (2 * n * a ** 2) * xixif - 1 / a ** 2,
            lam(xixif / a ** 2, lap_bar),
        ),
    }
    for scenario, (paper, unified) in stated.items():
        assert sp.simplify(paper - unified) == 0, scenario
