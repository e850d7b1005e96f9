"""Almost soliton equations and their structure-level consequences.

Two equation kinds are checked for a metric g, a potential field V and a
soliton function lambda:

    riemann:  (1/2)(L_V g) (*) g + R = lambda G,  G = (1/2) g (*) g,
              written here as the residual  2 R + (L_V g) (*) g
              - lambda (g (*) g)  with (*) the Kulkarni-Nomizu product;
    ricci:    (1/2) L_V g + Ric - lambda g.

Tracing the riemann equation once, and taking the ricci one as it stands,
gives one (0,2) equation with two constants,

    Ric = -(k/2) L_V g + beta g,   scal = (2n+1) beta - k div V,
    riemann: k = 2n-1, beta = 2n lambda - div V;   ricci: k = 1, beta = lambda,

and every scalar and (0,2) closed form below is written once through
(k, beta); only the (0,4) riemann equation has no ricci counterpart.
Residuals are reported as max-abs over components, so the traced residuals
are controlled by the full ones through the inverse-metric entries.  Every
function takes a point or a batch of sample points, and returns per-sample
values for a batch.  What depends on the deformation parameter takes a
point that binds it (``geometry.with_a``) and reads a there: one value, or
an (A,) array that puts an a axis in front of the sample axis, while base
data is computed on the samples alone and broadcasts.  A frame is a
structure with such a point: ``(structure, with_a(points, 1.0))`` is the
base frame, and ``(ds.structure, ds.at(points))`` that of a deformation
``ds``, whose chart carries g_bar, so no closed form enters a soliton
residual computed there.

For a deformed Kenmotsu frame beta = k xi_bar(eta_bar(V)) - 2n/a^2, with
xi_bar(eta_bar(V)) = 0, xi(eta(V)), xi(xi(f))/a^2 and div V = 2n/a, 0,
Lap_bar(f) for the Reeb, solenoidal and gradient scenario; so the lambda of
each scenario is pinned:

    riemann, Reeb:       lambda = (a-1)/a^2
    riemann, solenoidal: lambda = ((2n-1)/2n) xi(eta(V)) - 1/a^2
    riemann, gradient:   lambda = Lap(f)/(2na) - ((a-1)/a^2) eta(grad f)
                                  + ((2n-a)/(2na^2)) Hess(f)(xi,xi) - 1/a^2
    ricci,   Reeb:       lambda = -2n/a^2
    ricci,   solenoidal: lambda = xi(eta(V)) - 2n/a^2
    ricci,   gradient:   lambda = Hess(f)(xi,xi)/a^2 - 2n/a^2

and the Reeb scenario forces the base curvature completely; those implied
tensors, the compatibility of the base Reeb pair (which solves the base
equation only at lambda = 0 resp. lambda = -2n), and a battery of norm
inequalities for the gradient scenario are implemented below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .deformation import (
    HYPOTHESIS_TOL, DeformedStructure, base_inner, laplacian_bar, ricci_bar,
    riemann_bar,
)
from .expr import A
from .geometry import (
    AcmStructure,
    ScalarField,
    VectorField,
    covariant_derivative,
    curvature_bundle,
    divergence,
    gradient_lie_derivative,
    laplacian,
    lie_derivative_metric,
    on_batch,
    on_bound_batch,
    xi_derivatives,
)
from .tensor import (
    StructureError, contract, hs_inner, hs_pair, hs_raise, kulkarni_nomizu,
    max_abs, outer, plus, symmetric, trace,
)

__all__ = [
    "STEADY_BAND",
    "SolitonCandidate",
    "classify",
    "soliton_residuals",
    "xi_of_eta_potential",
    "theorem_lambda",
    "implied_curvature",
    "solenoidal_implied",
    "orthogonal_gradient_values",
    "xi_compatibility",
    "inequality_battery",
]

STEADY_BAND = 1e-10
# the shift of lambda off lambda_star at which xi_compatibility measures the
# base residual
_PERTURBATION = 0.5


def classify(lam_value):
    """shrinking / steady / expanding by the sign of lambda, per sample."""
    lam = np.asarray(lam_value)
    labels = np.where(
        np.abs(lam) <= STEADY_BAND,
        "steady",
        np.where(lam > 0.0, "shrinking", "expanding"),
    )
    return labels[()]


def _tensor(scalar):
    """A per-sample scalar, shaped to scale per-sample (0, 2) tensors."""
    return np.asarray(scalar)[..., None, None]


class _Trace(NamedTuple):
    """Ric = -(k/2) L_V g + beta g with beta = w lambda - s div V: the
    (0, 2) form of both soliton kinds."""

    k: float
    w: float
    s: float

    def lam(self, beta, div_v):
        return (beta + self.s * div_v) / self.w

    def beta(self, lam, div_v):
        return self.w * lam - self.s * div_v


def _trace(kind: str, n: int) -> _Trace:
    if kind == "riemann":
        if 2 * n - 1 <= 0:
            raise StructureError("traced soliton equations need dimension >= 3")
        return _Trace(2.0 * n - 1.0, 2.0 * n, 1.0)
    if kind == "ricci":
        return _Trace(1.0, 1.0, 0.0)
    raise StructureError(f"unknown soliton kind {kind!r}")


@dataclass(frozen=True)
class SolitonCandidate:
    """A proposed soliton datum (potential, lambda) for one equation kind.

    ``potential`` is the configured ``ScalarField`` whose gradient is the
    potential, the configured ``VectorField`` that is the potential, or
    None for the Reeb field of whatever frame the candidate is evaluated
    in; every candidate naming a configured field holds that field itself.
    ``lam`` is the ``ScalarField`` of lambda.  Either may read the reserved
    symbol ``a``, which the frame's batch binds to its deformation
    parameters (1 in an undeformed frame); that way a single candidate
    describes the whole deformation family.
    """

    name: str
    kind: str
    potential: ScalarField | VectorField | None
    lam: ScalarField

    def __post_init__(self):
        if self.kind not in ("riemann", "ricci"):
            raise StructureError(f"unknown soliton kind {self.kind!r}")
        if not (isinstance(self.lam, ScalarField) and isinstance(
                self.potential, (ScalarField, VectorField, type(None)))):
            raise StructureError(
                f"candidate {self.name!r} needs a ScalarField lambda and a "
                f"ScalarField, VectorField or None potential"
            )


# ---------------------------------------------------------------------------
# Equation residuals (max-abs over components)

def _full_residual(kind: str, g, curvature, lie, lam):
    """Max-abs residual of the full soliton equation of ``kind`` for the
    metric g, its curvature (the first-pair block of R04 for riemann, Ric
    for ricci), L_V g and lambda, per sample."""
    if kind == "ricci":
        return max_abs(0.5 * lie + (curvature - _tensor(lam) * g), 2)
    # L_V g o g - lambda g o g as one product: o is linear in each slot;
    # 2 R, then |x|, is written into the product's own buffer, which is
    # laid out component-major on the first-pair block like R04, so each
    # pass runs over whole sample rows
    full = plus(kulkarni_nomizu(lie - _tensor(lam) * g, g), 2.0 * curvature)
    return np.abs(full, out=full).max(axis=(-3, -2, -1))


@on_batch
def _lie_and_div(manifold, potential, point) -> tuple:
    """L_V g and div V on ``manifold`` of the potential V, the gradient of
    a scalar field or a vector field, memoised: candidates of both kinds
    with one potential share them."""
    if isinstance(potential, ScalarField):
        return (gradient_lie_derivative(manifold, potential, point),
                laplacian(manifold, potential, point))
    return (lie_derivative_metric(manifold, potential, point),
            divergence(manifold, potential, point))


def soliton_residuals(structure: AcmStructure, candidate, point) -> dict:
    """All residual levels for one candidate in the frame of ``structure``
    at ``point``, which binds a, per sample.

    Everything is computed directly on the structure's own chart.
    Curvature, L_V g, div V and lambda are each evaluated once; riemann
    candidates get the full, once-traced and twice-traced residuals, ricci
    candidates the full and scalar ones.  The (0, 2) equation is the full
    ricci residual and the once-traced riemann one.
    """
    n = structure.n
    tr = _trace(candidate.kind, n)
    bundle = curvature_bundle(structure.manifold, point)
    g = bundle["metric"].g
    scal = bundle["scal"]
    potential = (structure.xi_field if candidate.potential is None
                 else candidate.potential)
    lie, div_v = _lie_and_div(structure.manifold, potential, point)
    lam = candidate.lam.values(point)
    beta = tr.beta(lam, div_v)
    out = {
        "lambda": lam,
        "classification": classify(lam),
        "scalar": np.abs(scal - ((2 * n + 1) * beta - tr.k * div_v)),
    }
    if candidate.kind == "ricci":
        out["full"] = _full_residual("ricci", g, bundle["Ric"], lie, lam)
        return out
    out["full"] = _full_residual("riemann", g, bundle["R04"], lie, lam)
    out["traced"] = max_abs(
        0.5 * lie + (bundle["Ric"] - _tensor(beta) * g) / tr.k, 2
    )
    return out


# ---------------------------------------------------------------------------
# Scenario lambdas


def xi_of_eta_potential(structure: AcmStructure, field: VectorField, point):
    """xi(eta(V)) = xi^k (d_k eta_i V^i + eta_i d_k V^i), from exact
    partials of eta and V."""
    coords = structure.manifold.coords
    xi = structure.xi_field.values(point)
    return (
        contract("k,ki,i->", xi, structure.eta_field.partials(coords, point),
                 field.values(point))
        + contract("k,i,ki->", xi, structure.eta_field.values(point),
                   field.partials(coords, point))
    )


@on_bound_batch
def theorem_lambda(kind: str, scenario: str, structure: AcmStructure,
                   potential, point):
    """The lambda pinned by (kind, scenario) over a Kenmotsu base.

    All inputs are base-frame quantities: ``potential`` is the vector of
    the "solenoidal" scenario, the scalar of the "gradient" one and None
    for "reeb"; ``point`` binds the deformation parameter of the frame the
    soliton lives in, or an array of them.
    The lambda is that of beta = k xi_bar(eta_bar(V)) - 2n/a^2.
    Memoised on the bound batch, so the soliton and inequality suites
    share one computation per (kind, scenario, potential, a).
    """
    n = structure.n
    tr = _trace(kind, n)
    a = point[A]
    a2 = a * a
    if scenario == "reeb":
        xi_eta_v, div_v = 0.0, 2.0 * n / a
    elif scenario == "solenoidal":
        xi_eta_v, div_v = xi_of_eta_potential(structure, potential, point), 0.0
    elif scenario == "gradient":
        _, xixif = xi_derivatives(structure, potential, point)
        xi_eta_v = xixif / a2
        div_v = laplacian_bar(structure, potential, point)
    else:
        raise StructureError(f"unknown scenario {scenario!r}")
    return tr.lam(tr.k * xi_eta_v - 2.0 * n / a2, div_v)


# ---------------------------------------------------------------------------
# Curvature implied by the Reeb scenario

def _reeb_forced(kind: str, g, ee, n: int):
    """The base Ricci tensor -k(g - eta (x) eta) - 2n g forced by a
    deformed-Reeb soliton; the riemann kind also forces R = g o (ee - g)."""
    return -_trace(kind, n).k * (g - ee) - 2.0 * n * g


def implied_curvature(kind: str, structure: AcmStructure, point) -> dict:
    """Base curvature forced by a deformed-Reeb soliton at the a that
    ``point`` binds.

    Returns the implied Ricci tensor and scalar curvature, the stated value
    of |Ric|^2 alongside the one recomputed from the implied tensor, and for
    the riemann kind the implied (0,4) curvature on its first-pair block.

    For the ricci kind ``ric_norm_stated`` is the stated 2n(4n^2 + 6n + 3).
    It is not the norm of the returned tensor -(2n+1)g + eta(x)eta, which is
    2n(4n^2 + 6n + 1) (``ric_norm_computed``); the two differ by 4n, so
    callers must not treat them as an identity.
    """
    m = structure.manifold.metric_at_cached(point)
    eta = structure.eta_field.values(point)
    n = structure.n
    ee = outer(eta, eta)
    ric = _reeb_forced(kind, m.g, ee, n)
    out = {
        "lambda_bar": theorem_lambda(kind, "reeb", structure, None, point),
        "scal": -2.0 * n * (_trace(kind, n).k + 2 * n + 1),
    }
    if kind == "riemann":
        out["ric_norm_stated"] = float(2 * n * (16 * n * n - 6 * n + 1))
        out["r04"] = kulkarni_nomizu(m.g, ee - m.g)
    else:
        out["ric_norm_stated"] = float(2 * n * (4 * n * n + 6 * n + 3))
    out["ric"] = symmetric(ric, point)
    out["ric_trace"] = trace(ric, m)
    out["ric_norm_computed"] = hs_inner(ric, ric, m)
    return out


def solenoidal_implied(kind: str, structure: AcmStructure, vector: VectorField,
                       point) -> dict:
    """Ricci tensor and scal forced by a solenoidal-potential soliton at the
    a that ``point`` binds.

    The tensor is evaluated with the actual covariant derivative of V; its
    metric trace must reproduce the scal value whenever div V = 0 and
    eta(nabla_xi V) = xi(eta(V)), which holds over a Kenmotsu base.  Only
    k and a enter per kind: the rest is ``_solenoidal_terms``.
    """
    m = structure.manifold.metric_at_cached(point)
    sigma, sym_nv, ee, brace = _solenoidal_terms(structure, vector, point)
    n = structure.n
    a = point[A]
    ca = _trace(kind, n).k * a
    q = ca * (a - 1.0)
    ric = (
        _tensor(ca * sigma - 2.0 * n) * m.g
        + _tensor(q * sigma) * ee
        - _tensor(0.5 * ca) * sym_nv
        - _tensor(0.5 * q) * brace
    )
    scal = (2 * n + 1.0) * (ca * sigma - 2.0 * n)
    ric = symmetric(0.5 * (ric + np.swapaxes(ric, -1, -2)), point)
    return {"ric": ric, "scal": scal,
            "trace_residual": np.abs(trace(ric, m) - scal)}


@on_batch
def _solenoidal_terms(structure: AcmStructure, vector: VectorField,
                      point) -> tuple:
    """sigma = xi(eta(V)), sym(nabla V^flat), eta (x) eta and the brace of
    ``solenoidal_implied``, which no kind enters, memoised on a batch."""
    man = structure.manifold
    g = man.metric_at_cached(point).g
    eta = structure.eta_field.values(point)
    nv = covariant_derivative(man, vector, point)
    v = vector.values(point)
    nv_flat = contract("ik,kj->ij", nv, g)
    w = contract("ik,k->i", nv, eta) + contract("ij,j->i", g, v)
    ee = outer(eta, eta)
    brace = (outer(eta, w) + outer(w, eta)
             - 2.0 * _tensor(contract("i,i->", eta, v)) * ee)
    return (xi_of_eta_potential(structure, vector, point),
            nv_flat + np.swapaxes(nv_flat, -1, -2), ee, brace)


def orthogonal_gradient_values(kind: str, structure: AcmStructure,
                               scalar: ScalarField, point) -> dict:
    """lambda and scal when the gradient potential is g_bar-orthogonal to
    the Reeb field, which amounts to xi(f) = 0; then xi(xi(f)) = 0 and
    Lap_bar(f) = Lap(f)/a, so beta = -2n/a^2, at the a that ``point``
    binds."""
    n = structure.n
    tr = _trace(kind, n)
    a = point[A]
    lap = laplacian(structure.manifold, scalar, point)
    xif, _ = xi_derivatives(structure, scalar, point)
    return {
        "lambda_bar": tr.lam(-2.0 * n / (a * a), lap / a),
        "scal": -tr.k * lap - 2 * n * (2 * n + 1.0),
        "xi_f": xif,
        "applicable": np.abs(xif) <= HYPOTHESIS_TOL,
    }


# ---------------------------------------------------------------------------
# Reeb compatibility across the deformation

def xi_compatibility(kind: str, structure: AcmStructure, point) -> dict:
    """Premise and conclusion of the Reeb-compatibility statement at the a
    that ``point`` binds.

    Premise: with the curvature implied by the deformed-Reeb soliton, that
    soliton equation holds exactly at the pinned lambda.  Conclusion: the
    base Reeb pair solves the base equation only at lambda = 0 (riemann)
    resp. lambda = -2n (ricci); any other lambda leaves a residual of order
    |lambda - lambda_star| times the reported scale, measured at
    lambda_star + ``perturbation``.
    """
    m = structure.manifold.metric_at_cached(point)
    g = m.g
    eta = structure.eta_field.values(point)
    n = structure.n
    ee = outer(eta, eta)
    lam_bar = theorem_lambda(kind, "reeb", structure, None, point)
    # the forced Ric solves the base (0, 2) equation with beta = -2n
    lam_star = _trace(kind, n).lam(-2.0 * n, 2.0 * n)
    lie = 2.0 * (g - ee)  # L_xi g over a Kenmotsu base
    a2 = _tensor(point[A])  # a, shaped to scale (0, 2) tensors
    gbar = a2 * g + a2 * (a2 - 1.0) * ee
    if kind == "riemann":
        forced = kulkarni_nomizu(g, ee - g)
        deformed = riemann_bar(structure, point, forced)
        scale = max_abs(kulkarni_nomizu(g, g), 3)
    else:
        forced = _reeb_forced(kind, g, ee, n)
        deformed = ricci_bar(structure, point, forced)
        scale = max_abs(g, 2)

    def residual(lam):
        return _full_residual(kind, g, forced, lie, lam)

    return {
        "lambda_star": lam_star,
        "premise_residual": _full_residual(kind, gbar, deformed, lie, lam_bar),
        "residual_at_star": residual(lam_star),
        "residual_perturbed": residual(lam_star + _PERTURBATION),
        "perturbation": _PERTURBATION,
        "scale": scale,
    }


# ---------------------------------------------------------------------------
# Norm inequalities for the gradient scenario

@on_bound_batch
def _gradient_norms(ds: DeformedStructure, f: ScalarField, point) -> dict:
    """The data of ``inequality_battery`` that both kinds share, memoised
    on the frame: base and deformed norms, Laplacians and xi-derivatives."""
    ds.require_kenmotsu(point)
    base = ds.base
    man = base.manifold
    mbar = ds.manifold.metric_at_cached(point)
    ric_bar = ds.ricci_closed(point)["Ric"]
    hess_bar = ds.hessian_closed(f, point)
    xif, xixif = xi_derivatives(base, f, point)
    ric_up, hess_up = hs_raise((ric_bar, hess_bar), mbar)
    return {
        "scal": curvature_bundle(man, point)["scal"],
        "hess_sq": base_inner(base, ("hess", "hess"), f, point),
        "ric_sq": base_inner(base, ("ric", "ric"), None, point),
        "lap": laplacian(man, f, point),
        "xif": xif,
        "xixif": xixif,
        "ric_bar_sq": hs_pair(ric_up, ric_bar),
        "hess_bar_sq": hs_pair(hess_up, hess_bar),
        "lap_bar": laplacian_bar(base, f, point),
    }


def inequality_battery(ds: DeformedStructure, f: ScalarField, kind: str,
                       point) -> list:
    """Norm identities and bounds for a deformed gradient soliton.

    Each entry carries lhs, rhs and margin = lhs - rhs; ``equality`` marks
    reconstruction identities (margin must vanish), the rest are one-sided
    bounds; lhs, rhs, margin and applicable hold one value per a of the
    frame ``point`` = ``ds.at(points)`` and sample.  Entries whose
    hypothesis (orthogonality to the Reeb field, harmonicity,
    solenoidality) fails at a sample are flagged not applicable there and
    carry no claim there.  All of it presumes the gradient soliton
    equation holds with the pinned lambda.
    """
    lam_bar = theorem_lambda(kind, "gradient", ds.base, f, point)
    return _battery(ds.n, _trace(kind, ds.n), point[A], lam_bar,
                    _gradient_norms(ds, f, point))


def _battery(n: int, tr: _Trace, a, lam_bar, data: dict) -> list:
    """The entries of ``inequality_battery`` from the soliton constants, the
    pinned lambda and the ``_gradient_norms`` data.

    Ric_bar = -k Hess_bar f + beta g_bar gives the reconstruction
    k^2 |Hess_bar f|^2 = |Ric_bar|^2 + 2k beta Lap_bar(f) - (2n+1) beta^2
    and, with c = k^2, every bound below for both kinds.
    """
    scal_g = data["scal"]
    hess_sq, ric_sq = data["hess_sq"], data["ric_sq"]
    lap_g, xif, xixif = data["lap"], data["xif"], data["xixif"]
    hess_bar_sq, ric_bar_sq = data["hess_bar_sq"], data["ric_bar_sq"]
    lap_bar = data["lap_bar"]
    k = tr.k
    c = k * k
    beta = tr.beta(lam_bar, lap_bar)
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

    orthogonal = np.abs(xif) <= HYPOTHESIS_TOL
    harmonic = np.abs(lap_g) <= HYPOTHESIS_TOL
    solenoidal_bar = np.abs(lap_bar) <= HYPOTHESIS_TOL
    put(
        "reconstruction",
        hess_bar_sq,
        (ric_bar_sq + 2.0 * k * beta * lap_bar - (2 * n + 1) * beta ** 2) / c,
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
        + 4 * n * k * q * lap_g
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
    return items
