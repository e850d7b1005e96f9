"""Constant-factor deformation of an almost contact metric structure.

For a constant a > 0 the structure (phi, xi, eta, g) deforms to

    phi_bar = phi,   xi_bar = xi / a,   eta_bar = a eta,
    g_bar   = a g + a (a - 1) eta (x) eta,

which is again almost contact metric.  Over a Kenmotsu base every deformed
quantity has a closed form in base data:

    Gamma_bar^l_ij = Gamma^l_ij + ((a-1)/a) (g_ij - eta_i eta_j) xi^l
    R_bar(X,Y)Z    = R(X,Y)Z + ((a-1)/a)[g(phi Y, phi Z) X - g(phi X, phi Z) Y]
    R_bar(X,Y,Z,W) = a R(X,Y,Z,W)
                     + (a-1){eta(Z)[eta(X) g(Y,W) - eta(Y) g(X,W)]
                             - g(X,Z)[g(Y,W) - eta(Y) eta(W)]
                             + g(Y,Z)[g(X,W) - eta(X) eta(W)]}
    Ric_bar  = Ric + (2n(a-1)/a)(g - eta (x) eta)
    scal_bar = scal/a + 2n(2n+1)(a-1)/a^2
    (nabla_bar_X phi) Y = (1/a) g(phi X, Y) xi - eta(Y) phi X
    nabla_bar xi_bar    = (1/a)(I - eta (x) xi)
    L_{xi_bar} g_bar    = 2 (g - eta (x) eta),    div_bar(xi_bar) = 2n/a
    Hess_bar(f) = Hess(f) - ((a-1)/a) xi(f) (g - eta (x) eta)
    grad_bar(f) = (1/a) grad(f) - ((a-1)/a^2) xi(f) xi
    div_bar = div,    Lap_bar(f) = (1/a) Lap(f) - (2n(a-1)/a^2) xi(f)
                                   - ((a-1)/a^2) xi(xi(f))

together with the inner-product transfer for symmetric (0,2)-tensors

    <T1, T2>_bar = (1/a^2) <T1, T2>_g - ((a^2-1)/a^4) T1(xi,xi) T2(xi,xi),

exact whenever i_xi T = T(xi,xi) eta for both arguments (true for g, Ric and
eta (x) eta over a Kenmotsu base).  Each closed form refuses to evaluate
when the base structure fails the Kenmotsu condition, since none of them is
valid then.  The deformed chart itself is always constructed, so every
closed form can be compared against a direct computation from g_bar.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import Const, add, first_sample, mul
from .geometry import (
    AcmStructure,
    ChartManifold,
    ScalarField,
    christoffel,
    curvature_bundle,
    grad,
    hessian,
    kenmotsu_residual,
    laplacian,
)
from .tensor import StructureError, hs_inner, kulkarni_nomizu, outer, symmetric

__all__ = [
    "KENMOTSU_TOL",
    "NotKenmotsuError",
    "DeformedStructure",
    "deform",
    "deformation_curvature_term",
    "prop_inner_battery",
    "harmonic_transfer",
    "ricci_norm_bound",
    "admissible_interval",
]

KENMOTSU_TOL = 1e-8


class NotKenmotsuError(StructureError):
    """A closed form valid only over a Kenmotsu base was asked to evaluate
    on a structure that fails the Kenmotsu condition."""


def deformation_curvature_term(g: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The (0,4) tensor multiplying (a - 1) in the deformed curvature.

    T[a,b,c,d] = eta_c (eta_a g_bd - eta_b g_ad)
                 - g_ac (g_bd - eta_b eta_d) + g_bc (g_ad - eta_a eta_d),
    which is the Kulkarni-Nomizu product g o (g/2 - eta (x) eta).
    """
    return kulkarni_nomizu(g, 0.5 * g - outer(eta, eta))


class DeformedStructure:
    """A deformed structure plus closed forms for its geometry.

    ``manifold`` carries g_bar symbolically and ``structure`` the deformed
    (phi, xi_bar, eta_bar), so direct computation is always available.  The
    metric entries are built with folding constructors; at a = 1 they
    collapse to the base expressions and direct evaluation reproduces the
    base floats bit for bit.  Every closed form takes a point or a batch.
    """

    def __init__(self, base: AcmStructure, a: float,
                 kenmotsu_tol: float = KENMOTSU_TOL):
        a = float(a)
        if not math.isfinite(a) or a <= 0.0:
            raise StructureError(
                f"deformation parameter must be positive and finite, got {a!r}"
            )
        self.base = base
        self.a = a
        self.kenmotsu_tol = kenmotsu_tol
        man = base.manifold
        d = man.dim
        ca = Const(a)
        cb = Const(a * (a - 1.0))
        gbar = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                entry = add(
                    mul(ca, man.metric[i][j]),
                    mul(cb, mul(base.eta[i], base.eta[j])),
                )
                gbar[i][j] = entry
                gbar[j][i] = entry
        self.manifold = ChartManifold(
            man.coords, gbar, man.constraints, name=f"{man.name}|a={a:g}"
        )
        inv_a = Const(1.0 / a)
        self.structure = AcmStructure(
            self.manifold,
            base.phi,
            tuple(mul(inv_a, c) for c in base.xi),
            eta=tuple(mul(ca, c) for c in base.eta),
        )

    @property
    def n(self) -> int:
        return self.base.n

    def require_kenmotsu(self, point) -> None:
        res = kenmotsu_residual(self.base, point)
        bad = ~(res <= self.kenmotsu_tol)
        if np.any(bad):
            first = np.atleast_1d(res)[np.argmax(bad)]
            raise NotKenmotsuError(
                f"closed deformation forms need a Kenmotsu base; "
                f"{self.base.manifold.name} has residual {first:.3e} at "
                f"{first_sample(point, bad)}"
            )

    # -- metric-level closed forms ------------------------------------------

    def inverse_metric_closed(self, point) -> np.ndarray:
        """g_bar^{-1} = (1/a) g^{-1} - ((a-1)/a^2) xi (x) xi.

        Pure rank-one-update algebra; needs only eta = i_xi g, not the
        Kenmotsu condition.
        """
        m = self.base.manifold.metric_at_cached(point)
        xi = self.base.xi_values(point)
        a = self.a
        return m.inv / a - ((a - 1.0) / (a * a)) * outer(xi, xi)

    def christoffel_closed(self, point) -> np.ndarray:
        self.require_kenmotsu(point)
        gamma = christoffel(self.base.manifold, point)
        m = self.base.manifold.metric_at_cached(point)
        eta = self.base.eta_values(point)
        xi = self.base.xi_values(point)
        p = m.g - outer(eta, eta)
        return gamma + ((self.a - 1.0) / self.a) * np.einsum(
            "...ij,...l->...lij", p, xi
        )

    def curvature_closed(self, point) -> dict:
        """R13, R04, Ric and scal of g_bar from the base curvature."""
        self.require_kenmotsu(point)
        bundle = curvature_bundle(self.base.manifold, point)
        g = bundle["metric"].g
        eta = self.base.eta_values(point)
        a = self.a
        n = self.n
        p = g - outer(eta, eta)  # g(phi ., phi .)
        eye = np.eye(self.manifold.dim)
        r13 = bundle["R13"] + ((a - 1.0) / a) * (
            np.einsum("...bc,la->...labc", p, eye)
            - np.einsum("...ac,lb->...labc", p, eye)
        )
        r04 = a * bundle["R04"] + (a - 1.0) * deformation_curvature_term(g, eta)
        ric = bundle["Ric"] + (2.0 * n * (a - 1.0) / a) * p
        scal = bundle["scal"] / a + 2.0 * n * (2 * n + 1) * (a - 1.0) / (a * a)
        return {
            "R13": r13,
            "R04": r04,
            "Ric": symmetric(ric, point),
            "scal": scal,
        }

    # -- structure tensors ---------------------------------------------------

    def nabla_phi_closed(self, point) -> np.ndarray:
        """(nabla_bar_i phi)^k_j as [i, k, j]."""
        self.require_kenmotsu(point)
        m = self.base.manifold.metric_at_cached(point)
        phi = self.base.phi_values(point)
        xi = self.base.xi_values(point)
        eta = self.base.eta_values(point)
        g_phi = np.einsum("...mi,...mj->...ij", phi, m.g)
        return (
            np.einsum("...ij,...k->...ikj", g_phi, xi) / self.a
            - np.einsum("...j,...ki->...ikj", eta, phi)
        )

    def nabla_reeb_closed(self, point) -> np.ndarray:
        """(nabla_bar_i xi_bar)^k as [i, k] = (1/a)(I - eta (x) xi)."""
        self.require_kenmotsu(point)
        eta = self.base.eta_values(point)
        xi = self.base.xi_values(point)
        d = self.manifold.dim
        return (np.eye(d) - outer(eta, xi)) / self.a

    def lie_reeb_closed(self, point) -> np.ndarray:
        """L_{xi_bar} g_bar = 2 (g - eta (x) eta)."""
        self.require_kenmotsu(point)
        m = self.base.manifold.metric_at_cached(point)
        eta = self.base.eta_values(point)
        return symmetric(2.0 * (m.g - outer(eta, eta)), point)

    def div_reeb_closed(self) -> float:
        return 2.0 * self.n / self.a

    # -- scalar operators ----------------------------------------------------

    def xi_derivatives(self, f: ScalarField, point) -> tuple:
        """xi(f) and xi(xi(f)) from exact partials of f and xi."""
        man = self.base.manifold
        xi = self.base.xi_values(point)
        dxi = self.base.xi_partials(point)
        df = f.gradient_covector(man.coords, point)
        ddf = f.second_partials(man.coords, point)
        xif = np.einsum("...k,...k->...", xi, df)
        xixif = (
            np.einsum("...k,...km,...m->...", xi, dxi, df)
            + np.einsum("...k,...m,...km->...", xi, xi, ddf)
        )
        return xif, xixif

    def hessian_closed(self, f: ScalarField, point) -> np.ndarray:
        self.require_kenmotsu(point)
        m = self.base.manifold.metric_at_cached(point)
        eta = self.base.eta_values(point)
        xif, _ = self.xi_derivatives(f, point)
        p = m.g - outer(eta, eta)
        data = hessian(self.base.manifold, f, point)
        data = data - ((self.a - 1.0) / self.a) * xif[..., None, None] * p
        return symmetric(data, point)

    def gradient_closed(self, f: ScalarField, point) -> np.ndarray:
        self.require_kenmotsu(point)
        xi = self.base.xi_values(point)
        xif, _ = self.xi_derivatives(f, point)
        a = self.a
        return grad(self.base.manifold, f, point) / a - (
            (a - 1.0) / (a * a)
        ) * xif[..., None] * xi

    def laplacian_closed(self, f: ScalarField, point):
        self.require_kenmotsu(point)
        xif, xixif = self.xi_derivatives(f, point)
        a = self.a
        return (
            laplacian(self.base.manifold, f, point) / a
            - 2.0 * self.n * (a - 1.0) / (a * a) * xif
            - (a - 1.0) / (a * a) * xixif
        )

    # -- inner products ------------------------------------------------------

    def inner_pa(self, t1, t2, point):
        """<T1, T2>_{g_bar} from base data.

        Exact when i_xi T = T(xi,xi) eta holds for both arguments; the
        symmetric tensors of the norm battery all satisfy it over a
        Kenmotsu base.
        """
        self.require_kenmotsu(point)
        m = self.base.manifold.metric_at_cached(point)
        xi = self.base.xi_values(point)
        a2 = self.a * self.a
        t1xx = np.einsum("...i,...ij,...j->...", xi, t1, xi)
        t2xx = np.einsum("...i,...ij,...j->...", xi, t2, xi)
        return hs_inner(t1, t2, m) / a2 - (a2 - 1.0) / (a2 * a2) * t1xx * t2xx


def deform(structure: AcmStructure, a: float,
           kenmotsu_tol: float = KENMOTSU_TOL) -> DeformedStructure:
    """Deformed structure for parameter a > 0 (a = 1 is the identity)."""
    return DeformedStructure(structure, a, kenmotsu_tol)


# ---------------------------------------------------------------------------
# Norm battery

_BATTERY_PAIRS = (
    ("g", "g"),
    ("g", "ric"),
    ("g", "hess"),
    ("g", "etaeta"),
    ("ric", "ric"),
    ("ric", "hess"),
    ("ric", "etaeta"),
    ("hess", "hess"),
    ("hess", "etaeta"),
    ("etaeta", "etaeta"),
)


def prop_inner_battery(ds: DeformedStructure, f: ScalarField, point) -> list:
    """All g_bar inner products among g, Ric, Hess(f) and eta (x) eta.

    Each entry reports three values that must agree: ``direct`` (contraction
    against the deformed inverse metric), ``transfer`` (the base-data
    inner-product formula) and ``closed`` (the fully reduced form, which over
    a Kenmotsu base needs only scal, Lap(f), xi-derivatives of f and the
    base norms).  Constant closed forms are plain floats.
    """
    ds.require_kenmotsu(point)
    base_man = ds.base.manifold
    bundle = curvature_bundle(base_man, point)
    m = bundle["metric"]
    n = ds.n
    a2 = ds.a * ds.a
    a4 = a2 * a2
    eta = ds.base.eta_values(point)
    tensors = {
        "g": m.g,
        "ric": bundle["Ric"],
        "hess": hessian(base_man, f, point),
        "etaeta": outer(eta, eta),
    }
    xif, xixif = ds.xi_derivatives(f, point)
    scal = bundle["scal"]
    lap = laplacian(base_man, f, point)
    ric_sq = hs_inner(tensors["ric"], tensors["ric"], m)
    ric_hess = hs_inner(tensors["ric"], tensors["hess"], m)
    hess_sq = hs_inner(tensors["hess"], tensors["hess"], m)
    closed = {
        ("g", "g"): (2 * n * a2 + 1.0) / a4,
        ("g", "ric"): scal / a2 + 2 * n * (a2 - 1.0) / a4,
        ("g", "hess"): lap / a2 - (a2 - 1.0) / a4 * xixif,
        ("g", "etaeta"): 1.0 / a4,
        ("ric", "ric"): ric_sq / a2 - 4 * n * n * (a2 - 1.0) / a4,
        ("ric", "hess"): ric_hess / a2 + 2 * n * (a2 - 1.0) / a4 * xixif,
        ("ric", "etaeta"): -2.0 * n / a4,
        ("hess", "hess"): hess_sq / a2 - (a2 - 1.0) / a4 * xixif * xixif,
        ("hess", "etaeta"): xixif / a4,
        ("etaeta", "etaeta"): 1.0 / a4,
    }
    mbar = ds.manifold.metric_at_cached(point)
    out = []
    for k1, k2 in _BATTERY_PAIRS:
        t1, t2 = tensors[k1], tensors[k2]
        out.append(
            {
                "pair": f"{k1}-{k2}",
                "direct": hs_inner(t1, t2, mbar),
                "transfer": ds.inner_pa(t1, t2, point),
                "closed": closed[(k1, k2)],
            }
        )
    return out


# ---------------------------------------------------------------------------
# Harmonicity transfer and the Ricci-norm bound

def harmonic_transfer(ds: DeformedStructure, f: ScalarField, points,
                      tol: float = 1e-9) -> dict:
    """Whether a harmonic f stays harmonic under deformation.

    A harmonic f is harmonic for every deformed metric iff
        Hess(f)(xi, xi) = -2n eta(grad f)
    holds; since Lap f = 0 makes the deformed Laplacian a multiple of
    2n xi(f) + xi(xi(f)) that is the content of the closed form above.  The
    check is evaluated over the batch ``points`` at the parameter of ``ds``
    and reported as not applicable when f is not harmonic to begin with.  A
    non-finite value raises StructureError naming the first such sample.
    """
    structure = ds.base
    man = structure.manifold
    n = structure.n
    lap = laplacian(man, f, points)
    lap_bar = ds.laplacian_closed(f, points)
    xi = structure.xi_values(points)
    eta_grad = np.einsum(
        "...i,...i->...", structure.eta_values(points), grad(man, f, points)
    )
    condition = (
        np.einsum("...i,...ij,...j->...", xi, hessian(man, f, points), xi)
        + 2.0 * n * eta_grad
    )
    finite = np.isfinite(lap) & np.isfinite(lap_bar) & np.isfinite(condition)
    if not np.all(finite):
        raise StructureError(
            f"harmonic transfer not finite at {first_sample(points, ~finite)}"
        )
    max_lap = float(np.max(np.abs(lap)))
    max_lap_bar = float(np.max(np.abs(lap_bar)))
    max_condition = float(np.max(np.abs(condition)))
    harmonic = max_lap <= tol
    return {
        "applicable": harmonic,
        "harmonic": harmonic,
        "deformed_harmonic": max_lap_bar <= tol,
        "condition_holds": max_condition <= tol,
        "max_lap": max_lap,
        "max_lap_bar": max_lap_bar,
        "max_condition_residual": max_condition,
        "probe_a": ds.a,
    }


def ricci_norm_bound(structure: AcmStructure, point, a: float) -> dict:
    """|Ric|_g^2 >= 4 n^2 (a^2 - 1)/a^2, forced by |Ric_bar|^2 >= 0."""
    bundle = curvature_bundle(structure.manifold, point)
    ric_sq = hs_inner(bundle["Ric"], bundle["Ric"], bundle["metric"])
    n = structure.n
    bound = 4.0 * n * n * (a * a - 1.0) / (a * a)
    return {
        "ric_norm_sq": ric_sq,
        "bound": bound,
        "satisfied": ric_sq >= bound - 1e-9,
    }


def admissible_interval(ric_norm_sq: float, n: int) -> tuple:
    """Stated a-range keeping the deformed Ricci norm bound strict.

    For |Ric|^2 < 4 n^2 the stated interval is
    (0, 4 n^2 / (4 n^2 - |Ric|^2)); otherwise every a > 0 is admissible.
    """
    cap = 4.0 * n * n
    if ric_norm_sq < cap:
        return (0.0, cap / (cap - ric_norm_sq))
    return (0.0, math.inf)
