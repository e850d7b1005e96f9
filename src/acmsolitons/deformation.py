"""Constant-factor deformation of an almost contact metric structure.

For a constant a > 0 the structure (phi, xi, eta, g) deforms to

    phi_bar = phi,   xi_bar = xi / a,   eta_bar = a eta,
    g_bar   = a g + a (a - 1) eta (x) eta,

which is again almost contact metric.  A deformation covers one value of a
or a whole grid of them at once: its chart keeps a as the symbol ``a``, is
built and differentiated once, and is evaluated on a batch that binds a to
the grid (see ``geometry.with_a``), an (A, N) batch for A values and N
samples.  Over a Kenmotsu base every deformed quantity has a closed form
in base data:

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

together with the inner-product transfer for symmetric (0,2)-tensors,
from g_bar^{-1} = (1/a) g^{-1} - ((a-1)/a^2) xi (x) xi,

    <T1, T2>_bar = (1/a^2) <T1, T2>_g - (2(a-1)/a^3) <T1(xi,.), T2(xi,.)>_g
                   + ((a-1)^2/a^4) T1(xi,xi) T2(xi,xi),

which reduces to (1/a^2) <T1, T2>_g - ((a^2-1)/a^4) T1(xi,xi) T2(xi,xi)
whenever T(xi, .) = T(xi,xi) eta for both arguments (true for g, Ric and
eta (x) eta over a Kenmotsu base, not for Hess(f) in general).  Each
closed form takes the frame
``DeformedStructure.at(points)``, reads a there and base data on the
samples alone, and returns one value per a and sample.  Each refuses to
evaluate when the base structure fails the Kenmotsu condition, since none
of them is valid then.  The deformed chart itself is always constructed,
so every closed form can be compared against a direct computation from
g_bar.

A structure is deformed once: a base whose expressions read a, such as a
deformed structure, is refused, and a run deforms its base once over its
whole grid.  What needs another value of a and base data alone, such as
``harmonic_transfer``, reads the closed forms and builds no deformation.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import A, Const, Coord, add, div, locate, mul, sub
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
    on_batch,
    on_bound_batch,
    with_a,
    xi_derivatives,
)
from .tensor import (
    StructureError, component_major, contract, hs_pair, hs_raise,
    kulkarni_nomizu, max_abs, outer, pair_index, plus, sample_major, symmetric,
)

__all__ = [
    "KENMOTSU_TOL",
    "HYPOTHESIS_TOL",
    "HARMONIC_PROBE_A",
    "NotKenmotsuError",
    "DeformedStructure",
    "deform",
    "deformation_curvature_term",
    "ricci_bar",
    "riemann_bar",
    "laplacian_bar",
    "base_inner",
    "prop_inner_battery",
    "harmonic_transfer",
    "ricci_norm_bound",
    "admissible_interval",
]

KENMOTSU_TOL = 1e-8
# a per-sample hypothesis (xi(f) = 0, Lap f = 0, div V = 0) holds where the
# quantity is at most this in absolute value
HYPOTHESIS_TOL = 1e-9
# the deformation parameter at which ``harmonic_transfer`` takes Lap_bar
HARMONIC_PROBE_A = 2.0


class NotKenmotsuError(StructureError):
    """A closed form valid only over a Kenmotsu base was asked to evaluate
    on a structure that fails the Kenmotsu condition."""


def deformation_curvature_term(g: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The (0,4) tensor multiplying (a - 1) in the deformed curvature.

    T[a,b,c,d] = eta_c (eta_a g_bd - eta_b g_ad)
                 - g_ac (g_bd - eta_b eta_d) + g_bc (g_ad - eta_a eta_d),
    which is the Kulkarni-Nomizu product g o (g/2 - eta (x) eta), on its
    first-pair block.
    """
    return kulkarni_nomizu(g, 0.5 * g - outer(eta, eta))


@on_batch
def _curvature_term(structure: AcmStructure, point) -> np.ndarray:
    """``deformation_curvature_term`` of the base, memoised on a batch."""
    g = structure.manifold.metric_at_cached(point).g
    return deformation_curvature_term(g, structure.eta_values(point))


def ricci_bar(structure: AcmStructure, point, ric) -> np.ndarray:
    """Ric_bar = Ric + (2n(a-1)/a)(g - eta (x) eta) over a Kenmotsu base.

    ``point`` binds a (``geometry.with_a``), one value or an (A,) array in
    front of the sample axes; ``ric`` is a base Ricci tensor there, the
    chart's or one a soliton forces.
    """
    a = point[A]
    g = structure.manifold.metric_at_cached(point).g
    eta = structure.eta_values(point)
    q = (2.0 * structure.n * (a - 1.0) / a)[..., None, None]
    return ric + q * (g - outer(eta, eta))


def riemann_bar(structure: AcmStructure, point, r04) -> np.ndarray:
    """R_bar04 = a R04 + (a-1) T over a Kenmotsu base, T as in
    ``deformation_curvature_term``, on the first-pair block.

    ``point`` binds a, one value or an (A,) array in front of the sample
    axes; ``r04`` is the first-pair block of a base (0,4) curvature there,
    the chart's or one a soliton forces.  The result has the broadcast
    sample axes of a, R04 and T, and is the sample-major view of a
    component-major buffer, where a scales whole rows of samples; (a - 1) T
    is added one pair row at a time, so no second stacked (0,4) array is
    alive.  T is memoised on the base batch.
    """
    a = point[A]
    k = a.ndim  # sample axes, a in front
    r = component_major(r04, 3, k)
    t = component_major(_curvature_term(structure, point), 3, k)
    out = np.empty(np.broadcast_shapes(r.shape, t.shape, a.shape))
    for row, r_row, t_row in zip(out, r, t):
        np.multiply(a, r_row, out=row)
        row += (a - 1.0) * t_row
    return sample_major(out, 3)


@on_bound_batch
def laplacian_bar(structure: AcmStructure, f: ScalarField, point):
    """Lap_bar(f) = Lap(f)/a - ((a-1)/a^2)[2n xi(f) + xi(xi(f))] over a
    Kenmotsu base, at the a that ``point`` binds; memoised there.

    Lap(f) and the xi-derivatives are read on the samples alone unless f
    reads a.
    """
    xif, xixif = xi_derivatives(structure, f, point)
    return _deformed_laplacian(structure.n, point[A],
                               laplacian(structure.manifold, f, point), xif,
                               xixif)


def _deformed_laplacian(n: int, a, lap, xif, xixif):
    """Lap_bar(f) at the parameter a from Lap(f), xi(f) and xi(xi(f))."""
    return (
        lap / a
        - 2.0 * n * (a - 1.0) / (a * a) * xif
        - (a - 1.0) / (a * a) * xixif
    )


def _a(point, rank: int = 0) -> np.ndarray:
    """The a that ``point`` binds, shaped to scale rank-``rank`` data there."""
    a = point[A]
    return a.reshape(a.shape + (1,) * rank)


def _require_kenmotsu(structure: AcmStructure, point) -> None:
    res = kenmotsu_residual(structure, point)
    bad = ~(res <= KENMOTSU_TOL)
    if np.any(bad):
        first = np.atleast_1d(res)[np.argmax(bad)]
        # a condition on the base names a base sample, whatever a is bound
        base = {k: v for k, v in point.items() if k != A}
        raise NotKenmotsuError(
            f"closed deformation forms need a Kenmotsu base; "
            f"{structure.manifold.name} has residual {first:.3e} at "
            f"{locate(base, bad)}"
        )


class DeformedStructure:
    """A deformed structure, over one value of a or a grid, plus closed
    forms for its geometry.

    ``a`` is one value or an (A,) array.  ``manifold`` carries g_bar with
    entries a g_ij + a(a-1) eta_i eta_j in the symbol a, and ``structure``
    the deformed (phi, xi/a, a eta); each is built and differentiated once,
    whatever the number of values; phi's field is the base's.  ``at(point)``
    binds a to the values: ``(structure, at(point))`` is the deformation's
    frame, and direct computation and every closed form take that bound
    point or batch, with the a axis, if any, in front of the sample axis.
    At a = 1 the entries and their partials evaluate to the base floats bit
    for bit, since 1 g = g and 1 (1 - 1) eta_i eta_j adds zero.

    A base whose expressions read the symbol a, such as a deformed
    structure, is refused: a names this deformation's parameter alone.
    """

    def __init__(self, base: AcmStructure, a):
        a = np.asarray(a, dtype=float)
        bad = np.atleast_1d(~(np.isfinite(a) & (a > 0.0)))
        if np.any(bad):
            raise StructureError(
                "deformation parameter must be positive and finite, got "
                f"{float(np.atleast_1d(a)[bad][0])!r}"
            )
        if a.ndim > 1:
            raise StructureError("deformation parameters must form a 1-d grid")
        if base.reads_a:
            raise StructureError(
                f"the structure on {base.manifold.name} reads the deformation "
                "parameter a, so it cannot be deformed; deform its base once"
            )
        self.base = base
        self.a = a
        man = base.manifold
        d = man.dim
        pa = Coord(A)
        pb = mul(pa, sub(pa, Const(1.0)))
        gbar = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                entry = add(
                    mul(pa, man.metric[i][j]),
                    mul(pb, mul(base.eta[i], base.eta[j])),
                )
                gbar[i][j] = entry
                gbar[j][i] = entry
        self.manifold = ChartManifold(
            man.coords, gbar, man.constraints, name=f"{man.name}|a"
        )
        inv_a = div(Const(1.0), pa)
        self.structure = AcmStructure(
            self.manifold,
            base.phi,
            tuple(mul(inv_a, c) for c in base.xi),
            eta=tuple(mul(pa, c) for c in base.eta),
        )
        self.structure.phi_field = base.phi_field  # evaluated once per batch

    @property
    def n(self) -> int:
        return self.base.n

    def at(self, point):
        """``point`` with a bound to this deformation's parameters."""
        return with_a(point, self.a)

    def require_kenmotsu(self, point) -> None:
        _require_kenmotsu(self.base, point)

    # -- metric-level closed forms ------------------------------------------

    def inverse_metric_closed(self, point) -> np.ndarray:
        """g_bar^{-1} = (1/a) g^{-1} - ((a-1)/a^2) xi (x) xi.

        Pure rank-one-update algebra; needs only eta = i_xi g, not the
        Kenmotsu condition.
        """
        m = self.base.manifold.metric_at_cached(point)
        xi = self.base.xi_values(point)
        a = _a(point, 2)
        return m.inv / a - ((a - 1.0) / (a * a)) * outer(xi, xi)

    def christoffel_closed(self, point) -> np.ndarray:
        self.require_kenmotsu(point)
        gamma = christoffel(self.base.manifold, point)
        m = self.base.manifold.metric_at_cached(point)
        eta = self.base.eta_values(point)
        xi = self.base.xi_values(point)
        a = _a(point, 3)
        return gamma + ((a - 1.0) / a) * contract(
            "ij,l->lij", m.g - outer(eta, eta), xi)

    @on_bound_batch
    def ricci_closed(self, point) -> dict:
        """Ric and scal of g_bar from the base curvature, memoised on the
        bound batch; callers must not write into the result."""
        self.require_kenmotsu(point)
        bundle = curvature_bundle(self.base.manifold, point)
        ric = ricci_bar(self.base, point, bundle["Ric"])
        n = self.n
        a = _a(point)
        return {
            "Ric": symmetric(ric, point),
            "scal": bundle["scal"] / a + 2.0 * n * (2 * n + 1) * (a - 1.0) / (a * a),
        }

    def curvature_closed(self, point) -> dict:
        """R13, R04, Ric and scal of g_bar from the base curvature, R13 and
        R04 on their first-pair blocks."""
        out = dict(self.ricci_closed(point))  # the memo entry stays as it is
        bundle = curvature_bundle(self.base.manifold, point)
        g = bundle["metric"].g
        eta = self.base.eta_values(point)
        a = _a(point)
        k = a.ndim  # sample axes, a in front
        out["R04"] = riemann_bar(self.base, point, bundle["R04"])
        p = component_major(g - outer(eta, eta), 2, k)  # g(phi ., phi .)
        pairs = pair_index(self.manifold.dim)
        eye = np.eye(self.manifold.dim)[(...,) + (None,) * k]
        # ((a-1)/a) (p_bc delta_la - p_ac delta_lb) at [(a < b), c, l]
        r13 = ((a - 1.0) / a) * (
            p[pairs.j][:, :, None] * eye[pairs.i][:, None]
            - p[pairs.i][:, :, None] * eye[pairs.j][:, None]
        )
        r13 = plus(r13, component_major(bundle["R13"], 3, k))
        out["R13"] = sample_major(r13, 3)
        return out

    # -- structure tensors ---------------------------------------------------

    def nabla_phi_closed(self, point) -> np.ndarray:
        """(nabla_bar_i phi)^k_j as [i, k, j]."""
        self.require_kenmotsu(point)
        m = self.base.manifold.metric_at_cached(point)
        phi = self.base.phi_values(point)
        g_phi = contract("mi,mj->ij", phi, m.g)
        return (
            contract("ij,k->ikj", g_phi, self.base.xi_values(point))
            / _a(point, 3)
            - contract("j,ki->ikj", self.base.eta_values(point), phi)
        )

    def nabla_reeb_closed(self, point) -> np.ndarray:
        """(nabla_bar_i xi_bar)^k as [i, k] = (1/a)(I - eta (x) xi)."""
        self.require_kenmotsu(point)
        eta = self.base.eta_values(point)
        xi = self.base.xi_values(point)
        d = self.manifold.dim
        return (np.eye(d) - outer(eta, xi)) / _a(point, 2)

    def lie_reeb_closed(self, point) -> np.ndarray:
        """L_{xi_bar} g_bar = 2 (g - eta (x) eta), the same for every a."""
        self.require_kenmotsu(point)
        m = self.base.manifold.metric_at_cached(point)
        eta = self.base.eta_values(point)
        return symmetric(2.0 * (m.g - outer(eta, eta)), point)

    def div_reeb_closed(self, point):
        """div_bar(xi_bar) = 2n/a, shaped for ``point``."""
        return 2.0 * self.n / _a(point)

    # -- scalar operators ----------------------------------------------------

    @on_bound_batch
    def hessian_closed(self, f: ScalarField, point) -> np.ndarray:
        self.require_kenmotsu(point)
        m = self.base.manifold.metric_at_cached(point)
        eta = self.base.eta_values(point)
        xif, _ = xi_derivatives(self.base, f, point)
        p = m.g - outer(eta, eta)
        a = _a(point, 2)
        data = hessian(self.base.manifold, f, point)
        data = data - ((a - 1.0) / a) * xif[..., None, None] * p
        return symmetric(data, point)

    def gradient_closed(self, f: ScalarField, point) -> np.ndarray:
        self.require_kenmotsu(point)
        xi = self.base.xi_values(point)
        xif, _ = xi_derivatives(self.base, f, point)
        a = _a(point, 1)
        return grad(self.base.manifold, f, point) / a - (
            (a - 1.0) / (a * a)
        ) * xif[..., None] * xi


def deform(structure: AcmStructure, a) -> DeformedStructure:
    """Deformed structure for a parameter a > 0 (a = 1 is the identity),
    or for a 1-d grid of them at once."""
    return DeformedStructure(structure, a)


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


def _base_tensor(structure: AcmStructure, name: str, point, f=None):
    """g, Ric, Hess(f) or eta (x) eta of the base, by name."""
    man = structure.manifold
    if name == "g":
        return man.metric_at_cached(point).g
    if name == "ric":
        return curvature_bundle(man, point)["Ric"]
    if name == "hess":
        return hessian(man, f, point)
    eta = structure.eta_values(point)
    return outer(eta, eta)


@on_batch
def _raised(structure: AcmStructure, names: tuple, f, point) -> dict:
    """The base tensors ``names`` raised in one ``hs_raise``, memoised: g,
    Ric and eta (x) eta with ``f`` None, or Hess(f) alone."""
    return dict(zip(names, hs_raise(
        [_base_tensor(structure, k, point, f) for k in names],
        structure.manifold.metric_at_cached(point),
    )))


@on_batch
def base_inner(structure: AcmStructure, pair: tuple, f, point):
    """<T1, T2>_g of two base tensors named as in ``_BATTERY_PAIRS``.

    Memoised on a batch, so each pairing is taken once per run whichever
    battery or bound asks for it; ``f`` is None unless the pair holds
    "hess", and a pairing with a Hess(f) that reads a is taken at the
    bound a.
    """
    first = ("hess",) if pair[0] == "hess" else ("g", "ric", "etaeta")
    raised = _raised(structure, first, f if pair[0] == "hess" else None, point)
    return hs_pair(raised[pair[0]], _base_tensor(structure, pair[1], point, f))


def _reeb_rows(tensors, xi, m) -> tuple:
    """The rows T(., xi) of the (0, 2) tensors ``tensors``, their Gram
    matrix <T1(., xi), T2(., xi)> under the metric ``m`` and T(xi, xi),
    with the tensor index last of the sample axes: each one product over
    the stacked tensors."""
    stacked = np.stack(np.broadcast_arrays(*tensors), axis=-3)
    rows = contract("tij,j->ti", stacked, xi)
    gram = contract("tk,sk->ts", contract("ti,ik->tk", rows, m.inv), rows)
    return rows, gram, contract("ti,i->t", rows, xi)


def prop_inner_battery(ds: DeformedStructure, f: ScalarField, point) -> list:
    """All g_bar inner products among g, Ric, Hess(f) and eta (x) eta.

    Each entry reports three values that must agree: ``direct`` (contraction
    against the deformed inverse metric), ``transfer`` (the base-data
    inner-product formula) and ``closed`` (the fully reduced form, which over
    a Kenmotsu base needs only scal, Lap(f), xi-derivatives of f and the
    base norms), one value per a of the frame ``point`` and sample.  The
    closed form of |Hess f|_bar^2 assumes Hess f(xi, X) = 0 for X
    orthogonal to xi; ``applicable`` marks the samples where
    |Hess f(xi, .) - Hess f(xi, xi) eta| is at most ``HYPOTHESIS_TOL``
    (everywhere for the other pairs).
    """
    ds.require_kenmotsu(point)
    base = ds.base
    n = ds.n
    a = point[A]
    a2 = a * a
    a4 = a2 * a2
    tensors = {
        name: _base_tensor(base, name, point, f)
        for name in ("g", "ric", "hess", "etaeta")
    }
    index = {name: k for k, name in enumerate(tensors)}
    rows, gram, reeb = _reeb_rows(list(tensors.values()), base.xi_values(point),
                                  base.manifold.metric_at_cached(point))
    hess = index["hess"]
    reduced = max_abs(rows[..., hess, :]
                      - reeb[..., hess, None] * base.eta_values(point), 1)
    inner = {
        pair: base_inner(base, pair, f if "hess" in pair else None, point)
        for pair in _BATTERY_PAIRS
    }
    xif, xixif = xi_derivatives(base, f, point)
    scal = curvature_bundle(base.manifold, point)["scal"]
    lap = laplacian(base.manifold, f, point)
    closed = {
        ("g", "g"): (2 * n * a2 + 1.0) / a4,
        ("g", "ric"): scal / a2 + 2 * n * (a2 - 1.0) / a4,
        ("g", "hess"): lap / a2 - (a2 - 1.0) / a4 * xixif,
        ("g", "etaeta"): 1.0 / a4,
        ("ric", "ric"): inner[("ric", "ric")] / a2 - 4 * n * n * (a2 - 1.0) / a4,
        ("ric", "hess"): inner[("ric", "hess")] / a2
        + 2 * n * (a2 - 1.0) / a4 * xixif,
        ("ric", "etaeta"): -2.0 * n / a4,
        ("hess", "hess"): inner[("hess", "hess")] / a2
        - (a2 - 1.0) / a4 * xixif * xixif,
        ("hess", "etaeta"): xixif / a4,
        ("etaeta", "etaeta"): 1.0 / a4,
    }
    mbar = ds.manifold.metric_at_cached(point)
    raised = dict(zip(tensors, hs_raise(list(tensors.values()), mbar)))
    # the transfer's weights of <T1(xi,.), T2(xi,.)>_g and T1(xi,xi) T2(xi,xi)
    cross = 2.0 * (a - 1.0) / (a2 * a)
    both = (a - 1.0) ** 2 / a4
    out = []
    for k1, k2 in _BATTERY_PAIRS:
        i, j = index[k1], index[k2]
        out.append(
            {
                "pair": f"{k1}-{k2}",
                "direct": hs_pair(raised[k1], tensors[k2]),
                "transfer": inner[(k1, k2)] / a2 - cross * gram[..., i, j]
                + both * reeb[..., i] * reeb[..., j],
                "closed": closed[(k1, k2)],
                "applicable": (reduced <= HYPOTHESIS_TOL
                               if (k1, k2) == ("hess", "hess") else None),
            }
        )
    return out


# ---------------------------------------------------------------------------
# Harmonicity transfer and the Ricci-norm bound

def harmonic_transfer(structure: AcmStructure, f: ScalarField, points) -> dict:
    """Whether a harmonic f stays harmonic under deformation.

    A harmonic f is harmonic for every deformed metric iff
        Hess(f)(xi, xi) = -2n eta(grad f),
    that is xi(xi(f)) + 2n xi(f) = 0 over a Kenmotsu base; since Lap f = 0
    makes Lap_bar(f) a multiple of that sum, Lap_bar(f) at the probe
    parameter ``HARMONIC_PROBE_A`` shows it.  ``points`` binds a, one value
    or an (A,) array, at which f is read: Lap f, its xi-derivatives and
    Lap_bar of that same f hold one value per bound a, from base data, and
    no deformation is built.  The check is reported as not applicable
    when f is not harmonic to begin with.  A base that fails the Kenmotsu
    condition raises NotKenmotsuError naming the first such base sample; a
    non-finite value raises StructureError naming the first such sample
    and its a.
    """
    _require_kenmotsu(structure, points)
    n = structure.n
    lap = laplacian(structure.manifold, f, points)
    xif, xixif = xi_derivatives(structure, f, points)
    lap_bar = _deformed_laplacian(n, HARMONIC_PROBE_A, lap, xif, xixif)
    condition = xixif + 2.0 * n * xif
    finite = np.isfinite(lap) & np.isfinite(lap_bar) & np.isfinite(condition)
    if not np.all(finite):
        raise StructureError(
            f"harmonic transfer not finite at {locate(points, ~finite)}"
        )
    max_lap = float(np.max(np.abs(lap)))
    # the largest over the sample axes, which follow those of a
    samples = tuple(range(-np.ndim(lap), 0))
    max_lap_bar = np.max(np.abs(lap_bar), axis=samples)
    max_condition = float(np.max(np.abs(condition)))
    return {
        "applicable": max_lap <= HYPOTHESIS_TOL,
        "deformed_harmonic": max_lap_bar <= HYPOTHESIS_TOL,
        "condition_holds": max_condition <= HYPOTHESIS_TOL,
        "lap_bar": lap_bar,
        "max_lap": max_lap,
        "max_lap_bar": max_lap_bar,
        "max_condition_residual": max_condition,
    }


def ricci_norm_bound(structure: AcmStructure, point) -> dict:
    """|Ric|_g^2 >= 4 n^2 (a^2 - 1)/a^2, forced by |Ric_bar|^2 >= 0, at
    the a that ``point`` binds."""
    ric_sq = base_inner(structure, ("ric", "ric"), None, point)
    n = structure.n
    a2 = point[A] ** 2
    bound = 4.0 * n * n * (a2 - 1.0) / a2
    return {"ric_norm_sq": ric_sq, "bound": bound}


def admissible_interval(ric_norm_sq: float, n: int) -> tuple:
    """Stated a-range keeping the deformed Ricci norm bound strict.

    For |Ric|^2 < 4 n^2 the stated interval is
    (0, 4 n^2 / (4 n^2 - |Ric|^2)); otherwise every a > 0 is admissible.
    """
    cap = 4.0 * n * n
    if ric_norm_sq < cap:
        return (0.0, cap / (cap - ric_norm_sq))
    return (0.0, math.inf)
