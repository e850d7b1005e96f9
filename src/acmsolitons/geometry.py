"""Chart manifolds, curvature, and almost contact metric structures.

A ChartManifold is a single coordinate chart: named coordinates, a
symmetric metric of expressions, and optional open-domain constraints
(expressions required to be strictly positive).  All geometry is evaluated
pointwise; the symbolic layer only ever differentiates the defining
expressions, so each operator below matches its textbook coordinate
formula exactly:

* Christoffel symbols  Gamma^l_ij = (1/2) g^{lk} (d_i g_jk + d_j g_ik - d_k g_ij)
* curvature            R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
                       - nabla_[X,Y] Z, stored as
                       R13[l, a, b, c] = component of R(d_a, d_b) d_c along d_l,
                       lowered to R04[a, b, c, d] = g(R(d_a, d_b) d_c, d_d)
* Ricci                Ric(Y, Z) = trace of X -> R(X, Y)Z (first slot)
* Lie derivative       (L_V g)_ij = V^k d_k g_ij + g_kj d_i V^k + g_ik d_j V^k
* Hessian              Hess(f)_ij = d_i d_j f - Gamma^k_ij d_k f
* divergence           div V = d_i V^i + Gamma^i_ik V^k

With this orientation a Kenmotsu structure satisfies
R(X, Y) xi = eta(X) Y - eta(Y) X and Ric(xi, xi) = -2n.
"""

from __future__ import annotations

import numpy as np

from .expr import Const, Expr, diff, evaluate, mul
from .tensor import MetricAtPoint, StructureError, TensorValue, metric_at

__all__ = [
    "ChartManifold", "AcmStructure", "ScalarField", "VectorField",
    "christoffel", "christoffel_partials", "riemann", "ricci", "scalar_curv",
    "curvature_bundle", "lie_derivative_metric", "grad", "hessian",
    "divergence", "laplacian", "gradient_lie_derivative",
    "covariant_derivative", "nabla_phi_tensor",
    "kenmotsu_residual", "kenmotsu_details", "sample_points",
]

_CURVATURE_SYMMETRY_TOL = 1e-10


def _point_key(coords, point):
    return tuple(point[c] for c in coords)


class ChartManifold:
    """A coordinate chart with a symmetric expression-valued metric.

    Parameters
    ----------
    coords : sequence of coordinate names
    metric : nested sequence of Expr, metric[i][j] = g_ij; must be
        structurally symmetric
    constraints : sequence of Expr, each required to be > 0 on the domain
    name : label used in error messages and reports
    """

    def __init__(self, coords, metric, constraints=(), name="chart"):
        self.coords = tuple(coords)
        self.dim = len(self.coords)
        if self.dim == 0:
            raise StructureError("chart needs at least one coordinate")
        self.name = name
        self.metric = tuple(tuple(row) for row in metric)
        if len(self.metric) != self.dim or any(
            len(row) != self.dim for row in self.metric
        ):
            raise StructureError(f"metric of {name} is not {self.dim}x{self.dim}")
        for i in range(self.dim):
            for j in range(i):
                if self.metric[i][j] != self.metric[j][i]:
                    raise StructureError(
                        f"metric of {name} is not symmetric at entry ({i},{j})"
                    )
        self.constraints = tuple(constraints)
        d = self.dim
        self._dg = tuple(
            tuple(tuple(diff(self.metric[i][j], ck) for j in range(d)) for i in range(d))
            for ck in self.coords
        )
        self._d2g = tuple(
            tuple(
                tuple(
                    tuple(diff(self._dg[k][i][j], cl) for j in range(d))
                    for i in range(d)
                )
                for k in range(d)
            )
            for cl in self.coords
        )
        self._metric_cache = {}
        self._curvature_cache = {}

    @property
    def n(self) -> int:
        """Contact rank n for odd dimension 2n + 1."""
        if self.dim % 2 == 0:
            raise StructureError(f"{self.name} has even dimension {self.dim}")
        return (self.dim - 1) // 2

    def point(self, **values) -> dict:
        if set(values) != set(self.coords):
            raise StructureError(
                f"point must set exactly the coordinates {self.coords}"
            )
        return {c: float(values[c]) for c in self.coords}

    def contains(self, point) -> bool:
        """True when every domain constraint is strictly positive."""
        return all(evaluate(c, point) > 0.0 for c in self.constraints)

    def _finite(self, values: np.ndarray, what: str, point) -> np.ndarray:
        if not np.all(np.isfinite(values)):
            raise StructureError(f"{what} of {self.name} not finite at {point}")
        return values

    def metric_values(self, point) -> np.ndarray:
        d = self.dim
        out = np.empty((d, d))
        for i in range(d):
            for j in range(i, d):
                out[i, j] = out[j, i] = evaluate(self.metric[i][j], point)
        return self._finite(out, "metric", point)

    def metric_partials(self, point) -> np.ndarray:
        d = self.dim
        out = np.empty((d, d, d))
        for k in range(d):
            for i in range(d):
                for j in range(i, d):
                    out[k, i, j] = out[k, j, i] = evaluate(self._dg[k][i][j], point)
        return self._finite(out, "metric first partials", point)

    def metric_second_partials(self, point) -> np.ndarray:
        d = self.dim
        out = np.empty((d, d, d, d))
        for l in range(d):
            for k in range(d):
                for i in range(d):
                    for j in range(i, d):
                        out[l, k, i, j] = out[l, k, j, i] = evaluate(
                            self._d2g[l][k][i][j], point
                        )
        self._finite(out, "metric second partials", point)
        # mixed partials commute; symmetrize away evaluation-order noise
        return 0.5 * (out + np.transpose(out, (1, 0, 2, 3)))

    def metric_at_cached(self, point) -> MetricAtPoint:
        key = _point_key(self.coords, point)
        found = self._metric_cache.get(key)
        if found is None:
            found = metric_at(self, point)
            self._metric_cache[key] = found
        return found


# ---------------------------------------------------------------------------
# Curvature

def christoffel(manifold, point) -> np.ndarray:
    """Christoffel symbols Gamma[l, i, j] of the Levi-Civita connection,
    taken from the cached curvature bundle."""
    return curvature_bundle(manifold, point)["gamma"]


def _gamma_combo(dg: np.ndarray) -> np.ndarray:
    """combo[i, j, k] = d_i g_jk + d_j g_ik - d_k g_ij for dg[k,i,j] = d_k g_ij."""
    return dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))


def christoffel_partials(manifold, point) -> np.ndarray:
    """dGamma[a, l, i, j] = d_a Gamma^l_ij, from exact metric partials."""
    m = manifold.metric_at_cached(point)
    d2g = manifold.metric_second_partials(point)
    dinv = -np.einsum("lm,amn,nk->alk", m.inv, m.dg, m.inv)
    combo = _gamma_combo(m.dg)
    # dcombo[a, i, j, k] = d_a combo[i, j, k], using d2g[l,k,i,j] = d_l d_k g_ij
    dcombo = (
        d2g
        + np.transpose(d2g, (0, 2, 1, 3))
        - np.transpose(d2g, (0, 2, 3, 1))
    )
    return 0.5 * (
        np.einsum("alk,ijk->alij", dinv, combo)
        + np.einsum("lk,aijk->alij", m.inv, dcombo)
    )


def riemann(manifold, point):
    """Curvature tensors (R13, R04) at ``point``.

    R13[l, a, b, c] is the component along d_l of R(d_a, d_b) d_c and
    R04[a, b, c, d] = g(R(d_a, d_b) d_c, d_d).  The algebraic symmetries
    (antisymmetry in each pair, pair interchange, first Bianchi) are
    verified on every evaluation.
    """
    bundle = curvature_bundle(manifold, point)
    return bundle["R13"], bundle["R04"]


def _check_curvature_symmetries(r04: np.ndarray, name, point):
    scale = max(float(np.max(np.abs(r04))), 1.0)
    tol = _CURVATURE_SYMMETRY_TOL * scale
    checks = {
        "antisymmetry in the first pair": r04 + np.transpose(r04, (1, 0, 2, 3)),
        "antisymmetry in the second pair": r04 + np.transpose(r04, (0, 1, 3, 2)),
        "pair interchange symmetry": r04 - np.transpose(r04, (2, 3, 0, 1)),
        "first Bianchi identity": r04
        + np.transpose(r04, (1, 2, 0, 3))
        + np.transpose(r04, (2, 0, 1, 3)),
    }
    for label, residual in checks.items():
        worst = float(np.max(np.abs(residual)))
        if not worst <= tol:  # a NaN residual fails too
            raise StructureError(
                f"{label} fails on {name} at {point} (residual {worst:.3e})"
            )


def curvature_bundle(manifold, point) -> dict:
    """All curvature data at a point, cached per manifold and point."""
    key = _point_key(manifold.coords, point)
    found = manifold._curvature_cache.get(key)
    if found is not None:
        return found
    m = manifold.metric_at_cached(point)
    gamma = 0.5 * np.einsum("lk,ijk->lij", m.inv, _gamma_combo(m.dg))
    dgamma = christoffel_partials(manifold, point)
    # R13[l,a,b,c] = d_a Gamma^l_bc - d_b Gamma^l_ac
    #              + Gamma^l_am Gamma^m_bc - Gamma^l_bm Gamma^m_ac
    r13 = np.transpose(dgamma, (1, 0, 2, 3)) - np.transpose(dgamma, (1, 2, 0, 3))
    r13 = r13 + np.einsum("lam,mbc->labc", gamma, gamma) - np.einsum(
        "lbm,mac->labc", gamma, gamma
    )
    r04 = np.einsum("labc,ld->abcd", r13, m.g)
    _check_curvature_symmetries(r04, manifold.name, point)
    ric = np.einsum("aabc->bc", r13)
    scal = float(np.einsum("bc,bc->", m.inv, ric))
    bundle = {
        "metric": m,
        "gamma": gamma,
        "R13": r13,
        "R04": r04,
        "Ric": TensorValue(0, 2, 0.5 * (ric + ric.T), symmetric=True),
        "scal": scal,
    }
    manifold._curvature_cache[key] = bundle
    return bundle


def ricci(manifold, point) -> TensorValue:
    """Ricci tensor, the contraction of curvature on its first slot."""
    return curvature_bundle(manifold, point)["Ric"]


def scalar_curv(manifold, point) -> float:
    return curvature_bundle(manifold, point)["scal"]


# ---------------------------------------------------------------------------
# Fields

class ScalarField:
    """A scalar function given by one expression; partials are cached."""

    def __init__(self, expr: Expr):
        self.expr = expr
        self._d = {}
        self._dd = {}

    def partial(self, coord: str) -> Expr:
        found = self._d.get(coord)
        if found is None:
            found = diff(self.expr, coord)
            self._d[coord] = found
        return found

    def second_partial(self, c1: str, c2: str) -> Expr:
        key = (c1, c2)
        found = self._dd.get(key)
        if found is None:
            found = diff(self.partial(c1), c2)
            self._dd[key] = found
        return found

    def value(self, point) -> float:
        return evaluate(self.expr, point)

    def gradient_covector(self, coords, point) -> np.ndarray:
        return np.array([evaluate(self.partial(c), point) for c in coords])

    def second_partials(self, coords, point) -> np.ndarray:
        d = len(coords)
        out = np.empty((d, d))
        for i, ci in enumerate(coords):
            for j, cj in enumerate(coords):
                if j < i:
                    continue
                out[i, j] = evaluate(self.second_partial(ci, cj), point)
                out[j, i] = out[i, j]
        return out


class VectorField:
    """A vector field given by one expression per component."""

    def __init__(self, components):
        self.components = tuple(components)
        self._d = {}

    def values(self, coords, point) -> np.ndarray:
        return np.array([evaluate(c, point) for c in self.components])

    def partial_exprs(self, coord: str):
        found = self._d.get(coord)
        if found is None:
            found = tuple(diff(c, coord) for c in self.components)
            self._d[coord] = found
        return found

    def partials(self, coords, point) -> np.ndarray:
        """dV[i, k] = d_i V^k."""
        d = len(coords)
        out = np.empty((d, d))
        for i, ci in enumerate(coords):
            row = self.partial_exprs(ci)
            for k in range(d):
                out[i, k] = evaluate(row[k], point)
        return out


def lie_derivative_metric(manifold, field: VectorField, point) -> TensorValue:
    """(L_V g)_ij at a point."""
    m = manifold.metric_at_cached(point)
    v = field.values(manifold.coords, point)
    dv = field.partials(manifold.coords, point)
    return _lie_metric_numeric(m, v, dv)


def _lie_metric_numeric(m: MetricAtPoint, v, dv) -> TensorValue:
    out = (
        np.einsum("k,kij->ij", v, m.dg)
        + np.einsum("ik,kj->ij", dv, m.g)
        + np.einsum("jk,ik->ij", dv, m.g)
    )
    return TensorValue(0, 2, 0.5 * (out + out.T), symmetric=True)


def grad(manifold, f: ScalarField, point) -> np.ndarray:
    """(grad f)^i = g^{ij} d_j f."""
    m = manifold.metric_at_cached(point)
    return m.inv @ f.gradient_covector(manifold.coords, point)


def hessian(manifold, f: ScalarField, point) -> TensorValue:
    """Hess(f)_ij = d_i d_j f - Gamma^k_ij d_k f."""
    gamma = christoffel(manifold, point)
    df = f.gradient_covector(manifold.coords, point)
    ddf = f.second_partials(manifold.coords, point)
    out = ddf - np.einsum("kij,k->ij", gamma, df)
    return TensorValue(0, 2, 0.5 * (out + out.T), symmetric=True)


def divergence(manifold, field: VectorField, point) -> float:
    """div V = d_i V^i + Gamma^i_ik V^k."""
    gamma = christoffel(manifold, point)
    v = field.values(manifold.coords, point)
    dv = field.partials(manifold.coords, point)
    return float(np.trace(dv) + np.einsum("iik,k->", gamma, v))


def laplacian(manifold, f: ScalarField, point) -> float:
    """Laplace-Beltrami operator, the metric trace of the Hessian."""
    m = manifold.metric_at_cached(point)
    return float(np.einsum("ij,ij->", m.inv, hessian(manifold, f, point).data))


def gradient_lie_derivative(manifold, f: ScalarField, point) -> TensorValue:
    """(L_{grad f} g)_ij, with the gradient field differentiated numerically
    through exact metric and scalar partials (no symbolic inverse metric)."""
    m = manifold.metric_at_cached(point)
    df = f.gradient_covector(manifold.coords, point)
    ddf = f.second_partials(manifold.coords, point)
    dinv = -np.einsum("lm,amn,nk->alk", m.inv, m.dg, m.inv)
    v = m.inv @ df
    dv = np.einsum("aik,k->ai", dinv, df) + np.einsum("ik,ak->ai", m.inv, ddf)
    return _lie_metric_numeric(m, v, dv)


# ---------------------------------------------------------------------------
# Almost contact metric structures

class AcmStructure:
    """An almost contact metric structure (phi, xi, eta, g) on a chart.

    ``phi`` is given as phi[i][j] = component along d_i of phi(d_j); ``xi``
    as a component list; ``eta`` defaults to the metric dual of xi.  The
    defining axioms are
        phi^2 = -I + eta (x) xi,   eta(xi) = 1,
        g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y),
    with phi(xi) = 0 and eta(phi(.)) = 0 following; ``validate`` reports the
    numerical residual of each at a point.
    """

    def __init__(self, manifold: ChartManifold, phi, xi, eta=None):
        self.manifold = manifold
        d = manifold.dim
        if d % 2 == 0:
            raise StructureError(
                f"{manifold.name} has even dimension {d}; an almost contact "
                "structure needs dimension 2n+1"
            )
        self.phi = tuple(tuple(row) for row in phi)
        self.xi = tuple(xi)
        if len(self.phi) != d or any(len(r) != d for r in self.phi) or len(self.xi) != d:
            raise StructureError("phi/xi shape does not match the chart dimension")
        if eta is None:
            eta = tuple(
                sum(
                    (mul(manifold.metric[i][j], self.xi[j]) for j in range(d)),
                    Const(0.0),
                )
                for i in range(d)
            )
        self.eta = tuple(eta)
        self._dphi = {}
        self._dxi = {}
        self._kenmotsu_cache = {}
        self._xi_field = None

    @property
    def n(self) -> int:
        return self.manifold.n

    def phi_values(self, point) -> np.ndarray:
        d = self.manifold.dim
        return np.array(
            [[evaluate(self.phi[i][j], point) for j in range(d)] for i in range(d)]
        )

    def xi_values(self, point) -> np.ndarray:
        return np.array([evaluate(c, point) for c in self.xi])

    def eta_values(self, point) -> np.ndarray:
        return np.array([evaluate(c, point) for c in self.eta])

    def phi_partials(self, point) -> np.ndarray:
        """dphi[k, i, j] = d_k phi^i_j."""
        d = self.manifold.dim
        out = np.empty((d, d, d))
        for k, ck in enumerate(self.manifold.coords):
            rows = self._dphi.get(ck)
            if rows is None:
                rows = tuple(
                    tuple(diff(self.phi[i][j], ck) for j in range(d)) for i in range(d)
                )
                self._dphi[ck] = rows
            for i in range(d):
                for j in range(d):
                    out[k, i, j] = evaluate(rows[i][j], point)
        return out

    def xi_partials(self, point) -> np.ndarray:
        """dxi[k, i] = d_k xi^i."""
        d = self.manifold.dim
        out = np.empty((d, d))
        for k, ck in enumerate(self.manifold.coords):
            row = self._dxi.get(ck)
            if row is None:
                row = tuple(diff(c, ck) for c in self.xi)
                self._dxi[ck] = row
            for i in range(d):
                out[k, i] = evaluate(row[i], point)
        return out

    def xi_field(self) -> VectorField:
        if self._xi_field is None:
            self._xi_field = VectorField(self.xi)
        return self._xi_field

    def xi_directional(self, f: ScalarField) -> ScalarField:
        """The scalar xi(f), built symbolically."""
        d = self.manifold.dim
        expr = sum(
            (mul(self.xi[k], f.partial(self.manifold.coords[k])) for k in range(d)),
            Const(0.0),
        )
        return ScalarField(expr)

    def eta_of_field(self, field: VectorField) -> ScalarField:
        """The scalar eta(V), built symbolically."""
        d = self.manifold.dim
        expr = sum(
            (mul(self.eta[i], field.components[i]) for i in range(d)), Const(0.0)
        )
        return ScalarField(expr)

    def validate(self, point) -> dict:
        """Residuals of the defining axioms at a point (all should vanish)."""
        m = self.manifold.metric_at_cached(point)
        phi = self.phi_values(point)
        xi = self.xi_values(point)
        eta = self.eta_values(point)
        d = self.manifold.dim
        eye = np.eye(d)
        res = {
            "phi-squared": float(
                np.max(np.abs(phi @ phi - (-eye + np.outer(xi, eta))))
            ),
            "eta-xi": abs(float(eta @ xi) - 1.0),
            "eta-is-xi-flat": float(np.max(np.abs(eta - m.g @ xi))),
            "phi-compatibility": float(
                np.max(np.abs(phi.T @ m.g @ phi - (m.g - np.outer(eta, eta))))
            ),
            "phi-xi": float(np.max(np.abs(phi @ xi))),
            "eta-phi": float(np.max(np.abs(eta @ phi))),
        }
        return res

    def acm_residual(self, point) -> float:
        return float(np.max(tuple(self.validate(point).values())))


def covariant_derivative(manifold: ChartManifold, field: VectorField, point) -> np.ndarray:
    """nablaV[i, k] = (nabla_{d_i} field)^k = d_i V^k + Gamma^k_im V^m."""
    gamma = christoffel(manifold, point)
    v = field.values(manifold.coords, point)
    dv = field.partials(manifold.coords, point)
    return dv + np.einsum("kim,m->ik", gamma, v)


def nabla_phi_tensor(structure: AcmStructure, point) -> np.ndarray:
    """(nabla_i phi)^k_j as [i, k, j], from exact partials of phi and g."""
    gamma = christoffel(structure.manifold, point)
    phi = structure.phi_values(point)
    dphi = structure.phi_partials(point)
    # dphi[i, k, j] = d_i phi^k_j since the derivative index comes first
    return (
        dphi
        + np.einsum("kim,mj->ikj", gamma, phi)
        - np.einsum("mij,km->ikj", gamma, phi)
    )


def kenmotsu_details(structure: AcmStructure, point) -> dict:
    """Residuals of the Kenmotsu condition and its first corollary.

    The defining condition is
        (nabla_X phi) Y = g(phi X, Y) xi - eta(Y) phi X,
    and the corollary checked alongside is nabla xi = I - eta (x) xi.
    """
    key = _point_key(structure.manifold.coords, point)
    found = structure._kenmotsu_cache.get(key)
    if found is not None:
        return found
    m = structure.manifold.metric_at_cached(point)
    phi = structure.phi_values(point)
    xi = structure.xi_values(point)
    eta = structure.eta_values(point)
    d = structure.manifold.dim

    nabla_phi = nabla_phi_tensor(structure, point)
    # target: g(phi d_i, d_j) xi^k - eta_j phi^k_i
    g_phi = np.einsum("mi,mj->ij", phi, m.g)
    target = np.einsum("ij,k->ikj", g_phi, xi) - np.einsum("j,ki->ikj", eta, phi)
    res_phi = float(np.max(np.abs(nabla_phi - target)))

    nabla_xi = covariant_derivative(structure.manifold, structure.xi_field(), point)
    target_xi = np.eye(d) - np.outer(eta, xi)
    res_xi = float(np.max(np.abs(nabla_xi - target_xi)))

    found = {"nabla-phi": res_phi, "nabla-xi": res_xi}
    structure._kenmotsu_cache[key] = found
    return found


def kenmotsu_residual(structure: AcmStructure, point) -> float:
    """Largest residual of the Kenmotsu condition at a point (NaN if any is)."""
    return float(np.max(tuple(kenmotsu_details(structure, point).values())))


# ---------------------------------------------------------------------------
# Sampling

def sample_points(manifold, box, count, seed):
    """Deterministic uniform samples in ``box`` lying in the chart domain.

    ``box`` maps each coordinate to (lo, hi).  Rejection sampling enforces
    the domain constraints; sampling order is fixed by the coordinate order,
    so a given seed always yields the same points.
    """
    rng = np.random.default_rng(seed)
    lows = np.array([box[c][0] for c in manifold.coords])
    highs = np.array([box[c][1] for c in manifold.coords])
    points = []
    attempts = 0
    limit = 1000 * count + 1000
    while len(points) < count:
        attempts += 1
        if attempts > limit:
            raise StructureError(
                f"could not draw {count} points inside the domain of "
                f"{manifold.name}; box {box} may miss the domain"
            )
        draw = rng.uniform(lows, highs)
        candidate = dict(zip(manifold.coords, map(float, draw)))
        if manifold.contains(candidate):
            points.append(candidate)
    return points
