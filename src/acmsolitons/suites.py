"""Check suites over sampled chart points, with deterministic reports.

Each suite turns into a list of named checks; a check aggregates a residual
over all sample points and compares it against a tolerance.  Closed-form
versus direct comparisons use a relative residual (scaled by the larger of
1 and the magnitudes involved), algebraic axiom checks and soliton equation
residuals are absolute.  Reports are plain dicts whose JSON serialization
is byte-stable for a fixed (config, seed, version): checks are sorted by
id, keys are sorted, and no timing data enters the report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import VerificationConfig
from .deformation import (
    KENMOTSU_TOL,
    DeformedStructure,
    admissible_interval,
    deform,
    harmonic_transfer,
    prop_inner_battery,
    ricci_norm_bound,
)
from .expr import EvalError, coordinates_of
from .geometry import (
    covariant_derivative,
    curvature_bundle,
    divergence,
    grad,
    hessian,
    kenmotsu_details,
    laplacian,
    lie_derivative_metric,
    nabla_phi_tensor,
    sample_points,
)
from .solitons import (
    Frame,
    inequality_battery,
    orthogonal_gradient_values,
    solenoidal_implied,
    soliton_residuals,
    theorem_lambda,
    xi_compatibility,
)
from .tensor import StructureError

__all__ = [
    "REPORT_VERSION",
    "CheckResult",
    "SuiteError",
    "run_suites",
    "build_report",
    "report_json",
]

REPORT_VERSION = "0.2.0"

# the deformation parameter at which remark23 probes harmonic transfer
_HARMONIC_PROBE_A = 2.0


class SuiteError(StructureError):
    """A check could not be evaluated."""


@dataclass
class CheckResult:
    check_id: str
    anchor: str
    points: int
    max_residual: float
    tolerance: float
    passed: bool
    classification: str = None
    detail: str = None

    def to_json_dict(self) -> dict:
        out = {
            "id": self.check_id,
            "anchor": self.anchor,
            "points": self.points,
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }
        if self.classification is not None:
            out["classification"] = self.classification
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def _rel(x, y) -> float:
    """max-abs difference scaled by max(1, |x|, |y|)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    return float(np.max(np.abs(x - y))) / scale


def _below(margin) -> float:
    """How far a one-sided margin falls below zero; NaN stays NaN."""
    return 0.0 if margin >= 0.0 else -margin


def _a_tag(a: float) -> str:
    return f"[a={a:g}]"


def _worst(points, residuals, check_id):
    """Worst residual of each key over the sample points.

    ``residuals(p)`` yields (key, residual) pairs at sample p.  A key may
    repeat, and a residual of None marks a key whose hypothesis fails at p.
    Returns (worst, applicable): per key, the largest residual and the
    number of samples that gave it one.  A non-finite residual raises
    SuiteError naming ``check_id(key)`` and the sample, since a NaN would
    otherwise compare as passing.
    """
    worst = {}
    applicable = {}
    for p in points:
        seen = set()
        for key, r in residuals(p):
            if key not in worst:
                worst[key] = 0.0
                applicable[key] = 0
            if r is None:
                continue
            if not math.isfinite(r):
                raise SuiteError(
                    f"check {check_id(key)} has residual {r} at sample {p}"
                )
            if r > worst[key]:
                worst[key] = r
            if key not in seen:
                seen.add(key)
                applicable[key] += 1
    return worst, applicable


class _Run:
    """What the suites of one run share.

    The sample points, and one deformed structure and one soliton frame per
    parameter a, each built on first use.  Every suite reads the same
    objects, so a deformed chart is differentiated once per run and its
    per-point caches fill once.
    """

    def __init__(self, config: VerificationConfig, points):
        self.config = config
        self.points = points
        self._deformed = {}
        self._frames = None

    def deformed(self, a: float) -> DeformedStructure:
        found = self._deformed.get(a)
        if found is None:
            found = self._deformed[a] = deform(self.config.structure, a)
        return found

    def frames(self) -> list:
        """(tag, frame) for the base frame, then one per a of the grid."""
        if self._frames is None:
            self._frames = [("", Frame(self.config.structure, 1.0))] + [
                (_a_tag(a), Frame(self.deformed(a).structure, a))
                for a in self.config.a_grid
            ]
        return self._frames


def _result(check_id, anchor, npoints, residual, tol, **kw) -> CheckResult:
    return CheckResult(
        check_id, anchor, npoints, float(residual), float(tol),
        bool(residual <= tol), **kw
    )


# ---------------------------------------------------------------------------
# acm-axioms

_ACM_ANCHORS = {
    "phi-squared": "phi^2 = -I + eta (x) xi",
    "eta-xi": "eta(xi) = 1",
    "eta-is-xi-flat": "eta = g(xi, .)",
    "phi-compatibility": "g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y)",
    "phi-xi": "phi(xi) = 0",
    "eta-phi": "eta o phi = 0",
}


def _suite_acm_axioms(run, override):
    structure = run.config.structure
    tol = 1e-10 if override is None else override
    worst, _ = _worst(
        run.points, lambda p: structure.validate(p).items(),
        lambda k: f"acm/{k}",
    )
    return [
        _result(f"acm/{k}", _ACM_ANCHORS[k], len(run.points), worst[k], tol)
        for k in _ACM_ANCHORS
    ]


# ---------------------------------------------------------------------------
# kenmotsu

_KENMOTSU_ANCHORS = {
    "nabla-phi": "(nabla_X phi)Y = g(phi X, Y) xi - eta(Y) phi X",
    "nabla-xi": "nabla_X xi = X - eta(X) xi",
    "div-xi": "div(xi) = 2n",
    "lie-xi-metric": "L_xi g = 2(g - eta (x) eta)",
    "curvature-reeb": "R(X,Y) xi = eta(X) Y - eta(Y) X",
    "ricci-reeb": "Ric(xi, xi) = -2n",
}


def _suite_kenmotsu(run, override):
    s = run.config.structure
    man = s.manifold
    n = s.n
    tol_alg = 1e-10 if override is None else override
    tol_curv = 1e-9 if override is None else override
    eye = np.eye(man.dim)

    def residuals(p):
        det = kenmotsu_details(s, p)
        m = man.metric_at_cached(p)
        eta = s.eta_values(p)
        xi = s.xi_values(p)
        lie = lie_derivative_metric(man, s.xi_field(), p).data
        bundle = curvature_bundle(man, p)
        rxy_xi = np.einsum("labc,c->lab", bundle["R13"], xi)
        target = (
            np.einsum("a,lb->lab", eta, eye)
            - np.einsum("b,la->lab", eta, eye)
        )
        ric_xi = float(xi @ bundle["Ric"].data @ xi)
        return (
            ("nabla-phi", det["nabla-phi"]),
            ("nabla-xi", det["nabla-xi"]),
            ("div-xi", abs(divergence(man, s.xi_field(), p) - 2.0 * n)),
            ("lie-xi-metric",
             float(np.max(np.abs(lie - 2.0 * (m.g - np.outer(eta, eta)))))),
            ("curvature-reeb", float(np.max(np.abs(rxy_xi - target)))),
            ("ricci-reeb", abs(ric_xi + 2.0 * n)),
        )

    worst, _ = _worst(run.points, residuals, lambda k: f"kenmotsu/{k}")
    tols = {
        "nabla-phi": tol_alg,
        "nabla-xi": tol_alg,
        "div-xi": tol_alg,
        "lie-xi-metric": tol_alg,
        "curvature-reeb": tol_curv,
        "ricci-reeb": tol_curv,
    }
    return [
        _result(f"kenmotsu/{k}", _KENMOTSU_ANCHORS[k], len(run.points),
                worst[k], tols[k])
        for k in _KENMOTSU_ANCHORS
    ]


# ---------------------------------------------------------------------------
# section2-identities

_SECTION2_ANCHORS = {
    "christoffel": "Gamma_bar^l_ij = Gamma^l_ij + ((a-1)/a)(g_ij - eta_i eta_j) xi^l",
    "curvature-13": "R_bar(X,Y)Z = R(X,Y)Z + ((a-1)/a)[g(phi Y, phi Z) X - g(phi X, phi Z) Y]",
    "curvature-04": "R_bar04 = a R04 + (a-1) T, T = (1/2) g (*) g - g (*) (eta x eta)",
    "ricci": "Ric_bar = Ric + 2n((a-1)/a)(g - eta (x) eta)",
    "scalar": "scal_bar = scal/a + 2n(2n+1)(a-1)/a^2",
    "inverse-metric": "g_bar^{-1} = (1/a) g^{-1} - ((a-1)/a^2) xi (x) xi",
    "nabla-phi": "(nabla_bar_X phi)Y = (1/a) g(phi X, Y) xi - eta(Y) phi X",
    "nabla-reeb": "nabla_bar xi_bar = (1/a)(I - eta (x) xi)",
    "lie-reeb-metric": "L_{xi_bar} g_bar = 2(g - eta (x) eta)",
    "div-reeb": "div_bar(xi_bar) = 2n/a",
    "hessian": "Hess_bar(f) = Hess(f) - ((a-1)/a) xi(f) (g - eta (x) eta)",
    "gradient": "grad_bar(f) = (1/a) grad(f) - ((a-1)/a^2) xi(f) xi",
    "divergence": "div_bar(V) = div(V)",
    "laplacian": "Lap_bar(f) = Lap(f)/a - ((a-1)/a^2)[2n xi(f) + xi(xi(f))]",
    "deformed-acm": "(phi, xi/a, a eta, g_bar) is an almost contact metric structure",
}


def _suite_section2(run, override):
    config = run.config
    structure = config.structure
    f = config.scalar
    checks = []
    div_fields = sorted(config.vectors) or [None]
    for a in config.a_grid:
        ds = run.deformed(a)
        xi_field = ds.structure.xi_field()
        tol = (1e-12 if a == 1.0 else 1e-8) if override is None else override
        tol_acm = 1e-10 if override is None else override
        tag = _a_tag(a)

        def residuals(p):
            ds.require_kenmotsu(p)
            mb = ds.manifold.metric_at_cached(p)
            direct = curvature_bundle(ds.manifold, p)
            closed = ds.curvature_closed(p)
            yield "christoffel", _rel(ds.christoffel_closed(p), direct["gamma"])
            yield "curvature-13", _rel(closed["R13"], direct["R13"])
            yield "curvature-04", _rel(closed["R04"], direct["R04"])
            yield "ricci", _rel(closed["Ric"].data, direct["Ric"].data)
            yield "scalar", _rel(closed["scal"], direct["scal"])
            yield "inverse-metric", _rel(ds.inverse_metric_closed(p), mb.inv)
            yield "nabla-phi", _rel(
                ds.nabla_phi_closed(p), nabla_phi_tensor(ds.structure, p)
            )
            yield "nabla-reeb", _rel(
                ds.nabla_reeb_closed(p),
                covariant_derivative(ds.manifold, xi_field, p),
            )
            yield "lie-reeb-metric", _rel(
                ds.lie_reeb_closed(p).data,
                lie_derivative_metric(ds.manifold, xi_field, p).data,
            )
            yield "div-reeb", _rel(
                ds.div_reeb_closed(), divergence(ds.manifold, xi_field, p)
            )
            if f is not None:
                yield "hessian", _rel(
                    ds.hessian_closed(f, p).data, hessian(ds.manifold, f, p).data
                )
                yield "gradient", _rel(
                    ds.gradient_closed(f, p), grad(ds.manifold, f, p)
                )
                yield "laplacian", _rel(
                    ds.laplacian_closed(f, p), laplacian(ds.manifold, f, p)
                )
            pe = dict(p)
            pe.setdefault("a", a)
            for wname in div_fields:
                field = xi_field if wname is None else config.vectors[wname]
                yield "divergence", _rel(
                    divergence(ds.manifold, field, pe),
                    divergence(structure.manifold, field, pe),
                )
            yield "deformed-acm", ds.structure.acm_residual(p)

        worst, _ = _worst(
            run.points, residuals, lambda k: f"section2/{k}{tag}"
        )
        for key in _SECTION2_ANCHORS:
            if f is None and key in ("hessian", "gradient", "laplacian"):
                continue
            this_tol = tol_acm if key == "deformed-acm" else tol
            checks.append(_result(
                f"section2/{key}{tag}", _SECTION2_ANCHORS[key],
                len(run.points), worst[key], this_tol,
            ))
    return checks


# ---------------------------------------------------------------------------
# prop22-norms

_PROP22_ANCHORS = {
    "g-g": "|g|_bar^2 = (2n a^2 + 1)/a^4",
    "g-ric": "<g, Ric>_bar = scal/a^2 + 2n(a^2-1)/a^4",
    "g-hess": "<g, Hess f>_bar = Lap(f)/a^2 - ((a^2-1)/a^4) xi(xi(f))",
    "g-etaeta": "<g, eta (x) eta>_bar = 1/a^4",
    "ric-ric": "|Ric|_bar^2 = |Ric|^2/a^2 - 4n^2(a^2-1)/a^4",
    "ric-hess": "<Ric, Hess f>_bar = <Ric, Hess f>/a^2 + (2n(a^2-1)/a^4) xi(xi(f))",
    "ric-etaeta": "<Ric, eta (x) eta>_bar = -2n/a^4",
    "hess-hess": "|Hess f|_bar^2 = |Hess f|^2/a^2 - ((a^2-1)/a^4) xi(xi(f))^2",
    "hess-etaeta": "<Hess f, eta (x) eta>_bar = xi(xi(f))/a^4",
    "etaeta-etaeta": "|eta (x) eta|_bar^2 = 1/a^4",
}


def _suite_prop22(run, override):
    f = run.config.scalar
    checks = []
    for a in run.config.a_grid:
        ds = run.deformed(a)
        tol = (1e-12 if a == 1.0 else 1e-8) if override is None else override
        tag = _a_tag(a)

        def residuals(p):
            for item in prop_inner_battery(ds, f, p):
                yield item["pair"], _rel(item["direct"], item["transfer"])
                yield item["pair"], _rel(item["direct"], item["closed"])

        worst, _ = _worst(run.points, residuals, lambda k: f"prop22/{k}{tag}")
        for key, anchor in _PROP22_ANCHORS.items():
            checks.append(_result(
                f"prop22/{key}{tag}", anchor, len(run.points), worst[key], tol
            ))
    return checks


# ---------------------------------------------------------------------------
# remark23

def _suite_remark23(run, override):
    structure = run.config.structure
    points = run.points
    tol = 1e-9 if override is None else override
    checks = []

    def shortfall(p):
        for a in run.config.a_grid:
            res = ricci_norm_bound(structure, p, a)
            yield a, _below(res["ric_norm_sq"] - res["bound"])

    worst, _ = _worst(
        points, shortfall, lambda a: f"remark23/norm-bound{_a_tag(a)}"
    )
    for a in run.config.a_grid:
        checks.append(_result(
            f"remark23/norm-bound{_a_tag(a)}",
            "|Ric|^2 >= 4n^2(a^2-1)/a^2",
            len(points), worst[a], tol,
        ))

    lo, hi = admissible_interval(2.0, 1)
    arith = abs(lo - 0.0) + abs(hi - 2.0)
    checks.append(_result(
        "remark23/admissible-interval",
        "|Ric|^2 = 2, n = 1 gives the admissible range a in (0, 2)",
        0, arith, 1e-12 if override is None else override,
    ))

    f = run.config.scalar
    ht = harmonic_transfer(run.deformed(_HARMONIC_PROBE_A), f, points)
    if not ht["applicable"]:
        checks.append(CheckResult(
            "remark23/harmonic-transfer",
            "a harmonic f stays harmonic iff Hess f(xi,xi) = -2n eta(grad f)",
            len(points), 0.0, 0.5, True,
            detail=(
                "not applicable: f is not harmonic "
                f"(max |Lap f| = {ht['max_lap']:.3e})"
            ),
        ))
    else:
        agree = ht["deformed_harmonic"] == ht["condition_holds"]
        residual = 0.0 if agree else 1.0
        checks.append(CheckResult(
            "remark23/harmonic-transfer",
            "a harmonic f stays harmonic iff Hess f(xi,xi) = -2n eta(grad f)",
            len(points), residual, 0.5, agree,
            detail=(
                f"max |Lap_bar f| = {ht['max_lap_bar']:.3e} at a = "
                f"{ht['probe_a']:g}; condition residual = "
                f"{ht['max_condition_residual']:.3e}"
            ),
        ))
    return checks


# ---------------------------------------------------------------------------
# soliton suites

_EQ_ANCHORS = {
    "riemann": {
        "full": "2 R + (L_V g) (*) g = lambda g (*) g",
        "traced": "(1/2) L_V g + Ric/(2n-1) = ((2n lambda - div V)/(2n-1)) g",
        "scalar": "scal = 2n[(2n+1) lambda - 2 div V]",
        "lambda-gradient": (
            "lambda = Lap(f)/(2na) - ((a-1)/a^2) eta(grad f) "
            "+ ((2n-a)/(2na^2)) Hess f(xi,xi) - 1/a^2"
        ),
        "reeb-compatibility": (
            "a deformed Reeb soliton forces the base Reeb pair to solve "
            "the base equation only with lambda = 0"
        ),
        "solenoidal-trace": (
            "solenoidal potential: g-trace of the implied Ricci equals "
            "(2n+1)[(2n-1) a xi(eta(V)) - 2n]"
        ),
        "orthogonal-gradient": (
            "xi(f) = 0 reduces the pinned lambda to Lap(f)/(2na) - 1/a^2"
        ),
    },
    "ricci": {
        "full": "(1/2) L_V g + Ric = lambda g",
        "scalar": "scal = (2n+1) lambda - div V",
        "lambda-gradient": "lambda = Hess f(xi,xi)/a^2 - 2n/a^2",
        "reeb-compatibility": (
            "a deformed Reeb soliton forces the base Reeb pair to solve "
            "the base equation only with lambda = -2n"
        ),
        "solenoidal-trace": (
            "solenoidal potential: g-trace of the implied Ricci equals "
            "(2n+1)[a xi(eta(V)) - 2n]"
        ),
        "orthogonal-gradient": (
            "xi(f) = 0 pins lambda to the constant -2n/a^2"
        ),
    },
}


def _soliton_suite(run, override, kind):
    config = run.config
    structure = config.structure
    man = structure.manifold
    points = run.points
    npts = len(points)
    tol_eq = 1e-8 if override is None else override
    tol_thm = 1e-9 if override is None else override
    prefix = f"{kind}-soliton"
    anchors = _EQ_ANCHORS[kind]
    checks = []
    keys = ("full", "traced", "scalar") if kind == "riemann" else ("full", "scalar")

    for cand in config.candidates:
        if cand.kind != kind:
            continue
        gradient = cand.potential == "gradient"
        for tag, frame in run.frames():
            labels = set()

            def residuals(p):
                res = soliton_residuals(frame, cand, p)
                labels.add(res["classification"])
                for k in keys:
                    yield k, res[k]
                if gradient:
                    lam_thm = theorem_lambda(
                        kind, "gradient", structure, p, frame.a,
                        scalar=cand.scalar,
                    )
                    yield "lambda-gradient", _rel(
                        lam_thm, frame.lam_value(cand, p)
                    )

            worst, _ = _worst(
                points, residuals, lambda k: f"{prefix}/{cand.name}/{k}{tag}"
            )
            cls = labels.pop() if len(labels) == 1 else "mixed"
            for k in keys:
                checks.append(_result(
                    f"{prefix}/{cand.name}/{k}{tag}", anchors[k],
                    npts, worst[k], tol_eq, classification=cls,
                ))
            if gradient:
                checks.append(_result(
                    f"{prefix}/{cand.name}/lambda-gradient{tag}",
                    anchors["lambda-gradient"], npts,
                    worst["lambda-gradient"], tol_thm,
                ))

    def compatibility(p):
        for a in config.a_grid:
            res = xi_compatibility(kind, structure, p, a=a)
            scale = max(1.0, res["scale"])
            yield a, res["premise_residual"] / scale
            yield a, res["residual_at_star"] / scale
            yield a, _below(
                res["residual_perturbed"]
                - 0.5 * res["perturbation"] * res["scale"]
            ) / scale

    worst, _ = _worst(
        points, compatibility,
        lambda a: f"{prefix}/reeb-compatibility{_a_tag(a)}",
    )
    for a in config.a_grid:
        checks.append(_result(
            f"{prefix}/reeb-compatibility{_a_tag(a)}",
            anchors["reeb-compatibility"], npts, worst[a], tol_thm,
        ))

    # fields free of the symbol a whose divergence vanishes at every sample
    fields = {
        w: v for w, v in sorted(config.vectors.items())
        if not any("a" in coordinates_of(c) for c in v.components)
    }
    max_div, _ = _worst(
        points,
        lambda p: ((w, abs(divergence(man, v, p))) for w, v in fields.items()),
        lambda w: f"{prefix}/solenoidal-trace/{w}",
    )
    solenoidal = [w for w in fields if max_div[w] <= 1e-9]

    def trace(p):
        for w in solenoidal:
            for a in config.a_grid:
                res = solenoidal_implied(kind, structure, fields[w], p, a)
                yield (w, a), res["trace_residual"] / max(1.0, abs(res["scal"]))

    worst, _ = _worst(
        points, trace,
        lambda key: f"{prefix}/solenoidal-trace/{key[0]}{_a_tag(key[1])}",
    )
    for w in solenoidal:
        for a in config.a_grid:
            checks.append(_result(
                f"{prefix}/solenoidal-trace/{w}{_a_tag(a)}",
                anchors["solenoidal-trace"], npts, worst[(w, a)], tol_thm,
            ))

    f = config.scalar
    if f is not None:
        def orthogonal(p):
            for a in config.a_grid:
                res = orthogonal_gradient_values(kind, structure, f, p, a)
                if not res["applicable"]:
                    yield a, None
                    continue
                lam_thm = theorem_lambda(
                    kind, "gradient", structure, p, a, scalar=f
                )
                yield a, _rel(res["lambda_bar"], lam_thm)

        worst, applicable = _worst(
            points, orthogonal,
            lambda a: f"{prefix}/orthogonal-gradient{_a_tag(a)}",
        )
        for a in config.a_grid:
            cid = f"{prefix}/orthogonal-gradient{_a_tag(a)}"
            if applicable[a] == 0:
                checks.append(CheckResult(
                    cid, anchors["orthogonal-gradient"], 0, 0.0, tol_thm, True,
                    detail="hypothesis xi(f) = 0 fails at every sample; no claim checked",
                ))
            else:
                checks.append(_result(
                    cid, anchors["orthogonal-gradient"],
                    applicable[a], worst[a], tol_thm,
                ))
    return checks


def _suite_riemann_solitons(run, override):
    return _soliton_suite(run, override, "riemann")


def _suite_ricci_solitons(run, override):
    return _soliton_suite(run, override, "ricci")


# ---------------------------------------------------------------------------
# inequalities

_INEQ_ANCHORS = {
    "riemann": {
        "reconstruction": (
            "(2n-1)^2 |Hess_bar f|^2 = |Ric_bar|^2 - 4n^2(2n+1) lambda^2 "
            "+ 16n^2 Lap_bar(f) lambda - (6n-1) Lap_bar(f)^2"
        ),
        "deformed-bound": (
            "|Ric_bar|^2 >= (2n-1)^2 [|Hess_bar f|^2 - Lap_bar(f)^2/(2n+1)]"
        ),
        "deformed-bound-solenoidal": (
            "|Ric_bar|^2 >= (2n-1)^2 |Hess_bar f|^2 when Lap_bar(f) = 0"
        ),
        "base-bound": (
            "|Ric|^2 >= (2n-1)^2|Hess f|^2 - 4nq scal - 4n^2(2n+1)q^2 "
            "- ((2n-1)^2/(2n+1))[Lap(f)^2 + 2q(xi(f) - xi(xi f))Lap(f) "
            "- 2n q^2 xi(f)^2] - (2(2n-1)^2(a-1)/((2n+1)a^2))"
            "[(n+na+a) xi(xi f)^2 - (2n+a) xi(f) xi(xi f)], q = (a-1)/a"
        ),
        "base-bound-orthogonal": (
            "|Ric|^2 >= (2n-1)^2[|Hess f|^2 - Lap(f)^2/(2n+1)] "
            "+ 4n(2n-1)q Lap(f) + 4n^2(2n+1)(a^2-1)/a^2 when xi(f) = 0"
        ),
        "base-bound-orthogonal-harmonic": (
            "|Ric|^2 >= (2n-1)^2 |Hess f|^2 + 4n^2(2n+1)(a^2-1)/a^2 "
            "when xi(f) = 0 and Lap(f) = 0"
        ),
        "base-bound-solenoidal": (
            "|Ric|^2 >= (2n-1)^2 |Hess f|^2 + ((a^2-1)/a^2)"
            "[4n^2 - (2n-1)^2 xi(xi f)^2] when Lap_bar(f) = 0"
        ),
    },
    "ricci": {
        "reconstruction": (
            "|Hess_bar f|^2 = |Ric_bar|^2 - (2n+1) lambda^2 + 2 Lap_bar(f) lambda"
        ),
        "deformed-bound": (
            "|Ric_bar|^2 >= |Hess_bar f|^2 - Lap_bar(f)^2/(2n+1)"
        ),
        "deformed-bound-solenoidal": (
            "|Ric_bar|^2 >= |Hess_bar f|^2 when Lap_bar(f) = 0"
        ),
        "base-bound": (
            "|Ric|^2 >= |Hess f|^2 - 4nq scal - 4n^2(2n+1)q^2 "
            "- (1/(2n+1))[Lap(f)^2 + 2q(xi(f) - xi(xi f))Lap(f) "
            "- 2n q^2 xi(f)^2] - (2(a-1)/((2n+1)a^2))"
            "[(n+na+a) xi(xi f)^2 - (2n+a) xi(f) xi(xi f)], q = (a-1)/a"
        ),
        "base-bound-orthogonal": (
            "|Ric|^2 >= |Hess f|^2 - Lap(f)^2/(2n+1) + 4nq Lap(f) "
            "+ 4n^2(2n+1)(a^2-1)/a^2 when xi(f) = 0"
        ),
        "base-bound-orthogonal-harmonic": (
            "|Ric|^2 >= |Hess f|^2 + 4n^2(2n+1)(a^2-1)/a^2 "
            "when xi(f) = 0 and Lap(f) = 0"
        ),
        "base-bound-solenoidal": (
            "|Ric|^2 >= |Hess f|^2 + ((a^2-1)/a^2)(4n^2 - xi(xi f)^2) "
            "when Lap_bar(f) = 0"
        ),
    },
}


def _suite_inequalities(run, override):
    f = run.config.scalar
    npts = len(run.points)
    tol = 1e-8 if override is None else override
    checks = []
    for kind in ("riemann", "ricci"):
        for a in run.config.a_grid:
            ds = run.deformed(a)
            tag = _a_tag(a)

            def residuals(p):
                for item in inequality_battery(ds, f, kind, p):
                    if not item["applicable"]:
                        yield item["check"], None
                        continue
                    scale = max(1.0, abs(item["lhs"]), abs(item["rhs"]))
                    if item["equality"]:
                        yield item["check"], abs(item["margin"]) / scale
                    else:
                        yield item["check"], _below(item["margin"]) / scale

            worst, applicable = _worst(
                run.points, residuals,
                lambda name: f"inequality/{kind}/{name}{tag}",
            )
            for name, count in applicable.items():
                cid = f"inequality/{kind}/{name}{tag}"
                anchor = _INEQ_ANCHORS[kind][name]
                if count == 0:
                    checks.append(CheckResult(
                        cid, anchor, 0, 0.0, tol, True,
                        detail="hypothesis fails at every sample; no claim checked",
                    ))
                else:
                    detail = None
                    if count < npts:
                        detail = f"checked at {count} of {npts} samples"
                    checks.append(_result(
                        cid, anchor, count, worst[name], tol, detail=detail,
                    ))
    return checks


# ---------------------------------------------------------------------------
# driver

_SUITE_RUNNERS = {
    "acm-axioms": _suite_acm_axioms,
    "kenmotsu": _suite_kenmotsu,
    "section2-identities": _suite_section2,
    "prop22-norms": _suite_prop22,
    "remark23": _suite_remark23,
    "riemann-solitons": _suite_riemann_solitons,
    "ricci-solitons": _suite_ricci_solitons,
    "inequalities": _suite_inequalities,
}

# suites whose closed forms presume the Kenmotsu condition on the base
_GATED = frozenset((
    "section2-identities",
    "prop22-norms",
    "remark23",
    "riemann-solitons",
    "ricci-solitons",
    "inequalities",
))

# suites that need a configured scalar field
_NEEDS_SCALAR = frozenset(("prop22-norms", "remark23", "inequalities"))


def run_suites(config: VerificationConfig) -> list:
    """All checks for the configured suites, sorted by check id."""
    points = sample_points(
        config.manifold, config.box, config.points, config.seed
    )
    run = _Run(config, points)
    checks = []
    gate = None
    for suite in config.suites:
        runner = _SUITE_RUNNERS[suite]
        override = config.tol_overrides.get(suite)
        if config.structure is None:
            checks.append(CheckResult(
                f"{suite}/requires-structure",
                "suite needs an almost contact metric structure",
                len(points), 1.0, 0.0, False,
                detail="fixture defines no [structure] section",
            ))
            continue
        try:
            if suite in _GATED:
                if gate is None:
                    worst, _ = _worst(
                        points,
                        lambda p: kenmotsu_details(config.structure, p).items(),
                        lambda k: f"{suite}/kenmotsu-gate",
                    )
                    gate = max(worst.values())
                if gate > KENMOTSU_TOL:
                    checks.append(CheckResult(
                        f"{suite}/kenmotsu-gate",
                        "closed deformation forms require a Kenmotsu base",
                        len(points), float(gate), KENMOTSU_TOL, False,
                        detail="base structure is not Kenmotsu; suite skipped",
                    ))
                    continue
            if suite in _NEEDS_SCALAR and config.scalar is None:
                checks.append(CheckResult(
                    f"{suite}/scalar-missing",
                    "suite needs a scalar field; set scalar in [run]",
                    len(points), 1.0, 0.0, False,
                    detail="no scalar field configured",
                ))
                continue
            checks.extend(runner(run, override))
        except (EvalError, StructureError) as err:
            raise SuiteError(f"suite {suite}: {err}") from err
    checks.sort(key=lambda c: c.check_id)
    return checks


def build_report(config: VerificationConfig, checks) -> dict:
    return {
        "fixture": config.name,
        "version": REPORT_VERSION,
        "seed": config.seed,
        "points": config.points,
        "a_grid": [float(a) for a in config.a_grid],
        "suites": list(config.suites),
        "all_pass": all(c.passed for c in checks),
        "checks": [c.to_json_dict() for c in checks],
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
