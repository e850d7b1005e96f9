"""Check suites over sampled chart points, with deterministic reports.

Every quantity is evaluated once for the whole batch of sample points, as
one value per sample; what depends on the deformation parameter is
evaluated once for the whole a-grid too, as one value per a and sample.
Each suite hands its residuals over as claims, and one function, ``_emit``,
turns them into checks the same way for every suite: the worst residual of
each [a=...] row against a tolerance.  A suite emits once per frame: its
claims on one batch are stacked into one array and reduced once to
columns (``_worst``), and the checks of each key are built from its
columns, not claim by claim or row by row.  Closed-form versus direct
comparisons use a relative residual (scaled by the larger of 1 and the
magnitudes involved), algebraic axiom checks and soliton equation
residuals are absolute.  A non-finite residual refuses the run, naming
the first claim computed with one.  Reports are plain dicts whose JSON
serialization is byte-stable for a fixed (config, seed, version): checks
are sorted by id, keys are sorted, and no timing data enters the report.
``report_json`` writes those bytes for ``build_report``'s schema from
templates, with no ``json.dumps`` call: one for the top level, a head per
distinct anchor, classification and detail, and each float's text once
per value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .config import VerificationConfig
from .deformation import (
    HARMONIC_PROBE_A,
    HYPOTHESIS_TOL,
    KENMOTSU_TOL,
    DeformedStructure,
    admissible_interval,
    deform,
    harmonic_transfer,
    laplacian_bar,
    prop_inner_battery,
    ricci_norm_bound,
)
from .expr import A, EvalError, a_tag, locate
from .geometry import (
    Samples,
    ScalarField,
    covariant_derivative,
    curvature_bundle,
    divergence,
    grad,
    hessian,
    kenmotsu_details,
    laplacian,
    lie_derivative_metric,
    nabla_phi_tensor,
    on_bound_batch,
    sample_batch,
    with_a,
)
from .solitons import (
    inequality_battery,
    orthogonal_gradient_values,
    solenoidal_implied,
    soliton_residuals,
    theorem_lambda,
    xi_compatibility,
)
from .tensor import StructureError, contract, max_abs, outer, pair_index

__all__ = [
    "REPORT_VERSION",
    "CheckResult",
    "SuiteError",
    "run_suites",
    "build_report",
    "report_json",
]

REPORT_VERSION = "0.5.1"


class SuiteError(StructureError):
    """A check could not be evaluated: its residual is not finite, or a
    quantity it reads failed to evaluate."""


@dataclass(slots=True)
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
            "points": int(self.points),
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }
        if self.classification is not None:
            out["classification"] = self.classification
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def _rel(x, y, rank: int = 0) -> np.ndarray:
    """Per-sample max-abs difference of rank-``rank`` data, scaled by
    max(1, |x|, |y|).

    ``x`` and ``y`` broadcast together, sample axes first; either may be a
    constant.  Each is reduced on its own sample axes before the two meet.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scale = np.maximum(1.0, np.maximum(max_abs(x, rank), max_abs(y, rank)))
    return max_abs(x - y, rank) / scale


def _below(margin) -> np.ndarray:
    """How far a one-sided margin falls below zero; NaN stays NaN."""
    return np.where(margin >= 0.0, 0.0, -margin)


def _worst(batch: Samples, items, check_id):
    """Worst residual of each key over the samples, per value of a, as
    columns.

    ``batch`` holds N samples, or (A, N) when it binds a grid of a.
    ``items`` lists (key, residuals[, applicable]) in the order they are
    computed: residuals, never negative, and the mask ``applicable`` of
    samples where the key's hypothesis holds (None or absent: all), both
    broadcast to the batch.  A key may repeat.  The items are stacked into
    one (items,) + batch.shape array, zero where one does not apply, and
    reduced at once.
    Returns (keys, worst, applicable): the distinct keys in first-seen
    order and two (keys,) + batch.shape[:-1] arrays, the largest residual
    of each key and row of a over the samples where it applies and the
    number of those samples.  A non-finite residual raises SuiteError
    (``_refuse``), since a NaN would otherwise compare as passing.
    """
    shape = batch.shape
    items = list(items)
    keys = {}
    index = [keys.setdefault(key, len(keys)) for key, *_ in items]
    stack = np.zeros((len(items),) + shape)
    covered, unmasked = {}, set()  # the union of each key's masks
    for k, row, (_, residual, *rest) in zip(index, stack, items):
        mask = rest[0] if rest else None
        if mask is not None:
            np.copyto(row, residual, where=mask)
            covered[k] = mask if k not in covered else covered[k] | mask
        else:
            row[...] = residual
            unmasked.add(k)
    # residuals are never negative, so a NaN or inf where one applies
    # leaves its row's maximum non-finite; abs reads a -0.0 maximum as +0.0
    tops = np.abs(stack.max(axis=-1, initial=0.0))
    if not np.isfinite(tops).all():
        _refuse(batch, items, stack, check_id)
    if len(keys) == len(items):
        worst = tops  # one item per key, in order
    else:
        worst = np.zeros((len(keys),) + shape[:-1])
        np.maximum.at(worst, index, tops)
    counts = np.full(worst.shape, shape[-1])  # what an unmasked key covers
    for k in covered.keys() - unmasked:
        counts[k] = np.broadcast_to(covered[k], shape).sum(axis=-1)
    return list(keys), worst, counts


def _refuse(batch: Samples, items, stack, check_id):
    """Raise the SuiteError of ``_worst`` for the non-finite entries of
    ``stack``, the stacked residuals of ``items``: it names the earliest
    (a, sample) with one, then the first item non-finite there, by
    ``check_id(key)`` and the tag of its a."""
    shape = batch.shape
    bad = ~np.isfinite(stack)
    s, c = divmod(int(np.argmax(bad.reshape(len(items), -1).T)), len(items))
    tag = a_tag(np.broadcast_to(batch[A], shape).flat[s]) if len(shape) > 1 else ""
    raise SuiteError(
        f"check {check_id(items[c][0])}{tag} has residual "
        f"{stack[c].flat[s]} at sample {locate(batch, bad.any(axis=0))}"
    )


class Claim(NamedTuple):
    """One identity or bound of the paper, as residuals on a batch.

    ``key`` names the check under its suite's prefix; ``tol`` is its
    tolerance, a number or a function of a; ``residual`` is never
    negative and broadcasts to the batch.  ``applies`` masks the samples
    where the claim's ``hypothesis`` holds (None: everywhere), and
    ``labels`` are per-sample soliton classifications (None: the check
    carries none).
    """

    key: str
    anchor: str
    tol: object
    residual: object
    applies: object = None
    labels: object = None
    hypothesis: str = "hypothesis"


def _closed_tol(a) -> float:
    """Tolerance of a closed form against direct computation: both are
    the same expression at a = 1, rounded differently elsewhere."""
    return 1e-12 if a == 1.0 else 1e-8


@on_bound_batch
def _a_rows(point) -> tuple:
    """The values of a that the (A, N) batch ``point`` binds, one per row,
    and the ``a_tag`` of each."""
    row = np.ravel(point[A]).tolist()
    return row, [a_tag(a) for a in row]


def _emit(batch: Samples, prefix: str, claims) -> list:
    """The checks ``prefix/key[a=...]`` of ``claims`` on ``batch``.

    One check per key and row of a (one untagged row when ``batch`` binds
    no a).  A check takes the worst residual of its key's claims on its
    row (``_worst``: a repeated key takes the larger, a non-finite
    residual raises SuiteError) and passes at or below the tolerance of
    its first claim.  Where the key's hypothesis holds at no sample of the
    row the check is vacuous; where it holds at only some, its detail says
    at how many.  A row whose labels are all one label is classified by
    it, else as "mixed".  The claims are reduced together, in one
    ``_worst``, to columns per key, and each key's checks are built from
    its columns, the tolerance row of its tol and the class row of its
    labels: one row per distinct tol and per distinct labels array (both
    by identity), whichever claims share it, and one tag row per batch.
    """
    shape = batch.shape
    npts = shape[-1]
    a_row, tags = ([1.0], [""]) if len(shape) == 1 else _a_rows(batch)
    keys, worst, counts = _worst(
        batch, [(c.key, c.residual, c.applies) for c in claims],
        lambda key: f"{prefix}/{key}",
    )
    rows = len(a_row)
    worst = worst.reshape(len(keys), rows).tolist()
    counts = counts.reshape(len(keys), rows).tolist()
    first = {c.key: c for c in reversed(claims)}
    tols, classes = {}, {id(None): [None] * rows}
    checks = []
    for key, tops, ns in zip(keys, worst, counts):
        c = first[key]
        tol_row = tols.get(id(c.tol))
        if tol_row is None:
            tol_row = tols[id(c.tol)] = (
                [c.tol(a) for a in a_row] if callable(c.tol) else [c.tol] * rows
            )
        class_row = classes.get(id(c.labels))
        if class_row is None:
            labels = np.broadcast_to(c.labels, shape).reshape(rows, npts)
            same = (labels == labels[:, :1]).all(axis=1)
            class_row = classes[id(c.labels)] = np.where(
                same, labels[:, 0], "mixed").tolist()
        name = f"{prefix}/{key}"
        # a vacuous row's worst is +0.0: nothing of its key applies there
        checks += [
            CheckResult(
                name + tag, c.anchor, n, top, tol, n == 0 or top <= tol, cls,
                f"{c.hypothesis} fails at every sample; no claim checked"
                if n == 0 else
                f"checked at {n} of {npts} samples" if n < npts else None,
            )
            for tag, top, n, tol, cls in zip(tags, tops, ns, tol_row, class_row)
        ]
    return checks


class _Run:
    """What the suites of one run share.

    The batch of sample points, and one deformation over the whole a-grid
    with its frame, the (A, N) batch that binds it, built on first use.
    Its chart is differentiated once per run, and what is evaluated on the
    frame, memoised there, once; row i of the a axis is the grid's i-th.
    """

    def __init__(self, config: VerificationConfig, points: Samples):
        self.config = config
        self.points = points

    @cached_property
    def deformed(self) -> DeformedStructure:
        return deform(self.config.structure, self.config.a_grid)

    @cached_property
    def frame(self) -> Samples:
        return self.deformed.at(self.points)


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


def _suite_acm_axioms(run):
    residuals = run.config.structure.validate(run.points)
    return _emit(run.points, "acm", [
        Claim(k, _ACM_ANCHORS[k], 1e-10, r) for k, r in residuals.items()
    ])


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


def _suite_kenmotsu(run):
    s = run.config.structure
    man = s.manifold
    n = s.n
    pts = run.points
    eye = np.eye(man.dim)

    det = kenmotsu_details(s, pts)
    m = man.metric_at_cached(pts)
    eta = s.eta_field.values(pts)
    xi = s.xi_field.values(pts)
    lie = lie_derivative_metric(man, s.xi_field, pts)
    bundle = curvature_bundle(man, pts)
    # R(d_a, d_b) xi and eta_a d_b - eta_b d_a at the pairs (a < b), [p, l]
    pairs = pair_index(man.dim)
    rxy_xi = contract("pcl,c->pl", bundle["R13"], xi)
    target = (
        eta[..., pairs.i, None] * eye[pairs.j]
        - eta[..., pairs.j, None] * eye[pairs.i]
    )
    ric_xi = contract("i,ij,j->", xi, bundle["Ric"], xi)
    return _emit(pts, "kenmotsu", [
        Claim(k, _KENMOTSU_ANCHORS[k], tol, r) for k, tol, r in (
            ("nabla-phi", 1e-10, det["nabla-phi"]),
            ("nabla-xi", 1e-10, det["nabla-xi"]),
            ("div-xi", 1e-10,
             np.abs(divergence(man, s.xi_field, pts) - 2.0 * n)),
            ("lie-xi-metric", 1e-10,
             max_abs(lie - 2.0 * (m.g - outer(eta, eta)), 2)),
            ("curvature-reeb", 1e-9, max_abs(rxy_xi - target, 2)),
            ("ricci-reeb", 1e-9, np.abs(ric_xi + 2.0 * n)),
        )
    ])


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


def _suite_section2(run):
    config = run.config
    structure = config.structure
    f = config.scalar
    ds = run.deformed
    pa = run.frame
    xi_field = ds.structure.xi_field
    div_fields = sorted(config.vectors) or [None]

    ds.require_kenmotsu(pa)
    mb = ds.manifold.metric_at_cached(pa)
    direct = curvature_bundle(ds.manifold, pa)
    closed = ds.curvature_closed(pa)
    items = [
        ("christoffel", _rel(ds.christoffel_closed(pa), direct["gamma"], 3)),
        ("curvature-13", _rel(closed["R13"], direct["R13"], 3)),
        ("curvature-04", _rel(closed["R04"], direct["R04"], 3)),
        ("ricci", _rel(closed["Ric"], direct["Ric"], 2)),
        ("scalar", _rel(closed["scal"], direct["scal"])),
        ("inverse-metric", _rel(ds.inverse_metric_closed(pa), mb.inv, 2)),
        ("nabla-phi", _rel(
            ds.nabla_phi_closed(pa), nabla_phi_tensor(ds.structure, pa), 3
        )),
        ("nabla-reeb", _rel(
            ds.nabla_reeb_closed(pa),
            covariant_derivative(ds.manifold, xi_field, pa), 2,
        )),
        ("lie-reeb-metric", _rel(
            ds.lie_reeb_closed(pa),
            lie_derivative_metric(ds.manifold, xi_field, pa), 2,
        )),
        ("div-reeb", _rel(
            ds.div_reeb_closed(pa), divergence(ds.manifold, xi_field, pa)
        )),
    ]
    del closed  # the stacked 4-tensors are reduced
    if f is not None:
        items += [
            ("hessian", _rel(
                ds.hessian_closed(f, pa), hessian(ds.manifold, f, pa), 2
            )),
            ("gradient", _rel(
                ds.gradient_closed(f, pa), grad(ds.manifold, f, pa), 1
            )),
            ("laplacian", _rel(
                laplacian_bar(structure, f, pa), laplacian(ds.manifold, f, pa)
            )),
        ]
    for wname in div_fields:
        field = xi_field if wname is None else config.vectors[wname]
        items.append(("divergence", _rel(
            divergence(ds.manifold, field, pa),
            divergence(structure.manifold, field, pa),
        )))
    claims = [
        Claim(key, _SECTION2_ANCHORS[key], _closed_tol, r) for key, r in items
    ]
    claims.append(Claim(
        "deformed-acm", _SECTION2_ANCHORS["deformed-acm"], 1e-10,
        ds.structure.acm_residual(pa),
    ))
    return _emit(pa, "section2", claims)


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


def _suite_prop22(run):
    claims = []
    for item in prop_inner_battery(run.deformed, run.config.scalar, run.frame):
        anchor = _PROP22_ANCHORS[item["pair"]]
        claims.append(Claim(item["pair"], anchor, _closed_tol,
                            _rel(item["direct"], item["transfer"])))
        # the closed form alone has a hypothesis, so the check keeps all N
        # samples through the transfer
        claims.append(Claim(item["pair"], anchor, _closed_tol,
                            _rel(item["direct"], item["closed"]),
                            item["applicable"]))
    return _emit(run.frame, "prop22", claims)


# ---------------------------------------------------------------------------
# remark23

def _suite_remark23(run):
    structure = run.config.structure
    points = run.points
    pa = run.frame
    res = ricci_norm_bound(structure, pa)
    checks = _emit(pa, "remark23", [Claim(
        "norm-bound", "|Ric|^2 >= 4n^2(a^2-1)/a^2", 1e-9,
        _below(res["ric_norm_sq"] - res["bound"]),
    )])

    lo, hi = admissible_interval(2.0, 1)
    arith = abs(lo - 0.0) + abs(hi - 2.0)
    checks.append(CheckResult(
        "remark23/admissible-interval",
        "|Ric|^2 = 2, n = 1 gives the admissible range a in (0, 2)",
        0, float(arith), 1e-12, bool(arith <= 1e-12),
    ))

    # f is read on the base frame, and probed at HARMONIC_PROBE_A from
    # base data alone, so the probe needs no row of the run's grid
    ht = harmonic_transfer(structure, run.config.scalar, with_a(points, 1.0))
    if not ht["applicable"]:
        agree = True
        detail = ("not applicable: f is not harmonic "
                  f"(max |Lap f| = {ht['max_lap']:.3e})")
    else:
        agree = bool(ht["deformed_harmonic"]) == ht["condition_holds"]
        detail = (
            f"max |Lap_bar f| = {ht['max_lap_bar']:.3e} at a = "
            f"{HARMONIC_PROBE_A:g}; condition residual = "
            f"{ht['max_condition_residual']:.3e}"
        )
    checks.append(CheckResult(
        "remark23/harmonic-transfer",
        "a harmonic f stays harmonic iff Hess f(xi,xi) = -2n eta(grad f)",
        points.count, 0.0 if agree else 1.0, 0.5, agree, detail=detail,
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


def _soliton_suite(run, kind):
    """The checks of each candidate on the base frame and on the deformed
    (A, N) frame, and the Reeb, solenoidal and orthogonal claims on the
    deformed frame, one ``_emit`` per frame (``_emit_frames``).

    The claims are kept as (batch, claims) groups in the order computed:
    each candidate's base frame, then its deformed frame, then the
    frame-wide claims.  A non-finite residual of a group is refused before
    one of a later group and before an error computing a later group, as
    when each group was emitted as soon as computed.
    """
    config = run.config
    structure = config.structure
    man = structure.manifold
    points = run.points
    prefix = f"{kind}-soliton"
    anchors = _EQ_ANCHORS[kind]
    keys = ("full", "traced", "scalar") if kind == "riemann" else ("full", "scalar")

    pa = run.frame
    frames = ((structure, with_a(points, 1.0)), (run.deformed.structure, pa))
    groups = []  # (batch, claims), in the order computed
    try:
        for cand in config.candidates:
            if cand.kind != kind:
                continue
            for frame, at in frames:
                res = soliton_residuals(frame, cand, at)
                claims = [
                    Claim(f"{cand.name}/{k}", anchors[k], 1e-8, res[k],
                          labels=res["classification"])
                    for k in keys
                ]
                if isinstance(cand.potential, ScalarField):
                    lam_thm = theorem_lambda(
                        kind, "gradient", structure, cand.potential, at
                    )
                    claims.append(Claim(
                        f"{cand.name}/lambda-gradient",
                        anchors["lambda-gradient"], 1e-9,
                        _rel(lam_thm, res["lambda"]),
                    ))
                groups.append((at, claims))

        # the Reeb-compatibility, solenoidal-trace and orthogonal-gradient
        # claims, the last group, on the (A, N) batch
        res = xi_compatibility(kind, structure, pa)
        scale = np.maximum(1.0, res["scale"])
        wide = [
            Claim("reeb-compatibility", anchors["reeb-compatibility"], 1e-9, r)
            for r in (
                res["premise_residual"] / scale,
                res["residual_at_star"] / scale,
                _below(
                    res["residual_perturbed"]
                    - 0.5 * res["perturbation"] * res["scale"]
                ) / scale,
            )
        ]
        # fields free of the symbol a whose divergence vanishes at every
        # sample
        fields = {
            w: v for w, v in sorted(config.vectors.items())
            if not v.reads_a
        }
        names, max_div, _ = _worst(
            points,
            [(w, np.abs(divergence(man, v, points))) for w, v in fields.items()],
            lambda w: f"{prefix}/solenoidal-trace/{w}",
        )
        for w, top in zip(names, max_div.tolist()):
            if top <= HYPOTHESIS_TOL:
                res = solenoidal_implied(kind, structure, fields[w], pa)
                wide.append(Claim(
                    f"solenoidal-trace/{w}", anchors["solenoidal-trace"], 1e-9,
                    res["trace_residual"] / np.maximum(1.0, np.abs(res["scal"])),
                ))
        f = config.scalar
        if f is not None:
            res = orthogonal_gradient_values(kind, structure, f, pa)
            lam_thm = theorem_lambda(kind, "gradient", structure, f, pa)
            wide.append(Claim(
                "orthogonal-gradient", anchors["orthogonal-gradient"], 1e-9,
                _rel(res["lambda_bar"], lam_thm), res["applicable"],
                hypothesis="hypothesis xi(f) = 0",
            ))
    except (EvalError, StructureError):
        _emit_frames(prefix, groups)  # refuses what was computed first
        raise
    groups.append((pa, wide))
    return _emit_frames(prefix, groups)


def _emit_frames(prefix, groups) -> list:
    """The checks of ``groups``, (batch, claims) in the order computed,
    with one ``_emit`` per distinct batch (by identity).  Where that
    refuses a non-finite residual, the groups are emitted one at a time,
    in order, so that the first group with one raises its own refusal."""
    frames = {}
    for batch, claims in groups:
        frames.setdefault(id(batch), (batch, []))[1].extend(claims)
    try:
        return [check for batch, claims in frames.values()
                for check in _emit(batch, prefix, claims)]
    except SuiteError:
        for batch, claims in groups:
            _emit(batch, prefix, claims)
        raise


def _suite_riemann_solitons(run):
    return _soliton_suite(run, "riemann")


def _suite_ricci_solitons(run):
    return _soliton_suite(run, "ricci")


# ---------------------------------------------------------------------------
# inequalities

# one template for both kinds: Ric_bar = -k Hess_bar f + beta g_bar, with
# k = 2n-1, beta = 2n lambda - Lap_bar(f) (riemann) or k = 1, beta = lambda
_INEQ_TEMPLATE = {
    "reconstruction": (
        "k^2 |Hess_bar f|^2 = |Ric_bar|^2 + 2k beta Lap_bar(f) "
        "- (2n+1) beta^2, Ric_bar = -k Hess_bar f + beta g_bar"
    ),
    "deformed-bound": "|Ric_bar|^2 >= k^2 [|Hess_bar f|^2 - Lap_bar(f)^2/(2n+1)]",
    "deformed-bound-solenoidal": (
        "|Ric_bar|^2 >= k^2 |Hess_bar f|^2 when Lap_bar(f) = 0"
    ),
    "base-bound": (
        "|Ric|^2 >= k^2 |Hess f|^2 - 4nq scal - 4n^2(2n+1)q^2 "
        "- (k^2/(2n+1))[Lap(f)^2 + 2q(xi(f) - xi(xi f))Lap(f) "
        "- 2n q^2 xi(f)^2] - (2k^2(a-1)/((2n+1)a^2))"
        "[(n+na+a) xi(xi f)^2 - (2n+a) xi(f) xi(xi f)], q = (a-1)/a"
    ),
    "base-bound-orthogonal": (
        "|Ric|^2 >= k^2 [|Hess f|^2 - Lap(f)^2/(2n+1)] + 4nkq Lap(f) "
        "+ 4n^2(2n+1)(a^2-1)/a^2 when xi(f) = 0, q = (a-1)/a"
    ),
    "base-bound-orthogonal-harmonic": (
        "|Ric|^2 >= k^2 |Hess f|^2 + 4n^2(2n+1)(a^2-1)/a^2 "
        "when xi(f) = 0 and Lap(f) = 0"
    ),
    "base-bound-solenoidal": (
        "|Ric|^2 >= k^2 |Hess f|^2 + ((a^2-1)/a^2)[4n^2 - k^2 xi(xi f)^2] "
        "when Lap_bar(f) = 0"
    ),
}

_INEQ_ANCHORS = {
    kind: {name: f"{text}; k = {k}" for name, text in _INEQ_TEMPLATE.items()}
    for kind, k in (("riemann", "2n-1"), ("ricci", "1"))
}


def _suite_inequalities(run):
    claims = []
    for kind in ("riemann", "ricci"):
        for item in inequality_battery(run.deformed, run.config.scalar, kind,
                                       run.frame):
            scale = np.maximum(
                1.0, np.maximum(np.abs(item["lhs"]), np.abs(item["rhs"]))
            )
            margin = item["margin"]
            shortfall = np.abs(margin) if item["equality"] else _below(margin)
            claims.append(Claim(
                f"{kind}/{item['check']}", _INEQ_ANCHORS[kind][item["check"]],
                1e-8, shortfall / scale, item["applicable"],
            ))
    return _emit(run.frame, "inequality", claims)


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

# the failing check that stands for a suite that cannot run: key ->
# (anchor, tolerance, detail)
_REFUSALS = {
    "requires-structure": ("suite needs an almost contact metric structure",
                           0.0, "fixture defines no [structure] section"),
    "kenmotsu-gate": ("closed deformation forms require a Kenmotsu base",
                      KENMOTSU_TOL,
                      "base structure is not Kenmotsu; suite skipped"),
    "scalar-missing": ("suite needs a scalar field; set scalar in [run]",
                       0.0, "no scalar field configured"),
}


def _refusal(suite: str, key: str, points: int, residual=1.0) -> CheckResult:
    anchor, tol, detail = _REFUSALS[key]
    return CheckResult(f"{suite}/{key}", anchor, points, residual, tol, False,
                       detail=detail)


def run_suites(config: VerificationConfig) -> list:
    """All checks for the configured suites, sorted by check id."""
    points = sample_batch(
        config.manifold, config.box, config.points, config.seed
    )
    run = _Run(config, points)
    checks = []
    gate = None
    for suite in config.suites:
        runner = _SUITE_RUNNERS[suite]
        if config.structure is None:
            checks.append(_refusal(suite, "requires-structure", points.count))
            continue
        try:
            if suite in _GATED:
                if gate is None:
                    _, worst, _ = _worst(
                        points,
                        kenmotsu_details(config.structure, points).items(),
                        lambda k: f"{suite}/kenmotsu-gate",
                    )
                    gate = max(worst.tolist())
                if gate > KENMOTSU_TOL:
                    checks.append(_refusal(suite, "kenmotsu-gate",
                                           points.count, gate))
                    continue
            if suite in _NEEDS_SCALAR and config.scalar is None:
                checks.append(_refusal(suite, "scalar-missing", points.count))
                continue
            checks.extend(runner(run))
        except (EvalError, StructureError) as err:
            raise SuiteError(f"suite {suite}: {err}") from err
    checks.sort(key=attrgetter("check_id"))
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


def _float_text(x: float) -> str:
    """The text json writes for the float ``x``."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _check_head(anchor, classification, detail) -> str:
    """A check's text up to the value of its id."""
    head = '{\n      "anchor": ' + encode_basestring_ascii(anchor)
    for name, text in (("classification", classification), ("detail", detail)):
        if text is not None:
            head += f',\n      "{name}": ' + encode_basestring_ascii(text)
    return head + ',\n      "id": '


def _list_text(texts) -> str:
    """A top-level json list, indented as json writes it, of the item
    texts ``texts``."""
    text = ",\n    ".join(texts)
    return f"[\n    {text}\n  ]" if text else "[]"


def report_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True) + "\\n"``, byte for
    byte, written from templates with no ``json.dumps`` call.

    ``report`` is what ``build_report`` returns: its eight keys, and each
    check has the keys and value types of ``CheckResult.to_json_dict``.
    The top level is one template in sorted key order, with the checks in
    the middle.  A check is its head, built once per distinct (anchor,
    classification, detail) since the sorted keys put those first, then
    its id, then its numbers.  Each float is written as json writes it
    (``float.__repr__``, NaN, Infinity, -Infinity; ``_float_text``), a
    check's text memoised per value within the call, and each string by
    json's ``encode_basestring_ascii``.  A raw newline only ever stands
    between items, since strings are escaped.
    """
    before = (
        f'{{\n  "a_grid": {_list_text(map(_float_text, report["a_grid"]))},\n'
        f'  "all_pass": {"true" if report["all_pass"] else "false"},\n'
        f'  "checks": '
    )
    suites = _list_text(map(encode_basestring_ascii, report["suites"]))
    after = (
        f',\n  "fixture": {encode_basestring_ascii(report["fixture"])},\n'
        f'  "points": {report["points"]},\n'
        f'  "seed": {report["seed"]},\n'
        f'  "suites": {suites},\n'
        f'  "version": {encode_basestring_ascii(report["version"])}\n}}\n'
    )
    checks = report["checks"]
    if not checks:
        return f'{before}{"null" if checks is None else "[]"}{after}'
    # float -> its text; a zero is written by repr, since 0.0 == -0.0, and
    # a NaN, equal to nothing, is only found again as the same object
    heads, floats = {}, {}
    items = []
    for check in checks:
        get = check.get
        key = (check["anchor"], get("classification"), get("detail"))
        head = heads.get(key)
        if head is None:
            head = heads[key] = _check_head(*key)
        top, tol = check["max_residual"], check["tolerance"]
        top_text = floats.get(top) if top else repr(top)
        if top_text is None:
            top_text = floats[top] = _float_text(top)
        tol_text = floats.get(tol) if tol else repr(tol)
        if tol_text is None:
            tol_text = floats[tol] = _float_text(tol)
        items.append(
            f"{head}{encode_basestring_ascii(check['id'])},\n"
            f'      "max_residual": {top_text},\n'
            f'      "pass": {"true" if check["pass"] else "false"},\n'
            f'      "points": {check["points"]},\n'
            f'      "tolerance": {tol_text}\n    }}'
        )
    # the checks joined into the one large string between the two halves
    items[0] = f"{before}[\n    {items[0]}"
    items[-1] = f"{items[-1]}\n  ]{after}"
    return ",\n    ".join(items)
