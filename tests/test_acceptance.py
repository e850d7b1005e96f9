"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Every criterion pins its own tolerances and recomputes what it needs from
the public API, so a regression anywhere upstream surfaces here as a FAIL
line naming the criterion.  Run with ``pytest -s tests/test_acceptance.py``
to see the verdict lines for passing criteria too.
"""

import numpy as np
from conftest import expand

from acmsolitons.config import builtin_config
from acmsolitons.deformation import deform
from acmsolitons.expr import diff, evaluate, parse_expr
from acmsolitons.geometry import (
    VectorField,
    curvature_bundle,
    divergence,
    hessian,
    kenmotsu_residual,
    laplacian,
    lie_derivative_metric,
    sample_batch,
    with_a,
    xi_derivatives,
)
from acmsolitons.solitons import (
    SolitonCandidate,
    implied_curvature,
    inequality_battery,
    soliton_residuals,
    theorem_lambda,
)
from acmsolitons.suites import build_report, report_json, run_suites
from acmsolitons.tensor import hs_inner

A_GRID = (0.5, 1.0, 2.0, 3.7)


def _verdict(num, ok, text):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {text}")
    return ok


def _config():
    return builtin_config("kenmotsu3")


def _points(cfg):
    return sample_batch(cfg.manifold, cfg.box, cfg.points, cfg.seed).points()


def _cand(cfg, name):
    return next(c for c in cfg.candidates if c.name == name)


def test_criterion_01_kenmotsu_axioms():
    cfg = _config()
    s = cfg.structure
    man = cfg.manifold
    xi_field = s.xi_field
    worst = {"structure": 0.0, "div": 0.0, "lie": 0.0, "curv": 0.0, "ric": 0.0}
    eye = np.eye(man.dim)
    for p in _points(cfg):
        worst["structure"] = max(worst["structure"], kenmotsu_residual(s, p))
        worst["div"] = max(
            worst["div"], abs(divergence(man, xi_field, p) - 2.0)
        )
        m = man.metric_at_cached(p)
        eta = s.eta_values(p)
        lie = lie_derivative_metric(man, xi_field, p)
        worst["lie"] = max(
            worst["lie"],
            float(np.max(np.abs(lie - 2.0 * (m.g - np.outer(eta, eta))))),
        )
        bundle = curvature_bundle(man, p)
        xi = s.xi_values(p)
        got = np.einsum("labc,c->lab", expand(bundle["R13"], raised=True), xi)
        want = np.einsum("a,lb->lab", eta, eye) - np.einsum(
            "b,la->lab", eta, eye
        )
        worst["curv"] = max(worst["curv"], float(np.max(np.abs(got - want))))
        worst["ric"] = max(
            worst["ric"], abs(float(xi @ bundle["Ric"] @ xi) + 2.0)
        )
    ok = (
        worst["structure"] <= 1e-10
        and worst["div"] <= 1e-10
        and worst["lie"] <= 1e-10
        and worst["curv"] <= 1e-9
        and worst["ric"] <= 1e-9
    )
    assert _verdict(
        1, ok,
        "Kenmotsu axioms at 64 samples: structure {:.1e}, div(xi)-2 {:.1e}, "
        "Lie {:.1e} (tol 1e-10); R(X,Y)xi {:.1e}, Ric(xi,xi)+2 {:.1e} "
        "(tol 1e-9)".format(
            worst["structure"], worst["div"], worst["lie"], worst["curv"],
            worst["ric"],
        ),
    )


def test_criterion_02_closed_forms_match_direct():
    cfg = _config()
    cfg.suites = ("section2-identities", "prop22-norms")
    checks = run_suites(cfg)
    assert checks
    bad_tol = []
    for c in checks:
        if c.check_id.endswith("[a=1]") and "deformed-acm" not in c.check_id:
            if c.tolerance != 1e-12:
                bad_tol.append(c.check_id)
        elif "deformed-acm" in c.check_id:
            if c.tolerance != 1e-10:
                bad_tol.append(c.check_id)
        elif c.tolerance != 1e-8:
            bad_tol.append(c.check_id)
    failed = [c.check_id for c in checks if not c.passed]
    ok = not failed and not bad_tol
    assert _verdict(
        2, ok,
        f"{len(checks)} closed-form identities vs direct computation over "
        f"a in {A_GRID}: rel tol 1e-8, exact 1e-12 at a=1"
        + (f"; FAILED {failed or bad_tol}" if not ok else ""),
    )


def _example_worst(cfg, points, names):
    worst = 0.0
    labels = set()
    for name in names:
        cand = _cand(cfg, name)
        frames = [(cfg.structure, 1.0)] + [
            (deform(cfg.structure, a).structure, a) for a in A_GRID
        ]
        for frame, a in frames:
            for p in points:
                res = soliton_residuals(frame, cand, with_a(p, a))
                worst = max(worst, res["full"])
                labels.add(res["classification"])
    return worst, labels


def test_criterion_03_riemann_example():
    cfg = _config()
    worst, labels = _example_worst(
        cfg, _points(cfg), ("riemann-vector", "riemann-grad")
    )
    ok = worst <= 1e-8 and labels == {"shrinking"}
    assert _verdict(
        3, ok,
        f"V = exp(z) d/dz with lambda = 2 exp(z) - 1 solves the full "
        f"curvature equation, max residual {worst:.1e} (tol 1e-8), "
        f"classification {sorted(labels)}, scaled (V/a^2, lambda/a^2) "
        f"for a in {A_GRID}",
    )


def test_criterion_04_ricci_example():
    cfg = _config()
    worst, labels = _example_worst(
        cfg, _points(cfg), ("ricci-vector", "ricci-grad")
    )
    wide = builtin_config("kenmotsu3-wide")
    wide_pts = _points(wide)
    worst_wide, labels_wide = _example_worst(wide, wide_pts, ("ricci-grad",))
    straddle = {"shrinking", "expanding"} <= labels_wide
    ok = worst <= 1e-8 and labels == {"shrinking"} and (
        worst_wide <= 1e-8 and straddle
    )
    assert _verdict(
        4, ok,
        f"V = exp(z) d/dz with lambda = exp(z) - 2 solves the trace "
        f"equation, max residual {worst:.1e} on z > 1 and {worst_wide:.1e} "
        f"on z > 0 (tol 1e-8); lambda changes sign across z = ln 2: "
        f"labels {sorted(labels_wide)}",
    )


def test_criterion_05_lambda_theorems_consistent():
    cfg = _config()
    s = cfg.structure
    man = cfg.manifold
    f = cfg.scalars["f"]
    pts = _points(cfg)
    worst_lam = 0.0
    worst_mid = 0.0
    for p in pts:
        ez = np.exp(p["z"])
        worst_mid = max(
            worst_mid,
            abs(laplacian(man, f, p) - 3.0 * ez) / ez,
            abs(float(s.xi_values(p) @ hessian(man, f, p)
                      @ s.xi_values(p)) - ez) / ez,
        )
        xif, xixif = xi_derivatives(s, f, p)
        worst_mid = max(
            worst_mid, abs(xif - ez) / ez, abs(xixif - ez) / ez
        )
        for a in A_GRID:
            lam_r = theorem_lambda("riemann", "gradient", s, f, with_a(p, a))
            lam_c = theorem_lambda("ricci", "gradient", s, f, with_a(p, a))
            tgt_r = (2.0 * ez - 1.0) / (a * a)
            tgt_c = (ez - 2.0) / (a * a)
            worst_lam = max(
                worst_lam,
                abs(lam_r - tgt_r) / max(1.0, abs(tgt_r)),
                abs(lam_c - tgt_c) / max(1.0, abs(tgt_c)),
            )
    ok = worst_lam <= 1e-9 and worst_mid <= 1e-9
    assert _verdict(
        5, ok,
        f"pinned lambdas equal (2 exp(z) - 1)/a^2 and (exp(z) - 2)/a^2, "
        f"rel err {worst_lam:.1e} (tol 1e-9); intermediates Lap f = 3e^z, "
        f"xi(f) = xi(xi(f)) = Hess(xi,xi) = e^z, rel err {worst_mid:.1e}",
    )


def test_criterion_06_implied_constants(kenmotsu5, kenmotsu7):
    # Both implied tensors are forced by the Kenmotsu identities:
    # trace = scal and Ric(xi, xi) = -2n.  Every constant they determine is
    # held to its closed form in n and to the numeric trace / hs_inner oracle,
    # at n = 1, 2 and 3: the constants are cubics in n with no constant
    # term, so three values of n determine them.
    #
    # The ricci kind's stated |Ric|^2 is 2n(4n^2 + 6n + 3) = (2n+1)^3 - 1,
    # while its own tensor -(2n+1)g + eta(x)eta has Hilbert-Schmidt norm
    # (2n+1)^3 - 2(2n+1) + 1 = 2n(4n^2 + 6n + 1).  The two differ by exactly
    # 4n.  The stated value is kept as stated and reported next to the
    # oracle; the criterion pins both and the gap between them.
    tol = 1e-12
    worst = 0.0
    reported = []
    for cfg in (_config(), kenmotsu5, kenmotsu7):
        s = cfg.structure
        n = s.n
        p = _points(cfg)[0]
        m = cfg.manifold.metric_at_cached(p)
        xi = s.xi_values(p)
        closed = {
            "riemann": {
                "lambda_bar": lambda a: (a - 1.0) / (a * a),
                "scal": -8.0 * n * n,
                "ric_norm": 2.0 * n * (16 * n * n - 6 * n + 1),
                "ric_norm_stated": 2.0 * n * (16 * n * n - 6 * n + 1),
            },
            "ricci": {
                "lambda_bar": lambda a: -2.0 * n / (a * a),
                "scal": -4.0 * n * (n + 1),
                "ric_norm": 2.0 * n * (4 * n * n + 6 * n + 1),
                "ric_norm_stated": 2.0 * n * (4 * n * n + 6 * n + 3),
            },
        }
        for a in A_GRID:
            for kind, want in closed.items():
                out = implied_curvature(kind, s, with_a(p, a))
                ric = out["ric"]
                trace = float(np.trace(np.linalg.solve(m.g, ric)))
                norm = hs_inner(ric, ric, m)
                worst = max(
                    worst,
                    abs(out["lambda_bar"] - want["lambda_bar"](a)),
                    abs(out["scal"] - want["scal"]),
                    abs(trace - want["scal"]),
                    abs(out["ric_trace"] - trace),
                    abs(float(xi @ ric @ xi) + 2.0 * n),
                    abs(norm - want["ric_norm"]),
                    abs(out["ric_norm_computed"] - norm),
                    abs(out["ric_norm_stated"] - want["ric_norm_stated"]),
                )
        ricci_out = implied_curvature("ricci", s, with_a(p, 2.0))
        stated = ricci_out["ric_norm_stated"]
        oracle = hs_inner(ricci_out["ric"], ricci_out["ric"], m)
        riemann_out = implied_curvature("riemann", s, with_a(p, 2.0))
        riemann_norm = hs_inner(riemann_out["ric"], riemann_out["ric"], m)
        reported.append(
            (n, stated, oracle, riemann_out["ric_norm_stated"], riemann_norm)
        )
    gap_err = max(abs(st - orc - 4.0 * n) for n, st, orc, _, _ in reported)
    ok = worst <= tol and gap_err <= tol
    _verdict(
        6, ok,
        f"implied constants at n = 1, 2, 3: lambda, scal, trace, Ric(xi,xi) "
        f"and |Ric|^2 match closed forms and oracles to {worst:.1e} "
        f"(tol 1e-12); "
        + "; ".join(
            f"n = {n}: stated ricci |Ric|^2 = {st:g} vs Hilbert-Schmidt "
            f"oracle {orc:g} on -(2n+1)g + eta(x)eta, gap {st - orc:g} "
            f"(4n = {4 * n}); riemann stated {r_st:g} vs oracle {r_orc:g}"
            for n, st, orc, r_st, r_orc in reported
        ),
    )
    assert worst <= tol
    # The stated value is not the oracle's: it misses by exactly 4n.
    for n, stated, oracle, _, _ in reported:
        assert abs(stated - oracle - 4.0 * n) <= tol, (
            f"n = {n}: stated |Ric|^2 = {stated:g} vs Hilbert-Schmidt oracle "
            f"{oracle:g}, expected a gap of 4n = {4 * n}"
        )
    # stated and oracle values, as numbers: 26 vs 22, 124 vs 116, 342 vs 330
    pinned = {1: (26, 22), 2: (124, 116), 3: (342, 330)}
    for n, stated, oracle, _, _ in reported:
        assert abs(stated - pinned[n][0]) <= tol
        assert abs(oracle - pinned[n][1]) <= tol


def _random_polynomial(rng, coords):
    terms = [f"{rng.uniform(-2, 2):.6f}"]
    for c in coords:
        terms.append(f"{rng.uniform(-2, 2):.6f}*{c}")
    if rng.random() < 0.5:
        terms.append(f"{rng.uniform(-1, 1):.6f}*{rng.choice(coords)}^2")
    if rng.random() < 0.3:
        terms.append(f"{rng.uniform(-1, 1):.6f}*exp(z)")
    return " + ".join(terms)


def test_criterion_07_trace_implication():
    cfg = _config()
    s = cfg.structure
    coords = cfg.manifold.coords
    pts = _points(cfg)[:5]
    rng = np.random.default_rng(20260814)
    worst_ratio = 0.0
    checked = 0
    for k in range(200):
        kind = "riemann" if k % 2 == 0 else "ricci"
        comps = tuple(
            parse_expr(_random_polynomial(rng, coords), coords=coords)
            for _ in range(3)
        )
        lam = parse_expr(
            _random_polynomial(rng, coords), coords=coords + ("a",)
        )
        cand = SolitonCandidate(
            f"rand{k}", kind, "vector", lam, field=VectorField(comps)
        )
        for p in pts:
            res = soliton_residuals(s, cand, with_a(p, 1.0))
            eps = res["full"]
            bound = 9.0 * eps + 1e-12
            others = (
                (res["traced"], res["scalar"]) if kind == "riemann"
                else (res["scalar"],)
            )
            for value in others:
                assert value <= bound, (kind, k, eps, value)
                worst_ratio = max(worst_ratio, value / max(eps, 1e-300))
            checked += 1
    assert _verdict(
        7, worst_ratio <= 9.0,
        f"200 randomized candidates at {checked} candidate-points: traced "
        f"and scalar residuals <= 9 x full residual "
        f"(worst ratio {worst_ratio:.2f})",
    )


def test_criterion_08_inequality_battery():
    cfg = _config()
    f = cfg.scalars["f"]
    pts = _points(cfg)
    worst_bound = 0.0
    worst_eq = 0.0
    n_applicable = 0
    for a in A_GRID:
        ds = deform(cfg.structure, a)
        for kind in ("riemann", "ricci"):
            for p in pts:
                for item in inequality_battery(ds, f, kind, ds.at(p)):
                    if not item["applicable"]:
                        continue
                    n_applicable += 1
                    scale = max(1.0, abs(item["lhs"]), abs(item["rhs"]))
                    if item["equality"]:
                        worst_eq = max(worst_eq, abs(item["margin"]) / scale)
                    else:
                        worst_bound = max(
                            worst_bound, -item["margin"] / scale
                        )
    ok = worst_eq <= 1e-8 and worst_bound <= 1e-8
    assert _verdict(
        8, ok,
        f"{n_applicable} applicable norm claims over a in {A_GRID}: "
        f"bounds violated by at most {worst_bound:.1e}, reconstruction "
        f"identity off by {worst_eq:.1e} (rel tol 1e-8)",
    )


_POOL = (
    "x^2*y - 3*z",
    "sin(x)*cos(y) + z^2",
    "exp(z)*x - y/(2 + x^2)",
    "log(3 + x^2 + y^2)",
    "sqrt(4 + z^2) * sin(y)",
    "x*y*z + cos(z)^2",
    "exp(-x^2) + tan(y/4)",
    "(x + 2*y)^3 / (5 + z^2)",
    "sin(x*y) - exp(z/3)",
    "x^4 - 2*x^2*y^2 + y^4 + z",
)


def test_criterion_09_fd_oracles(polar2):
    rng = np.random.default_rng(99)
    coords = ("x", "y", "z")
    exprs = [parse_expr(t, coords=coords) for t in _POOL]
    h = 1e-5
    worst_expr = 0.0
    for _ in range(1000):
        e = exprs[rng.integers(len(exprs))]
        c = coords[rng.integers(3)]
        p = {k: float(rng.uniform(-1.5, 1.5)) for k in coords}
        sym = evaluate(diff(e, c), p)
        up = dict(p)
        dn = dict(p)
        up[c] += h
        dn[c] -= h
        fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
        scale = max(1.0, abs(sym), abs(fd))
        worst_expr = max(worst_expr, abs(sym - fd) / scale)

    cfg = _config()
    sphere = builtin_config("sphere2")
    worst_geo = 0.0
    fixtures = (
        (cfg.manifold, _points(cfg)[:8]),
        (sphere.manifold, sample_batch(
            sphere.manifold, sphere.box, 8, 13
        ).points()),
        (polar2, sample_batch(polar2, {"r": (0.5, 2.0), "t": (0.0, 3.0)},
                              8, 13).points()),
    )
    hh = 1e-4
    for man, pts in fixtures:
        d = man.dim
        for p in pts:
            m = man.metric_at_cached(p)
            gamma_sym = curvature_bundle(man, p)["gamma"]
            dg = np.zeros((d, d, d))
            for i, ci in enumerate(man.coords):
                up = dict(p)
                dn = dict(p)
                up[ci] += hh
                dn[ci] -= hh
                dg[i] = (man.metric_values(up) - man.metric_values(dn)) / (
                    2 * hh
                )
            combo = 0.5 * (
                np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
            )
            gamma_fd = np.einsum("kl,lij->kij", m.inv, combo)
            scale = max(1.0, float(np.max(np.abs(gamma_fd))))
            worst_geo = max(
                worst_geo,
                float(np.max(np.abs(gamma_sym - gamma_fd))) / scale,
            )
            dgam = np.zeros((d, d, d, d))
            for i, ci in enumerate(man.coords):
                up = dict(p)
                dn = dict(p)
                up[ci] += hh
                dn[ci] -= hh
                dgam[i] = (
                    curvature_bundle(man, up)["gamma"]
                    - curvature_bundle(man, dn)["gamma"]
                ) / (2 * hh)
            r13_fd = np.einsum("albc->labc", dgam) - np.einsum(
                "blac->labc", dgam
            )
            r13_fd = r13_fd + np.einsum(
                "lam,mbc->labc", gamma_sym, gamma_sym
            ) - np.einsum("lbm,mac->labc", gamma_sym, gamma_sym)
            r13_sym = expand(curvature_bundle(man, p)["R13"], raised=True)
            scale = max(1.0, float(np.max(np.abs(r13_fd))))
            worst_geo = max(
                worst_geo,
                float(np.max(np.abs(r13_sym - r13_fd))) / scale,
            )
    ok = worst_expr <= 1e-6 and worst_geo <= 1e-5
    assert _verdict(
        9, ok,
        f"1000 symbolic-vs-central-difference pairs: rel err "
        f"{worst_expr:.1e} (tol 1e-6); Christoffel and curvature vs "
        f"finite-difference-of-metric oracle on three fixtures: rel err "
        f"{worst_geo:.1e} (tol 1e-5)",
    )


def test_criterion_10_determinism():
    first = report_json(build_report(_config(), run_suites(_config())))
    second = report_json(build_report(_config(), run_suites(_config())))
    ok = first.encode("utf-8") == second.encode("utf-8")
    assert _verdict(
        10, ok,
        f"two full runs with identical config and seed produce "
        f"byte-identical {len(first)}-byte JSON reports",
    )
