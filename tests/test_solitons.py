"""Soliton equations, pinned lambdas, implied curvature, inequalities."""

from pathlib import Path

import numpy as np
import pytest

from acmsolitons.config import (
    _BUILTINS, builtin_config, builtin_names, load_config, load_config_text,
)
from acmsolitons.deformation import deform, laplacian_bar
from acmsolitons.expr import A, evaluate, parse_expr
from acmsolitons.geometry import (
    ScalarField,
    VectorField,
    divergence,
    hessian,
    laplacian,
    sample_batch,
    with_a,
    xi_derivatives,
)
from acmsolitons.solitons import (
    _trace,
    SolitonCandidate,
    classify,
    implied_curvature,
    inequality_battery,
    orthogonal_gradient_values,
    solenoidal_implied,
    soliton_residuals,
    theorem_lambda,
    xi_compatibility,
    xi_of_eta_potential,
)
from acmsolitons.suites import build_report, report_json, run_suites
from acmsolitons.tensor import (
    StructureError,
    TensorValue,
    hs_inner,
    kulkarni_nomizu,
    outer,
    symmetric,
)

A_GRID = (0.5, 1.0, 2.0, 3.7)
ROOT = Path(__file__).resolve().parents[1]


def reeb_soliton_general(kind, structure, point, a, lambda_bar) -> dict:
    """Implied Ricci and scal for a general Reeb-scenario lambda, the
    oracle that ``implied_curvature`` is checked against.

    The Ricci tensor is c_g g + c_e eta (x) eta and scal is its g-trace
    (2n+1) c_g + c_e, as |eta|_g = 1.  Substituting the pinned lambda
    reduces these to the fixed tensors of ``implied_curvature``.
    """
    m = structure.manifold.metric_at_cached(point)
    eta = structure.eta_field.values(point)
    n = structure.n
    bound = with_a(point, a)
    a = bound[A]
    tr = _trace(kind, n)
    k = tr.k
    beta_a = a * tr.beta(lambda_bar, 2.0 * n / a)
    shift = 2.0 * n * (a - 1.0) / a
    cg = np.asarray(beta_a - k - shift)
    ce = np.asarray(beta_a * (a - 1.0) + k + shift)
    ric = cg[..., None, None] * m.g + ce[..., None, None] * outer(eta, eta)
    return {"ric": symmetric(ric, bound), "scal": (2 * n + 1) * cg + ce}


def _cand(kenmotsu3, name):
    for c in kenmotsu3.candidates:
        if c.name == name:
            return c
    raise KeyError(name)


class TestClassify:
    def test_bands(self):
        assert classify(0.3) == "shrinking"
        assert classify(-0.3) == "expanding"
        assert classify(0.0) == "steady"
        assert classify(1e-12) == "steady"

    def test_sign_change_on_wide_domain(self):
        from acmsolitons import builtin_config

        wide = builtin_config("kenmotsu3-wide")
        pts = sample_batch(
            wide.manifold, wide.box, wide.points, wide.seed
        ).points()
        cand = next(c for c in wide.candidates if c.kind == "ricci")
        labels = {classify(evaluate(cand.lam.exprs[0], with_a(p, 1.0)))
                  for p in pts}
        # lambda = exp(z) - 2 changes sign at z = ln 2 inside the box
        assert "shrinking" in labels and "expanding" in labels


class TestCandidateValidation:
    def test_kind_checked(self):
        lam = ScalarField(parse_expr("1", coords=("x", "y", "z", "a")))
        with pytest.raises(StructureError, match="unknown soliton kind"):
            SolitonCandidate("bad", "weird", None, lam)

    def test_string_potential_refused(self):
        lam = ScalarField(parse_expr("1", coords=("x", "y", "z", "a")))
        with pytest.raises(StructureError, match="candidate 'bad'"):
            SolitonCandidate("bad", "ricci", "reeb", lam)

    def test_expr_lambda_refused(self, kenmotsu3):
        lam = parse_expr("1", coords=("x", "y", "z", "a"))
        with pytest.raises(StructureError, match="candidate 'bad'"):
            SolitonCandidate("bad", "ricci", kenmotsu3.scalars["f"], lam)

    def test_plain_field_potential_refused(self, kenmotsu3):
        # phi is a Field of shape (3, 3): neither a scalar nor a vector
        lam = ScalarField(parse_expr("1", coords=("x", "y", "z", "a")))
        with pytest.raises(StructureError, match="candidate 'bad'"):
            SolitonCandidate("bad", "ricci", kenmotsu3.structure.phi_field,
                             lam)


def _configs():
    """Every builtin and ``kenmotsu5.ini``."""
    yield from (builtin_config(name) for name in builtin_names())
    yield load_config(ROOT / "perfbench" / "fixtures" / "kenmotsu5.ini")


def _bits(x, y) -> bool:
    """Whether ``x`` and ``y`` broadcast to the same doubles, bit for bit."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    return x.tobytes() == y.tobytes()


class TestCandidateLambda:
    def test_values_are_the_evaluated_tree(self):
        # the field memoises on the frame and pads a constant to length-1
        # sample axes; its doubles are those of evaluating the tree there
        checked = 0
        for config in _configs():
            if not config.candidates:
                continue
            points = sample_batch(config.manifold, config.box, 16, config.seed)
            frames = (with_a(points, 1.0),
                      deform(config.structure, config.a_grid).at(points))
            for cand in config.candidates:
                [tree] = cand.lam.exprs
                for frame in frames:
                    got, shape = cand.lam.values(frame), frame.shape
                    assert np.broadcast_shapes(got.shape, shape) == shape
                    assert _bits(got, evaluate(tree, frame)), cand.name
                    checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("lam", ["-2", "0.5"])
    def test_constant_lambda_keeps_its_checks(self, lam):
        # a constant evaluates to length-1 sample axes, lam + 0*z to one
        # value per sample: the checks, classifications included, agree
        def report(lam):
            text = _BUILTINS["kenmotsu3"].replace(
                "[candidates]\n",
                f"[candidates]\nreeb-const = ricci, reeb, {lam}\n")
            config = load_config_text(text, source="kenmotsu3-const")
            return report_json(build_report(config, run_suites(config)))

        const = report(lam)
        assert '"id": "ricci-soliton/reeb-const/full[a=1]"' in const
        assert const == report(f"{lam} + 0*z")


class TestExampleResiduals:
    @pytest.mark.parametrize("name", ["riemann-grad", "riemann-vector"])
    def test_riemann_example(self, kenmotsu3, kenmotsu3_points, name):
        cand = _cand(kenmotsu3, name)
        s = kenmotsu3.structure
        for p in kenmotsu3_points[:10]:
            res = soliton_residuals(s, cand, with_a(p, 1.0))
            assert res["full"] <= 1e-8
            assert res["traced"] <= 1e-8
            assert res["scalar"] <= 1e-8
            assert res["classification"] == "shrinking"

    @pytest.mark.parametrize("name", ["ricci-grad", "ricci-vector"])
    def test_ricci_example(self, kenmotsu3, kenmotsu3_points, name):
        cand = _cand(kenmotsu3, name)
        s = kenmotsu3.structure
        for p in kenmotsu3_points[:10]:
            res = soliton_residuals(s, cand, with_a(p, 1.0))
            assert res["full"] <= 1e-8
            assert res["scalar"] <= 1e-8
            # lambda = exp(z) - 2 > 0 for z > 1.05 > ln 2
            assert res["classification"] == "shrinking"

    @pytest.mark.parametrize("a", A_GRID)
    @pytest.mark.parametrize("name", ["riemann-grad", "ricci-grad"])
    def test_deformed_examples(self, kenmotsu3, kenmotsu3_points, a, name):
        cand = _cand(kenmotsu3, name)
        s = deform(kenmotsu3.structure, a).structure
        for p in kenmotsu3_points[:6]:
            res = soliton_residuals(s, cand, with_a(p, a))
            assert res["full"] <= 1e-8

    def test_wrong_lambda_fails_loudly(self, kenmotsu3, kenmotsu3_points):
        coords = kenmotsu3.manifold.coords + ("a",)
        wrong = SolitonCandidate(
            "wrong", "ricci", kenmotsu3.scalars["f"],
            ScalarField(parse_expr("exp(z)", coords=coords)),
        )
        s = kenmotsu3.structure
        worst = max(
            soliton_residuals(s, wrong, with_a(p, 1.0))["full"]
            for p in kenmotsu3_points[:10]
        )
        assert worst >= 1.0

    def test_base_frame_equals_unit_deformation(self, kenmotsu3, kenmotsu3_points):
        cand = _cand(kenmotsu3, "riemann-grad")
        base = kenmotsu3.structure
        unit = deform(kenmotsu3.structure, 1.0).structure
        p = with_a(kenmotsu3_points[0], 1.0)
        assert soliton_residuals(base, cand, p)["full"] == pytest.approx(
            soliton_residuals(unit, cand, p)["full"], abs=1e-12
        )


class TestTheoremLambda:
    def test_gradient_intermediates(self, kenmotsu3, kenmotsu3_points):
        man = kenmotsu3.manifold
        s = kenmotsu3.structure
        f = kenmotsu3.scalars["f"]
        for p in kenmotsu3_points[:8]:
            ez = np.exp(p["z"])
            assert laplacian(man, f, p) == pytest.approx(3.0 * ez, rel=1e-12)
            xif, xixif = xi_derivatives(s, f, p)
            assert xif == pytest.approx(ez, rel=1e-12)
            assert xixif == pytest.approx(ez, rel=1e-12)
            xi = s.xi_field.values(p)
            hxx = float(xi @ hessian(man, f, p) @ xi)
            assert hxx == pytest.approx(ez, rel=1e-12)

    @pytest.mark.parametrize("a", A_GRID)
    def test_gradient_lambda_matches_candidates(self, kenmotsu3, kenmotsu3_points, a):
        s = kenmotsu3.structure
        f = kenmotsu3.scalars["f"]
        for p in kenmotsu3_points[:8]:
            ez = np.exp(p["z"])
            lam_r = theorem_lambda("riemann", "gradient", s, f, with_a(p, a))
            lam_c = theorem_lambda("ricci", "gradient", s, f, with_a(p, a))
            assert lam_r == pytest.approx((2 * ez - 1) / (a * a), rel=1e-9)
            assert lam_c == pytest.approx((ez - 2) / (a * a), rel=1e-9)

    def test_reeb_lambdas(self, kenmotsu3, kenmotsu3_points):
        s = kenmotsu3.structure
        p = kenmotsu3_points[0]
        at2, at1 = with_a(p, 2.0), with_a(p, 1.0)
        assert theorem_lambda("riemann", "reeb", s, None, at2) == pytest.approx(0.25)
        assert theorem_lambda("ricci", "reeb", s, None, at2) == pytest.approx(-0.5)
        assert theorem_lambda("riemann", "reeb", s, None, at1) == 0.0
        assert theorem_lambda("ricci", "reeb", s, None, at1) == -2.0

    def test_solenoidal_lambda(self, kenmotsu3, kenmotsu3_points):
        s = kenmotsu3.structure
        man = kenmotsu3.manifold
        w = VectorField(tuple(
            parse_expr(t, coords=man.coords) for t in ("1", "0", "0")
        ))
        p = kenmotsu3_points[0]
        # eta(W) = 0 identically, so sigma = xi(eta(W)) = 0
        assert xi_of_eta_potential(s, w, p) == 0.0
        assert theorem_lambda(
            "riemann", "solenoidal", s, w, with_a(p, 2.0)
        ) == pytest.approx(-0.25)
        assert theorem_lambda(
            "ricci", "solenoidal", s, w, with_a(p, 2.0)
        ) == pytest.approx(-0.5)


class TestImpliedCurvature:
    def test_riemann_constants(self, kenmotsu3, kenmotsu3_points):
        s = kenmotsu3.structure
        p = kenmotsu3_points[0]
        out = implied_curvature("riemann", s, with_a(p, 2.0))
        assert out["scal"] == pytest.approx(-8.0)
        assert out["ric_trace"] == pytest.approx(out["scal"], rel=1e-12)
        # stated and recomputed |Ric|^2 agree: 2n(16n^2 - 6n + 1) = 22
        assert out["ric_norm_stated"] == pytest.approx(22.0)
        assert out["ric_norm_computed"] == pytest.approx(22.0, rel=1e-12)
        assert out["lambda_bar"] == pytest.approx(0.25)

    def test_ricci_constants_disagree_with_stated_norm(
        self, kenmotsu3, kenmotsu3_points
    ):
        # the tensor -(2n+1)g + eta x eta has |.|^2 = 2n(4n^2 + 6n + 1),
        # which is 22 at n = 1; the stated constant is 26 and does not
        # match its own tensor
        s = kenmotsu3.structure
        p = kenmotsu3_points[0]
        out = implied_curvature("ricci", s, with_a(p, 2.0))
        assert out["scal"] == pytest.approx(-8.0)
        assert out["ric_trace"] == pytest.approx(out["scal"], rel=1e-12)
        assert out["ric_norm_computed"] == pytest.approx(22.0, rel=1e-12)
        assert out["ric_norm_stated"] == pytest.approx(26.0)
        assert abs(out["ric_norm_computed"] - out["ric_norm_stated"]) > 1.0

    def test_riemann_r04_solves_full_equation(self, kenmotsu3, kenmotsu3_points):
        # the implied (0,4) curvature satisfies the deformed equation at the
        # pinned lambda; xi_compatibility reports that premise residual
        s = kenmotsu3.structure
        for a in A_GRID:
            res = xi_compatibility(
                "riemann", s, with_a(kenmotsu3_points[0], a)
            )
            assert res["premise_residual"] <= 1e-9 * max(1.0, res["scale"])

    @pytest.mark.parametrize("kind", ["riemann", "ricci"])
    def test_general_form_reduces_at_pinned_lambda(
        self, kenmotsu3, kenmotsu3_points, kind
    ):
        s = kenmotsu3.structure
        p = kenmotsu3_points[0]
        for a in (0.5, 2.0, 3.7):
            implied = implied_curvature(kind, s, with_a(p, a))
            general = reeb_soliton_general(
                kind, s, p, a, implied["lambda_bar"]
            )
            assert np.allclose(
                general["ric"], implied["ric"], atol=1e-10
            )
            assert general["scal"] == pytest.approx(implied["scal"], abs=1e-10)

    @pytest.mark.parametrize("kind", ["riemann", "ricci"])
    def test_general_scal_is_the_trace_off_the_pinned_lambda(
        self, kenmotsu3, kenmotsu3_points, kind
    ):
        # away from the pinned lambda the scal must still be the g-trace of
        # the implied Ricci tensor (at lambda_bar + 0.3 the two differed by
        # (1-a)(a^2 beta + 2n)/a: 0.15 and -1.2 for riemann at a = 0.5, 2)
        s = kenmotsu3.structure
        p = kenmotsu3_points[0]
        inv = s.manifold.metric_at_cached(p).inv
        for a in (0.5, 2.0, 3.7):
            implied = implied_curvature(kind, s, with_a(p, a))
            shifted = implied["lambda_bar"] + 0.3
            general = reeb_soliton_general(kind, s, p, a, shifted)
            trace = np.einsum("ij,ij->", inv, general["ric"])
            assert general["scal"] == pytest.approx(trace, rel=1e-12, abs=1e-12)


class TestReebCompatibility:
    @pytest.mark.parametrize("kind", ["riemann", "ricci"])
    def test_only_at_star(self, kenmotsu3, kenmotsu3_points, kind):
        s = kenmotsu3.structure
        p = kenmotsu3_points[0]
        res = xi_compatibility(kind, s, with_a(p, 2.0))
        scale = res["scale"]
        assert res["premise_residual"] <= 1e-9 * max(1.0, scale)
        assert res["residual_at_star"] <= 1e-9 * max(1.0, scale)
        assert res["residual_perturbed"] >= 0.4 * res["perturbation"] * scale

    def test_star_values(self, kenmotsu3, kenmotsu3_points):
        s = kenmotsu3.structure
        p = kenmotsu3_points[0]
        p = with_a(p, 2.0)
        assert xi_compatibility("riemann", s, p)["lambda_star"] == 0.0
        assert xi_compatibility("ricci", s, p)["lambda_star"] == -2.0


class TestSolenoidal:
    @pytest.mark.parametrize("kind", ["riemann", "ricci"])
    def test_trace_consistency(self, kenmotsu3, kenmotsu3_points, kind):
        s = kenmotsu3.structure
        man = kenmotsu3.manifold
        w = VectorField(tuple(
            parse_expr(t, coords=man.coords) for t in ("1", "0", "0")
        ))
        for a in A_GRID:
            for p in kenmotsu3_points[:6]:
                res = solenoidal_implied(kind, s, w, with_a(p, a))
                assert abs(divergence(man, w, p)) <= 1e-12
                assert xi_of_eta_potential(s, w, p) == 0.0
                assert res["trace_residual"] <= 1e-9 * max(1.0, abs(res["scal"]))
                # sigma = 0 collapses scal to -2n(2n+1)
                assert res["scal"] == pytest.approx(-6.0)


class TestOrthogonalGradient:
    def test_fixture_not_applicable(self, kenmotsu3, kenmotsu3_points):
        res = orthogonal_gradient_values(
            "riemann", kenmotsu3.structure, kenmotsu3.scalars["f"],
            with_a(kenmotsu3_points[0], 2.0),
        )
        assert not res["applicable"]

    @pytest.mark.parametrize("kind", ["riemann", "ricci"])
    def test_reduction_when_orthogonal(self, kenmotsu3, kenmotsu3_points, kind):
        # f = x has xi(f) = 0; the orthogonal form must equal the general
        # gradient lambda
        s = kenmotsu3.structure
        coords = kenmotsu3.manifold.coords
        f = ScalarField(parse_expr("x", coords=coords))
        for a in (0.5, 2.0):
            for p in kenmotsu3_points[:4]:
                res = orthogonal_gradient_values(kind, s, f, with_a(p, a))
                assert res["applicable"]
                lam = theorem_lambda(kind, "gradient", s, f, with_a(p, a))
                assert res["lambda_bar"] == pytest.approx(lam, abs=1e-12)
                assert res["scal"] == pytest.approx(-6.0, abs=1e-9)


class TestInequalities:
    @pytest.mark.parametrize("kind", ["riemann", "ricci"])
    @pytest.mark.parametrize("a", A_GRID)
    def test_battery(self, kenmotsu3, kenmotsu3_points, kind, a):
        ds = deform(kenmotsu3.structure, a)
        f = kenmotsu3.scalars["f"]
        for p in kenmotsu3_points[:6]:
            for item in inequality_battery(ds, f, kind, ds.at(p)):
                if not item["applicable"]:
                    continue
                scale = max(1.0, abs(item["lhs"]), abs(item["rhs"]))
                if item["equality"]:
                    assert abs(item["margin"]) <= 1e-8 * scale, item["check"]
                else:
                    assert item["margin"] >= -1e-8 * scale, item["check"]

    @pytest.mark.parametrize("kind", ["riemann", "ricci"])
    def test_base_margin_is_scaled_deformed_margin(
        self, kenmotsu3, kenmotsu3_points, kind
    ):
        # the base-data bound is the deformed bound times a^2, so the
        # margins must scale exactly
        f = kenmotsu3.scalars["f"]
        for a in (0.5, 2.0, 3.7):
            ds = deform(kenmotsu3.structure, a)
            for pa in map(ds.at, kenmotsu3_points[:4]):
                items = {
                    e["check"]: e for e in inequality_battery(ds, f, kind, pa)
                }
                base = items["base-bound"]["margin"]
                deformed = items["deformed-bound"]["margin"]
                assert base == pytest.approx(a * a * deformed, rel=1e-9)

    def test_reconstruction_identity_values(self, kenmotsu3, kenmotsu3_points):
        # |Hess_bar f|^2 recomputed from the identity matches hs_inner
        ds = deform(kenmotsu3.structure, 2.0)
        f = kenmotsu3.scalars["f"]
        pa = ds.at(kenmotsu3_points[0])
        hb = ds.hessian_closed(f, pa)
        mbar = ds.manifold.metric_at_cached(pa)
        direct = hs_inner(hb, hb, mbar)
        items = {e["check"]: e for e in inequality_battery(ds, f, "ricci", pa)}
        assert items["reconstruction"]["lhs"] == pytest.approx(direct, rel=1e-12)
        assert items["reconstruction"]["rhs"] == pytest.approx(direct, rel=1e-10)


def _closed_residuals(ds, cand, p):
    """Residuals of ``cand`` in the frame of ``ds``, assembled from the
    closed forms over the base instead of the deformed chart."""
    a = ds.a
    n = ds.n
    m = ds.base.manifold.metric_at_cached(p)
    eta = ds.base.eta_field.values(p)
    gbar = a * m.g + a * (a - 1.0) * np.outer(eta, eta)
    pa = ds.at(p)
    closed = ds.curvature_closed(pa)
    ric, scal = closed["Ric"], closed["scal"]
    if isinstance(cand.potential, ScalarField):
        lie = 2.0 * ds.hessian_closed(cand.potential, pa)
        div_v = laplacian_bar(ds.base, cand.potential, pa)
    else:
        lie = ds.lie_reeb_closed(pa)
        div_v = ds.div_reeb_closed(pa)
    lam = evaluate(cand.lam.exprs[0], dict(p, a=a))
    if cand.kind == "ricci":
        return {
            "full": np.max(np.abs(0.5 * lie + ric - lam * gbar)),
            "scalar": abs(scal - ((2 * n + 1) * lam - div_v)),
        }
    g_t = TensorValue(0, 2, gbar, symmetric=True)
    lie_t = TensorValue(0, 2, lie, symmetric=True)
    full = (
        2.0 * closed["R04"]
        + kulkarni_nomizu(lie_t.data, g_t.data)
        - lam * kulkarni_nomizu(g_t.data, g_t.data)
    )
    traced = (
        0.5 * lie + ric / (2 * n - 1)
        - ((2 * n * lam - div_v) / (2 * n - 1)) * gbar
    )
    return {
        "full": np.max(np.abs(full)),
        "traced": np.max(np.abs(traced)),
        "scalar": abs(scal - 2 * n * ((2 * n + 1) * lam - 2.0 * div_v)),
    }


class TestFrame:
    @pytest.mark.parametrize("a", A_GRID)
    @pytest.mark.parametrize("kind", ["riemann", "ricci"])
    @pytest.mark.parametrize("potential", ["gradient", "reeb"])
    def test_direct_frame_matches_closed_forms(
        self, kenmotsu3, kenmotsu3_points, a, kind, potential
    ):
        # a wrong lambda keeps every residual O(1), so agreement is relative
        coords = kenmotsu3.manifold.coords + ("a",)
        cand = SolitonCandidate(
            "wrong", kind,
            kenmotsu3.scalars["f"] if potential == "gradient" else None,
            ScalarField(parse_expr("3*exp(z) + a", coords=coords)),
        )
        ds = deform(kenmotsu3.structure, a)
        for p in kenmotsu3_points[:6]:
            got = soliton_residuals(ds.structure, cand, ds.at(p))
            want = _closed_residuals(ds, cand, p)
            assert set(want) <= set(got)
            for level, value in want.items():
                assert value >= 0.1, level
                assert got[level] == pytest.approx(value, rel=1e-9), level

    def test_lambda_without_a_factor_fails_off_unit(
        self, kenmotsu3, kenmotsu3_points
    ):
        # riemann-grad's lambda is (2 exp(z) - 1)/a^2; without 1/a^2 it is
        # right only where a = 1, which shows the frame substitutes a and
        # works on g_bar
        coords = kenmotsu3.manifold.coords + ("a",)
        cand = SolitonCandidate(
            "no-a", "riemann", kenmotsu3.scalars["f"],
            ScalarField(parse_expr("2*exp(z) - 1", coords=coords)),
        )
        frames = [("base", kenmotsu3.structure, 1.0)] + [
            (a, deform(kenmotsu3.structure, a).structure, a) for a in A_GRID
        ]
        for label, frame, a in frames:
            worst = max(
                soliton_residuals(frame, cand, with_a(p, a))["full"]
                for p in kenmotsu3_points[:6]
            )
            if label in ("base", 1.0):
                assert worst <= 1e-8, label
            else:
                assert worst > 1e-3, label
