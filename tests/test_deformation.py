"""Deformed metrics: closed forms against direct chart computation."""

import re

import numpy as np
import pytest

from acmsolitons.deformation import (
    NotKenmotsuError,
    admissible_interval,
    deform,
    deformation_curvature_term,
    harmonic_transfer,
    laplacian_bar,
    prop_inner_battery,
    ricci_norm_bound,
)
from acmsolitons.expr import parse_expr
from acmsolitons.geometry import (
    Samples,
    ScalarField,
    VectorField,
    christoffel,
    covariant_derivative,
    curvature_bundle,
    divergence,
    grad,
    hessian,
    laplacian,
    lie_derivative_metric,
    nabla_phi_tensor,
    with_a,
    xi_derivatives,
)
from acmsolitons.tensor import StructureError, TensorValue, kulkarni_nomizu

A_GRID = (0.5, 1.0, 2.0, 3.7)


def _rel(x, y):
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y)))) / scale


class TestConstruction:
    def test_rejects_nonpositive_a(self, kenmotsu3_structure):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(StructureError, match="must be positive"):
                deform(kenmotsu3_structure, bad)

    def test_metric_values(self, kenmotsu3):
        ds = deform(kenmotsu3.structure, 2.0)
        p = ds.manifold.point(x=0.0, y=0.0, z=1.0)
        e2 = np.exp(2.0)
        got = ds.manifold.metric_values(ds.at(p))
        assert np.allclose(got, np.diag([2 * e2, 2 * e2, 4.0]), atol=1e-12)

    def test_reeb_normalization(self, kenmotsu3, kenmotsu3_points):
        for a in (0.5, 3.7):
            ds = deform(kenmotsu3.structure, a)
            p = kenmotsu3_points[0]
            gbar = ds.manifold.metric_values(ds.at(p))
            xi = kenmotsu3.structure.xi_values(p)
            xibar = ds.structure.xi_values(ds.at(p))
            assert float(xi @ gbar @ xi) == pytest.approx(a * a, rel=1e-12)
            assert float(xibar @ gbar @ xibar) == pytest.approx(1.0, rel=1e-12)

    def test_deformed_structure_is_acm(self, kenmotsu3, kenmotsu3_points):
        for a in A_GRID:
            ds = deform(kenmotsu3.structure, a)
            for p in kenmotsu3_points[:4]:
                assert ds.structure.acm_residual(ds.at(p)) <= 1e-12

    def test_identity_at_a_equal_one_is_bitexact(self, kenmotsu3, kenmotsu3_points):
        ds = deform(kenmotsu3.structure, 1.0)
        man = kenmotsu3.manifold
        for p in kenmotsu3_points[:4]:
            g0 = man.metric_values(p)
            g1 = ds.manifold.metric_values(ds.at(p))
            assert np.array_equal(g0, g1)

    def test_composed_closed_forms_refuse(self, kenmotsu3):
        # the once-deformed structure reads a and is no longer Kenmotsu, so
        # it is refused as a base, naming its chart, rather than deformed
        # again with closed forms that are wrong for it
        inner = deform(kenmotsu3.structure, 2.0)
        with pytest.raises(StructureError, match=re.escape(
            f"the structure on {inner.manifold.name} reads the deformation "
            "parameter a"
        )):
            deform(inner.structure, 2.0)


class TestClosedForms:
    @pytest.mark.parametrize("a", A_GRID)
    def test_inverse_metric(self, kenmotsu3, kenmotsu3_points, a):
        ds = deform(kenmotsu3.structure, a)
        for pa in map(ds.at, kenmotsu3_points[:6]):
            direct = np.linalg.inv(ds.manifold.metric_values(pa))
            assert _rel(ds.inverse_metric_closed(pa), direct) <= 1e-10

    @pytest.mark.parametrize("a", A_GRID)
    def test_christoffel(self, kenmotsu3, kenmotsu3_points, a):
        ds = deform(kenmotsu3.structure, a)
        tol = 1e-12 if a == 1.0 else 1e-8
        for pa in map(ds.at, kenmotsu3_points[:6]):
            assert _rel(ds.christoffel_closed(pa),
                        christoffel(ds.manifold, pa)) <= tol

    @pytest.mark.parametrize("a", A_GRID)
    def test_curvature(self, kenmotsu3, kenmotsu3_points, a):
        ds = deform(kenmotsu3.structure, a)
        tol = 1e-12 if a == 1.0 else 1e-8
        for pa in map(ds.at, kenmotsu3_points[:4]):
            closed = ds.curvature_closed(pa)
            direct = curvature_bundle(ds.manifold, pa)
            assert _rel(closed["R13"], direct["R13"]) <= tol
            assert _rel(closed["R04"], direct["R04"]) <= tol
            assert _rel(closed["Ric"], direct["Ric"]) <= tol
            assert _rel(closed["scal"], direct["scal"]) <= tol

    @pytest.mark.parametrize("a", A_GRID)
    def test_operators(self, kenmotsu3, kenmotsu3_points, a):
        ds = deform(kenmotsu3.structure, a)
        f = kenmotsu3.scalars["f"]
        tol = 1e-12 if a == 1.0 else 1e-8
        xi_field = ds.structure.xi_field
        for pa in map(ds.at, kenmotsu3_points[:4]):
            assert _rel(
                ds.hessian_closed(f, pa), hessian(ds.manifold, f, pa)
            ) <= tol
            assert _rel(
                ds.gradient_closed(f, pa), grad(ds.manifold, f, pa)
            ) <= tol
            assert _rel(
                laplacian_bar(ds.base, f, pa),
                laplacian(ds.manifold, f, pa),
            ) <= tol
            assert _rel(
                ds.nabla_phi_closed(pa),
                nabla_phi_tensor(ds.structure, pa),
            ) <= tol
            assert _rel(
                ds.nabla_reeb_closed(pa),
                covariant_derivative(ds.manifold, xi_field, pa),
            ) <= tol
            assert _rel(
                ds.lie_reeb_closed(pa),
                lie_derivative_metric(ds.manifold, xi_field, pa),
            ) <= tol
            assert _rel(
                ds.div_reeb_closed(pa),
                divergence(ds.manifold, xi_field, pa),
            ) <= tol

    def test_frozen_values_at_a2(self, kenmotsu3, kenmotsu3_points):
        # n = 1, a = 2 reference values
        ds = deform(kenmotsu3.structure, 2.0)
        f = kenmotsu3.scalars["f"]
        p = kenmotsu3_points[0]
        ez = np.exp(p["z"])
        pa = ds.at(p)
        battery = {e["pair"]: e for e in prop_inner_battery(ds, f, pa)}
        assert battery["g-g"]["direct"] == pytest.approx(9.0 / 16.0, rel=1e-12)
        assert battery["ric-ric"]["direct"] == pytest.approx(2.25, rel=1e-12)
        assert ds.curvature_closed(pa)["scal"] == pytest.approx(-1.5, rel=1e-12)
        assert laplacian_bar(ds.base, f, pa) == pytest.approx(0.75 * ez, rel=1e-12)
        assert ds.div_reeb_closed(pa) == pytest.approx(1.0)

    def test_gradient_potential_scaling(self, kenmotsu3, kenmotsu3_points):
        # grad_bar of the warp potential is the base potential over a^2
        f = kenmotsu3.scalars["f"]
        p = kenmotsu3_points[0]
        ez = np.exp(p["z"])
        for a in (0.5, 2.0, 3.7):
            ds = deform(kenmotsu3.structure, a)
            got = ds.gradient_closed(f, ds.at(p))
            assert np.allclose(got, [0.0, 0.0, ez / (a * a)], atol=1e-12)


class TestCurvatureTerm:
    def test_equals_kulkarni_nomizu_combination(self, rng):
        # T = (1/2) A (*) A - A (*) (eta x eta) for any symmetric A
        for d in (3, 5):
            A = rng.normal(size=(d, d))
            A = 0.5 * (A + A.T)
            eta = rng.normal(size=d)
            t_a = TensorValue(0, 2, A, symmetric=True)
            t_e = TensorValue(0, 2, np.outer(eta, eta), symmetric=True)
            want = 0.5 * kulkarni_nomizu(t_a.data, t_a.data) - kulkarni_nomizu(
                t_a.data, t_e.data
            )
            got = deformation_curvature_term(A, eta)
            assert np.allclose(got, want, atol=1e-12)


class TestInnerBattery:
    @pytest.mark.parametrize("a", A_GRID)
    def test_three_way_agreement(self, kenmotsu3, kenmotsu3_points, a):
        ds = deform(kenmotsu3.structure, a)
        f = kenmotsu3.scalars["f"]
        tol = 1e-12 if a == 1.0 else 1e-8
        for p in kenmotsu3_points[:6]:
            for entry in prop_inner_battery(ds, f, ds.at(p)):
                assert _rel(entry["direct"], entry["transfer"]) <= tol, entry["pair"]
                assert _rel(entry["direct"], entry["closed"]) <= tol, entry["pair"]


# f of kenmotsu3, a harmonic f that stays harmonic, and one that does not:
# Hess(xi,xi) + 2n eta(grad f) = -2 exp(-4z) != 0
HARMONIC_PROBES = ("exp(z)", "x", "x^2 * exp(-2*z) - exp(-4*z)/4")


class TestHarmonicTransfer:
    def test_planar_harmonic_stays_harmonic(self, kenmotsu3, kenmotsu3_points):
        coords = kenmotsu3.manifold.coords
        f = ScalarField(parse_expr(HARMONIC_PROBES[1], coords=coords))
        res = harmonic_transfer(
            kenmotsu3.structure, f,
            with_a(Samples.stack(kenmotsu3_points[:16]), 2.0),
        )
        assert res["applicable"]
        assert res["deformed_harmonic"]
        assert res["condition_holds"]

    def test_harmonic_that_does_not_transfer(self, kenmotsu3, kenmotsu3_points):
        coords = kenmotsu3.manifold.coords
        f = ScalarField(parse_expr(HARMONIC_PROBES[2], coords=coords))
        res = harmonic_transfer(
            kenmotsu3.structure, f,
            with_a(Samples.stack(kenmotsu3_points[:16]), 2.0),
        )
        assert res["applicable"]
        assert not res["deformed_harmonic"]
        assert not res["condition_holds"]
        assert res["deformed_harmonic"] == res["condition_holds"]

    def test_nonharmonic_not_applicable(self, kenmotsu3, kenmotsu3_points):
        res = harmonic_transfer(
            kenmotsu3.structure, kenmotsu3.scalars["f"],
            with_a(Samples.stack(kenmotsu3_points[:8]), 2.0),
        )
        assert not res["applicable"]

    @pytest.mark.parametrize("expr", HARMONIC_PROBES)
    def test_probe_is_the_grid_row(self, kenmotsu3, kenmotsu3_points, expr):
        # the probe reads base data alone; its Lap_bar f is bit for bit the
        # a = 2 row of the deformation over the whole grid
        f = ScalarField(parse_expr(expr, coords=kenmotsu3.manifold.coords))
        pts = Samples.stack(kenmotsu3_points[:16])
        probe = harmonic_transfer(kenmotsu3.structure, f, with_a(pts, 2.0))
        grid = laplacian_bar(kenmotsu3.structure, f,
                             deform(kenmotsu3.structure, A_GRID).at(pts))
        assert np.array_equal(probe["lap_bar"], grid[A_GRID.index(2.0)])


class TestRicciNormBound:
    def test_holds_on_fixture(self, kenmotsu3, kenmotsu3_points):
        for a in A_GRID:
            for p in kenmotsu3_points[:6]:
                res = ricci_norm_bound(kenmotsu3.structure, with_a(p, a))
                assert res["ric_norm_sq"] >= res["bound"]
                assert res["ric_norm_sq"] == pytest.approx(12.0, rel=1e-10)

    def test_admissible_interval_arithmetic(self):
        lo, hi = admissible_interval(2.0, 1)
        assert lo == 0.0
        assert hi == pytest.approx(2.0)
        lo, hi = admissible_interval(12.0, 1)
        assert lo == 0.0
        assert hi == np.inf

    def test_stated_interval_is_not_the_derived_one(self):
        # |Ric|^2 >= 4n^2 (a^2 - 1)/a^2 holds exactly for
        # a^2 <= 4n^2 / (4n^2 - |Ric|^2) when |Ric|^2 < 4n^2.  At |Ric|^2 = 2
        # and n = 1 that is a in (0, sqrt 2); the stated interval (0, 2) is
        # that bound without its square root.  Both are pinned as numbers,
        # stated next to derived, until the report check derives its own.
        ric_sq, n = 2.0, 1
        cap = 4.0 * n * n
        stated = admissible_interval(ric_sq, n)
        derived = (0.0, np.sqrt(cap / (cap - ric_sq)))
        assert stated == (0.0, 2.0)
        assert derived == (0.0, np.sqrt(2.0))

        def bound(a):
            return 4.0 * n * n * (a * a - 1.0) / (a * a)

        # the derived endpoint is where the bound reaches |Ric|^2
        assert bound(derived[1]) == pytest.approx(ric_sq, rel=1e-15)
        # a = 1.8 lies in the stated interval, not in the derived one: the
        # bound there, 4 (1.8^2 - 1)/1.8^2 = 2.77, exceeds |Ric|^2 = 2
        a = 1.8
        assert stated[0] < a < stated[1]
        assert not derived[0] < a < derived[1]
        assert bound(a) == pytest.approx(8.96 / 3.24, rel=1e-15)
        assert round(bound(a), 2) == 2.77 and bound(a) > ric_sq


class TestRefusal:
    def test_euclidean_base_refused(self, euclidean3):
        ds = deform(euclidean3.structure, 2.0)
        p = euclidean3.manifold.point(x=0.1, y=0.2, z=0.3)
        with pytest.raises(NotKenmotsuError, match="Kenmotsu") as base:
            ds.require_kenmotsu(p)
        with pytest.raises(NotKenmotsuError):
            ds.curvature_closed(ds.at(p))
        with pytest.raises(NotKenmotsuError):
            prop_inner_battery(ds, euclidean3.scalars["f"], ds.at(p))
        # a condition on the base names the base sample, with no [a=...] tag
        message = str(base.value)
        assert message.endswith("at {'x': 0.1, 'y': 0.2, 'z': 0.3}")
        for bound in (with_a(p, 2.0), with_a(Samples.stack([p]), A_GRID)):
            with pytest.raises(NotKenmotsuError) as refused:
                harmonic_transfer(euclidean3.structure,
                                  euclidean3.scalars["f"], bound)
            assert str(refused.value) == message


class TestMemo:
    """Base-batch helpers run once per batch and argument."""

    def test_xi_derivatives_once_per_base_batch(self, kenmotsu3, kenmotsu3_points):
        pts = Samples.stack(kenmotsu3_points[:5])
        s = kenmotsu3.structure
        f = kenmotsu3.scalars["f"]
        first = xi_derivatives(s, f, pts)
        # a batch binding a grid shares the base batch's
        again = xi_derivatives(s, f, deform(s, A_GRID).at(pts))
        assert again is first
        xif, xixif = first
        for i, p in enumerate(kenmotsu3_points[:5]):
            single = xi_derivatives(s, f, p)
            assert single[0] == pytest.approx(xif[i], rel=1e-14)
            assert single[1] == pytest.approx(xixif[i], rel=1e-14)

    def test_divergence_once_per_chart_and_components(
            self, kenmotsu3, kenmotsu3_points):
        pts = Samples.stack(kenmotsu3_points[:5])
        man = kenmotsu3.manifold
        field = kenmotsu3.structure.xi_field
        first = divergence(man, field, pts)
        assert first == pytest.approx(2.0, rel=1e-12)
        assert divergence(man, VectorField(field.exprs), pts) is first
        ds = deform(kenmotsu3.structure, A_GRID)
        bound = divergence(ds.manifold, field, ds.at(pts))
        assert bound is not first and bound.shape == (len(A_GRID), 5)
        for i, p in enumerate(kenmotsu3_points[:5]):
            assert divergence(man, field, p) == pytest.approx(first[i], rel=1e-14)
