"""Chart geometry: Christoffel symbols, curvature, operators, structures.

Derived quantities are checked against finite differences of the metric,
so the symbolic pipeline and the numeric assembly validate each other.
"""

import numpy as np
import pytest
from conftest import expand

from acmsolitons.geometry import (
    AcmStructure,
    ChartManifold,
    VectorField,
    christoffel,
    covariant_derivative,
    curvature_bundle,
    divergence,
    grad,
    gradient_lie_derivative,
    hessian,
    kenmotsu_residual,
    laplacian,
    lie_derivative_metric,
    nabla_phi_tensor,
    sample_batch,
)
from acmsolitons.expr import Const, parse_expr
from acmsolitons.tensor import StructureError

H = 1e-4


def _shift(point, coord, h):
    out = dict(point)
    out[coord] += h
    return out


def _christoffel_fd(manifold, point):
    """Gamma from central differences of the metric itself."""
    d = manifold.dim
    g = manifold.metric_values(point)
    inv = np.linalg.inv(g)
    dg = np.empty((d, d, d))
    for k, c in enumerate(manifold.coords):
        gp = manifold.metric_values(_shift(point, c, H))
        gm = manifold.metric_values(_shift(point, c, -H))
        dg[k] = (gp - gm) / (2.0 * H)
    combo = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
    return 0.5 * np.einsum("lk,ijk->lij", inv, combo)


def _riemann_fd(manifold, point):
    """R13 from central differences of exact Christoffel symbols."""
    d = manifold.dim
    gamma = christoffel(manifold, point)
    dgamma = np.empty((d, d, d, d))
    for i, c in enumerate(manifold.coords):
        gp = christoffel(manifold, _shift(point, c, H))
        gm = christoffel(manifold, _shift(point, c, -H))
        dgamma[i] = (gp - gm) / (2.0 * H)
    # R^l_abc = d_a Gamma^l_bc - d_b Gamma^l_ac + Gamma Gamma terms
    return (
        np.transpose(dgamma, (1, 0, 2, 3))
        - np.transpose(dgamma, (1, 2, 0, 3))
        + np.einsum("lam,mbc->labc", gamma, gamma)
        - np.einsum("lbm,mac->labc", gamma, gamma)
    )


def _rel(x, y):
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y)))) / scale


class TestChristoffel:
    def test_kenmotsu3_frozen_values(self, kenmotsu3):
        man = kenmotsu3.manifold
        p = man.point(x=0.2, y=-0.7, z=1.5)
        gamma = christoffel(man, p)
        e2z = np.exp(2 * 1.5)
        expected = np.zeros((3, 3, 3))
        expected[0, 0, 2] = expected[0, 2, 0] = 1.0
        expected[1, 1, 2] = expected[1, 2, 1] = 1.0
        expected[2, 0, 0] = -e2z
        expected[2, 1, 1] = -e2z
        assert np.allclose(gamma, expected, atol=1e-12)

    def test_polar_frozen_values(self, polar2):
        p = polar2.point(r=1.7, t=0.4)
        gamma = christoffel(polar2, p)
        expected = np.zeros((2, 2, 2))
        expected[0, 1, 1] = -1.7
        expected[1, 0, 1] = expected[1, 1, 0] = 1.0 / 1.7
        assert np.allclose(gamma, expected, atol=1e-12)

    @pytest.mark.parametrize("which", ["kenmotsu3", "sphere2", "polar2"])
    def test_against_metric_fd(self, which, kenmotsu3, sphere2, polar2, rng):
        man = {
            "kenmotsu3": kenmotsu3.manifold,
            "sphere2": sphere2.manifold,
            "polar2": polar2,
        }[which]
        box = {
            "kenmotsu3": kenmotsu3.box,
            "sphere2": sphere2.box,
            "polar2": {"r": (0.5, 2.0), "t": (-3.0, 3.0)},
        }[which]
        for p in sample_batch(man, box, 12, 7).points():
            assert _rel(christoffel(man, p), _christoffel_fd(man, p)) <= 1e-5


class TestCurvature:
    @pytest.mark.parametrize("which", ["kenmotsu3", "sphere2", "polar2"])
    def test_riemann_against_fd(self, which, kenmotsu3, sphere2, polar2):
        man = {
            "kenmotsu3": kenmotsu3.manifold,
            "sphere2": sphere2.manifold,
            "polar2": polar2,
        }[which]
        box = {
            "kenmotsu3": kenmotsu3.box,
            "sphere2": sphere2.box,
            "polar2": {"r": (0.5, 2.0), "t": (-3.0, 3.0)},
        }[which]
        for p in sample_batch(man, box, 8, 11).points():
            r13 = expand(curvature_bundle(man, p)["R13"], raised=True)
            assert _rel(r13, _riemann_fd(man, p)) <= 1e-5

    def test_sphere_scal_and_ricci(self, sphere2):
        man = sphere2.manifold
        for p in sample_batch(man, sphere2.box, 10, 3).points():
            bundle = curvature_bundle(man, p)
            assert bundle["scal"] == pytest.approx(2.0, abs=1e-9)
            g = man.metric_values(p)
            assert np.allclose(bundle["Ric"], g, atol=1e-9)

    def test_polar_is_flat(self, polar2):
        p = polar2.point(r=1.3, t=-0.6)
        bundle = curvature_bundle(polar2, p)
        assert np.max(np.abs(bundle["R13"])) <= 1e-11
        assert np.max(np.abs(bundle["R04"])) <= 1e-11

    def test_kenmotsu3_einstein(self, kenmotsu3, kenmotsu3_points):
        man = kenmotsu3.manifold
        for p in kenmotsu3_points[:10]:
            g = man.metric_values(p)
            bundle = curvature_bundle(man, p)
            assert np.allclose(bundle["Ric"], -2.0 * g, atol=1e-10)
            assert bundle["scal"] == pytest.approx(-6.0, abs=1e-10)

    def test_curvature_reeb_convention(self, kenmotsu3, kenmotsu3_points):
        # R(X,Y)xi = eta(X)Y - eta(Y)X fixes the index order of R13
        s = kenmotsu3.structure
        man = kenmotsu3.manifold
        p = kenmotsu3_points[0]
        bundle = curvature_bundle(man, p)
        xi = s.xi_values(p)
        eta = s.eta_values(p)
        got = np.einsum("labc,c->lab", expand(bundle["R13"], raised=True), xi)
        eye = np.eye(3)
        want = np.einsum("a,lb->lab", eta, eye) - np.einsum("b,la->lab", eta, eye)
        assert np.allclose(got, want, atol=1e-10)
        assert float(xi @ bundle["Ric"] @ xi) == pytest.approx(-2.0, abs=1e-10)


class TestOperators:
    def test_hessian_of_warp_function(self, kenmotsu3, kenmotsu3_points):
        man = kenmotsu3.manifold
        f = kenmotsu3.scalars["f"]
        for p in kenmotsu3_points[:10]:
            g = man.metric_values(p)
            ez = np.exp(p["z"])
            assert np.allclose(hessian(man, f, p), ez * g, atol=1e-9)
            assert laplacian(man, f, p) == pytest.approx(3.0 * ez, rel=1e-12)

    def test_gradient_is_reeb_multiple(self, kenmotsu3, kenmotsu3_points):
        man = kenmotsu3.manifold
        s = kenmotsu3.structure
        f = kenmotsu3.scalars["f"]
        p = kenmotsu3_points[0]
        ez = np.exp(p["z"])
        assert np.allclose(grad(man, f, p), ez * s.xi_values(p), atol=1e-12)

    def test_gradient_lie_is_twice_hessian(self, kenmotsu3, kenmotsu3_points):
        man = kenmotsu3.manifold
        f = kenmotsu3.scalars["f"]
        for p in kenmotsu3_points[:6]:
            lie = gradient_lie_derivative(man, f, p)
            assert np.allclose(lie, 2.0 * hessian(man, f, p), atol=1e-9)

    def test_divergence_of_reeb(self, kenmotsu3, kenmotsu3_points):
        man = kenmotsu3.manifold
        s = kenmotsu3.structure
        for p in kenmotsu3_points[:6]:
            assert divergence(man, s.xi_field, p) == pytest.approx(
                2.0, abs=1e-12
            )

    def test_lie_reeb_metric(self, kenmotsu3, kenmotsu3_points):
        man = kenmotsu3.manifold
        s = kenmotsu3.structure
        p = kenmotsu3_points[0]
        lie = lie_derivative_metric(man, s.xi_field, p)
        g = man.metric_values(p)
        eta = s.eta_values(p)
        assert np.allclose(lie, 2.0 * (g - np.outer(eta, eta)), atol=1e-12)

    def test_killing_field(self, kenmotsu3, kenmotsu3_points):
        # d_x preserves g = diag(exp(2z), exp(2z), 1)
        man = kenmotsu3.manifold
        w = VectorField(tuple(
            parse_expr(t, coords=man.coords) for t in ("1", "0", "0")
        ))
        p = kenmotsu3_points[0]
        assert np.max(np.abs(lie_derivative_metric(man, w, p))) <= 1e-12

    def test_covariant_derivative_of_reeb(self, kenmotsu3, kenmotsu3_points):
        man = kenmotsu3.manifold
        s = kenmotsu3.structure
        p = kenmotsu3_points[0]
        nabla_xi = covariant_derivative(man, s.xi_field, p)
        eta = s.eta_values(p)
        xi = s.xi_values(p)
        assert np.allclose(nabla_xi, np.eye(3) - np.outer(eta, xi), atol=1e-12)


class TestStructures:
    def test_acm_axioms_hold(self, kenmotsu3, kenmotsu3_points):
        s = kenmotsu3.structure
        for p in kenmotsu3_points[:10]:
            res = s.validate(p)
            assert max(res.values()) <= 1e-12

    def test_kenmotsu_residual_zero(self, kenmotsu3, kenmotsu3_points):
        s = kenmotsu3.structure
        for p in kenmotsu3_points[:10]:
            assert kenmotsu_residual(s, p) <= 1e-12

    def test_kenmotsu5_is_kenmotsu(self, kenmotsu5):
        s = kenmotsu5.structure
        man = kenmotsu5.manifold
        assert s.n == 2
        for p in sample_batch(man, kenmotsu5.box, kenmotsu5.points,
                              kenmotsu5.seed).points():
            assert s.acm_residual(p) <= 1e-12
            assert kenmotsu_residual(s, p) <= 1e-12
            xi = s.xi_values(p)
            ric_xi_xi = float(xi @ curvature_bundle(man, p)["Ric"] @ xi)
            assert abs(ric_xi_xi + 2.0 * s.n) <= 1e-9

    def test_euclidean_is_acm_but_not_kenmotsu(self, euclidean3):
        s = euclidean3.structure
        p = euclidean3.manifold.point(x=0.1, y=0.2, z=0.3)
        assert s.acm_residual(p) <= 1e-12
        assert kenmotsu_residual(s, p) >= 0.1

    def test_nabla_phi_kenmotsu_form(self, kenmotsu3, kenmotsu3_points):
        s = kenmotsu3.structure
        man = kenmotsu3.manifold
        p = kenmotsu3_points[0]
        got = nabla_phi_tensor(s, p)
        g = man.metric_values(p)
        phi = s.phi_values(p)
        xi = s.xi_values(p)
        eta = s.eta_values(p)
        want = (
            np.einsum("ij,k->ikj", phi.T @ g, xi)
            - np.einsum("j,ki->ikj", eta, phi)
        )
        assert np.allclose(got, want, atol=1e-12)

    def test_even_dimension_rejected(self, polar2):
        zero = parse_expr("0", coords=polar2.coords)
        one = parse_expr("1", coords=polar2.coords)
        with pytest.raises(StructureError):
            AcmStructure(polar2, [[zero, zero], [zero, zero]], (zero, one))


class TestSampling:
    def test_deterministic(self, kenmotsu3):
        man = kenmotsu3.manifold
        a = sample_batch(man, kenmotsu3.box, 16, 42).points()
        b = sample_batch(man, kenmotsu3.box, 16, 42).points()
        assert a == b
        c = sample_batch(man, kenmotsu3.box, 16, 43).points()
        assert a != c

    def test_respects_box_and_constraints(self, kenmotsu3):
        man = kenmotsu3.manifold
        for p in sample_batch(man, kenmotsu3.box, 32, 1).points():
            assert 1.05 <= p["z"] <= 2.2
            assert -1.0 <= p["x"] <= 1.0
            assert man.contains(p)

    def test_empty_intersection_raises(self, kenmotsu3):
        man = kenmotsu3.manifold
        box = dict(kenmotsu3.box)
        box["z"] = (0.0, 0.5)  # all below the z > 1 constraint
        with pytest.raises(StructureError):
            sample_batch(man, box, 4, 42).points()

    def test_degenerate_metric_rejected(self, sphere2):
        man = sphere2.manifold
        with pytest.raises(StructureError):
            man.metric_at_cached(man.point(theta=0.0, phi=0.0))


def _blowup_chart(entry):
    coords = ("x", "y")
    zero = parse_expr("0", coords=coords)
    one = parse_expr("1", coords=coords)
    g_xx = parse_expr(entry, coords=coords)
    return ChartManifold(coords, [[g_xx, zero], [zero, one]], name="blowup")


class TestNonFiniteMetric:
    @pytest.mark.parametrize("entry", [
        "exp(300*x)*exp(300*x)",  # inf
        "exp(300*x)*exp(300*x) - exp(300*x)*exp(300*x) + 1",  # nan
    ])
    def test_metric_refused(self, entry):
        man = _blowup_chart(entry)
        with pytest.raises(StructureError, match=r"metric of blowup not finite at .*1\.5"):
            man.metric_at_cached(man.point(x=1.5, y=0.0))

    def test_second_partials_refused(self):
        # g = e^{1000 x} and its first partial are finite at x = 0.7, the
        # second partial 1e6 e^{700} is not
        man = _blowup_chart("exp(1000*x)")
        p = man.point(x=0.7, y=0.0)
        assert np.all(np.isfinite(man.metric_at_cached(p).dg))
        with pytest.raises(StructureError, match="second partials of blowup"):
            curvature_bundle(man, p)

    def test_curvature_symmetry_check_refuses_nan(self):
        from acmsolitons.geometry import _check_curvature_symmetries

        with pytest.raises(StructureError, match="fails on chart"):
            _check_curvature_symmetries(
                np.full((1, 2, 2), np.nan), "chart", {"x": 0.0}
            )


class TestEntryEvaluation:
    """Each metric entry and partial is written from one evaluation of its
    tree; constants are not evaluated at all."""

    COORDS = ("x", "y", "z")

    def _chart(self, entries):
        g = [[parse_expr("0", self.COORDS) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            g[i][i] = parse_expr("1", self.COORDS)
        for (i, j), text in entries.items():
            g[i][j] = g[j][i] = parse_expr(text, self.COORDS)
        return ChartManifold(self.COORDS, g)

    def _batch(self):
        from acmsolitons.geometry import Samples

        return Samples({
            "x": np.array([1.0, 0.5, -1.0, -2.0]),
            "y": np.array([0.3, -0.2, 0.0, 2.0]),
            "z": np.array([1.0, 2.0, 3.0, 0.0]),
        })

    @pytest.mark.parametrize("name, subtree", [
        ("metric_values", "1.0 / (y * z)"),
        ("metric_partials", "-z / (y * z)^2.0"),
        ("metric_second_partials",
         "-(-z * (2.0 * (y * z) * z)) / ((y * z)^2.0)^2.0"),
    ])
    def test_domain_error_names_the_subtree_and_sample(self, name, subtree):
        # the (1, 2) entry and its mirror (2, 1) fail at the third sample,
        # where y = 0; the error names the tree and that sample
        from acmsolitons.expr import EvalError

        man = self._chart({(2, 1): "1/(y*z)", (0, 0): "2 + x^2"})
        with pytest.raises(EvalError) as info:
            getattr(man, name)(self._batch())
        assert str(info.value) == (
            f"division by zero in '{subtree}' at sample "
            "{'x': -1.0, 'y': 0.0, 'z': 3.0}"
        )

    def test_constants_and_repeats_are_not_evaluated(self, monkeypatch):
        from acmsolitons import geometry

        seen = []
        real = geometry.evaluate

        def recording(e, point):
            seen.append(e)
            return real(e, point)

        monkeypatch.setattr(geometry, "evaluate", recording)
        man = self._chart({(0, 1): "x*y", (2, 2): "exp(z)"})
        batch = self._batch()
        g = man.metric_values(batch)
        assert seen == [
            parse_expr("x*y", self.COORDS), parse_expr("exp(z)", self.COORDS)
        ]
        assert np.array_equal(g[:, 0, 1], batch["x"] * batch["y"])
        assert np.array_equal(g[:, 1, 0], g[:, 0, 1])
        # d_x d_y (x y) = d_y d_x (x y) = 1 folds to a constant; the only
        # trees left to evaluate are those in exp(z)
        seen.clear()
        d2g = man.metric_second_partials(batch)
        assert all("z" in str(e) for e in seen)
        assert len(seen) == len(set(seen)) == 1
        assert np.array_equal(d2g[:, 0, 1, 0, 1], np.ones(4))

    def test_mirrored_entries_are_differentiated_once(self, monkeypatch):
        # nothing is differentiated before first use; then each level of
        # partials differentiates each distinct tree once per coordinate,
        # and the (j, i) entry is the tree of its equal (i, j) entry: 5
        # distinct entries (the constants 1 and 0 among them), then 6
        # distinct first partials (equal folded constants count once).
        # Each level's entries are, in order, those of differentiating
        # every entry of the level above
        from acmsolitons import geometry
        from acmsolitons.expr import diff

        calls = []

        def counting(e, name):
            calls.append((e, name))
            return diff(e, name)

        monkeypatch.setattr(geometry, "diff", counting)
        man = self._chart({(0, 1): "x*y", (1, 2): "exp(y - z)", (2, 2): "z^2"})
        assert calls == []
        man.metric_second_partials(self._batch())
        first = man.g.derivative(self.COORDS)
        assert first is man.g.derivative(list(self.COORDS))
        assert all(man.g.exprs[3 * j + i] is man.g.exprs[3 * i + j]
                   for i in range(3) for j in range(i))
        levels = (man.g, first)
        assert [len(level.compact[0]) for level in levels] == [5, 6]
        assert len(calls) == 3 * 5 + 3 * 6
        assert calls == [(e, c) for level in levels for c in self.COORDS
                         for e in level.compact[0]]
        for level in levels:
            trees, index = level.compact
            assert [trees[k] for k in index.ravel()] == list(level.exprs)
        monkeypatch.undo()
        assert first.exprs == tuple(diff(e, c) for c in self.COORDS
                                    for e in man.g.exprs)
        assert first.derivative(self.COORDS).exprs == tuple(
            diff(e, c) for c in self.COORDS for e in first.exprs)

    def test_each_distinct_tree_is_evaluated_once_per_batch(
            self, monkeypatch):
        # the values, partials and second partials of the metric evaluate
        # each distinct tree that is no constant once, in first-seen order,
        # whichever entries repeat it
        from acmsolitons import geometry

        man = self._chart({(0, 1): "x*y", (1, 2): "exp(y - z)",
                           (0, 2): "exp(y - z)"})
        batch = self._batch()
        seen = []
        real = geometry.evaluate

        def recording(e, point):
            seen.append(e)
            return real(e, point)

        monkeypatch.setattr(geometry, "evaluate", recording)
        second = man.g.derivative(self.COORDS).derivative(self.COORDS)
        for field, call in ((man.g, man.metric_values),
                            (man.g.derivative(self.COORDS),
                             man.metric_partials),
                            (second, man.metric_second_partials)):
            seen.clear()
            call(batch)
            trees = field.compact[0]
            assert seen == [e for e in trees if not isinstance(e, Const)]
            assert len(set(field.exprs)) == len(trees) < len(field.exprs)


class TestField:
    """A field's values are memoised by the field, its partials are exact
    and built once per coordinates, and its second partials are the mean
    of both orders."""

    COORDS = ("x", "y", "z")

    def _batch(self):
        from acmsolitons.geometry import Samples

        return Samples({
            "x": np.array([1.0, 0.5, -1.0, -2.0]),
            "y": np.array([0.3, -0.2, 0.7, 2.0]),
            "z": np.array([1.0, 2.0, 3.0, 0.0]),
        })

    def test_second_partials_are_the_mean_of_both_orders(self):
        # the mixed partials of this scalar do not fold to one tree
        from acmsolitons.expr import diff, evaluate
        from acmsolitons.geometry import ScalarField

        f = ScalarField(parse_expr("x*y*exp(z) + sin(x - 2*y)", self.COORDS))
        batch = self._batch()
        got = f.second_partials(self.COORDS, batch)
        [e] = f.exprs
        ordered = np.array([
            [evaluate(diff(diff(e, k), l), batch) for l in self.COORDS]
            for k in self.COORDS
        ])
        assert diff(diff(e, "x"), "y") != diff(diff(e, "y"), "x")
        assert np.array_equal(got, np.swapaxes(got, -1, -2))
        mean = 0.5 * (ordered + np.swapaxes(ordered, 0, 1))
        assert np.array_equal(got, np.moveaxis(mean, -1, 0))
        for k in range(3):
            assert np.array_equal(got[:, k, k], ordered[k, k])

    def test_loading_a_config_finds_no_distinct_trees(self, monkeypatch):
        # a field is made compact on first use, not when a config is
        # loaded, so a load hashes no tree; then each field once
        from acmsolitons import geometry
        from acmsolitons.config import builtin_config

        calls = []
        real = geometry._distinct

        def counting(exprs):
            calls.append(len(exprs))
            return real(exprs)

        monkeypatch.setattr(geometry, "_distinct", counting)
        config = builtin_config("kenmotsu5-gh")
        assert calls == []
        phi = config.structure.phi_field
        assert phi.compact is phi.compact
        assert calls == [25]

    def test_values_and_partials_are_memoised_by_the_field(self, kenmotsu3):
        batch = self._batch()
        f = kenmotsu3.scalars["f"]
        assert f.partials(self.COORDS, batch) is f.partials(self.COORDS, batch)
        s = kenmotsu3.structure
        assert s.phi_values(batch) is s.phi_values(batch)
        assert f.derivative(self.COORDS) is f.derivative(list(self.COORDS))
