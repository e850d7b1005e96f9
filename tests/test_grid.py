"""The a-grid as a batch axis: one deformation per run, evaluated for every
a at once, equal to evaluating each a on its own."""

import numpy as np
import pytest

from acmsolitons import deformation, geometry, solitons, suites, tensor
from acmsolitons.cli import main
from acmsolitons.config import ConfigError, builtin_config, load_config_text
from acmsolitons.config import _BUILTINS
from acmsolitons.deformation import (
    deform,
    harmonic_transfer,
    laplacian_bar,
    prop_inner_battery,
    ricci_norm_bound,
)
from acmsolitons.expr import A, parse_expr
from acmsolitons.geometry import (
    ScalarField,
    VectorField,
    covariant_derivative,
    curvature_bundle,
    divergence,
    grad,
    hessian,
    laplacian,
    lie_derivative_metric,
    nabla_phi_tensor,
    sample_batch,
)
from acmsolitons.solitons import (
    SolitonCandidate,
    inequality_battery,
    orthogonal_gradient_values,
    solenoidal_implied,
    soliton_residuals,
    theorem_lambda,
    xi_compatibility,
)
from acmsolitons.suites import SuiteError, run_suites

_KENMOTSU3 = _BUILTINS["kenmotsu3"]
GRID = (0.5, 1.0, 2.0, 3.7)
N = 8
TOL = 1e-13


def _config(name, kenmotsu5):
    return kenmotsu5 if name == "kenmotsu5" else builtin_config(name)


def _scalar(config):
    coords = config.manifold.coords
    return config.scalar or ScalarField(
        parse_expr(" + ".join(f"exp({c}/3)" for c in coords), coords=coords)
    )


def _candidates(config, scalar):
    """The fixture's candidates plus one of each potential whose lambda or
    field reads a."""
    coords = config.manifold.coords + ("a",)
    z = config.manifold.coords[-1]
    vector = tuple(
        parse_expr(f"exp({z})/a^2" if c == z else "0", coords=coords)
        for c in config.manifold.coords
    )
    return list(config.candidates) + [
        SolitonCandidate("grid-grad", "riemann", "gradient",
                         parse_expr(f"exp({z})/a^2 - a", coords=coords),
                         scalar=scalar),
        SolitonCandidate("grid-vector", "ricci", "vector",
                         parse_expr(f"(exp({z}) - 2)/a^2", coords=coords),
                         field=VectorField(vector)),
        SolitonCandidate("grid-reeb", "riemann", "reeb",
                         parse_expr("(a - 1)/a^2", coords=coords)),
    ]


def _flatten(value, prefix=""):
    """(name, array) for every array in a nested result."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, f"{prefix}/{k}")
    elif isinstance(value, (list, tuple)):
        for k, v in enumerate(value):
            yield from _flatten(v, f"{prefix}/{k}")
    elif not isinstance(value, str):
        yield prefix, np.asarray(value)


def _assert_rows(stacked, single, i, what):
    """Row i of a result for the whole grid against the one-value grid;
    what reads no a has the same shape in both and must agree whole."""
    got = dict(_flatten(stacked))
    want = dict(_flatten(single))
    assert got.keys() == want.keys(), what
    for name, w in want.items():
        g = got[name]
        if w.dtype.kind not in "fb":
            continue
        if g.shape != w.shape:
            assert g.shape == (len(GRID),) + w.shape[1:] and w.shape[0] == 1, (
                f"{what}{name}: {g.shape} vs {w.shape}"
            )
            g, w = g[i], w[0]
        if w.dtype.kind == "b":
            assert np.array_equal(g, w), f"{what}{name} a={GRID[i]}"
            continue
        scale = max(1.0, float(np.max(np.abs(w), initial=0.0)))
        err = float(np.max(np.abs(g - w), initial=0.0)) / scale
        assert err <= TOL, f"{what}{name} a={GRID[i]}: {err:.3e}"


def _deformed(ds, f, frames_of, pts):
    """Every per-a quantity of one deformation at the batch ``pts``."""
    pa = ds.at(pts)
    m = ds.manifold.metric_at_cached(pa)
    xi_field = ds.structure.xi_field
    out = {
        "metric": {"g": m.g, "inv": m.inv, "dg": m.dg},
        "direct": {
            "bundle": {k: v for k, v in curvature_bundle(ds.manifold, pa).items()
                       if k != "metric"},
            "nabla-phi": nabla_phi_tensor(ds.structure, pa),
            "nabla-reeb": covariant_derivative(ds.manifold, xi_field, pa),
            "lie-reeb": lie_derivative_metric(ds.manifold, xi_field, pa),
            "div-reeb": divergence(ds.manifold, xi_field, pa),
            "hessian": hessian(ds.manifold, f, pa),
            "gradient": grad(ds.manifold, f, pa),
            "laplacian": laplacian(ds.manifold, f, pa),
            "acm": ds.structure.acm_residual(pa),
        },
        "closed": {
            "inverse": ds.inverse_metric_closed(ds.at(pts)),
            "christoffel": ds.christoffel_closed(ds.at(pts)),
            "curvature": ds.curvature_closed(ds.at(pts)),
            "nabla-phi": ds.nabla_phi_closed(ds.at(pts)),
            "nabla-reeb": ds.nabla_reeb_closed(ds.at(pts)),
            "div-reeb": ds.div_reeb_closed(ds.at(pts)),
            "hessian": ds.hessian_closed(f, ds.at(pts)),
            "gradient": ds.gradient_closed(f, ds.at(pts)),
            "laplacian": laplacian_bar(ds.base, f, ds.at(pts)),
            "prop22": prop_inner_battery(ds, f, ds.at(pts)),
            "harmonic": {
                k: v for k, v in harmonic_transfer(ds.base, f, pa).items()
                if k != "applicable"
            },
            "norm-bound": ricci_norm_bound(ds.base, pa),
        },
        "solitons": frames_of(ds.structure, pa),
    }
    w = VectorField(tuple(
        parse_expr("1" if k == 0 else "0", coords=ds.base.manifold.coords)
        for k in range(ds.base.manifold.dim)
    ))
    for kind in ("riemann", "ricci"):
        out[kind] = {
            "inequalities": inequality_battery(ds, f, kind, ds.at(pts)),
            "lambda": theorem_lambda(kind, "gradient", ds.base, f, pa),
            "compatibility": xi_compatibility(kind, ds.base, pa),
            "solenoidal": solenoidal_implied(kind, ds.base, w, pa),
            "orthogonal": orthogonal_gradient_values(kind, ds.base, f, pa),
        }
    return out


@pytest.mark.parametrize("name", ["kenmotsu3", "kenmotsu3-wide", "kenmotsu5"])
def test_stacked_batch_equals_each_a_alone(name, kenmotsu5):
    config = _config(name, kenmotsu5)
    f = _scalar(config)
    candidates = _candidates(config, f)

    def frames_of(frame, at):
        return {c.name: soliton_residuals(frame, c, at) for c in candidates}

    pts = sample_batch(config.manifold, config.box, N, config.seed)
    stacked = _deformed(deform(config.structure, GRID), f, frames_of, pts)
    for i, a in enumerate(GRID):
        single = _deformed(deform(config.structure, (a,)), f, frames_of, pts)
        _assert_rows(stacked, single, i, f"{name} ")
        # classifications are strings; compare them row by row
        for c in candidates:
            assert np.array_equal(
                stacked["solitons"][c.name]["classification"][i],
                single["solitons"][c.name]["classification"][0],
            )


@pytest.mark.parametrize("name", ["kenmotsu3", "kenmotsu3-wide", "kenmotsu5"])
def test_unit_row_is_the_base_chart(name, kenmotsu5):
    # the DeformedStructure docstring promises the a = 1 row bit for bit
    config = _config(name, kenmotsu5)
    man = config.manifold
    pts = sample_batch(man, config.box, N, config.seed)
    ds = deform(config.structure, GRID)
    pa = ds.at(pts)
    row = GRID.index(1.0)
    assert np.array_equal(ds.manifold.metric_values(pa)[row],
                          man.metric_values(pts))
    assert np.array_equal(ds.manifold.metric_partials(pa)[row],
                          man.metric_partials(pts))
    assert np.array_equal(ds.manifold.metric_second_partials(pa)[row],
                          man.metric_second_partials(pts))


def _memo_keys(points, fn) -> list:
    """The memo keys of ``fn`` on ``points`` and on every batch binding a
    over it, each with the a that batch binds (None for ``points``)."""
    batches = [(points, None)] + [
        (b, b[A].tobytes()) for b in points.memo.values()
        if isinstance(b, geometry.Samples)
    ]
    return [(key, a) for b, a in batches for key in b.memo if key[0] is fn]


class TestOneDeformationPerRun:
    def _counting(self, monkeypatch):
        calls = []
        real = suites.deform

        def counting(structure, a):
            calls.append(tuple(a))
            return real(structure, a)

        monkeypatch.setattr(suites, "deform", counting)
        return calls

    @pytest.mark.parametrize("grid, calls", [
        ((1.0, 2.0, 3.0), [(1.0, 2.0, 3.0)]),
        # remark23's harmonic-transfer probe a = 2 reads base data alone,
        # so a grid without 2 is deformed once too
        ((1.0, 3.0), [(1.0, 3.0)]),
    ])
    def test_grid_and_probe_calls(self, monkeypatch, grid, calls):
        seen = self._counting(monkeypatch)
        config = builtin_config("kenmotsu3")
        config.points = 2
        config.a_grid = grid
        assert all(c.passed for c in run_suites(config))
        assert seen == calls

    @pytest.mark.parametrize("grid", [(0.5, 1.0, 2.0, 3.7), (1.0, 3.0)])
    def test_base_data_once_per_run(self, monkeypatch, sampled_batches, grid):
        # one deform call; T = g o (g/2 - eta (x) eta), which the deformed
        # curvature and the riemann Reeb premise both read, built once; and
        # xi(f), xi(xi(f)) computed once per (structure, f) and batch
        deforms = self._counting(monkeypatch)
        terms = []
        real_term = deformation.deformation_curvature_term

        def term(g, eta):
            terms.append(g.shape)
            return real_term(g, eta)

        monkeypatch.setattr(deformation, "deformation_curvature_term", term)
        config = builtin_config("kenmotsu3")
        config.points = 16
        config.a_grid = grid
        assert all(c.passed for c in run_suites(config))
        assert deforms == [grid]
        assert terms == [(16, 3, 3)]
        # each memo entry is one computation
        [points] = sampled_batches
        assert len(_memo_keys(points, geometry.xi_derivatives)) == 1

    def test_no_deformation_before_the_gate(self, monkeypatch):
        calls = self._counting(monkeypatch)
        config = builtin_config("euclidean3")
        config.points = 2
        checks = run_suites(config)
        assert any(c.check_id.endswith("kenmotsu-gate") for c in checks)
        assert calls == []


class TestCollidingTags:
    @pytest.mark.parametrize("grid, first, second", [
        ("0.5, 0.5", "0.5", "0.5"),
        ("1, 1.0000001", "1.0", "1.0000001"),
    ])
    def test_config_refuses(self, grid, first, second):
        text = _KENMOTSU3.replace("a = 0.5, 1, 2, 3.7", f"a = {grid}")
        with pytest.raises(ConfigError) as info:
            load_config_text(text)
        message = str(info.value)
        assert f"{first} and {second}" in message
        assert "[a=" in message

    @pytest.mark.parametrize("grid, first, second", [
        ("0.5,0.5", "0.5", "0.5"),
        ("1,1.0000001", "1.0", "1.0000001"),
    ])
    def test_flag_refuses_before_the_run(self, grid, first, second, capsys):
        rc = main(["--builtin", "kenmotsu3", "--a", grid])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err.startswith("error: --a:")
        assert f"{first} and {second}" in err
        assert out == ""

    def test_distinct_tags_accepted(self):
        text = _KENMOTSU3.replace("a = 0.5, 1, 2, 3.7", "a = 1, 1.5")
        assert load_config_text(text).a_grid == (1.0, 1.5)


def _with_candidate(lam):
    return _KENMOTSU3.replace(
        "[candidates]\n", f"[candidates]\nriemann-log = riemann, grad f, {lam}\n"
    ).replace("scalar = f\n", "scalar = f\nsuites = riemann-solitons\n")


class TestErrorsNameTheA:
    def _points(self, config):
        return sample_batch(config.manifold, config.box, config.points,
                            config.seed).points()

    def test_lambda_undefined_at_one_grid_value(self):
        # log(a - 0.6) is defined at the base frame's a = 1 and at every
        # grid value but 0.5, where it fails at every sample; a loop over
        # the grid stops at a = 0.5 and the first sample
        config = load_config_text(_with_candidate("log(a - 0.6)"))
        first = self._points(config)[0]
        with pytest.raises(SuiteError) as info:
            run_suites(config)
        message = str(info.value)
        assert "suite riemann-solitons" in message
        assert "'log(a - 0.6)'" in message
        assert message.endswith(f"at sample {first} [a=0.5]")

    def test_lambda_undefined_at_some_samples_of_one_value(self):
        # at a = 0.5 this is log(x + 0.3), undefined where x <= -0.3; at
        # every other grid value and at a = 1 it is defined on the box
        config = load_config_text(_with_candidate("log(x + 5*(a - 0.5) + 0.3)"))
        points = self._points(config)
        bad = [p for p in points if p["x"] + 0.3 <= 0.0]
        assert bad and bad[0] != points[0]
        with pytest.raises(SuiteError) as info:
            run_suites(config)
        assert str(info.value).endswith(f"at sample {bad[0]} [a=0.5]")

    def test_nan_residual_names_the_a(self):
        # B is inf - inf = nan wherever exp(300 z) squared overflows
        text = _KENMOTSU3.replace(
            "W = 1, 0, 0\n",
            "W = 1, 0, 0\nB = 0, 0, exp(300*z)*exp(300*z) - exp(300*z)*exp(300*z)\n",
        ).replace("scalar = f\n", "scalar = f\nsuites = section2-identities\n")
        with pytest.raises(SuiteError) as info:
            run_suites(load_config_text(text))
        message = str(info.value)
        assert "check section2/divergence[a=0.5] has residual nan" in message
        assert message.endswith("[a=0.5]")


@pytest.mark.parametrize("scalar", [
    "exp(z)", "x", "x^2 * exp(-2*z) - exp(-4*z)/4",
])
def test_remark23_probe_same_with_or_without_two(scalar):
    # the a = 2 probe and the admissible interval read no grid value: the
    # same ids, verdicts and details whether the grid holds 2 or not
    text = _KENMOTSU3.replace("f = exp(z)", f"f = {scalar}").replace(
        "scalar = f\n", "scalar = f\nsuites = remark23\n"
    )
    probes = []
    for grid in ("1, 2, 3", "1, 3"):
        config = load_config_text(text.replace("a = 0.5, 1, 2, 3.7",
                                               f"a = {grid}"))
        probes.append([
            c.to_json_dict() for c in run_suites(config)
            if "[a=" not in c.check_id
        ])
    assert [c["id"] for c in probes[0]] == [
        "remark23/admissible-interval", "remark23/harmonic-transfer",
    ]
    assert probes[0] == probes[1]


@pytest.mark.parametrize("lam", ["1/(a - 2)", "log(1.5 - a)"])
def test_only_grid_values_reach_the_candidates(lam):
    # a lambda undefined at the probe a = 2 alone is fine on a grid
    # without 2: remark23's probe is no row of what the candidates read
    text = _with_candidate(lam).replace("a = 0.5, 1, 2, 3.7", "a = 0.5, 1")
    checks = run_suites(load_config_text(text))
    ids = [c.check_id for c in checks if "/riemann-log/" in c.check_id]
    assert ids
    assert not any("[a=2]" in c.check_id for c in checks)
    assert {i.rsplit("[", 1)[-1] for i in ids if "[" in i} == {"a=0.5]", "a=1]"}


def test_no_base_pairing_contracted_twice(monkeypatch):
    # each (0, 2) tensor is raised once per metric and run, and each
    # (raised, t2) pairing taken once; the base raises are memoised on the
    # batch like the Hessians
    raises, pairs = [], []
    real_raise, real_pair = tensor.hs_raise, tensor.hs_pair

    def raising(tensors, m):
        raises.extend(
            (np.shape(t), np.asarray(t).tobytes(), m.inv.tobytes())
            for t in tensors
        )
        return real_raise(tensors, m)

    def pairing(raised, t2):
        pairs.append(tuple(
            (x.shape, x.tobytes()) for x in (np.asarray(raised), np.asarray(t2))
        ))
        return real_pair(raised, t2)

    for module in (tensor, deformation, solitons):
        monkeypatch.setattr(module, "hs_raise", raising)
        monkeypatch.setattr(module, "hs_pair", pairing)
    config = builtin_config("kenmotsu3")
    config.points = 16
    assert all(c.passed for c in run_suites(config))
    assert raises and pairs
    assert len(set(raises)) == len(raises)
    assert len(set(pairs)) == len(pairs)


def test_each_lie_derivative_taken_once(monkeypatch):
    # L_V g of one potential on one chart is computed once per run, for
    # every candidate, kind and suite that reads it: the riemann and ricci
    # candidates of kenmotsu3 share grad f and V in both frames, and the
    # kenmotsu and section2 suites take L_xi g on the base and deformed
    # charts
    seen = {"gradient": [], "vector": []}
    real_gradient = solitons.gradient_lie_derivative
    real_vector = solitons.lie_derivative_metric

    def gradient(man, f, point):
        seen["gradient"].append((man, f))
        return real_gradient(man, f, point)

    def vector(man, field, point):
        seen["vector"].append((man, field.exprs))
        return real_vector(man, field, point)

    monkeypatch.setattr(solitons, "gradient_lie_derivative", gradient)
    monkeypatch.setattr(solitons, "lie_derivative_metric", vector)
    monkeypatch.setattr(suites, "lie_derivative_metric", vector)
    config = builtin_config("kenmotsu3")
    config.points = 16
    assert all(c.passed for c in run_suites(config))
    assert len(seen["gradient"]) == 2  # (base, deformed) x f
    assert len(seen["vector"]) == 4  # (base, deformed) x (V, xi)
    for calls in seen.values():
        assert len(set(calls)) == len(calls)


def test_each_theorem_lambda_computed_once(sampled_batches):
    # the pinned lambda of one (kind, scenario, potential, a) is computed
    # once per run: the deformed gradient lambda of a kind serves its
    # lambda-gradient, orthogonal-gradient and inequality claims alike
    config = builtin_config("kenmotsu3")
    config.points = 16
    assert all(c.passed for c in run_suites(config))
    # each memo entry is one computation, keyed by (kind, scenario,
    # structure, potential) on the batch that binds a
    [points] = sampled_batches
    seen = [key[1:] + (a,) for key, a in
            _memo_keys(points, solitons.theorem_lambda)]
    assert all(a is not None for *_, a in seen)
    gradient = [s for s in seen if s[1] == "gradient"]
    assert len(gradient) == 4  # (riemann, ricci) x (base, deformed) x f
    assert len(set(seen)) == len(seen)


def test_deformed_ricci_and_hessian_computed_once(monkeypatch, sampled_batches):
    # section2-identities and the inequality battery read the same deformed
    # Ric and Hess(f) on the run's frame; the memo serves both
    computed = []
    real = deformation.ricci_bar

    def counting(*args):
        computed.append(args[1].shape)
        return real(*args)

    monkeypatch.setattr(deformation, "ricci_bar", counting)
    config = builtin_config("kenmotsu3")
    config.points = 16
    assert all(c.passed for c in run_suites(config))
    assert computed == [(4, 16)]  # the one frame: the grid by the samples
    # each memo entry is one computation, on the batch that binds a
    [points] = sampled_batches
    ds = deformation.DeformedStructure
    for method in (ds.ricci_closed, ds.hessian_closed):
        [(_, a)] = _memo_keys(points, method)
        assert a is not None


def test_phi_flat_and_laplacian_computed_once(monkeypatch, sampled_batches):
    # phi^T g, which the structure axioms, the Kenmotsu condition and the
    # deformed nabla phi read, is contracted once per structure and frame,
    # and the Laplacian of a (chart, scalar) once per frame, however many
    # closed forms and suites read it
    specs, traced = [], []
    real_contract, real_hessian = geometry.contract, geometry.hessian

    def contract(spec, *operands):
        specs.append(spec)
        return real_contract(spec, *operands)

    def hessian(*args):
        traced.append(args[-1])
        return real_hessian(*args)

    monkeypatch.setattr(geometry, "contract", contract)
    monkeypatch.setattr(geometry, "hessian", hessian)
    config = builtin_config("kenmotsu3")
    config.points = 16
    assert all(c.passed for c in run_suites(config))
    [points] = sampled_batches
    flats = _memo_keys(points, geometry.phi_flat)
    # the base structure on the samples, the deformed one on the frame
    assert sorted(a is None for _, a in flats) == [False, True]
    assert specs.count("mi,mj->ij") == len(flats)
    # geometry.laplacian alone reads the Hessian through the module
    laplacians = _memo_keys(points, geometry.laplacian)
    assert len(laplacians) > 1
    assert len(traced) == len(laplacians)
