"""Batched evaluation: a batch of N points equals N single-point calls.

Every quantity carries the sample axis in front of its tensor axes, so a
wrong ``...`` index would broadcast silently; comparing each sample of a
batch with the same function called at that point alone catches it.  A
sample axis has length N, or 1 where the value reads no coordinate, so a
batched value must broadcast to N samples and then equal each single
point.
"""

from pathlib import Path

import numpy as np
import pytest

from acmsolitons import geometry
from acmsolitons.config import (
    ALL_SUITES, builtin_config, load_config, load_config_text,
)
from acmsolitons.deformation import deform, riemann_bar
from acmsolitons.expr import parse_expr
from acmsolitons.geometry import (
    Samples,
    ScalarField,
    VectorField,
    curvature_bundle,
    gradient_lie_derivative,
    hessian,
    lie_derivative_metric,
    sample_batch,
    with_a,
)
from acmsolitons.solitons import (
    SolitonCandidate, _full_residual, soliton_residuals,
)
from acmsolitons.suites import SuiteError, run_suites
from acmsolitons.tensor import StructureError

N = 16
TOL = 1e-13
# constant first partials against a metric that varies from sample to sample
LINEAR3 = Path(__file__).parent / "data" / "linear3.ini"


def _config(name, kenmotsu5):
    if name == "kenmotsu5":
        return kenmotsu5
    if name == "linear3":
        return load_config(LINEAR3)
    return builtin_config(name)


def _fields(config):
    """A scalar and a vector field that read every coordinate."""
    coords = config.manifold.coords
    d = len(coords)
    scalar = config.scalar or ScalarField(
        parse_expr(" + ".join(f"exp({c}/3)" for c in coords), coords=coords)
    )
    vector = VectorField(tuple(
        parse_expr(f"{coords[k]}*{coords[(k + 1) % d]} + sin({coords[k]})",
                   coords=coords)
        for k in range(d)
    ))
    return scalar, vector


def _assert_batch_matches(batched, singles, what):
    batched = np.asarray(batched, dtype=float)
    shape = (len(singles),) + np.shape(singles[0])
    assert np.broadcast_shapes(batched.shape, shape) == shape, what
    batched = np.broadcast_to(batched, shape)
    for i, single in enumerate(singles):
        single = np.asarray(single, dtype=float)
        assert batched[i].shape == single.shape, what
        scale = max(1.0, float(np.max(np.abs(single))))
        err = float(np.max(np.abs(batched[i] - single))) / scale
        assert err <= TOL, f"{what} at sample {i}: {err:.3e}"


@pytest.mark.parametrize(
    "name",
    ["kenmotsu3", "kenmotsu3-wide", "sphere2", "kenmotsu5", "euclidean3",
     "linear3"],
)
def test_batch_equals_single_points(name, kenmotsu5):
    config = _config(name, kenmotsu5)
    man = config.manifold
    batch = sample_batch(man, config.box, N, config.seed)
    points = batch.points()
    assert batch.count == len(points) == N
    scalar, vector = _fields(config)

    m = man.metric_at_cached(batch)
    singles = [man.metric_at_cached(p) for p in points]
    for attr in ("g", "inv", "dg"):
        _assert_batch_matches(
            getattr(m, attr), [getattr(s, attr) for s in singles], attr
        )

    bundle = curvature_bundle(man, batch)
    singles = [curvature_bundle(man, p) for p in points]
    for key in ("gamma", "R13", "R04", "Ric", "scal"):
        _assert_batch_matches(bundle[key], [s[key] for s in singles], key)

    _assert_batch_matches(
        hessian(man, scalar, batch),
        [hessian(man, scalar, p) for p in points], "Hessian",
    )
    _assert_batch_matches(
        lie_derivative_metric(man, vector, batch),
        [lie_derivative_metric(man, vector, p) for p in points], "L_V g",
    )
    _assert_batch_matches(
        gradient_lie_derivative(man, scalar, batch),
        [gradient_lie_derivative(man, scalar, p) for p in points],
        "L_grad f g",
    )

    if config.structure is None:
        return
    coords = man.coords + ("a",)
    candidates = list(config.candidates) + [
        SolitonCandidate(
            "batch-grad", "riemann", scalar,
            ScalarField(parse_expr(f"exp({man.coords[-1]})/a^2",
                                   coords=coords)),
        ),
        SolitonCandidate(
            "batch-reeb", "ricci", None,
            ScalarField(parse_expr("-2/a^2", coords=coords)),
        ),
    ]
    frames = (
        (config.structure, 1.0),
        (deform(config.structure, 2.0).structure, 2.0),
    )
    for frame, a in frames:
        for cand in candidates:
            got = soliton_residuals(frame, cand, with_a(batch, a))
            want = [
                soliton_residuals(frame, cand, with_a(p, a)) for p in points
            ]
            for key in set(got) - {"classification"}:
                _assert_batch_matches(
                    got[key], [w[key] for w in want],
                    f"{cand.name} {key} at a={a}",
                )
            assert list(np.broadcast_to(got["classification"], N)) == [
                w["classification"] for w in want
            ]


def test_sample_free_values_keep_one_sample(euclidean3, kenmotsu3):
    # a value that reads no coordinate is computed once, not once per
    # sample: its sample axis has length 1 and broadcasts to the batch
    man = euclidean3.manifold
    batch = sample_batch(man, euclidean3.box, N, euclidean3.seed)
    bundle = curvature_bundle(man, batch)
    for key in ("gamma", "R13", "R04", "Ric", "scal"):
        assert bundle[key].shape[:1] == (1,), key
    for attr in ("g", "inv", "dg"):
        assert getattr(bundle["metric"], attr).shape[:1] == (1,), attr
    # phi, xi and eta of a builtin read no coordinate; the deformed Reeb
    # pair reads a alone, so it has one sample per value of a
    s = kenmotsu3.structure
    batch = sample_batch(kenmotsu3.manifold, kenmotsu3.box, N, kenmotsu3.seed)
    assert s.phi_field.values(batch).shape == (1, 3, 3)
    assert s.xi_field.values(batch).shape == (1, 3)
    assert s.eta_field.values(batch).shape == (1, 3)
    ds = deform(s, (0.5, 2.0, 3.7))
    assert ds.structure.xi_field.values(ds.at(batch)).shape == (3, 1, 3)
    assert ds.structure.eta_field.values(ds.at(batch)).shape == (3, 1, 3)
    assert ds.manifold.metric_at_cached(ds.at(batch)).g.shape == (3, N, 3, 3)


def test_constant_indefinite_metric_names_sample_zero():
    # one evaluated sample stands for the whole batch; a refusal still
    # names the batch's first sample
    config = load_config_text(
        _CONSTANT_INDEFINITE, source="tests:constant-indefinite"
    )
    man = config.manifold
    batch = sample_batch(man, config.box, N, config.seed)
    assert man.metric_values(batch).shape == (1, 2, 2)
    with pytest.raises(StructureError) as info:
        man.metric_at_cached(batch)
    assert str(info.value) == (
        f"metric of flat-indefinite not positive definite at "
        f"{batch.points()[0]}"
    )


def _narrow_and_wide(x, keep):
    """``x`` with its sample axes cut to one sample along each axis not in
    ``keep``, and that cut broadcast back to ``x``'s shape as a copy."""
    index = tuple(slice(None) if i in keep else slice(0, 1)
                  for i in range(2)) + (...,)
    narrow = x[index]
    return narrow, np.broadcast_to(narrow, x.shape).copy()


@pytest.mark.parametrize("keep", [(), (0,), (1,)])
def test_kernels_broadcast_sample_axes(kenmotsu3, keep):
    # every kernel takes operands whose sample axes differ in length and
    # equals itself on those operands broadcast to full length
    s = kenmotsu3.structure
    batch = sample_batch(kenmotsu3.manifold, kenmotsu3.box, N, kenmotsu3.seed)
    ds = deform(s, (0.5, 2.0, 3.7))
    pa = ds.at(batch)
    m = ds.manifold.metric_at_cached(pa)
    bundle = curvature_bundle(ds.manifold, pa)
    d2g = ds.manifold.metric_second_partials(pa)
    combo = geometry._gamma_combo(m.dg)
    rng = np.random.default_rng(5)
    lie = rng.normal(size=m.g.shape)
    lie = lie + np.swapaxes(lie, -1, -2)

    def close(got, want, what):
        assert np.broadcast_shapes(got.shape, want.shape) == want.shape, what
        scale = max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(got - want))) <= 1e-14 * scale, what

    narrow, wide = _narrow_and_wide(combo, keep)
    close(geometry._christoffel(m.inv, narrow),
          geometry._christoffel(m.inv, wide), "christoffel")
    args = (d2g, geometry._christoffel(m.inv, combo), combo, m.inv)
    names = ("d2g", "gamma", "combo", "inv")
    # one narrow operand, then every operand but the metric narrow
    for cut in ((0,), (1,), (3,), (0, 1, 2)):
        pairs = [_narrow_and_wide(x, keep) if i in cut else (x, x)
                 for i, x in enumerate(args)]
        got = geometry._riemann(*(n for n, _ in pairs))
        want = geometry._riemann(*(w for _, w in pairs))
        for g_part, w_part, what in zip(got, want, ("R13", "R04")):
            close(g_part, w_part,
                  f"{what} from narrow {[names[i] for i in cut]}")
    # a base curvature of one sample against the base metric's N
    r04 = curvature_bundle(s.manifold, batch)["R04"]
    close(riemann_bar(s, ds.at(batch), r04[:1]),
          riemann_bar(s, ds.at(batch), np.broadcast_to(r04[:1], r04.shape)),
          "riemann_bar")
    g_narrow, g_wide = _narrow_and_wide(m.g, keep)
    lie_narrow, lie_wide = _narrow_and_wide(lie, keep)
    for kind, curvature in (("riemann", bundle["R04"]), ("ricci", bundle["Ric"])):
        close(_full_residual(kind, g_narrow, curvature, lie_narrow, 0.5),
              _full_residual(kind, g_wide, curvature, lie_wide, 0.5), kind)


@pytest.mark.parametrize("name", ["linear3", "euclidean3"])
def test_every_suite_runs(name):
    # neither chart is Kenmotsu, so the deformation suites stop at the gate
    config = _config(name, None)
    assert config.suites == ALL_SUITES
    checks = run_suites(config)
    gated = {c.check_id for c in checks if c.check_id.endswith("/kenmotsu-gate")}
    assert len(gated) == 6
    assert {c.check_id.split("/")[0] for c in checks} >= {"acm", "kenmotsu"}


def test_batch_of_listed_points_is_the_sampled_batch(kenmotsu3):
    batch = sample_batch(kenmotsu3.manifold, kenmotsu3.box, N, 42)
    again = Samples.stack(batch.points())
    assert list(again) == list(kenmotsu3.manifold.coords)
    for c in again:
        assert np.array_equal(again[c], batch[c])


def test_sample_points_unchanged(kenmotsu3):
    # the first three kenmotsu3 samples at seed 42, as the one-at-a-time
    # rejection sampler drew them
    points = sample_batch(kenmotsu3.manifold, kenmotsu3.box, 64, 42).points()
    assert points[:3] == [
        {"x": 0.5479120971119267, "y": -0.12224312049589536,
         "z": 2.03738760789809},
        {"x": 0.3947360581187278, "y": -0.8116453042247009,
         "z": 2.1719657043822695},
        {"x": 0.5222794039807059, "y": 0.5721286105539076,
         "z": 1.1973306775768777},
    ]


def test_lambda_domain_error_names_the_earliest_sample():
    # log(x + 0.8) is undefined where x <= -0.8, at some samples only
    config = load_config_text(_KENMOTSU3_LOG, source="tests:kenmotsu3-log")
    points = sample_batch(config.manifold, config.box, config.points,
                          config.seed).points()
    bad = [i for i, p in enumerate(points) if p["x"] + 0.8 <= 0.0]
    assert 0 < bad[0] < len(points) - 1
    with pytest.raises(SuiteError) as info:
        run_suites(config)
    message = str(info.value)
    assert "suite riemann-solitons" in message
    assert "'log(x + 0.8)'" in message
    assert f"at sample {points[bad[0]]}" in message


_KENMOTSU3_LOG = """
[manifold]
name = kenmotsu3-log
coordinates = x, y, z
constraints = z - 1
g_x_x = exp(2*z)
g_y_y = exp(2*z)
g_z_z = 1

[structure]
phi_y_x = 1
phi_x_y = -1
xi = 0, 0, 1

[scalars]
f = exp(z)

[candidates]
riemann-log = riemann, grad f, log(x + 0.8)

[run]
box_z = 1.05, 2.2
suites = riemann-solitons
"""


_CONSTANT_INDEFINITE = """
[manifold]
name = flat-indefinite
coordinates = x, y
g_x_x = 1
g_y_y = -1

[run]
seed = 42
points = 16
box_x = -1, 1
box_y = -1, 1
"""
