"""Batched evaluation: a batch of N points equals N single-point calls.

Every quantity carries the sample axis in front of its tensor axes, so a
wrong ``...`` index would broadcast silently; comparing each sample of a
batch with the same function called at that point alone catches it.
"""

import numpy as np
import pytest

from acmsolitons.config import builtin_config, load_config_text
from acmsolitons.deformation import deform
from acmsolitons.expr import parse_expr
from acmsolitons.geometry import (
    Samples,
    ScalarField,
    VectorField,
    curvature_bundle,
    hessian,
    lie_derivative_metric,
    sample_batch,
)
from acmsolitons.solitons import Frame, SolitonCandidate, soliton_residuals
from acmsolitons.suites import SuiteError, run_suites

N = 16
TOL = 1e-13


def _config(name, kenmotsu5):
    return kenmotsu5 if name == "kenmotsu5" else builtin_config(name)


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
    assert batched.shape[0] == len(singles), what
    for i, single in enumerate(singles):
        single = np.asarray(single, dtype=float)
        assert batched[i].shape == single.shape, what
        scale = max(1.0, float(np.max(np.abs(single))))
        err = float(np.max(np.abs(batched[i] - single))) / scale
        assert err <= TOL, f"{what} at sample {i}: {err:.3e}"


@pytest.mark.parametrize(
    "name", ["kenmotsu3", "kenmotsu3-wide", "sphere2", "kenmotsu5"]
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

    if config.structure is None:
        return
    coords = man.coords + ("a",)
    candidates = list(config.candidates) + [
        SolitonCandidate(
            "batch-grad", "riemann", "gradient",
            parse_expr(f"exp({man.coords[-1]})/a^2", coords=coords),
            scalar=scalar,
        ),
        SolitonCandidate(
            "batch-reeb", "ricci", "reeb", parse_expr("-2/a^2", coords=coords),
        ),
    ]
    frames = (
        Frame(config.structure, 1.0),
        Frame(deform(config.structure, 2.0).structure, 2.0),
    )
    for frame in frames:
        for cand in candidates:
            got = soliton_residuals(frame, cand, batch)
            want = [soliton_residuals(frame, cand, p) for p in points]
            for key in set(got) - {"classification"}:
                _assert_batch_matches(
                    got[key], [w[key] for w in want],
                    f"{cand.name} {key} at a={frame.a}",
                )
            assert list(got["classification"]) == [
                w["classification"] for w in want
            ]


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
