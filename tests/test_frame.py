"""One frame: every closed form takes the batch that binds a, so a
configured scalar may read a like a vector or a lambda.

The genuine gradient soliton of a Kenmotsu warped product
dz^2 + e^{2z} h with Ric_h = K h has the potential f = e^z + aK e^{-2z}/6,
which reads the deformation parameter; the builtins kenmotsu3-sph-soliton
(K = 1) and kenmotsu3-hyp-soliton (K = -1) carry it.  The oracle is a
frozen copy of such a fixture: its scalar with the constant a_i written
for a, run on the grid (a_i,).  Row a_i of every consumer of the scalar
(the section2 Hessian, gradient and Laplacian, the prop22 and inequality
batteries, ``theorem_lambda``, ``orthogonal_gradient_values`` and
``harmonic_transfer``) must agree with the frozen copy bit for bit, and so
must every tagged check of a whole run.  The deformed structure shares
the base's phi field, so phi is evaluated once per run.
"""

import re

import numpy as np
import pytest

from acmsolitons import geometry
from acmsolitons.config import _BUILTINS, builtin_config, load_config_text
from acmsolitons.deformation import (
    deform, harmonic_transfer, laplacian_bar, prop_inner_battery,
)
from acmsolitons.expr import a_tag, evaluate
from acmsolitons.geometry import sample_batch
from acmsolitons.solitons import (
    inequality_battery, orthogonal_gradient_values, theorem_lambda,
)
from acmsolitons.suites import run_suites

SOLITONS = ("kenmotsu3-sph-soliton", "kenmotsu3-hyp-soliton")
GRID = (0.5, 1.0, 2.0, 3.7)


def _frozen(name: str, a: float):
    """The builtin ``name`` with ``a`` written for the symbol a in its
    scalar f, on the grid (a,)."""
    text = re.sub(r"^f = .*$",
                  lambda m: re.sub(r"\ba\b", repr(a), m.group(0)),
                  _BUILTINS[name], count=1, flags=re.M)
    config = load_config_text(text, source=f"frozen:{name}")
    config.a_grid = (a,)
    return config


def test_the_soliton_scalars_read_a():
    for name in SOLITONS:
        assert builtin_config(name).scalar.reads_a
        assert not _frozen(name, 2.0).scalar.reads_a


def _consumers(config) -> dict:
    """Every value computed from the configured scalar on the frame of a
    deformation over the config's grid, broadcast to its (A, N) batch."""
    f = config.scalar
    pts = sample_batch(config.manifold, config.box, 16, config.seed)
    ds = deform(config.structure, config.a_grid)
    pa = ds.at(pts)
    out = {
        "laplacian": laplacian_bar(ds.base, f, pa),
        "harmonic": harmonic_transfer(ds.base, f, pa)["lap_bar"],
    }
    for e in prop_inner_battery(ds, f, pa):
        for k in ("direct", "transfer", "closed"):
            out[f"prop22/{e['pair']}/{k}"] = e[k]
    for kind in ("riemann", "ricci"):
        out[f"lambda/{kind}"] = theorem_lambda(kind, "gradient", ds.base, f,
                                               pa)
        ortho = orthogonal_gradient_values(kind, ds.base, f, pa)
        for k in ("lambda_bar", "scal", "xi_f"):
            out[f"orthogonal/{kind}/{k}"] = ortho[k]
        for e in inequality_battery(ds, f, kind, pa):
            for k in ("lhs", "rhs"):
                out[f"inequality/{kind}/{e['check']}/{k}"] = e[k]
    out = {k: np.broadcast_to(v, pa.shape) for k, v in out.items()}
    out["hessian"] = ds.hessian_closed(f, pa)
    out["gradient"] = ds.gradient_closed(f, pa)
    return out


@pytest.mark.parametrize("name", SOLITONS)
def test_each_consumer_row_is_the_frozen_value(name):
    grid = _consumers(builtin_config(name))
    for i, a in enumerate(GRID):
        frozen = _consumers(_frozen(name, a))
        assert grid.keys() == frozen.keys()
        for key, values in grid.items():
            assert np.array_equal(values[i], frozen[key][0]), (key, a)


@pytest.mark.parametrize("name", SOLITONS)
def test_each_tagged_check_is_the_frozen_check(name):
    config = builtin_config(name)
    config.points = 16
    checks = run_suites(config)
    for a in GRID:
        row = {c.check_id: c for c in checks if c.check_id.endswith(a_tag(a))}
        frozen = _frozen(name, a)
        frozen.points = 16
        got = {c.check_id: c for c in run_suites(frozen) if "[" in c.check_id}
        assert row.keys() == got.keys()
        for key, check in row.items():
            assert check == got[key], key


def test_phi_is_evaluated_once_per_run(monkeypatch):
    # phi_bar = phi: the deformed structure shares the base's phi field,
    # so its distinct trees are evaluated on one batch, once, for both
    # frames; its values there are each entry evaluated, bit for bit
    config = builtin_config("kenmotsu5-gh")
    config.points = 8
    field = config.structure.phi_field
    phi = field.compact[0]
    real = geometry._evaluate_all
    calls = []

    def counting(trees, point):
        if trees == phi:
            calls.append(point)
        return real(trees, point)

    monkeypatch.setattr(geometry, "_evaluate_all", counting)
    run_suites(config)
    [point] = calls
    got = field.values(point)
    d = got.shape[-1]
    assert len(phi) < d * d
    for k, e in enumerate(field.exprs):
        want = np.broadcast_to(evaluate(e, point), got.shape[:-2])
        assert np.array_equal(got[..., k // d, k % d].view(np.int64),
                              want.view(np.int64)), e
