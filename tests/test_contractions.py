"""Each batched-matmul contraction equals its ``...`` einsum definition.

The einsum strings here are the reference forms of the contractions in
``tensor``, ``geometry``, ``deformation`` and ``solitons``.  The data are
random, batched and, wherever the function does not itself require a
symmetric metric, not symmetric, at d = 3 and d = 5: symmetric data would
hide a swapped index.  The tolerance is fixed from the dtype: float64 eps
(2.2e-16) times the 625 terms of the largest sum at d = 5 is 1.4e-13, so
1e-12 x max(1, max |reference|) leaves a margin for the reordered sums.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from conftest import expand

from acmsolitons import geometry
from acmsolitons.deformation import deformation_curvature_term
from acmsolitons.geometry import (
    _christoffel,
    _gamma_combo,
    _lie_metric_numeric,
    _riemann,
    gradient_lie_derivative,
    nabla_phi_tensor,
    with_a,
)
from acmsolitons.solitons import implied_curvature
from acmsolitons.tensor import MetricData, hs_inner, kulkarni_nomizu

BATCH = 7
DIMS = (3, 5)


def _close(got, ref):
    assert got.shape == ref.shape
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert float(np.max(np.abs(got - ref))) <= 1e-12 * scale


def _random(d, *tensor_axes, seed):
    rng = np.random.default_rng(seed * 10 + d)
    return rng.normal(size=(BATCH,) + (d,) * len(tensor_axes))


def _spd(d, seed):
    """A batch of random symmetric positive definite metrics."""
    m = _random(d, "i", "j", seed=seed)
    return m @ np.swapaxes(m, -1, -2) + d * np.eye(d)


def _kn_ref(a, b):
    return (
        np.einsum("...ad,...bc->...abcd", a, b)
        + np.einsum("...bc,...ad->...abcd", a, b)
        - np.einsum("...ac,...bd->...abcd", a, b)
        - np.einsum("...bd,...ac->...abcd", a, b)
    )


def _combo_ref(dg):
    return (
        dg
        + np.einsum("...jik->...ijk", dg)
        - np.einsum("...kij->...ijk", dg)
    )


@pytest.mark.parametrize("d", DIMS)
def test_hs_inner(d):
    inv, t1, t2 = (_random(d, "i", "j", seed=s) for s in (1, 2, 3))
    m = SimpleNamespace(inv=inv)
    ref = np.einsum("...ik,...jl,...ij,...kl->...", inv, inv, t1, t2)
    _close(hs_inner(t1, t2, m), ref)
    one = SimpleNamespace(inv=inv[0])
    _close(np.asarray(hs_inner(t1[0], t2[0], one)), ref[0])


@pytest.mark.parametrize("d", DIMS)
def test_kulkarni_nomizu(d):
    a, b = (_random(d, "i", "j", seed=s) for s in (4, 5))
    ref = _kn_ref(a, b)
    _close(expand(kulkarni_nomizu(a, b)), ref)
    _close(expand(kulkarni_nomizu(a[0], b[0])), ref[0])


@pytest.mark.parametrize("d", DIMS)
def test_riemann_tensors(d):
    # d2g[l, k, i, j] = d_l d_k g_ij and Gamma_l,ij = combo[i, j, l]/2
    inv = _random(d, "i", "j", seed=13)
    gamma = _random(d, "l", "i", "j", seed=14)
    combo = _random(d, "i", "j", "k", seed=15)
    d2g = _random(d, "l", "k", "i", "j", seed=16)
    r04_ref = (
        0.5 * (
            np.einsum("...acbd->...abcd", d2g)
            + np.einsum("...bdac->...abcd", d2g)
            - np.einsum("...adbc->...abcd", d2g)
            - np.einsum("...bcad->...abcd", d2g)
        )
        + 0.5 * np.einsum("...bdl,...lac->...abcd", combo, gamma)
        - 0.5 * np.einsum("...adl,...lbc->...abcd", combo, gamma)
    )
    r13_ref = np.einsum("...ld,...abcd->...labc", inv, r04_ref)
    r13, r04 = _riemann(d2g, gamma, combo, inv)
    _close(expand(r13, raised=True), r13_ref)
    _close(expand(r04), r04_ref)


@pytest.mark.parametrize("d", DIMS)
def test_deformation_curvature_term(d):
    g = _random(d, "i", "j", seed=16)
    eta = _random(d, "i", seed=17)
    p = g - eta[..., :, None] * eta[..., None, :]
    ref = (
        np.einsum("...c,...a,...bd->...abcd", eta, eta, g)
        - np.einsum("...c,...b,...ad->...abcd", eta, eta, g)
        - np.einsum("...ac,...bd->...abcd", g, p)
        + np.einsum("...bc,...ad->...abcd", g, p)
    )
    _close(expand(deformation_curvature_term(g, eta)), ref)
    _close(expand(deformation_curvature_term(g[0], eta[0])), ref[0])


@pytest.mark.parametrize("d", DIMS)
def test_implied_riemann_curvature(d):
    # g is a metric here: implied_curvature checks its Ricci tensor for
    # symmetry, so only eta is free of symmetry
    g = _spd(d, seed=18)
    eta = _random(d, "i", seed=19)
    m = MetricData(g=g, inv=np.linalg.inv(g), dg=None)
    structure = SimpleNamespace(
        manifold=SimpleNamespace(metric_at_cached=lambda point: m),
        eta_values=lambda point: eta,
        n=(d - 1) // 2,
    )
    ref = (
        -2.0
        * (
            np.einsum("...ad,...bc->...abcd", g, g)
            - np.einsum("...ac,...bd->...abcd", g, g)
        )
        + np.einsum("...ad,...b,...c->...abcd", g, eta, eta)
        - np.einsum("...ac,...b,...d->...abcd", g, eta, eta)
        + np.einsum("...bc,...a,...d->...abcd", g, eta, eta)
        - np.einsum("...bd,...a,...c->...abcd", g, eta, eta)
    )
    point = {"x": np.zeros(BATCH)}
    _close(expand(
        implied_curvature("riemann", structure, with_a(point, 2.0))["r04"]
    ), ref)


@pytest.mark.parametrize("d", DIMS)
def test_christoffel(d):
    inv = _random(d, "i", "j", seed=20)
    dg = _random(d, "k", "i", "j", seed=21)
    ref = 0.5 * np.einsum("...lk,...ijk->...lij", inv, _combo_ref(dg))
    _close(_christoffel(inv, _gamma_combo(dg)), ref)


def _lie_ref(g, dg, v, dv):
    out = (
        np.einsum("...k,...kij->...ij", v, dg)
        + np.einsum("...ik,...kj->...ij", dv, g)
        + np.einsum("...jk,...ik->...ij", dv, g)
    )
    return 0.5 * (out + np.swapaxes(out, -1, -2))


@pytest.mark.parametrize("d", DIMS)
def test_lie_metric(d):
    # g is a metric: dV g stands for both g-contractions only when it is
    # symmetric; dg, V and dV are free
    g = _spd(d, seed=22)
    dg = _random(d, "k", "i", "j", seed=23)
    v = _random(d, "i", seed=24)
    dv = _random(d, "i", "k", seed=25)
    m = MetricData(g=g, inv=None, dg=dg)
    point = {"x": np.zeros(BATCH)}
    _close(_lie_metric_numeric(m, v, dv, point), _lie_ref(g, dg, v, dv))


@pytest.mark.parametrize("d", DIMS)
def test_gradient_lie_derivative(d):
    # the reference differentiates g^-1 d f through the partials of the
    # inverse metric, d_a g^ik = -g^im d_a g_mn g^nk
    g = _spd(d, seed=26)
    inv = np.linalg.inv(g)
    dg = _random(d, "k", "i", "j", seed=28)
    dinv = -np.einsum("...lm,...amn,...nk->...alk", inv, dg, inv)
    df = _random(d, "i", seed=30)
    ddf = _random(d, "a", "k", seed=31)
    m = MetricData(g=g, inv=inv, dg=dg)
    manifold = SimpleNamespace(
        coords=None, metric_at_cached=lambda point: m
    )
    f = SimpleNamespace(
        partials=lambda coords, point: df,
        second_partials=lambda coords, point: ddf,
    )
    v = np.einsum("...ik,...k->...i", inv, df)
    dv = (
        np.einsum("...aik,...k->...ai", dinv, df)
        + np.einsum("...ik,...ak->...ai", inv, ddf)
    )
    point = {"x": np.zeros(BATCH)}
    _close(gradient_lie_derivative(manifold, f, point), _lie_ref(g, dg, v, dv))


@pytest.mark.parametrize("d", DIMS)
def test_nabla_phi_tensor(d, monkeypatch):
    gamma = _random(d, "l", "i", "j", seed=32)
    phi = _random(d, "i", "j", seed=33)
    dphi = _random(d, "k", "i", "j", seed=34)
    monkeypatch.setattr(geometry, "christoffel", lambda man, point: gamma)
    structure = SimpleNamespace(
        manifold=None,
        phi_values=lambda point: phi,
        phi_partials=lambda point: dphi,
    )
    ref = (
        dphi
        + np.einsum("...kim,...mj->...ikj", gamma, phi)
        - np.einsum("...mij,...km->...ikj", gamma, phi)
    )
    _close(nabla_phi_tensor(structure, None), ref)
