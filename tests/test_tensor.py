"""Pointwise tensor values: products, contractions, metric data."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acmsolitons.tensor import (
    StructureError,
    TensorValue,
    hs_inner,
    kulkarni_nomizu,
)


def _sym(rng, d):
    m = rng.normal(size=(d, d))
    return 0.5 * (m + m.T)


def _kn_loops(A, B):
    """Definition of the Kulkarni-Nomizu product, written as bare loops."""
    d = A.shape[0]
    out = np.zeros((d, d, d, d))
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    out[a, b, c, e] = (
                        A[a, e] * B[b, c]
                        + A[b, c] * B[a, e]
                        - A[a, c] * B[b, e]
                        - A[b, e] * B[a, c]
                    )
    return out


class TestKulkarniNomizu:
    def test_against_loop_oracle(self, rng):
        for d in (2, 3, 4):
            A = _sym(rng, d)
            B = _sym(rng, d)
            got = kulkarni_nomizu(
                TensorValue(0, 2, A, symmetric=True).data,
                TensorValue(0, 2, B, symmetric=True).data,
            )
            assert np.allclose(got, _kn_loops(A, B), atol=1e-13)

    def test_gg_on_orthonormal_pair(self):
        g = np.eye(3)
        t = TensorValue(0, 2, g, symmetric=True)
        kn = kulkarni_nomizu(t.data, t.data)
        # (g kn g)(e1, e2, e2, e1) = 2 for orthonormal e1, e2
        assert kn[0, 1, 1, 0] == pytest.approx(2.0)
        assert kn[0, 1, 0, 1] == pytest.approx(-2.0)
        assert kn[0, 0, 1, 1] == pytest.approx(0.0)

    def test_curvature_symmetries(self, rng):
        A = _sym(rng, 3)
        B = _sym(rng, 3)
        kn = kulkarni_nomizu(
            TensorValue(0, 2, A, symmetric=True).data,
            TensorValue(0, 2, B, symmetric=True).data,
        )
        assert np.allclose(kn, -np.transpose(kn, (1, 0, 2, 3)))
        assert np.allclose(kn, -np.transpose(kn, (0, 1, 3, 2)))
        assert np.allclose(kn, np.transpose(kn, (2, 3, 0, 1)))
        bianchi = kn + np.transpose(kn, (1, 2, 0, 3)) + np.transpose(kn, (2, 0, 1, 3))
        assert np.allclose(bianchi, 0.0, atol=1e-13)

    def test_rank_one_squares_vanish(self, rng):
        eta = rng.normal(size=4)
        ee = TensorValue(0, 2, np.outer(eta, eta), symmetric=True)
        kn = kulkarni_nomizu(ee.data, ee.data)
        assert np.max(np.abs(kn)) <= 1e-14


class _FakeMetric:
    def __init__(self, g):
        self.g = g
        self.inv = np.linalg.inv(g)


class TestHsInner:
    def test_identity_norm(self):
        g = np.diag([2.0, 3.0, 5.0])
        m = _FakeMetric(g)
        t = TensorValue(0, 2, g, symmetric=True)
        # <g, g> = dim
        assert hs_inner(t.data, t.data, m) == pytest.approx(3.0)

    def test_trace_pairing(self, rng):
        g = np.diag([1.5, 0.5, 2.0])
        m = _FakeMetric(g)
        A = _sym(rng, 3)
        t_g = TensorValue(0, 2, g, symmetric=True)
        t_a = TensorValue(0, 2, A, symmetric=True)
        # <g, A> = trace of A taken with g
        assert hs_inner(t_g.data, t_a.data, m) == pytest.approx(
            float(np.einsum("ij,ij->", m.inv, A))
        )

    def test_alpha_g_plus_beta_ee_norm(self):
        # |alpha g + beta eta x eta|^2 = alpha^2 d + 2 alpha beta + beta^2
        # for unit eta, any dimension d
        for d, alpha, beta in ((3, -2.0, 1.0), (5, 0.7, -1.3)):
            g = np.eye(d)
            m = _FakeMetric(g)
            eta = np.zeros(d)
            eta[-1] = 1.0
            t = TensorValue(
                0, 2, alpha * g + beta * np.outer(eta, eta), symmetric=True
            )
            assert hs_inner(t.data, t.data, m) == pytest.approx(
                alpha * alpha * d + 2 * alpha * beta + beta * beta
            )


class TestTensorValue:
    def test_symmetry_check(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(StructureError):
            TensorValue(0, 2, bad, symmetric=True)

    def test_rank_mismatch(self):
        with pytest.raises(StructureError):
            TensorValue(0, 2, np.zeros((2, 2, 2)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 1000))
def test_kn_symmetrized_in_arguments(seed):
    r = np.random.default_rng(seed)
    A = _sym(r, 3)
    B = _sym(r, 3)
    ab = kulkarni_nomizu(
        TensorValue(0, 2, A, symmetric=True).data,
        TensorValue(0, 2, B, symmetric=True).data,
    )
    ba = kulkarni_nomizu(
        TensorValue(0, 2, B, symmetric=True).data,
        TensorValue(0, 2, A, symmetric=True).data,
    )
    assert np.allclose(ab, ba, atol=1e-13)
