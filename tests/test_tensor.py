"""Pointwise tensor values: products, contractions, metric data."""

import numpy as np
import pytest
from conftest import expand
from hypothesis import given, settings, strategies as st

from acmsolitons.tensor import (
    StructureError,
    TensorValue,
    hs_inner,
    kulkarni_nomizu,
    max_abs,
    plus,
    symmetric,
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
            got = expand(kulkarni_nomizu(
                TensorValue(0, 2, A, symmetric=True).data,
                TensorValue(0, 2, B, symmetric=True).data,
            ))
            assert np.allclose(got, _kn_loops(A, B), atol=1e-13)

    def test_gg_on_orthonormal_pair(self):
        g = np.eye(3)
        t = TensorValue(0, 2, g, symmetric=True)
        kn = expand(kulkarni_nomizu(t.data, t.data))
        # (g kn g)(e1, e2, e2, e1) = 2 for orthonormal e1, e2
        assert kn[0, 1, 1, 0] == pytest.approx(2.0)
        assert kn[0, 1, 0, 1] == pytest.approx(-2.0)
        assert kn[0, 0, 1, 1] == pytest.approx(0.0)

    def test_curvature_symmetries(self, rng):
        A = _sym(rng, 3)
        B = _sym(rng, 3)
        kn = expand(kulkarni_nomizu(
            TensorValue(0, 2, A, symmetric=True).data,
            TensorValue(0, 2, B, symmetric=True).data,
        ))
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


def _max_abs_ref(x, rank):
    axes = tuple(range(-rank, 0))
    return np.maximum(np.max(x, axis=axes), -np.min(x, axis=axes))


def _max_abs_cases(rng, d, rank):
    """(N,) and (A, N) batches of rank-``rank`` tensors: contiguous, as a
    view with two tensor axes swapped, and as a view whose sample axes
    come last in memory."""
    for lead in ((6,), (4, 6)):
        shape = lead + (d,) * rank
        x = rng.normal(size=shape)
        yield x
        if rank >= 2:
            yield np.swapaxes(x, -1, -2)
        back = rng.normal(size=(d,) * rank + lead)
        yield np.moveaxis(back, tuple(range(rank)), tuple(range(-rank, 0)))


class TestMaxAbs:
    @pytest.mark.parametrize("d", (3, 5))
    @pytest.mark.parametrize("rank", (0, 1, 2, 3, 4))
    def test_equals_max_of_max_and_minus_min(self, rng, d, rank):
        for x in _max_abs_cases(rng, d, rank):
            np.testing.assert_array_equal(max_abs(x, rank), _max_abs_ref(x, rank))

    @pytest.mark.parametrize("d", (3, 5))
    @pytest.mark.parametrize("rank", (1, 2, 3, 4))
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_stays_in_its_sample(self, rng, d, rank, bad):
        for x in _max_abs_cases(rng, d, rank):
            x = np.copy(x)  # order "K": the copy keeps the memory order
            lead = x.shape[:-rank]
            sample = tuple(n // 2 for n in lead)
            component = tuple(rng.integers(0, d, size=rank))
            x[sample + component] = bad
            got = max_abs(x, rank)
            np.testing.assert_array_equal(got, _max_abs_ref(x, rank))
            finite = np.ones(lead, dtype=bool)
            finite[sample] = False
            assert np.isfinite(got).tolist() == finite.tolist()

    def test_single_tensor(self, rng):
        x = rng.normal(size=(3, 3))
        assert max_abs(x, 2) == np.max(np.abs(x))


class TestSymmetric:
    def _batch(self, rng):
        m = rng.normal(size=(5, 3, 3))
        return m + np.swapaxes(m, -1, -2)

    def test_passes_symmetric_data_through(self, rng):
        data = self._batch(rng)
        assert symmetric(data, {"x": np.arange(5.0)}) is data

    def test_names_the_first_non_finite_sample(self, rng):
        data = self._batch(rng)
        data[3, 0, 0] = np.nan
        data[4, 1, 2] = np.inf
        data[1, 0, 1] += 1e-3  # asymmetric, but non-finite is checked first
        with pytest.raises(StructureError) as info:
            symmetric(data, {"x": np.arange(5.0)})
        assert str(info.value) == "non-finite tensor component at {'x': 3.0}"

    def test_names_the_first_asymmetric_sample(self, rng):
        data = self._batch(rng)
        data[2, 0, 1] += 1e-9
        data[4, 1, 2] += 1.0
        with pytest.raises(StructureError) as info:
            symmetric(data, {"x": np.arange(5.0)})
        assert str(info.value) == "tensor declared symmetric is not at {'x': 2.0}"

    def test_relative_tolerance(self, rng):
        # 1e-12 relative to max(1, max |component|): 5e-11 is noise at a
        # scale of 1e3, an asymmetry at a scale of 1
        data = self._batch(rng)
        data[0] *= 1e3 / np.max(np.abs(data[0]))
        data[0, 0, 1] += 5e-10
        symmetric(data, {"x": np.arange(5.0)})
        data[1] /= np.max(np.abs(data[1]))
        data[1, 0, 1] += 5e-12
        with pytest.raises(StructureError, match=r"at \{'x': 1.0\}"):
            symmetric(data, {"x": np.arange(5.0)})


def test_plus_sums_in_place_unless_widened(rng):
    # a one-sample value plus an N-sample one is their broadcast sum
    wide = rng.normal(size=(5, 3, 3))
    narrow = rng.normal(size=(1, 3, 3))
    got = plus(narrow.copy(), wide)
    assert got.shape == (5, 3, 3)
    np.testing.assert_array_equal(got, narrow + wide)
    # where the sum keeps the first operand's shape it is its own buffer
    x = wide.copy()
    assert plus(x, narrow) is x
    np.testing.assert_array_equal(x, wide + narrow)
