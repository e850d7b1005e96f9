"""The batched kernels equal the formulas they replaced, bit for bit.

The references are the formulas the kernels replaced: sample-major
elementwise passes, which ran over the tensor axes behind the sample axes;
and one strided write per component of an evaluated tensor.  The kernels
move elementwise passes and max reductions to a component-major layout,
which changes no value, so the results must be equal bit for bit
(``assert_array_equal``; NaN matches NaN).  Inputs are random and not
symmetric, at d = 3, 5 and 7, on an (N,) and an (A, N) batch, given
contiguous and as the transposed (sample-major) view of a
component-major buffer, with and without a NaN in one sample.

The small contractions (the Hilbert-Schmidt raise and pairing, the metric
traces, the Christoffel symbols, the Lie derivatives, the Hessian,
gradient, divergence, Laplacian and covariant derivative, nabla phi, the
xi-derivatives, the structure and Kenmotsu residuals, the deformed closed
forms and the prop22 and solenoidal contractions) are ``contract`` calls,
component-major einsums each summing its terms in its own order.  Each
kernel, and each spec the package passes to ``contract``, has two pins:
bit for bit its plain component loop (``_loop``: each output element
from zero, its terms in the order of its summed indices), and within
2^10 eps of the largest component its sample-major route, the products
per sample it replaced, kept here as the reference.  They run at d = 3,
5 and 7 on (N,) and (A, N) batches, on a chart's values with more or
fewer sample axes than a field's, on sample-free values and with a NaN
in one sample.  Where every operand is sample-free, numpy reduces the
components of the one sample in an order of its own, so there the
second pin alone holds.

The (0,4) kernels (the curvature, the Kulkarni-Nomizu product, the
symmetry guard) compute on the first-pair block x[(a < b), c, d] alone.
The references of the product and the guard are the full-layout kernels
they replaced, and the block must be the reference's rows a < b bit for
bit, its rows a > b their exact negatives and its rows a = b exact zeros:
that is what keeps every max over components, and so every reported
residual, unchanged.  The curvature takes its Gamma Gamma term and its
R13 raise as contractions, so it is pinned as they are: bit for bit its
plain component loop, and within 2^10 eps of the full-layout kernel it
replaced.  These run on length-1 sample axes too.  Their peak memory,
traced, is pinned in blocks, so a d^4 temporary or one of 2P pair rows
that comes back fails.

Two kernels skip a copy the routes they replaced made: a field's values
(``Field.values``) take its entries from the table of its distinct trees
in one take into a component-major buffer and return its sample-major
view, so ``component_major`` of an evaluated value copies nothing, and
``kulkarni_nomizu`` forms its four
products on the pair rows alone, without the full-size difference or the
2P rows of pairs and their swaps.  Each is compared bit for bit with the
route it replaced, kept here as its reference.

Two kernels take a shorter route than their references, so they match
within 2^10 eps of the largest reference component, and hold a NaN in the
same samples: the curvature, R04 from d d g and Gamma against R13 from
d_a Gamma lowered by g, and the gradient's partials, g^-1 (d d f - dg v)
against the partials of the inverse metric applied to df.  The
curvature's inputs have the symmetries of a metric and its partials,
without which the two routes differ.
"""

import ast
import itertools
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import expand
from numpy.testing import assert_array_equal

from acmsolitons import deformation, geometry, solitons
from acmsolitons.deformation import DeformedStructure, deform
from acmsolitons.expr import (
    A, Const, Coord, EvalError, Mul, add, call, evaluate, mul,
)
from acmsolitons.geometry import (
    ChartManifold,
    Field,
    _check_curvature_symmetries,
    _curvature_symmetry_residuals,
    _riemann,
    curvature_bundle,
    gradient_lie_derivative,
)
from acmsolitons.tensor import (
    MetricData, StructureError, component_major, contract, hs_inner, hs_pair,
    hs_raise, kulkarni_nomizu, max_abs, outer, pair_index, plus, sample_major,
    symmetric, trace,
)

DIMS = (3, 5, 7)
EPS = np.finfo(float).eps
LEADS = ((6,), (3, 6))
# and with length-1 sample axes, as a sample-free value has them
BLOCK_LEADS = LEADS + ((1,), (3, 1))
NAN_SAMPLE = 2


def _random(lead, d, rank, seed):
    rng = np.random.default_rng(1000 * seed + 10 * d + len(lead))
    return rng.normal(size=lead + (d,) * rank)


def _layouts(x, rank):
    """``x`` contiguous and as the sample-major view of a component-major
    copy."""
    return {
        "contiguous": np.ascontiguousarray(x),
        "transposed": sample_major(component_major(x, rank), rank),
    }


def _with_nan(x, rank, at=None):
    x = x.copy()
    x[(..., NAN_SAMPLE) + (at or (0,) * rank)] = np.nan
    return x


def _cases(d, lead, rank, seed):
    """(label, array) pairs: each layout, clean and with a NaN sample."""
    return _variants(_random(lead, d, rank, seed), rank)


def _variants(x, rank, nan_at=None):
    # a NaN sample where there is one to spare
    for nan in (False, True)[:1 + (x.shape[-rank - 1] > NAN_SAMPLE)]:
        y = _with_nan(x, rank, nan_at) if nan else x
        for name, arr in _layouts(y, rank).items():
            yield f"{name}{'+nan' if nan else ''}", arr


def _point(lead):
    point = {"x": np.arange(lead[-1], dtype=float)}
    if len(lead) == 2:
        point[A] = 0.5 + np.arange(lead[0], dtype=float)[:, None]
    return point


# ---------------------------------------------------------------------------
# references: the sample-major formulas


def _max_abs_ref(data, rank):
    lead = data.shape[:data.ndim - rank]
    return np.abs(data.reshape(lead + (-1,))).max(axis=-1)


def _kn_ref(a, b):
    h = a[..., :, None, None, :] * b[..., None, :, :, None]
    h -= a[..., :, None, :, None] * b[..., None, :, None, :]
    return h + np.swapaxes(np.swapaxes(h, -4, -3), -2, -1)


def _kn_block_ref(a, b):
    """The block route ``kulkarni_nomizu`` took before: the full-size
    difference h, then its rows at the pairs plus its rows at their swaps
    with c and d swapped."""
    ndim = max(np.ndim(a), np.ndim(b)) - 2
    a = component_major(a, 2, ndim)
    b = component_major(b, 2, ndim)
    pairs = pair_index(a.shape[0])
    ij, ji = np.r_[pairs.i, pairs.j], np.r_[pairs.j, pairs.i]
    p = a[ij][:, None, :] * b[ji][:, :, None]
    h = p - p.swapaxes(1, 2)
    P = pairs.i.size
    return sample_major(np.add(h[:P], h[P:].swapaxes(1, 2)), 3)


def _symmetry_terms_ref(r04):
    """The residual of each of ``_FULL_LABELS`` over the full R04."""
    bianchi = r04 + np.einsum("...cabd->...abcd", r04)
    bianchi += np.einsum("...bcad->...abcd", r04)
    return (
        r04 + np.einsum("...bacd->...abcd", r04),
        r04 + np.einsum("...abdc->...abcd", r04),
        r04 - np.einsum("...cdab->...abcd", r04),
        bianchi,
    )


_FULL_LABELS = (
    "antisymmetry in the first pair",
    "antisymmetry in the second pair",
    "pair interchange symmetry",
    "first Bianchi identity",
)


def _symmetry_ref(r04):
    tol = 1e-10 * np.maximum(_max_abs_ref(r04, 4), 1.0)
    worst = np.stack([_max_abs_ref(r, 4) for r in _symmetry_terms_ref(r04)],
                     axis=-1)
    return tol, worst


def _check_ref(r04, name, point):
    labels = _FULL_LABELS
    tol, worst = _symmetry_ref(r04)
    bad = ~(worst <= tol[..., None])
    if np.any(bad):
        rows = bad.reshape(-1, len(labels))
        s = int(np.argmax(rows.any(axis=1)))
        k = int(np.argmax(rows[s]))
        raise StructureError(
            f"{labels[k]} fails on {name} at "
            f"{geometry.locate(point, bad.any(axis=-1))} "
            f"(residual {worst.reshape(-1, len(labels))[s, k]:.3e})"
        )


def _second_partials_ref(out):
    out = out.copy()
    d = out.shape[-1]
    for l in range(d):
        for k in range(l + 1, d):
            mean = out[..., l, k, :, :] + out[..., k, l, :, :]
            mean *= 0.5
            out[..., l, k, :, :] = out[..., k, l, :, :] = mean
    return out


def _christoffel_partials_ref(m, dinv, d2g):
    dcombo = d2g + np.einsum("...ajik->...aijk", d2g)
    dcombo -= np.einsum("...akij->...aijk", d2g)
    d = m.dim
    shape = dcombo.shape
    lead = shape[:-4]
    raised = dcombo.reshape(lead + (d ** 3, d)) @ np.swapaxes(m.inv, -1, -2)
    combo = geometry._gamma_combo(m.dg).reshape(lead + (1, d * d, d))
    out = (dinv @ np.swapaxes(combo, -1, -2)).reshape(shape)
    out += np.moveaxis(raised.reshape(shape), -1, -3)
    out *= 0.5
    return out


def _rows(t, k):
    """``t`` with the ``k`` slot axes before its last folded into one axis
    of rows, so a contraction over the last axis is one product per sample."""
    return t.reshape(t.shape[:-k - 1] + (-1, t.shape[-1]))


def _riemann_full_ref(d2g, gamma, combo, inv):
    """R13[l, a, b, c] and R04[a, b, c, d], as the kernel formed them on
    every row before it kept the first-pair block."""
    d = inv.shape[-1]
    t = _rows(combo, 2) @ gamma.reshape(gamma.shape[:-3] + (d, d * d))
    t = component_major(t.reshape(t.shape[:-2] + (d,) * 4), 4)
    s = component_major(d2g, 4)
    rest = tuple(range(4, s.ndim))
    w = s.transpose((0, 2, 1, 3) + rest) - s.transpose((0, 2, 3, 1) + rest)
    w = plus(w, t.transpose((2, 0, 3, 1) + rest))
    r04 = w - w.swapaxes(0, 1)
    r04 *= 0.5
    r04 = sample_major(r04, 4)
    r13 = _rows(r04, 3) @ np.swapaxes(inv, -1, -2)
    r13 = r13.reshape(r13.shape[:-2] + (d,) * 4)
    r13 = component_major(np.moveaxis(r13, -1, -4), 4)
    return sample_major(r13, 4), r04


def _riemann_ref(gamma, dgamma, g):
    d = g.shape[-1]
    shape = dgamma.shape
    lead = shape[:-4]
    r13 = (np.einsum("...albc->...labc", dgamma)
           - np.einsum("...blac->...labc", dgamma))
    gg = gamma.reshape(lead + (d * d, d)) @ gamma.reshape(lead + (d, d * d))
    gg = gg.reshape(shape)
    r13 += gg
    r13 -= np.swapaxes(gg, -3, -2)
    r04 = np.moveaxis(r13, -4, -1) @ g[..., None, None, :, :]
    return r13, r04


def _metric_dinv_ref(inv, dg):
    inv1 = inv[..., None, :, :]
    dinv = inv1 @ dg @ inv1
    np.negative(dinv, out=dinv)
    return dinv


def _gradient_dv_ref(m, dinv, df, ddf):
    column = df[..., :, None]
    return (dinv @ column[..., None, :, :])[..., 0] + ddf @ np.swapaxes(m.inv, -1, -2)


def _hs_inner_ref(t1, t2, m):
    raised = np.swapaxes(m.inv, -1, -2) @ t1 @ m.inv
    return np.sum(raised * t2, axis=(-2, -1))


def _evaluate_all_ref(exprs, point, dims):
    shape = geometry._shape(point)
    out = np.empty(shape + (len(exprs),))
    first = {}
    for k, e in enumerate(exprs):
        if isinstance(e, Const):
            out[..., k] = e.value
            continue
        j = first.setdefault(e, k)
        out[..., k] = evaluate(e, point) if j == k else out[..., j]
    return out.reshape(shape + dims)


def _assert_block(block, full, label=""):
    """``block`` is the rows a < b of the full-layout ``full`` bit for bit;
    the rows a > b of ``full`` are their exact negatives and its rows
    a = b exact zeros, so the block's max over components is the full
    tensor's: at each sample where those rows hold no NaN (a NaN input
    the rows a < b never read gives NaN - NaN there alone)."""
    d = full.shape[-1]
    pairs = pair_index(d)
    assert block.shape == full.shape[:-4] + (pairs.i.size, d, d), label
    assert_array_equal(block, full[..., pairs.i, pairs.j, :, :], err_msg=label)
    assert_array_equal(full[..., pairs.j, pairs.i, :, :], -block,
                       err_msg=label)
    diag = full[..., np.arange(d), np.arange(d), :, :]
    clean = ~np.isnan(diag).any(axis=(-3, -2, -1))
    assert_array_equal(diag[clean], 0.0, err_msg=label)
    assert_array_equal(max_abs(block, 3)[clean], _max_abs_ref(full, 4)[clean],
                       err_msg=label)


# ---------------------------------------------------------------------------
# kernels


@pytest.mark.parametrize("lead", BLOCK_LEADS)
@pytest.mark.parametrize("d", DIMS)
def test_kulkarni_nomizu(d, lead):
    b = _random(lead, d, 2, seed=2)
    # a factor with fewer sample axes than the other, and a single point
    fewer, one = b[0], b[(0,) * len(lead)]
    pairs = [(a, b) for _, a in _cases(d, lead, 2, seed=1)]
    pairs += [(b, a) for a, _ in pairs] + [(b, fewer), (fewer, b), (one, one)]
    for x, y in pairs:
        got = kulkarni_nomizu(x, y)
        _assert_block(got, _kn_ref(x, y))
        # the route it replaced, bit for bit, and the same layout
        assert_array_equal(got, _kn_block_ref(x, y))
        assert np.shares_memory(component_major(got, 3), got)


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("d", DIMS)
def test_max_abs(d, lead):
    for rank in (4, 3):  # rank 3 is a (0,4) block: at d = 3, 27 components
        for label, x in _cases(d, lead, rank, seed=3):
            assert_array_equal(max_abs(x, rank), _max_abs_ref(x, rank),
                               err_msg=label)
        # a zero maximum is 0.0, as |x| gives, never -0.0, whose sign a
        # report would show
        shape = lead + (d,) * rank
        for zeros in (np.zeros(shape), -np.zeros(shape)):
            got = max_abs(zeros, rank)
            assert_array_equal(got, 0.0)
            assert not np.any(np.signbit(got))


def _block(lead, d, seed):
    return _random(lead + (d * (d - 1) // 2,), d, 2, seed)


@pytest.mark.parametrize("lead", BLOCK_LEADS)
@pytest.mark.parametrize("d", DIMS)
def test_curvature_symmetry_residuals(d, lead):
    pairs = pair_index(d)
    for label, r04 in _variants(_block(lead, d, seed=4), 3):
        full = expand(r04)
        tol, worst = _curvature_symmetry_residuals(r04)
        # the block guard is the full-layout guard on the rows a < b
        kept = [_max_abs_ref(t[..., pairs.i, pairs.j, :, :], 3)
                for t in _symmetry_terms_ref(full)[1:]]
        assert_array_equal(worst, np.stack(kept, axis=-1), err_msg=label)
        tol_ref, worst_ref = _symmetry_ref(full)
        assert_array_equal(tol, tol_ref, err_msg=label)
        nan = np.isnan(worst_ref).any(axis=-1)
        assert_array_equal(np.isnan(worst).any(axis=-1), nan, err_msg=label)
        # over the full tensor: the first pair holds exactly, the second
        # pair has the same residual, pair interchange is bounded within
        # the second-pair residual and Bianchi within rounding
        got, ref = worst[~nan], worst_ref[~nan]
        slack = 8.0 * EPS * (tol_ref[~nan] / 1e-10)
        assert_array_equal(ref[:, 0], 0.0, err_msg=label)
        assert_array_equal(ref[:, 1], got[:, 0], err_msg=label)
        assert np.all(got[:, 1] <= ref[:, 2]), label
        assert np.all(ref[:, 2] <= got[:, 1] + got[:, 0] + slack), label
        assert np.all(got[:, 2] <= ref[:, 3]), label
        assert np.all(ref[:, 3] <= got[:, 2] + slack), label


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("d", DIMS)
def test_broken_sample_names_the_same_failure(d, lead):
    rng = np.random.default_rng(d)
    m = rng.normal(size=lead + (d, d))
    g = m @ np.swapaxes(m, -1, -2) + d * np.eye(d)
    valid = kulkarni_nomizu(g, g)  # has every curvature symmetry
    _check_curvature_symmetries(valid, "chart", _point(lead))
    # each perturbation, written on the full tensor and antisymmetric in
    # its first pair, keeps the identities before its own in
    # ``_SYMMETRY_LABELS`` order and breaks that one; the block takes its
    # entries a < b
    row = pair_index(d).row
    breaks = {
        "antisymmetry in the second pair": {(0, 1, 0, 1): 1, (1, 0, 0, 1): -1},
        "pair interchange symmetry": {
            (0, 1, 0, 2): 1, (1, 0, 0, 2): -1, (0, 1, 2, 0): -1, (1, 0, 2, 0): 1,
        },
    }
    if d >= 4:
        # w (x) z + z (x) w for w = e0 ^ e1, z = e2 ^ e3
        w = np.zeros((d, d))
        z = np.zeros((d, d))
        w[0, 1], w[1, 0], z[2, 3], z[3, 2] = 1, -1, 1, -1
        wz = np.einsum("ab,cd->abcd", w, z) + np.einsum("ab,cd->abcd", z, w)
        breaks["first Bianchi identity"] = {
            tuple(int(i) for i in k): wz[tuple(k)] for k in np.argwhere(wz)
        }
    for label, change in breaks.items():
        for value in (1.0, np.nan):
            broken = np.array(valid)
            for (a, b, c, e), sign in change.items():
                if a < b:
                    broken[..., 4, row[a, b], c, e] += sign * value
            for layout, r04 in _layouts(broken, 3).items():
                with pytest.raises(StructureError) as ref:
                    _check_ref(expand(r04), "chart", _point(lead))
                with pytest.raises(StructureError) as got:
                    _check_curvature_symmetries(r04, "chart", _point(lead))
                assert "{'x': 4.0}" in str(got.value)
                if value == 1.0:
                    assert str(got.value) == str(ref.value), layout
                    assert str(got.value).startswith(label), layout
                else:
                    # NaN fails every residual of its sample; the full
                    # layout named its first pair, the block its second
                    assert "{'x': 4.0}" in str(ref.value)
                    assert str(got.value).startswith(
                        geometry._SYMMETRY_LABELS[0]), layout


def _second_partials_chart(d, dense):
    """A dense chart, whose metric entries are all distinct, as are most
    of their second partials, g_ij = delta_ij + exp(sum_k c_ijk x_k); or
    a diagonal one, g_ii = 1 + exp(c_i x_i), with d + 1 distinct second
    partials."""
    coords = [f"x{i}" for i in range(d)]
    rng = np.random.default_rng(d)

    def entry(i, j):
        if not dense and i != j:
            return Const(0.0)
        exponent = Const(0.0)
        for c in (coords if dense else coords[i:i + 1]):
            exponent = add(exponent, mul(Const(float(rng.normal())), Coord(c)))
        return add(Const(float(i == j)), call("exp", exponent))

    g = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            g[i][j] = g[j][i] = entry(i, j)
    return ChartManifold(coords, g)


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("d", DIMS)
def test_metric_second_partials(d, lead, monkeypatch):
    # the table of distinct trees as _evaluate_all returns it, random; the
    # second partials are its entries, each the mean of both orders, bit
    # for bit as the entry-by-entry reference takes it.  On the dense
    # metric the possible pairs of rows outnumber the d^4 entries; on the
    # diagonal one most entries share the zero row
    for dense in (True, False):
        chart = _second_partials_chart(d, dense)
        second = chart.g.derivative(chart.coords).derivative(chart.coords)
        trees, index = second.compact
        assert (len(trees) ** 2 > index.size) == dense
        assert dense or len(trees) == d + 1
        point = {c: np.zeros(lead) for c in chart.coords}
        rng = np.random.default_rng(5)
        for nan in (False, True):
            table = rng.normal(size=(len(trees),) + lead)
            if nan:
                table[index[1, 0, 1, 1], ..., NAN_SAMPLE] = np.nan
            entries = np.moveaxis(table[index], (0, 1, 2, 3), (-4, -3, -2, -1))
            monkeypatch.setattr(geometry, "_evaluate_all",
                                lambda t, p: table)
            label = f"dense={dense} nan={nan}"
            if nan:
                with pytest.raises(StructureError) as ref:
                    chart._finite(entries, 4, "metric second partials", point)
                with pytest.raises(StructureError) as got:
                    chart.metric_second_partials(point)
                assert str(got.value) == str(ref.value), label
                continue
            got = chart.metric_second_partials(point)
            assert_array_equal(got, _second_partials_ref(entries),
                               err_msg=label)
            # (x + x)/2 = x: the l = k blocks keep their bits
            for l in range(d):
                assert_array_equal(got[..., l, l, :, :],
                                   entries[..., l, l, :, :], err_msg=label)


def test_metric_second_partials_hold_one_d4_buffer(kenmotsu3):
    # the table of distinct trees and the means of its pairs are small;
    # the entries taken from them are the one buffer of d^4 doubles per
    # sample (evaluating all of them and then averaging held two)
    man = kenmotsu3.manifold
    d = man.dim
    point = geometry.sample_batch(man, kenmotsu3.box, 256, kenmotsu3.seed)
    man.metric_second_partials(point)  # builds the fields once
    buffer = d ** 4 * 256 * 8
    got = _peak(lambda: man.metric_second_partials(point))
    assert buffer <= got <= 1.25 * buffer, got / buffer


def _metric(lead, d, seed):
    """A batch of symmetric positive definite metrics and their inverses."""
    x = _random(lead, d, 2, seed)
    g = x @ np.swapaxes(x, -1, -2)
    g = 0.5 * (g + np.swapaxes(g, -1, -2)) + d * np.eye(d)
    return g, np.linalg.inv(g)


def _near(got, ref, rank):
    """``got`` within 2^10 eps of ``ref``, relative to max |ref|, at every
    sample free of NaN; the samples holding a NaN are the same in both."""
    axes = tuple(range(-rank, 0))
    nan = np.isnan(ref).any(axis=axes)
    assert got.shape == ref.shape
    assert_array_equal(np.isnan(got).any(axis=axes), nan)
    got, ref = got[~nan], ref[~nan]
    scale = float(np.max(np.abs(ref)))
    assert float(np.max(np.abs(got - ref))) <= 2.0 ** 10 * EPS * scale


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("d", DIMS)
def test_riemann_tensors(d, lead):
    # the reference is the route through d_a Gamma: it agrees with R04
    # from d d g and Gamma only on a metric, with dg symmetric in (i, j)
    # and d2g in each pair of slots, and dinv = -g^-1 dg g^-1
    g, inv = _metric(lead, d, seed=11)
    dg = _random(lead, d, 3, seed=12)
    dg = dg + np.swapaxes(dg, -1, -2)
    dinv = _metric_dinv_ref(inv, dg)
    m = MetricData(g=g, inv=inv, dg=dg)
    combo = geometry._gamma_combo(dg)
    gamma = geometry._christoffel(inv, combo)
    d2g = _random(lead, d, 4, seed=13)
    d2g = d2g + np.swapaxes(d2g, -4, -3)
    d2g = d2g + np.swapaxes(d2g, -2, -1)
    # the NaN sits at d_0 d_0 g_11, which R_0101 reads: the rows a < b
    # read no d_a d_c g_ad, which enters the full R04 at rows a = b alone
    for label, x in _variants(d2g, 4, nan_at=(0, 0, 1, 1)):
        r13_ref, r04_ref = _riemann_ref(
            gamma, _christoffel_partials_ref(m, dinv, x), g
        )
        r13, r04 = _riemann(x, gamma, combo, inv)
        _near(expand(r13, raised=True), r13_ref, 4)
        _near(expand(r04), r04_ref, 4)


def _riemann_loop(d2g, gamma, combo, inv):
    """R13 and R04 on their first-pair blocks as plain component loops, in
    the kernel's summation order: at the pairs (a, b) and at their swaps,
    w = (d_a d_c g_bd - d_a d_d g_bc) + combo[b, d, l] Gamma^l_ac, each
    product summed over l from zero; R04 = (1/2)(w(a, b) - w(b, a)), and
    R13[(a, b), c, l] = R04[(a, b), c, d] g^ld summed over d from zero."""
    pairs = pair_index(inv.shape[-1])

    def w(a, b):
        t = _loop("pdl,plc->pcd", combo[..., b, :, :],
                  np.swapaxes(gamma, -3, -2)[..., a, :, :])
        s = np.moveaxis(d2g, -3, -2)[..., a, b, :, :]
        return (s - _sw(s)) + t

    r04 = w(pairs.i, pairs.j) - w(pairs.j, pairs.i)
    r04 *= 0.5
    return _loop("pcd,ld->pcl", r04, inv), r04


@pytest.mark.parametrize("lead", BLOCK_LEADS)
@pytest.mark.parametrize("d", DIMS)
def test_riemann_block(d, lead):
    # random inputs: first-pair antisymmetry needs no metric
    inv = _random(lead, d, 2, seed=7)
    gamma = _random(lead, d, 3, seed=8)
    combo = _random(lead, d, 3, seed=9)
    # a NaN at d_0 d_0 g_00 reaches the full rows a = b alone, one at
    # d_0 d_0 g_11 the rows a < b too
    d2g = _random(lead, d, 4, seed=10)
    pairs = pair_index(d)
    cases = [c for at in (None, (0, 0, 1, 1)) for c in _variants(d2g, 4, at)]
    for label, d2g in cases:
        got = _riemann(d2g, gamma, combo, inv)
        # bit for bit the loop in the kernel's order, but on one sample,
        # whose components numpy reduces in an order of its own
        loop = _riemann_loop(d2g, gamma, combo, inv)
        for g, r in zip(got, loop):
            assert g.shape == r.shape, label
            if math.prod(lead) > 1:
                assert_array_equal(g, r, err_msg=label)
            # sample-major views of component-major buffers
            assert np.shares_memory(component_major(g, 3), g), label
        # within 2^10 eps of the full-layout route it replaced, whose rows
        # a < b are the block: R13[l, a, b, c] has it at [(a < b), c, l]
        r13_ref, r04_ref = _riemann_full_ref(d2g, gamma, combo, inv)
        r13_ref = np.moveaxis(r13_ref, -4, -1)
        for g, r in zip(got, (r13_ref, r04_ref)):
            _near(g, r[..., pairs.i, pairs.j, :, :], 3)


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("d", DIMS)
def test_gradient_lie_derivative_partials(d, lead, monkeypatch):
    # dv as _lie_metric_numeric receives it; f is base data, so df and ddf
    # broadcast against the a axis of an (A, N) metric
    monkeypatch.setattr(geometry, "_lie_metric_numeric",
                        lambda m, v, dv, point: dv)
    g, inv = _metric(lead, d, seed=16)
    df = _random(lead[-1:], d, 1, seed=17)
    ddf = _random(lead[-1:], d, 2, seed=18)
    f = SimpleNamespace(partials=lambda coords, point: df,
                        second_partials=lambda coords, point: ddf)
    for label, dg in _cases(d, lead, 3, seed=19):
        m = MetricData(g=g, inv=inv, dg=dg)
        manifold = SimpleNamespace(coords=None,
                                   metric_at_cached=lambda point: m)
        _near(gradient_lie_derivative(manifold, f, None),
              _gradient_dv_ref(m, _metric_dinv_ref(inv, dg), df, ddf), 2)


# ---------------------------------------------------------------------------
# small contractions: component-major einsums against their plain loops and
# against the sample-major routes they replaced


def _loop(subscripts, *operands):
    """The einsum ``subscripts`` (component letters only) over sample-major
    operands as a plain loop over components, each step over whole sample
    arrays: every output element starts from zero and adds its terms in
    the order of its summed letters as they first appear, each term the
    product of its operands' entries from left to right."""
    inputs, output = subscripts.split("->")
    inputs = inputs.split(",")
    letters = list(dict.fromkeys("".join(inputs)))
    summed = [c for c in letters if c not in output]
    size, leads = {}, []
    for sub, x in zip(inputs, operands):
        leads.append(x.shape[:x.ndim - len(sub)])
        size.update(zip(sub, x.shape[x.ndim - len(sub):]))
    lead = np.broadcast_shapes(*leads)
    out = np.empty(lead + tuple(size[c] for c in output))
    for at_out in itertools.product(*(range(size[c]) for c in output)):
        total = np.zeros(lead)
        for at_sum in itertools.product(*(range(size[c]) for c in summed)):
            at = dict(zip(output, at_out)) | dict(zip(summed, at_sum))
            term = None
            for sub, x in zip(inputs, operands):
                entry = x[(...,) + tuple(at[c] for c in sub)]
                term = entry if term is None else term * entry
            total = total + term
        out[(...,) + at_out] = total
    return out


def _sw(x):
    return np.swapaxes(x, -1, -2)


# each operand's role: a value of the chart or of the field it acts on
# (the metric and its partials, Gamma, phi, xi and eta are the chart's)
_ROLES = {
    "g": ("chart", 2), "inv": ("chart", 2), "dg": ("chart", 3),
    "gamma": ("chart", 3), "combo": ("chart", 3), "phi": ("chart", 2),
    "xi": ("chart", 1), "eta": ("chart", 1), "dxi": ("chart", 2),
    "deta": ("chart", 2), "dphi": ("chart", 3),
    "t1": ("field", 2), "t2": ("field", 2), "t3": ("field", 2),
    "v": ("field", 1), "dv": ("field", 2), "df": ("field", 1),
    "ddf": ("field", 2),
}

# (label, chart sample shape, field sample shape): a base field on the
# (A, N) frame of a deformed chart, an a-reading field on a base chart, a
# sample-free (flat) chart, and sample-free batches alone, on which numpy
# reduces the components of the one sample in an order of its own
_BATCHES = (
    ("(N,)", (6,), (6,)),
    ("(A, N)", (3, 6), (3, 6)),
    ("(A, N) chart, (N,) field", (3, 6), (6,)),
    ("(N,) chart, (A, N) field", (6,), (3, 6)),
    ("sample-free chart", (1,), (6,)),
    ("(A, 1)", (3, 1), (3, 1)),
    ("sample-free", (1,), (1,)),
)


def _operands(names, d, chart, field, seed):
    rng = np.random.default_rng(seed * 100 + d)
    out = {}
    for name in names:
        role, rank = _ROLES[name]
        lead = chart if role == "chart" else field
        out[name] = rng.normal(size=lead + (d,) * rank)
    return out


def _pin_cases(names, d, seed, charts=None):
    """(label, bit, operands): every batch of ``_BATCHES``, as the
    sample-major views of component-major buffers that evaluated values
    are, and at (A, N) also contiguous and with a NaN in one sample of
    each field operand (of each operand, if none is the field's).
    ``bit`` is False where every operand is sample-free."""
    for label, chart, field in _BATCHES:
        if charts is not None and len(chart) != charts:
            continue
        ops = _operands(names, d, chart, field, seed)
        views = {k: sample_major(component_major(x, _ROLES[k][1]),
                                 _ROLES[k][1]) for k, x in ops.items()}
        bit = math.prod(np.broadcast_shapes(*(
            chart if _ROLES[k][0] == "chart" else field for k in names))) > 1
        yield label, bit, views
        if label == "(A, N)":
            yield label + " contiguous", bit, ops
            # in the field's operands, or in every operand if none is the
            # field's
            fields = [k for k in ops if _ROLES[k][0] == "field"] or list(ops)
            nan = {k: _with_nan(x, _ROLES[k][1]) if k in fields else x
                   for k, x in ops.items()}
            yield label + " +nan", bit, nan


def _outcome(fn, ops):
    """``fn(ops)`` as a tuple of arrays, or the text of the StructureError
    it raises (a non-finite input, refused by ``symmetric``)."""
    try:
        out = fn(ops)
    except StructureError as err:
        return str(err)
    if isinstance(out, dict):
        out = tuple(out[k] for k in sorted(out))
    return tuple(np.asarray(x) for x in (out if isinstance(out, tuple) else (out,)))


def _pin(kernel, loop, route, names, d, seed=30, charts=None):
    """The two pins of a contraction kernel: bit for bit its plain
    component loop, and within 2^10 eps of max |ref| the sample-major
    route it replaced, on every batch of ``_pin_cases`` (those whose chart
    values have ``charts`` sample axes, if given); the samples holding a
    NaN are the same in all three."""
    for label, bit, ops in _pin_cases(names, d, seed, charts):
        got, ref, old = (_outcome(fn, ops) for fn in (kernel, loop, route))
        if isinstance(old, str):
            assert got == old == ref, label
            continue
        assert len(got) == len(ref) == len(old), label
        for g, r, o in zip(got, ref, old):
            assert g.shape == o.shape, label
            if bit:
                assert_array_equal(g, r, err_msg=label)
            _near(g, o, 0)


def _metric_data(ops):
    return MetricData(g=ops.get("g"), inv=ops["inv"], dg=ops.get("dg"))


def _lead_point(ops):
    """A point whose sample shape is that of the operands' broadcast, for
    the messages of ``symmetric``."""
    lead = np.broadcast_shapes(*(x.shape[:x.ndim - _ROLES[k][1]]
                                 for k, x in ops.items()))
    return _point(lead)


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("d", DIMS)
def test_stacked_raise(d, lead):
    # tensors raised by a base metric and by an a-stacked one, as in the
    # prop22 battery, each against tensors with fewer sample axes and with
    # the metric's own
    names = ("inv", "t1", "t2")
    charts = len(lead)

    def raised(ops):
        return tuple(hs_raise((ops["t1"], ops["t2"]), _metric_data(ops)))

    def raised_loop(ops):
        return tuple(_loop("il,lj->ij", _loop("ki,kl->il", ops["inv"], t),
                           ops["inv"]) for t in (ops["t1"], ops["t2"]))

    def raised_route(ops):
        return tuple(_sw(ops["inv"]) @ t @ ops["inv"]
                     for t in (ops["t1"], ops["t2"]))

    _pin(raised, raised_loop, raised_route, names, d, charts=charts)
    _pin(lambda ops: hs_pair(ops["t1"], ops["t2"]),
         lambda ops: _loop("ij,ij->", ops["t1"], ops["t2"]),
         lambda ops: np.sum(ops["t1"] * ops["t2"], axis=(-2, -1)), names, d,
         charts=charts)
    _pin(lambda ops: hs_inner(ops["t1"], ops["t2"], _metric_data(ops)),
         lambda ops: _loop("ij,ij->", raised_loop(ops)[0], ops["t2"]),
         lambda ops: _hs_inner_ref(ops["t1"], ops["t2"], _metric_data(ops)),
         names, d, charts=charts)
    _pin(lambda ops: trace(ops["t1"], _metric_data(ops)),
         lambda ops: _loop("ij,ij->", ops["inv"], ops["t1"]),
         lambda ops: np.einsum("...ij,...ij->...", ops["inv"], ops["t1"]),
         names, d, charts=charts)


@pytest.mark.parametrize("d", DIMS)
def test_christoffel_and_combo(d):
    def christoffel_loop(ops):
        return 0.5 * _loop("lk,ijk->lij", ops["inv"], ops["combo"])

    def christoffel_route(ops):
        combo = ops["combo"]
        gamma = ops["inv"] @ _sw(_rows(combo, 2))
        return 0.5 * gamma.reshape(gamma.shape[:-1] + combo.shape[-2:])

    _pin(lambda ops: geometry._christoffel(ops["inv"], ops["combo"]),
         christoffel_loop, christoffel_route, ("inv", "combo"), d)

    # the combo sums no components: its route's bits, elementwise
    def combo_route(ops):
        dg = ops["dg"]
        return (dg + np.einsum("...jik->...ijk", dg)
                - np.einsum("...kij->...ijk", dg))

    _pin(lambda ops: geometry._gamma_combo(ops["dg"]), combo_route,
         combo_route, ("dg",), d)


def _lie_loop(ops, v, dv):
    dv_g = _loop("ik,kj->ij", dv, ops["g"])
    out = _loop("k,kij->ij", v, ops["dg"]) + dv_g + _sw(dv_g)
    return symmetric(0.5 * (out + _sw(out)), _lead_point(ops))


def _lie_route(ops, v, dv):
    dv_g = dv @ ops["g"]
    out = np.einsum("...k,...kij->...ij", v, ops["dg"]) + dv_g + _sw(dv_g)
    return symmetric(0.5 * (out + _sw(out)), _lead_point(ops))


def _gradient_loop(ops):
    v = _loop("ij,j->i", ops["inv"], ops["df"])
    dgv = _loop("akj,j->ak", ops["dg"], v)
    dv = _loop("ak,ik->ai", ops["ddf"] - dgv, ops["inv"])
    return _lie_loop(ops, v, dv)


def _gradient_route(ops):
    inv = ops["inv"]
    v = inv @ ops["df"][..., :, None]
    dg = ops["dg"]
    dgv = _rows(dg, 2) @ v
    dv = (ops["ddf"] - dgv.reshape(dgv.shape[:-2] + dg.shape[-3:-1])) @ _sw(inv)
    return _lie_route(ops, v[..., 0], dv)


def _scalar(ops):
    return SimpleNamespace(partials=lambda coords, point: ops["df"],
                           second_partials=lambda coords, point: ops["ddf"])


def _chart(ops):
    """A chart whose metric data are ``ops``'; it reads a, so a memoised
    kernel runs on the point as given."""
    m = _metric_data(ops)
    return SimpleNamespace(coords=None, dim=ops["inv"].shape[-1], reads_a=True,
                           metric_at_cached=lambda point: m)


@pytest.mark.parametrize("d", DIMS)
def test_lie_derivatives(d):
    _pin(lambda ops: geometry._lie_metric_numeric(
             _metric_data(ops), ops["v"], ops["dv"], _lead_point(ops)),
         lambda ops: _lie_loop(ops, ops["v"], ops["dv"]),
         lambda ops: _lie_route(ops, ops["v"], ops["dv"]),
         ("inv", "g", "dg", "v", "dv"), d)
    _pin(lambda ops: gradient_lie_derivative(_chart(ops), _scalar(ops),
                                             _lead_point(ops)),
         _gradient_loop, _gradient_route,
         ("inv", "g", "dg", "df", "ddf"), d)


@pytest.mark.parametrize("d", DIMS)
def test_scalar_operators(d, monkeypatch):
    # Gamma is the chart's; f's partials are the field's
    names = ("inv", "gamma", "df", "ddf", "t1")
    current = {}
    monkeypatch.setattr(geometry, "christoffel",
                        lambda manifold, point: current["gamma"])

    def run(fn):
        def call(ops):
            current.update(ops)
            return fn(_chart(ops), _scalar(ops), _lead_point(ops))
        return call

    def hessian_loop(ops):
        out = ops["ddf"] - _loop("kij,k->ij", ops["gamma"], ops["df"])
        return symmetric(0.5 * (out + _sw(out)), _lead_point(ops))

    def hessian_route(ops):
        out = ops["ddf"] - np.einsum("...kij,...k->...ij", ops["gamma"],
                                     ops["df"])
        return symmetric(0.5 * (out + _sw(out)), _lead_point(ops))

    _pin(run(geometry.hessian), hessian_loop, hessian_route, names, d)
    _pin(run(geometry.grad),
         lambda ops: _loop("ij,j->i", ops["inv"], ops["df"]),
         lambda ops: np.einsum("...ij,...j->...i", ops["inv"], ops["df"]),
         names, d)
    # the Laplacian is the metric trace of the Hessian
    monkeypatch.setattr(geometry, "hessian",
                        lambda manifold, f, point: current["t1"])
    _pin(run(geometry.laplacian),
         lambda ops: _loop("ij,ij->", ops["inv"], ops["t1"]),
         lambda ops: np.einsum("...ij,...ij->...", ops["inv"], ops["t1"]),
         names, d)


def _vector(ops):
    return SimpleNamespace(values=lambda point: ops["v"],
                           partials=lambda coords, point: ops["dv"])


@pytest.mark.parametrize("d", DIMS)
def test_vector_operators(d, monkeypatch):
    names = ("inv", "gamma", "v", "dv")
    current = {}
    monkeypatch.setattr(geometry, "christoffel",
                        lambda manifold, point: current["gamma"])

    def run(fn):
        def call(ops):
            current.update(ops)
            return fn(_chart(ops), _vector(ops), _lead_point(ops))
        return call

    _pin(run(geometry.divergence),
         lambda ops: (_loop("ii->", ops["dv"])
                      + _loop("iik,k->", ops["gamma"], ops["v"])),
         lambda ops: (np.einsum("...ii->...", ops["dv"])
                      + np.einsum("...iik,...k->...", ops["gamma"], ops["v"])),
         names, d)
    _pin(run(geometry.covariant_derivative),
         lambda ops: ops["dv"] + _loop("kim,m->ik", ops["gamma"], ops["v"]),
         lambda ops: ops["dv"] + np.einsum("...kim,...m->...ik",
                                           ops["gamma"], ops["v"]),
         names, d)


def _structure(ops):
    """A structure whose phi, xi, eta and their partials are ``ops``'."""
    chart = _chart(ops)
    return SimpleNamespace(
        manifold=chart, n=(chart.dim - 1) // 2,
        phi_values=lambda point: ops["phi"],
        phi_partials=lambda point: ops["dphi"],
        xi_values=lambda point: ops["xi"],
        eta_values=lambda point: ops["eta"],
        xi_field=SimpleNamespace(partials=lambda coords, point: ops["dxi"]),
        eta_field=SimpleNamespace(partials=lambda coords, point: ops["deta"]),
    )


def _nabla_phi_route(ops):
    gamma, phi = ops["gamma"], ops["phi"]
    d = phi.shape[-1]
    lead = gamma.shape[:-3]
    turn = gamma.reshape(lead + (d * d, d)) @ phi
    out = ops["dphi"] + np.swapaxes(turn.reshape(turn.shape[:-2] + (d, d, d)),
                                    -3, -2)
    turn = phi @ gamma.reshape(lead + (d, d * d))
    out -= np.swapaxes(turn.reshape(turn.shape[:-2] + (d, d, d)), -3, -2)
    return out


@pytest.mark.parametrize("d", DIMS)
def test_structure_operators(d, monkeypatch):
    names = ("inv", "g", "gamma", "phi", "dphi", "xi", "eta", "dxi", "df",
             "ddf")
    current = {}
    monkeypatch.setattr(geometry, "christoffel",
                        lambda manifold, point: current["gamma"])

    def run(fn, *args):
        def call(ops):
            current.update(ops)
            return fn(_structure(ops), *(a(ops) for a in args),
                      _lead_point(ops))
        return call

    _pin(run(geometry.nabla_phi_tensor),
         lambda ops: (ops["dphi"] + _loop("kim,mj->ikj", ops["gamma"],
                                          ops["phi"])
                      - _loop("km,mij->ikj", ops["phi"], ops["gamma"])),
         _nabla_phi_route, names, d)

    def xi_loop(ops):
        xi = ops["xi"]
        return (_loop("k,k->", xi, ops["df"]),
                _loop("k,km,m->", xi, ops["dxi"], ops["df"])
                + _loop("k,m,km->", xi, xi, ops["ddf"]))

    def xi_route(ops):
        xi = ops["xi"]
        return (np.einsum("...k,...k->...", xi, ops["df"]),
                np.einsum("...k,...km,...m->...", xi, ops["dxi"], ops["df"])
                + np.einsum("...k,...m,...km->...", xi, xi, ops["ddf"]))

    _pin(run(geometry.xi_derivatives, _scalar), xi_loop, xi_route, names, d)

    def validate_loop(ops):
        phi, g, xi, eta = ops["phi"], ops["g"], ops["xi"], ops["eta"]
        eye = np.eye(phi.shape[-1])
        phi_g_phi = _loop("ik,kj->ij", _loop("ki,kj->ij", phi, g), phi)
        return {
            "phi-squared": max_abs(_loop("ik,kj->ij", phi, phi)
                                   - (-eye + outer(xi, eta)), 2),
            "eta-xi": np.abs(_loop("i,i->", eta, xi) - 1.0),
            "eta-is-xi-flat": max_abs(eta - _loop("ij,j->i", g, xi), 1),
            "phi-compatibility": max_abs(phi_g_phi - (g - outer(eta, eta)), 2),
            "phi-xi": max_abs(_loop("ij,j->i", phi, xi), 1),
            "eta-phi": max_abs(_loop("i,ij->j", eta, phi), 1),
        }

    def validate_route(ops):
        phi, g, xi, eta = ops["phi"], ops["g"], ops["xi"], ops["eta"]
        eye = np.eye(phi.shape[-1])
        return {
            "phi-squared": max_abs(phi @ phi - (-eye + outer(xi, eta)), 2),
            "eta-xi": np.abs(np.einsum("...i,...i->...", eta, xi) - 1.0),
            "eta-is-xi-flat": max_abs(
                eta - np.einsum("...ij,...j->...i", g, xi), 1),
            "phi-compatibility": max_abs(
                _sw(phi) @ g @ phi - (g - outer(eta, eta)), 2),
            "phi-xi": max_abs(np.einsum("...ij,...j->...i", phi, xi), 1),
            "eta-phi": max_abs(np.einsum("...i,...ij->...j", eta, phi), 1),
        }

    _pin(lambda ops: geometry.AcmStructure.validate(
             SimpleNamespace(**vars(_structure(ops))), _lead_point(ops)),
         validate_loop, validate_route, names, d)

    # the Kenmotsu target, with nabla phi and nabla xi as given
    monkeypatch.setattr(geometry, "nabla_phi_tensor",
                        lambda structure, point: current["dphi"])
    monkeypatch.setattr(geometry, "covariant_derivative",
                        lambda manifold, field, point: current["dxi"])

    def kenmotsu_loop(ops):
        target = (_loop("ij,k->ikj", _loop("mi,mj->ij", ops["phi"], ops["g"]),
                        ops["xi"])
                  - _loop("j,ki->ikj", ops["eta"], ops["phi"]))
        return _kenmotsu_residuals(ops, target)

    def kenmotsu_route(ops):
        g_phi = np.einsum("...mi,...mj->...ij", ops["phi"], ops["g"])
        target = (np.einsum("...ij,...k->...ikj", g_phi, ops["xi"])
                  - np.einsum("...j,...ki->...ikj", ops["eta"], ops["phi"]))
        return _kenmotsu_residuals(ops, target)

    _pin(run(geometry.kenmotsu_details), kenmotsu_loop, kenmotsu_route,
         names, d)


@pytest.mark.parametrize("d", DIMS)
def test_curvature_traces(d, monkeypatch):
    # Ric and scal from a random R13 block, the symmetry guard skipped
    names = ("inv", "g", "dg", "t1")
    pairs = pair_index(d)
    rng = np.random.default_rng(d)
    current = {}

    def riemann(d2g, gamma, combo, inv):
        lead = np.broadcast_shapes(inv.shape[:-2], current["t1"].shape[:-2])
        r13 = rng.normal(size=lead + (pairs.i.size, d, d))
        current["r13"] = sample_major(component_major(r13, 3), 3)
        return current["r13"], None

    monkeypatch.setattr(geometry, "_riemann", riemann)
    monkeypatch.setattr(geometry, "_check_curvature_symmetries",
                        lambda r04, name, point: None)

    def bundle(ops):
        current.update(ops)
        chart = _chart(ops)
        chart.name = "chart"
        chart.metric_second_partials = lambda point: None
        out = geometry.curvature_bundle(chart, _lead_point(ops))
        return out["Ric"], out["scal"]

    def traces(ops, ric):
        return (symmetric(0.5 * (ric + _sw(ric)), _lead_point(ops)),
                _loop("bc,bc->", ops["inv"], ric))

    def traces_route(ops):
        ric = np.einsum("...aabc->...bc", expand(current["r13"], raised=True))
        return (symmetric(0.5 * (ric + _sw(ric)), _lead_point(ops)),
                np.einsum("...bc,...bc->...", ops["inv"], ric))

    _pin(bundle,
         lambda ops: traces(ops, _loop("aabc->bc",
                                       expand(current["r13"], raised=True))),
         traces_route, names, d)


def _deformed(ops, a):
    """A deformation of ``_structure(ops)`` that passes the Kenmotsu gate."""
    return SimpleNamespace(base=_structure(ops),
                           require_kenmotsu=lambda point: None)


@pytest.mark.parametrize("d", DIMS)
def test_deformed_closed_forms(d, monkeypatch):
    names = ("inv", "g", "gamma", "phi", "xi", "eta")
    current = {}
    monkeypatch.setattr(deformation, "christoffel",
                        lambda manifold, point: current["gamma"])

    def frame(ops):
        point = _lead_point(ops)
        point[A] = np.array([0.5, 2.0, 3.7])[:, None]
        return point

    def run(method):
        def call(ops):
            current.update(ops)
            return method(_deformed(ops, None), frame(ops))
        return call

    def scale(ops, rank):
        a = frame(ops)[A]
        return a.reshape(a.shape + (1,) * rank)

    def christoffel_closed(ops, outer_product):
        a = scale(ops, 3)
        p = ops["g"] - outer(ops["eta"], ops["eta"])
        return ops["gamma"] + ((a - 1.0) / a) * outer_product(p, ops["xi"])

    _pin(run(DeformedStructure.christoffel_closed),
         lambda ops: christoffel_closed(
             ops, lambda p, xi: _loop("ij,l->lij", p, xi)),
         lambda ops: christoffel_closed(
             ops, lambda p, xi: np.einsum("...ij,...l->...lij", p, xi)),
         names, d)

    def nabla_phi_loop(ops):
        g_phi = _loop("mi,mj->ij", ops["phi"], ops["g"])
        return (_loop("ij,k->ikj", g_phi, ops["xi"]) / scale(ops, 3)
                - _loop("j,ki->ikj", ops["eta"], ops["phi"]))

    def nabla_phi_route(ops):
        g_phi = np.einsum("...mi,...mj->...ij", ops["phi"], ops["g"])
        return (np.einsum("...ij,...k->...ikj", g_phi, ops["xi"])
                / scale(ops, 3)
                - np.einsum("...j,...ki->...ikj", ops["eta"], ops["phi"]))

    _pin(run(DeformedStructure.nabla_phi_closed), nabla_phi_loop,
         nabla_phi_route, names, d)

    # the rows T(., xi) of the prop22 transfer, their Gram matrix and
    # T(xi, xi), with the tensor index last of the sample axes
    names = ("inv", "xi", "t1", "t2", "t3")

    def rows_loop(ops):
        ts = [ops[k] for k in ("t1", "t2", "t3")]
        rows = [_loop("ij,j->i", t, ops["xi"]) for t in ts]
        gram = [[_loop("k,k->", _loop("i,ik->k", r, ops["inv"]), s)
                 for s in rows] for r in rows]
        reeb = [_loop("i,i->", r, ops["xi"]) for r in rows]
        return rows + [x for row in gram for x in row] + reeb

    def rows_route(ops):
        ts = np.stack(np.broadcast_arrays(*(ops[k] for k in ("t1", "t2", "t3"))),
                      axis=-3)
        rows = (ts @ ops["xi"][..., None, :, None])[..., 0]
        gram = rows @ ops["inv"] @ _sw(rows)
        reeb = (rows @ ops["xi"][..., None])[..., 0]
        return ([rows[..., t, :] for t in range(3)]
                + [gram[..., t, s] for t in range(3) for s in range(3)]
                + [reeb[..., t] for t in range(3)])

    def rows_kernel(ops):
        rows, gram, reeb = deformation._reeb_rows(
            [ops[k] for k in ("t1", "t2", "t3")], ops["xi"], _metric_data(ops))
        return tuple([rows[..., t, :] for t in range(3)]
                     + [gram[..., t, s] for t in range(3) for s in range(3)]
                     + [reeb[..., t] for t in range(3)])

    _pin(rows_kernel, lambda ops: tuple(rows_loop(ops)),
         lambda ops: tuple(rows_route(ops)), names, d)


@pytest.mark.parametrize("d", DIMS)
def test_soliton_contractions(d, monkeypatch):
    names = ("inv", "g", "xi", "eta", "deta", "v", "dv", "t1")
    current = {}

    def xi_eta(ops, contract):
        return (contract("k,ki,i->", ops["xi"], ops["deta"], ops["v"])
                + contract("k,i,ki->", ops["xi"], ops["eta"], ops["dv"]))

    _pin(lambda ops: solitons.xi_of_eta_potential(_structure(ops), _vector(ops),
                                                  _lead_point(ops)),
         lambda ops: xi_eta(ops, _loop),
         lambda ops: xi_eta(ops, _ellipsis), names, d)

    # the solenoidal terms, with nabla V and sigma as given
    monkeypatch.setattr(solitons, "covariant_derivative",
                        lambda manifold, field, point: current["t1"])
    monkeypatch.setattr(solitons, "xi_of_eta_potential",
                        lambda structure, field, point: current["v"][..., 0])

    def terms(ops, contract):
        g, eta, nv, v = ops["g"], ops["eta"], ops["t1"], ops["v"]
        nv_flat = contract("ik,kj->ij", nv, g)
        w = contract("ik,k->i", nv, eta) + contract("ij,j->i", g, v)
        ee = outer(eta, eta)
        brace = (outer(eta, w) + outer(w, eta)
                 - 2.0 * contract("i,i->", eta, v)[..., None, None] * ee)
        return v[..., 0], nv_flat + _sw(nv_flat), ee, brace

    def kernel(ops):
        current.update(ops)
        return solitons._solenoidal_terms(_structure(ops), _vector(ops),
                                          _lead_point(ops))

    _pin(kernel, lambda ops: terms(ops, _loop),
         lambda ops: terms(ops, _ellipsis), names, d)


def _package_specs() -> list:
    """Every literal spec a module of the package passes to ``contract``."""
    specs = set()
    for path in Path(geometry.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "contract" and isinstance(node.args[0], ast.Constant):
                specs.add(node.args[0].value)
    return sorted(specs)


# an operand name of each rank, in turn: a field's and a chart's values
_SPEC_OPERANDS = {1: ("v", "xi", "df"), 2: ("t1", "inv", "t2"),
                  3: ("gamma", "dg", "combo")}


def test_package_specs_are_found():
    specs = _package_specs()
    assert {"ik,kj->ij", "ii->", "k,km,m->", "tij,j->ti"} <= set(specs)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("spec", _package_specs())
def test_contract_spec(spec, d):
    # random operands of the spec's ranks, every letter of length d
    names = []
    for term in spec.split("->")[0].split(","):
        taken = [k for k in names if _ROLES[k][1] == len(term)]
        names.append(_SPEC_OPERANDS[len(term)][len(taken)])

    def run(fn):
        return lambda ops: fn(spec, *(ops[k] for k in names))

    _pin(run(contract), run(_loop), run(_ellipsis), tuple(names), d)


def _ellipsis(subscripts, *operands):
    """The einsum ``subscripts`` with the sample axes in front, as the
    routes the kernels replaced wrote it."""
    inputs, output = subscripts.split("->")
    inputs = ",".join("..." + x for x in inputs.split(","))
    return np.einsum(f"{inputs}->...{output}", *operands)


def _kenmotsu_residuals(ops, target):
    target_xi = np.eye(ops["phi"].shape[-1]) - outer(ops["eta"], ops["xi"])
    return {"nabla-phi": max_abs(ops["dphi"] - target, 3),
            "nabla-xi": max_abs(ops["dxi"] - target_xi, 2)}


def _entries(d, seed):
    """d * d trees: constants, repeats of earlier trees, and fresh trees
    reading x, y and the symbol a."""
    rng = np.random.default_rng(seed)
    x, y, a = Coord("x"), Coord("y"), Coord(A)
    out = []
    for k in range(d * d):
        kind = rng.integers(3)
        if kind == 0:
            out.append(Const(float(rng.normal())))
        elif kind == 1 and out:
            out.append(out[int(rng.integers(len(out)))])
        else:
            c = Const(float(rng.normal()))
            out.append(add(mul(call("exp", mul(x, c)), add(y, Const(float(k)))),
                           mul(a, c)))
    return out


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("d", DIMS)
def test_evaluate_all(d, lead):
    n = lead[-1]
    rng = np.random.default_rng(d)
    exprs = _entries(d, seed=d)
    for nan in (False, True):
        xs = rng.normal(size=2 * n)
        if nan:
            xs[2 * NAN_SAMPLE] = np.nan
        for name, x in (("contiguous", np.ascontiguousarray(xs[::2])),
                        ("strided", xs[::2])):
            point = {"x": x, "y": rng.normal(size=n), A: 0.7}
            if len(lead) == 2:
                point[A] = 0.5 + np.arange(lead[0], dtype=float)[:, None]
            label = f"{name}{'+nan' if nan else ''}"
            assert_array_equal(Field(exprs, (d, d)).values(point),
                               _evaluate_all_ref(exprs, point, (d, d)),
                               err_msg=label)
            # a tree undefined at some samples fails with the same text,
            # naming the same subtree and first sample, wherever it sits
            bad = call("log", Coord("x"))
            for k in (0, d, d * d - 1):
                broken = exprs[:k] + [bad] + exprs[k + 1:]
                with pytest.raises(EvalError) as ref:
                    _evaluate_all_ref(broken, point, (d, d))
                with pytest.raises(EvalError) as got:
                    Field(broken, (d, d)).values(point)
                assert str(got.value) == str(ref.value), label


# one point of each sample shape: a single point, a length-1 batch, an (N,)
# batch, and a batch of one sample or N that binds a to an (A, 1) column
SAMPLE_SHAPES = ((), (1,), (6,), (3, 1), (3, 6))


def _sample_point(shape, seed):
    rng = np.random.default_rng(seed)
    n = shape[-1] if shape else None
    point = {c: rng.normal() if n is None else rng.normal(size=n)
             for c in ("x", "y")}
    point[A] = (0.5 + np.arange(shape[0], dtype=float)[:, None]
                if len(shape) == 2 else 0.7)
    return point


@pytest.mark.parametrize("shape", SAMPLE_SHAPES)
def test_evaluate_all_layout(shape):
    # every evaluated value is the sample-major view of a component-major
    # buffer, so component_major of it copies nothing, and the buffer is
    # read-only, as it is memoised; sequences of constants alone, or of
    # trees reading a alone, have length-1 sample axes
    point = _sample_point(shape, seed=len(shape))
    a, c = Coord(A), Const(1.5)
    cases = {
        "mixed": (_entries(3, seed=4), (3, 3)),
        "constants": ([c, Const(-2.0), c, Const(0.0)], (2, 2)),
        "a alone": ([mul(a, a), c, mul(a, a)], (3,)),
        "scalar": (_entries(1, seed=5), ()),
    }
    for label, (exprs, dims) in cases.items():
        got = Field(exprs, dims).values(point)
        rank = len(dims)
        assert np.shares_memory(component_major(got, rank), got), label
        assert component_major(got, rank).flags.c_contiguous, label
        assert not component_major(got, rank).flags.writeable, label
        ref = _evaluate_all_ref(exprs, point, dims)
        assert_array_equal(np.broadcast_to(got, ref.shape), ref,
                           err_msg=label)


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("shape", SAMPLE_SHAPES)
def test_constants_are_keyed_by_their_bits(shape):
    # 0.0 and -0.0 compare equal, and so do their Const trees, but they
    # are two rows of the table, each written with its own sign; equal
    # NaNs and infinities are one row each.  The values are each entry's
    # own bits, as the entry-by-entry reference writes them
    point = _sample_point(shape, seed=7)
    x = Coord("x")
    nan, inf = float("nan"), float("inf")
    exprs = [Const(0.0), Const(-0.0), Const(inf), Const(nan), x, Const(-0.0),
             Const(-inf), Const(nan), Const(0.0), Mul(x, Const(-0.0))]
    field = Field(exprs, (2, 5))
    trees, index = field.compact
    assert Const(0.0) == Const(-0.0)
    assert [_bits(e.value).item() for e in trees[:4]] == [
        _bits(v).item() for v in (0.0, -0.0, inf, nan)]
    assert len(trees) == 7
    assert index.ravel().tolist() == [0, 1, 2, 3, 4, 1, 5, 3, 0, 6]
    got = field.values(point)
    ref = _evaluate_all_ref(exprs, point, (2, 5))
    assert_array_equal(_bits(np.broadcast_to(got, ref.shape)), _bits(ref))
    assert np.signbit(got[..., 0, 1]).all() and not np.signbit(got[..., 0, 0]).any()


# ---------------------------------------------------------------------------
# temporaries: every rank-4 kernel works in buffers the size of its block


def _peak(call, prepare=None) -> int:
    """The peak of the memory traced during ``call()``, above what was
    traced when it began; numpy traces its data buffers.  ``prepare`` runs
    before, under the trace, so a buffer it makes that ``call`` lets go is
    traced as going."""
    tracemalloc.start()
    try:
        if prepare is not None:
            prepare()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fixture", ["kenmotsu3", "kenmotsu5"])
def test_rank4_peaks(fixture, request):
    # the deformed frames of the benchmark's k3-dense and k5-sweep
    # workloads: d = 3 on an (4, 256) batch, d = 5 on an (8, 16) one.  A
    # block is P d^2 doubles per sample, P = d(d-1)/2; a d^4 temporary is
    # 3 blocks at d = 3 and 2.5 at d = 5, one of 2P pair rows 2 blocks.
    # The bounds are the measured peaks with 0.25 blocks to spare:
    # _riemann, beyond the second partials it is handed and lets go, 3.24
    # and 3.22 blocks; kulkarni_nomizu 3.56 and 3.31; curvature_bundle,
    # which holds the d^4 second partials, 9.95 and 7.44.  With the d^4 and
    # 2P-row temporaries they replaced they were 7.24 and 6.71, 4.56 and
    # 4.31, 13.95 and 10.93
    config = request.getfixturevalue(fixture)
    grid, count, bounds = {
        "kenmotsu3": (config.a_grid, 256, (3.49, 3.81, 10.2)),
        "kenmotsu5": ((0.25, 0.5, 0.8, 1.0, 1.5, 2.0, 3.7, 6.0), 16,
                      (3.47, 3.56, 7.69)),
    }[fixture]
    ds = deform(config.structure, grid)

    def frame():
        return ds.at(geometry.sample_batch(config.manifold, config.box, count,
                                           config.seed))

    d = ds.manifold.dim
    block = d * (d - 1) // 2 * d * d * len(grid) * count * 8
    pa = frame()
    m = ds.manifold.metric_at_cached(pa)
    combo = geometry._gamma_combo(m.dg)
    gamma = geometry._christoffel(m.inv, combo)
    lie = np.ascontiguousarray(np.broadcast_to(m.g, gamma.shape[:-3] + (d, d)))
    # as curvature_bundle calls it, _riemann is handed the one reference to
    # the d^4 second partials, and lets them go before its products
    handed = []
    peaks = (_peak(lambda: _riemann(handed.pop(), gamma, combo, m.inv),
                   lambda: handed.append(
                       ds.manifold.metric_second_partials(pa))),
             _peak(lambda: kulkarni_nomizu(lie, m.g)),
             # a fresh batch: the metric, its partials and the curvature
             # are evaluated, the d^4 second partials among them
             _peak(lambda: curvature_bundle(ds.manifold, frame())))
    for label, got, bound in zip(("_riemann", "kulkarni_nomizu",
                                  "curvature_bundle"), peaks, bounds):
        assert got / block <= bound, f"{label}: {got / block:.2f} blocks"
