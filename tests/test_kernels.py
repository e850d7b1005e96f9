"""The batched kernels equal the formulas they replaced, bit for bit.

The references are the formulas the kernels replaced: sample-major
elementwise passes, which ran over the tensor axes behind the sample axes;
contractions with one small product per sample and slot (per derivative
index, per pair of curvature slots, per pair of Hilbert-Schmidt
arguments); and one strided write per component of an evaluated tensor.
The kernels move elementwise passes and max reductions to a
component-major layout, and fold slot axes into the rows or columns of
one product per sample, so each output element is still the same
length-d dot product taken in the same order.  So the results must be
equal bit for bit (``assert_array_equal``; NaN matches NaN).  Inputs are
random and not symmetric, at d = 3, 5 and 7, on an (N,) and an (A, N)
batch, given contiguous and as the transposed (sample-major) view of a
component-major buffer, with and without a NaN in one sample.

The (0,4) kernels (the curvature, the Kulkarni-Nomizu product, the
symmetry guard) compute on the first-pair block x[(a < b), c, d] alone.
Their references are the full-layout kernels they replaced, and the block
must be the reference's rows a < b bit for bit, its rows a > b their
exact negatives and its rows a = b exact zeros: that is what keeps every
max over components, and so every reported residual, unchanged.  These
run on length-1 sample axes too.

Two kernels take a shorter route than their references, so they match
within 2^10 eps of the largest reference component, and hold a NaN in the
same samples: the curvature, R04 from d d g and Gamma against R13 from
d_a Gamma lowered by g, and the gradient's partials, g^-1 (d d f - dg v)
against the partials of the inverse metric applied to df.  The
curvature's inputs have the symmetries of a metric and its partials,
without which the two routes differ.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from conftest import expand
from numpy.testing import assert_array_equal

from acmsolitons import geometry
from acmsolitons.expr import A, Const, Coord, EvalError, add, call, evaluate, mul
from acmsolitons.geometry import (
    ChartManifold,
    _check_curvature_symmetries,
    _curvature_symmetry_residuals,
    _evaluate_all,
    _riemann,
    gradient_lie_derivative,
)
from acmsolitons.tensor import (
    MetricData, StructureError, component_major, hs_inner, hs_pair, hs_raise,
    kulkarni_nomizu, max_abs, pair_index, plus, sample_major,
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


def _riemann_full_ref(d2g, gamma, combo, inv):
    """R13[l, a, b, c] and R04[a, b, c, d], as the kernel formed them on
    every row before it kept the first-pair block."""
    d = inv.shape[-1]
    t = geometry._rows(combo, 2) @ gamma.reshape(gamma.shape[:-3] + (d, d * d))
    t = component_major(t.reshape(t.shape[:-2] + (d,) * 4), 4)
    s = component_major(d2g, 4)
    rest = tuple(range(4, s.ndim))
    w = s.transpose((0, 2, 1, 3) + rest) - s.transpose((0, 2, 3, 1) + rest)
    w = plus(w, t.transpose((2, 0, 3, 1) + rest))
    r04 = w - w.swapaxes(0, 1)
    r04 *= 0.5
    r04 = sample_major(r04, 4)
    r13 = geometry._rows(r04, 3) @ np.swapaxes(inv, -1, -2)
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
    for label, a in _cases(d, lead, 2, seed=1):
        _assert_block(kulkarni_nomizu(a, b), _kn_ref(a, b), label)
        _assert_block(kulkarni_nomizu(b, a), _kn_ref(b, a), label)
    # a factor with fewer sample axes than the other, and a single point
    fewer, one = b[0], b[(0,) * len(lead)]
    _assert_block(kulkarni_nomizu(b, fewer), _kn_ref(b, fewer))
    _assert_block(kulkarni_nomizu(fewer, b), _kn_ref(fewer, b))
    _assert_block(kulkarni_nomizu(one, one), _kn_ref(one, one))


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


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("d", DIMS)
def test_metric_second_partials(d, lead, monkeypatch):
    coords = [f"x{i}" for i in range(d)]
    chart = ChartManifold(
        coords, [[Const(float(i == j)) for j in range(d)] for i in range(d)]
    )
    point = {c: np.zeros(lead) for c in coords}
    for label, d2g in _cases(d, lead, 4, seed=5):
        monkeypatch.setattr(geometry, "_evaluate_all",
                            lambda exprs, p, dims: np.array(d2g))
        if "nan" in label:
            with pytest.raises(StructureError) as ref:
                chart._finite(np.array(d2g), 4, "metric second partials", point)
            with pytest.raises(StructureError) as got:
                chart.metric_second_partials(point)
            assert str(got.value) == str(ref.value)
            continue
        got = chart.metric_second_partials(point)
        assert_array_equal(got, _second_partials_ref(d2g), err_msg=label)
        # (x + x)/2 = x: the l = k blocks keep their bits
        for l in range(d):
            assert_array_equal(got[..., l, l, :, :], d2g[..., l, l, :, :])


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
    cases = [c for at in (None, (0, 0, 1, 1)) for c in _variants(d2g, 4, at)]
    for label, d2g in cases:
        r13_ref, r04_ref = _riemann_full_ref(d2g, gamma, combo, inv)
        r13, r04 = _riemann(d2g, gamma, combo, inv)
        _assert_block(r04, r04_ref, label)
        # R13[l, a, b, c] has its block at [(a < b), c, l]
        _assert_block(r13, np.moveaxis(r13_ref, -4, -1), label)
        for got in (r13, r04):
            # sample-major views of component-major buffers
            assert np.shares_memory(component_major(got, 3), got), label


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


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("d", DIMS)
def test_stacked_raise(d, lead):
    m = SimpleNamespace(inv=_random(lead, d, 2, seed=20))
    # base tensors raised by an a-stacked metric, as in the prop22 battery,
    # and tensors with the metric's own sample axes
    for sample in (lead[-1:], lead):
        ts = [t for _, t in _cases(d, sample, 2, seed=21)]
        raised = hs_raise(ts, m)
        assert raised.shape == (len(ts),) + lead + (d, d)
        for i, t1 in enumerate(ts):
            for t2 in ts:
                ref = _hs_inner_ref(t1, t2, m)
                assert_array_equal(hs_pair(raised[i], t2), ref)
                assert_array_equal(hs_inner(t1, t2, m), ref)


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
            assert_array_equal(_evaluate_all(exprs, point, (d, d)),
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
                    _evaluate_all(broken, point, (d, d))
                assert str(got.value) == str(ref.value), label
