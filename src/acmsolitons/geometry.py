"""Chart manifolds, curvature, and almost contact metric structures.

A ChartManifold is a single coordinate chart: named coordinates, a
symmetric metric of expressions, and optional open-domain constraints
(expressions required to be strictly positive).  All geometry is evaluated
at a point, a mapping coordinate -> float, or at a whole batch of sample
points at once, a ``Samples`` mapping coordinate -> (N,) array; batched
results carry the sample axis in front of the tensor axes.  Expressions may
also read the reserved symbol a, the deformation parameter, which a point
binds with ``with_a``: to one value, or to an (A,) array that puts an a
axis in front of the sample axis, so an (A, N) batch evaluates every value
of a at once.  Whatever reads no a is computed without it, on the samples
alone, and broadcasts against the a axis.  Likewise a sample axis has
length N, or 1 where a value reads no coordinate: a batched value's
sample axes are the broadcast of those of the trees it is evaluated from
(a constant contributes none, a tree reading only a gives (A, 1)),
padded with length-1 axes to the batch's rank, so a flat metric and its
curvature are computed once, not once per sample.  One rule keeps what
a run derives: each such quantity is a function decorated with
``on_batch``, memoised on the batch by the function and its other
arguments, and computed on the samples alone unless an argument reads a
or the function is declared to (``on_bound_batch``).  The symbolic
layer only ever differentiates the defining expressions, and only through
``Field``, the one type of the metric, phi, xi, eta and every scalar or
vector field.  A field is compact, its distinct trees and each entry's
row among them, so each distinct tree is differentiated once per
coordinate and evaluated once per batch: a field's values are memoised
on a batch by the field, its exact partials are built once per
coordinate tuple, on first use, and its second partials are the mean of
both orders, formed once per distinct pair of trees.  So each operator
below matches its textbook coordinate formula exactly:

* Christoffel symbols  Gamma^l_ij = (1/2) g^{lk} (d_i g_jk + d_j g_ik - d_k g_ij)
* curvature            R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
                       - nabla_[X,Y] Z, stored as
                       R04[a, b, c, d] = g(R(d_a, d_b) d_c, d_d)
                       = (1/2)(d_a d_c g_bd + d_b d_d g_ac - d_a d_d g_bc
                       - d_b d_c g_ad) + Gamma_l,bd Gamma^l_ac
                       - Gamma_l,ad Gamma^l_bc, Gamma_l,ij = g_lk Gamma^k_ij,
                       and raised to R13[a, b, c, l] = R04[a, b, c, d] g^ld,
                       the component of R(d_a, d_b) d_c along d_l; both
                       are kept on their first-pair block, rows a < b only
                       (``tensor.pair_index``): R04 as x[(a < b), c, d],
                       R13 as x[(a < b), c, l], each a sample-major view
                       of a component-major buffer
* Ricci                Ric(Y, Z) = trace of X -> R(X, Y)Z (first slot)
* Lie derivative       (L_V g)_ij = V^k d_k g_ij + g_kj d_i V^k + g_ik d_j V^k
* Hessian              Hess(f)_ij = d_i d_j f - Gamma^k_ij d_k f
* divergence           div V = d_i V^i + Gamma^i_ik V^k

With this orientation a Kenmotsu structure satisfies
R(X, Y) xi = eta(X) Y - eta(Y) X and Ric(xi, xi) = -2n.
"""

from __future__ import annotations

import struct
from functools import cache, cached_property, reduce, wraps

import numpy as np

from .expr import (
    A, Const, EvalError, Expr, add, coordinates_of, diff, evaluate, locate, mul,
)
from .tensor import (
    MetricData, StructureError, component_major, contract, max_abs, outer,
    pair_index, plus, sample_major, symmetric, trace,
)

__all__ = [
    "Samples", "with_a", "on_batch", "on_bound_batch",
    "Field", "ChartManifold", "AcmStructure", "ScalarField", "VectorField",
    "christoffel", "curvature_bundle",
    "lie_derivative_metric", "grad", "hessian", "divergence", "laplacian",
    "gradient_lie_derivative", "covariant_derivative", "nabla_phi_tensor",
    "xi_derivatives", "kenmotsu_residual", "kenmotsu_details", "sample_batch",
]

_CURVATURE_SYMMETRY_TOL = 1e-10
_INVERSE_TOL = 1e-10


class Samples(dict):
    """A batch of N sample points: coordinate name -> (N,) array.

    What a run derives from the batch (metric data, curvature, Hessians
    of scalar fields, divergences, Kenmotsu residuals, the values and
    partials of fields) is memoised on it by ``on_batch``, keyed by the
    function and the chart, structure or ``Field`` it is taken of, so
    each is computed once per batch whichever suite asks first.  A batch
    that binds the symbol a (see ``with_a``) keeps the batch it binds as
    ``parent``.  A batch is never written to once built.
    """

    def __init__(self, values, parent=None):
        super().__init__(values)
        self.memo = {}
        self.parent = parent

    @classmethod
    def stack(cls, points) -> "Samples":
        """The batch of a sequence of single points with the same keys."""
        return cls({
            c: np.array([p[c] for p in points], dtype=float) for c in points[0]
        })

    @cached_property
    def shape(self) -> tuple:
        """(N,), or (A, N) when a is bound to A values."""
        return np.broadcast_shapes(*(np.shape(v) for v in self.values()))

    @property
    def count(self) -> int:
        """The number of sample points N."""
        return self.shape[-1]

    def points(self) -> list:
        """The samples as single points, in order."""
        columns = [(c, v.tolist()) for c, v in self.items()]
        return [
            {c: values[i] for c, values in columns} for i in range(self.count)
        ]


def _shape(point) -> tuple:
    """The sample shape of a point: () for one point, (N,) for a batch,
    with the a axis in front when a is bound to an array."""
    if isinstance(point, Samples):
        return point.shape
    return np.broadcast_shapes(*(np.shape(v) for v in point.values()))


def _unbound(point):
    """``point`` without the symbol a: the batch a bound batch binds, or a
    single point with a dropped."""
    parent = getattr(point, "parent", None)
    if parent is not None:
        return parent
    if A in point:
        return {k: v for k, v in point.items() if k != A}
    return point


def with_a(point, a):
    """``point`` with the symbol a bound to ``a``, one value or an (A,)
    array; an array gives an a axis in front of the sample axis.

    The bound point is a frame: whatever depends on a reads it there as
    ``with_a(point, a)[A]``, shaped to broadcast in front of the sample
    axes, and what does not reaches the samples alone (``on_batch``).
    Binding a batch gives a batch memoised on it, so every caller binding
    the same values shares one bound batch and what is memoised on it.
    """
    base = _unbound(point)
    a = np.asarray(a, dtype=float)
    column = a.reshape(a.shape + (1,) * len(_shape(base)))
    if not isinstance(base, Samples):
        return {**base, A: column}
    key = (A, column.shape, column.tobytes())
    if key not in base.memo:
        base.memo[key] = Samples({**base, A: column}, parent=base)
    return base.memo[key]


def on_batch(fn):
    """Memoise ``fn(*args, point)`` on the batch ``point``, keyed by
    ``fn`` and the other arguments.

    One rule decides the frame: ``fn`` runs on ``point`` as given when
    something in its key has a true ``reads_a``, an argument or ``fn``
    itself (``on_bound_batch``), else on ``_unbound(point)``, so base data
    is computed on the samples alone and shared by every binding of a.  A
    single point carries no memo.  Callers must not write into the result.
    """
    @wraps(fn)
    def batched(*args):
        key = (batched,) + args[:-1]
        point = args[-1]
        if isinstance(point, Samples):
            # by the rule, an entry on a batch that binds a reads a and one
            # on the samples alone does not, so a hit needs no look at it
            found = point.memo.get(key)
            if found is None and point.parent is not None:
                found = point.parent.memo.get(key)
            if found is not None:
                return found
        for x in key:
            if getattr(x, "reads_a", False):
                break
        else:
            point = _unbound(point)
        value = fn(*args[:-1], point)
        if isinstance(point, Samples):
            point.memo[key] = value
        return value

    return batched


def on_bound_batch(fn):
    """``on_batch`` for a function that reads a where ``point`` binds it
    (``point[A]``): it is computed and memoised on that bound batch."""
    fn.reads_a = True
    return on_batch(fn)


def _reads_a(exprs) -> bool:
    return any(A in coordinates_of(e) for e in exprs)


def _distinct(exprs) -> tuple:
    """(trees, rows): the distinct trees of ``exprs`` in first-seen order,
    and the row in ``trees`` of each entry, an intp array.  A constant is
    keyed by the bits of its value, so 0.0 and -0.0 are two rows and equal
    NaNs one; any other tree by equality."""
    rows, trees, index = {}, [], []
    for e in exprs:
        key = (Const, struct.pack("<d", e.value)) if isinstance(e, Const) else e
        row = rows.setdefault(key, len(trees))
        if row == len(trees):
            trees.append(e)
        index.append(row)
    return tuple(trees), np.array(index, dtype=np.intp)


def _evaluate_all(trees, point) -> np.ndarray:
    """The table of ``trees`` at ``point``: row k holds trees[k], in front
    of the sample axes, so the table is component-major.

    Each tree that is no constant is evaluated, in order, so a domain
    error names the same subtree and sample as evaluating each entry of a
    field would.  The sample axes are the broadcast of the shapes of those
    values, padded on the left with length-1 axes to the rank of
    ``point``'s: a constant reads no sample, so a table of constants has
    length-1 sample axes, and one that reads a alone has (A, 1).  The
    constants are written in one pass.
    """
    consts, values = {}, {}
    for k, e in enumerate(trees):
        if isinstance(e, Const):
            consts[k] = e.value
        else:
            values[k] = evaluate(e, point)
    # the values come in few distinct shapes; broadcasting each once is cheap
    shape = np.broadcast_shapes(*{np.shape(v) for v in values.values()})
    shape = (1,) * (len(_shape(point)) - len(shape)) + shape
    out = np.empty((len(trees),) + shape)
    for k, v in values.items():
        out[k] = v
    out[list(consts)] = np.array(list(consts.values())).reshape(
        (-1,) + (1,) * len(shape))
    return out


def _assemble(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The rows ``index`` of a component-major table, taken at once into a
    read-only component-major buffer of shape ``index.shape``, as its
    sample-major view: ``component_major`` of it is the buffer itself."""
    out = np.take(table, index.ravel(), axis=0).reshape(
        index.shape + table.shape[1:])
    out.flags.writeable = False
    return sample_major(out, index.ndim)


def _swap(t: np.ndarray) -> np.ndarray:
    return np.swapaxes(t, -1, -2)


def _refuse(bad, message: str, point) -> None:
    if np.any(bad):
        raise StructureError(f"{message} at {locate(point, bad)}")


class ChartManifold:
    """A coordinate chart with a symmetric expression-valued metric.

    Parameters
    ----------
    coords : sequence of coordinate names
    metric : nested sequence of Expr, metric[i][j] = g_ij; must be
        structurally symmetric
    constraints : sequence of Expr, each required to be > 0 on the domain
    name : label used in error messages and reports
    """

    def __init__(self, coords, metric, constraints=(), name="chart"):
        self.coords = tuple(coords)
        self.dim = len(self.coords)
        if self.dim == 0:
            raise StructureError("chart needs at least one coordinate")
        self.name = name
        self.metric = tuple(tuple(row) for row in metric)
        if len(self.metric) != self.dim or any(
            len(row) != self.dim for row in self.metric
        ):
            raise StructureError(f"metric of {name} is not {self.dim}x{self.dim}")
        for i in range(self.dim):
            for j in range(i):
                if self.metric[i][j] != self.metric[j][i]:
                    raise StructureError(
                        f"metric of {name} is not symmetric at entry ({i},{j})"
                    )
        self.constraints = tuple(constraints)
        # a (j, i) entry, j < i, is the tree of (i, j): differentiated once
        self.g = Field((self.metric[min(i, j)][max(i, j)]
                        for i in range(self.dim) for j in range(self.dim)),
                       (self.dim, self.dim))

    @cached_property
    def reads_a(self) -> bool:
        """Whether the metric or a constraint reads the symbol a."""
        return self.g.reads_a or _reads_a(self.constraints)

    @property
    def n(self) -> int:
        """Contact rank n for odd dimension 2n + 1."""
        if self.dim % 2 == 0:
            raise StructureError(f"{self.name} has even dimension {self.dim}")
        return (self.dim - 1) // 2

    def point(self, **values) -> dict:
        if set(values) != set(self.coords):
            raise StructureError(
                f"point must set exactly the coordinates {self.coords}"
            )
        return {c: float(values[c]) for c in self.coords}

    def contains(self, point):
        """Whether each sample lies in the domain (every constraint > 0).

        A sample is evaluated at a constraint only while the earlier ones
        hold there, so a constraint may be undefined where an earlier one
        already excludes the sample.  When one cannot be evaluated, the
        EvalError names the first sample, in order, that fails that way.
        """
        shape = _shape(point)
        flat = {k: np.broadcast_to(v, shape).reshape(-1) for k, v in point.items()}
        inside = np.ones(int(np.prod(shape)), dtype=bool)
        for c in self.constraints:
            alive = np.flatnonzero(inside)
            if alive.size == 0:
                break
            try:
                values = evaluate(c, {k: v[alive] for k, v in flat.items()})
            except EvalError:
                # a later constraint may be undefined at an earlier sample
                # than this one; settle which, sample by sample
                if inside.size > 1:
                    for i in range(inside.size):
                        self.contains({k: v[i] for k, v in flat.items()})
                raise
            inside[alive] = np.greater(values, 0.0)
        return inside.reshape(shape)[()]

    def _finite(self, values: np.ndarray, rank: int, what: str, point) -> np.ndarray:
        _refuse(~np.isfinite(max_abs(values, rank)),
                f"{what} of {self.name} not finite", point)
        return values

    def metric_values(self, point) -> np.ndarray:
        return self._finite(self.g.values(point), 2, "metric", point)

    def metric_partials(self, point) -> np.ndarray:
        return self._finite(self.g.partials(self.coords, point), 3,
                            "metric first partials", point)

    def metric_second_partials(self, point) -> np.ndarray:
        # only the curvature reads them, once per chart and batch, so they
        # are not memoised: d^4 N doubles are not kept for the run.  The
        # refusal reads the table of distinct trees, which is finite where
        # every entry is, and the mean of both orders is the one d^4 buffer
        trees, index = self.g.derivative(self.coords).derivative(
            self.coords).compact
        table = _evaluate_all(trees, point)
        self._finite(sample_major(table, 1), 1, "metric second partials",
                     point)
        return _mean_of_both_orders(table, index)

    @on_batch
    def metric_at_cached(self, point) -> MetricData:
        """Metric data at ``point``, memoised on a batch.

        The chart refuses non-finite components; positive definiteness is
        enforced by the pivots of the Gauss-Jordan elimination that gives
        the inverse (``_gauss_jordan``), and the inverse must reproduce the
        identity to 1e-10.  Failure raises StructureError naming the
        first offending sample.
        """
        g = symmetric(self.metric_values(point), point)
        inv, definite = _gauss_jordan(g)
        _refuse(~definite, f"metric of {self.name} not positive definite", point)
        # a batched matmul, not an einsum: it fuses each multiply-add, so
        # g inv - I keeps the error of an ill-conditioned inverse that a
        # sum of rounded products can cancel to zero
        _refuse(max_abs(g @ inv - np.eye(self.dim), 2) > _INVERSE_TOL,
                f"metric of {self.name} too ill-conditioned", point)
        return MetricData(g=g, inv=inv, dg=self.metric_partials(point))


def _gauss_jordan(g: np.ndarray) -> tuple:
    """(inverse, definite) of each symmetric matrix of ``g`` (only read):
    one Gauss-Jordan elimination without pivoting over the component-major
    rows of the augmented array [g | I], each step over whole sample rows.

    A symmetric matrix is positive definite exactly when every pivot, a
    ratio of leading principal minors, is positive; ``definite`` marks
    those samples (a NaN pivot fails), and the inverse means something
    there alone; a refused sample may divide by a zero pivot, so the
    elimination runs under ``np.errstate``.  The inverse comes back as the
    sample-major view of its own component-major buffer, the rows of
    [g | I]'s right half copied out as they lie, as an evaluated value
    does; on a diagonal g it is LAPACK's reciprocals 1/g_ii.
    """
    d = g.shape[-1]
    aug = np.zeros((d, 2 * d) + g.shape[:-2])
    sample_major(aug[:, :d], 2)[...] = g
    # the rows of aug, flat: aug[k, j] is row 2 d k + j, so I's ones are
    # rows d + (2d + 1) k and the pivots aug[k, k] rows (2d + 1) k
    flat = aug.reshape((2 * d * d,) + g.shape[:-2])
    flat[d::2 * d + 1] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(d):
            # step k reads column k and changes columns k + 1 .. d + k
            # alone: the columns left of k are eliminated (their entries
            # are never read again, and aug[k, k] keeps its pivot), and
            # row k is still zero right of column d + k
            row = aug[k, k + 1:d + k + 1]
            row /= aug[k, k]
            for rows in (aug[:k], aug[k + 1:]):
                if len(rows):
                    rows[:, k + 1:d + k + 1] -= rows[:, k, None] * row
    definite = (flat[::2 * d + 1] > 0.0).all(axis=0)
    return sample_major(np.ascontiguousarray(aug[:, d:]), 2), definite


# ---------------------------------------------------------------------------
# Curvature

def christoffel(manifold, point) -> np.ndarray:
    """Christoffel symbols Gamma[l, i, j] of the Levi-Civita connection,
    taken from the curvature bundle."""
    return curvature_bundle(manifold, point)["gamma"]


def _gamma_combo(dg: np.ndarray) -> np.ndarray:
    """combo[i, j, k] = d_i g_jk + d_j g_ik - d_k g_ij for dg[k,i,j] = d_k g_ij,
    in one component-major pass."""
    x = component_major(dg, 3)
    combo = x + x.swapaxes(0, 1)
    combo -= x.transpose((1, 2, 0) + tuple(range(3, x.ndim)))
    return sample_major(combo, 3)


_SYMMETRY_LABELS = (
    "antisymmetry in the second pair",
    "pair interchange symmetry",
    "first Bianchi identity",
)


def _curvature_symmetry_residuals(r04: np.ndarray) -> tuple:
    """(tol, worst) per sample of a first-pair block R04: the tolerance
    1e-10 max(1, max |R04|) and the largest |component| of each residual,
    in ``_SYMMETRY_LABELS`` order along the last axis of ``worst``.

    Antisymmetry in the first pair holds by construction.  Each residual
    is taken on the rows a < b, reading R[c, d, ...] of any pair (c, d)
    from the block with its sign.  The full tensor's second-pair residual
    has the same maximum; its interchange residual at a row a > b differs
    from the negated one at (b, a) by a second-pair residual, and its
    Bianchi residual by rounding alone, so the block guard bounds the
    full-tensor residuals to within the second-pair residual.
    """
    # component-major, so each pass runs over whole rows of samples, and
    # each residual, then its |x|, is written into the buffer of the
    # entries it reads, which is reduced once for all three; |R04| is then
    # written into the first of them
    r = component_major(r04, 3)
    x = _entries(r, *_block_reads(r.shape[1])[0])
    np.subtract(r, x[1], out=x[1])
    np.add(np.add(r, x[0], out=x[0]), x[2], out=x[2])
    np.add(r, r.swapaxes(1, 2), out=x[0])
    worst = sample_major(np.abs(x, out=x).max(axis=(1, 2, 3)), 1)
    scale = np.abs(r, out=x[0]).max(axis=(0, 1, 2))
    return _CURVATURE_SYMMETRY_TOL * np.maximum(scale, 1.0), worst


@cache
def _block_reads(d: int) -> tuple:
    """The entries of a full (0,4) tensor that the symmetry guard and the
    Ricci trace read from its first-pair block, as (rows, signs) for
    ``_entries``, built once per d and read-only: R[c, a, b, d],
    R[c, d, a, b] and R[b, c, a, d] at [(a < b), c, d], stacked, and
    R13[a, b, c, a] at [a, b, c]."""
    pairs = pair_index(d)

    def entry(w, x, y, z):
        rows = (pairs.row[w, x] * d + y) * d + z
        return rows, np.broadcast_to(pairs.sign[w, x], rows.shape)

    a, b = pairs.i[:, None, None], pairs.j[:, None, None]
    c, e = np.arange(d)[:, None], np.arange(d)
    guard = [np.stack(x) for x in zip(entry(c, a, b, e), entry(c, e, a, b),
                                      entry(b, c, a, e))]
    i = np.arange(d)
    trace = entry(i[:, None, None], i[:, None], i, i[:, None, None])
    for x in guard + list(trace):
        x.flags.writeable = False
    return tuple(guard), trace


def _entries(block: np.ndarray, rows, signs) -> np.ndarray:
    """signs times the component ``rows`` of a component-major block
    flattened to one component axis: whole rows of samples, in one take."""
    out = np.take(block.reshape((-1,) + block.shape[3:]), rows, axis=0)
    out *= signs[(...,) + (None,) * (block.ndim - 3)]
    return out


def _check_curvature_symmetries(r04: np.ndarray, name, point):
    tol, worst = _curvature_symmetry_residuals(r04)
    bad = ~(worst <= tol[..., None])  # a NaN residual fails too
    if np.any(bad):
        labels = _SYMMETRY_LABELS
        rows = bad.reshape(-1, len(labels))
        s = int(np.argmax(rows.any(axis=1)))
        k = int(np.argmax(rows[s]))
        raise StructureError(
            f"{labels[k]} fails on {name} at "
            f"{locate(point, bad.any(axis=-1))} "
            f"(residual {worst.reshape(-1, len(labels))[s, k]:.3e})"
        )


def _christoffel(inv, combo) -> np.ndarray:
    """Gamma[l, i, j] = (1/2) g^lk combo[i, j, k]."""
    gamma = contract("lk,ijk->lij", inv, combo)
    gamma *= 0.5
    return gamma


def _riemann(d2g, gamma, combo, inv) -> tuple:
    """R04 from the second metric partials and the Christoffel symbols, and
    R13 raised from it, both on their first-pair blocks.

    R04[a,b,c,d] = (1/2)(d_a d_c g_bd + d_b d_d g_ac - d_a d_d g_bc
                   - d_b d_c g_ad) + Gamma_l,bd Gamma^l_ac
                   - Gamma_l,ad Gamma^l_bc
    with Gamma_l,ij = (1/2) combo[i, j, l], and R13[a,b,c,l] = R04[a,b,c,d]
    g^ld.  Both are sample-major views of component-major arrays, and
    every temporary is the size of the block: no d^4 product is formed.
    d2g is read as the component-major buffer it is assembled into, at
    the pairs and at their swaps, and then let go, so a caller that hands
    over its only reference frees it before the products are formed.
    """
    pairs = pair_index(inv.shape[-1])
    s = component_major(d2g, 4)
    x, y = component_major(combo, 3), component_major(gamma, 3)
    rest = tuple(range(4, s.ndim))

    def second(a, b):
        # d_a d_c g_bd - d_a d_d g_bc at the pairs (a, b)
        u = s.transpose((0, 2, 1, 3) + rest)[a, b]
        return sample_major(u - u.swapaxes(1, 2), 3)

    def w(u, a, b):
        # w[a, b, c, d] = u + combo[b, d, l] Gamma^l_ac at the pairs (a, b),
        # so 2 R04 = w(a, b) - w(b, a)
        return plus(u, contract("pdl,plc->pcd", sample_major(x[b], 3),
                                sample_major(y.swapaxes(0, 1)[a], 3)))

    u_ab, u_ba = second(pairs.i, pairs.j), second(pairs.j, pairs.i)
    del d2g, s
    r04 = w(u_ab, pairs.i, pairs.j)
    r04 -= w(u_ba, pairs.j, pairs.i)
    r04 *= 0.5
    return contract("pcd,ld->pcl", r04, inv), r04


@on_batch
def curvature_bundle(manifold, point) -> dict:
    """All curvature data at ``point``, memoised on a batch.

    The keys are ``metric`` (the MetricData), ``gamma``, ``R13``, ``R04``,
    ``Ric`` and ``scal``, as in the module docstring.  The algebraic
    symmetries of R04 that its first-pair block does not hold by
    construction (antisymmetry in the second pair, pair interchange, first
    Bianchi) are verified on every evaluation.
    """
    m = manifold.metric_at_cached(point)
    combo = _gamma_combo(m.dg)
    gamma = _christoffel(m.inv, combo)
    # the second partials are handed over, so _riemann frees them once read
    r13, r04 = _riemann(manifold.metric_second_partials(point), gamma, combo,
                        m.inv)
    _check_curvature_symmetries(r04, manifold.name, point)
    # Ric[b, c] = R13[a, b, c, a] summed over a, from the signed diagonal
    # diag[a, b, c] (the block at a < b, its negative at a > b, zero at
    # a = b) summed in a as the full R13's a = d diagonal would be
    diag = _entries(component_major(r13, 3), *_block_reads(manifold.dim)[1])
    ric = contract("abc->bc", sample_major(diag, 3))
    return {
        "metric": m,
        "gamma": gamma,
        "R13": r13,
        "R04": r04,
        "Ric": symmetric(0.5 * (ric + _swap(ric)), point),
        "scal": trace(ric, m),
    }


# ---------------------------------------------------------------------------
# Fields

class Field:
    """Expression trees in row-major order with a component shape ``dims``,
    () for a scalar: the metric, phi, xi, eta and each scalar or vector.

    A field is compact: its distinct trees in first-seen order and, for
    each entry, its row among them, an intp ``index`` of shape ``dims``
    (``compact``, found on first use, so loading a config hashes no tree).
    Its values evaluate each distinct tree once and take the entries from
    that table at once; they are memoised on a batch by the field, and
    callers must not write into them.  Its exact partials are the field
    ``derivative`` builds once per coordinate tuple, on first use,
    differentiating each distinct tree once per coordinate (a mirrored
    metric entry or a shared zero is one tree); its second partials are
    the mean of both orders, taken on the distinct pairs of trees.
    """

    def __init__(self, exprs, dims):
        self.exprs = tuple(exprs)
        self.dims = tuple(dims)
        self._derivatives = {}

    @classmethod
    def _of(cls, trees: tuple, index: np.ndarray) -> "Field":
        """The field of distinct ``trees`` and their ``index``."""
        field = cls.__new__(cls)
        field.dims = index.shape
        field.compact = trees, index
        field._derivatives = {}
        return field

    @cached_property
    def compact(self) -> tuple:
        """(trees, index): the distinct trees and each entry's row."""
        trees, rows = _distinct(self.exprs)
        return trees, rows.reshape(self.dims)

    @cached_property
    def exprs(self) -> tuple:
        """The entries in row-major order; a field built by ``derivative``
        keeps only its compact form and lists them when asked."""
        trees, index = self.compact
        return tuple(trees[k] for k in index.ravel().tolist())

    @cached_property
    def reads_a(self) -> bool:
        return _reads_a(self.compact[0])

    @on_batch
    def values(self, point) -> np.ndarray:
        trees, index = self.compact
        return _assemble(_evaluate_all(trees, point), index)

    def derivative(self, coords) -> "Field":
        """The field of first partials, [k, ...] = d_k of each component:
        each distinct tree is differentiated once per coordinate, and the
        entries' rows are one gather of the rows of those partials."""
        coords = tuple(coords)
        if coords not in self._derivatives:
            trees, index = self.compact
            child, rows = _distinct([diff(e, c) for c in coords for e in trees])
            self._derivatives[coords] = Field._of(
                child, rows.reshape(len(coords), len(trees))[:, index])
        return self._derivatives[coords]

    def partials(self, coords, point) -> np.ndarray:
        """[k, ...] = d_k of each component at ``point``."""
        return self.derivative(coords).values(point)

    @on_batch
    def second_partials(self, coords, point) -> np.ndarray:
        """[k, l, ...] = d_k d_l of each component at ``point``, the mean
        of both orders, memoised on a batch."""
        trees, index = self.derivative(coords).derivative(coords).compact
        return _mean_of_both_orders(_evaluate_all(trees, point), index)


def _mean_of_both_orders(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The entries ``index`` [k, l, ...] of a field of second partials from
    the ``table`` of its trees, each the mean of the rows at [k, l, ...]
    and [l, k, ...]: mixed partials commute, so this takes
    evaluation-order noise away.  The mean is formed once per distinct
    pair of rows, as (t[i] + t[j]) * 0.5 with i <= j, and the entries are
    taken from those means at once: addition commutes bit for bit, and
    (x + x) * 0.5 = x keeps the l = k entries."""
    count, swapped = len(table), index.swapaxes(0, 1)
    codes = np.minimum(index, swapped) * count + np.maximum(index, swapped)
    pairs, rows = np.unique(codes.ravel(), return_inverse=True)
    first, second = np.divmod(pairs, count)
    mean = np.take(table, first, axis=0)
    mean += np.take(table, second, axis=0)
    mean *= 0.5
    return _assemble(mean, rows.reshape(index.shape))


class ScalarField(Field):
    """A scalar function given by one expression."""

    def __init__(self, expr: Expr):
        super().__init__((expr,), ())


class VectorField(Field):
    """A vector field given by one expression per component."""

    def __init__(self, components):
        components = tuple(components)
        super().__init__(components, (len(components),))


def lie_derivative_metric(manifold, field: VectorField, point) -> np.ndarray:
    """(L_V g)_ij at ``point``."""
    m = manifold.metric_at_cached(point)
    v = field.values(point)
    dv = field.partials(manifold.coords, point)
    return _lie_metric_numeric(m, v, dv, point)


def _lie_metric_numeric(m: MetricData, v, dv, point) -> np.ndarray:
    # g_kj d_i V^k is dV g; g_ik d_j V^k is its transpose, as g is symmetric
    dv_g = contract("ik,kj->ij", dv, m.g)
    out = contract("k,kij->ij", v, m.dg) + dv_g + _swap(dv_g)
    return symmetric(0.5 * (out + _swap(out)), point)


def grad(manifold, f: ScalarField, point) -> np.ndarray:
    """(grad f)^i = g^{ij} d_j f."""
    m = manifold.metric_at_cached(point)
    df = f.partials(manifold.coords, point)
    return contract("ij,j->i", m.inv, df)


@on_batch
def hessian(manifold, f: ScalarField, point) -> np.ndarray:
    """Hess(f)_ij = d_i d_j f - Gamma^k_ij d_k f, memoised on a batch."""
    gamma = christoffel(manifold, point)
    df = f.partials(manifold.coords, point)
    ddf = f.second_partials(manifold.coords, point)
    out = ddf - contract("kij,k->ij", gamma, df)
    return symmetric(0.5 * (out + _swap(out)), point)


@on_batch
def divergence(manifold, field: VectorField, point):
    """div V = d_i V^i + Gamma^i_ik V^k, memoised on a batch."""
    gamma = christoffel(manifold, point)
    v = field.values(point)
    dv = field.partials(manifold.coords, point)
    return contract("ii->", dv) + contract("iik,k->", gamma, v)


@on_batch
def laplacian(manifold, f: ScalarField, point):
    """Laplace-Beltrami operator, the metric trace of the Hessian, memoised
    on a batch."""
    return trace(hessian(manifold, f, point), manifold.metric_at_cached(point))


def gradient_lie_derivative(manifold, f: ScalarField, point) -> np.ndarray:
    """(L_{grad f} g)_ij, with the gradient field differentiated numerically
    through exact metric and scalar partials (no symbolic inverse metric)."""
    m = manifold.metric_at_cached(point)
    df = f.partials(manifold.coords, point)
    ddf = f.second_partials(manifold.coords, point)
    v = contract("ij,j->i", m.inv, df)
    # dv[a, i] = g^ik (d_a d_k f - d_a g_kj v^j), as d_a g^ik = -g^im
    # d_a g_mj g^jk
    dv = contract("ak,ik->ai", ddf - contract("akj,j->ak", m.dg, v), m.inv)
    return _lie_metric_numeric(m, v, dv, point)


# ---------------------------------------------------------------------------
# Almost contact metric structures

class AcmStructure:
    """An almost contact metric structure (phi, xi, eta, g) on a chart.

    ``phi`` is given as phi[i][j] = component along d_i of phi(d_j); ``xi``
    as a component list; ``eta`` defaults to the metric dual of xi.  The
    defining axioms are
        phi^2 = -I + eta (x) xi,   eta(xi) = 1,
        g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y),
    with phi(xi) = 0 and eta(phi(.)) = 0 following; ``validate`` reports the
    numerical residual of each at a point.
    """

    def __init__(self, manifold: ChartManifold, phi, xi, eta=None):
        self.manifold = manifold
        d = manifold.dim
        if d % 2 == 0:
            raise StructureError(
                f"{manifold.name} has even dimension {d}; an almost contact "
                "structure needs dimension 2n+1"
            )
        self.phi = tuple(tuple(row) for row in phi)
        self.xi = tuple(xi)
        if len(self.phi) != d or any(len(r) != d for r in self.phi) or len(self.xi) != d:
            raise StructureError("phi/xi shape does not match the chart dimension")
        if eta is None:
            eta = tuple(
                reduce(add, (mul(manifold.metric[i][j], self.xi[j])
                             for j in range(d)), Const(0.0))
                for i in range(d)
            )
        self.eta = tuple(eta)
        self.phi_field = Field((e for row in self.phi for e in row), (d, d))
        self.xi_field = VectorField(self.xi)
        self.eta_field = VectorField(self.eta)

    @property
    def n(self) -> int:
        return self.manifold.n

    @cached_property
    def reads_a(self) -> bool:
        """Whether the chart or one of phi, xi, eta reads the symbol a."""
        return self.manifold.reads_a or any(
            f.reads_a for f in (self.phi_field, self.xi_field, self.eta_field)
        )

    def phi_values(self, point) -> np.ndarray:
        return self.phi_field.values(point)

    def xi_values(self, point) -> np.ndarray:
        return self.xi_field.values(point)

    def eta_values(self, point) -> np.ndarray:
        return self.eta_field.values(point)

    def phi_partials(self, point) -> np.ndarray:
        """dphi[k, i, j] = d_k phi^i_j."""
        return self.phi_field.partials(self.manifold.coords, point)

    def validate(self, point) -> dict:
        """Residuals of the defining axioms at ``point`` (all should vanish)."""
        m = self.manifold.metric_at_cached(point)
        phi = self.phi_values(point)
        xi = self.xi_values(point)
        eta = self.eta_values(point)
        eye = np.eye(self.manifold.dim)
        phi_g_phi = contract("ik,kj->ij", phi_flat(self, point), phi)
        return {
            "phi-squared": max_abs(
                contract("ik,kj->ij", phi, phi) - (-eye + outer(xi, eta)), 2
            ),
            "eta-xi": np.abs(contract("i,i->", eta, xi) - 1.0),
            "eta-is-xi-flat": max_abs(eta - contract("ij,j->i", m.g, xi), 1),
            "phi-compatibility": max_abs(
                phi_g_phi - (m.g - outer(eta, eta)), 2
            ),
            "phi-xi": max_abs(contract("ij,j->i", phi, xi), 1),
            "eta-phi": max_abs(contract("i,ij->j", eta, phi), 1),
        }

    def acm_residual(self, point):
        return np.max(np.broadcast_arrays(*self.validate(point).values()), axis=0)


@on_batch
def phi_flat(structure: AcmStructure, point) -> np.ndarray:
    """g(phi d_i, d_j) = phi^m_i g_mj, the (0, 2) tensor phi^T g, memoised
    on a batch: the structure axioms, the Kenmotsu condition and the
    deformed nabla phi read it."""
    g = structure.manifold.metric_at_cached(point).g
    return contract("mi,mj->ij", structure.phi_values(point), g)


def covariant_derivative(manifold: ChartManifold, field: VectorField, point) -> np.ndarray:
    """nablaV[i, k] = (nabla_{d_i} field)^k = d_i V^k + Gamma^k_im V^m."""
    gamma = christoffel(manifold, point)
    v = field.values(point)
    dv = field.partials(manifold.coords, point)
    return dv + contract("kim,m->ik", gamma, v)


def nabla_phi_tensor(structure: AcmStructure, point) -> np.ndarray:
    """(nabla_i phi)^k_j as [i, k, j], from exact partials of phi and g."""
    gamma = christoffel(structure.manifold, point)
    phi = structure.phi_values(point)
    # dphi[i, k, j] = d_i phi^k_j since the derivative index comes first
    out = structure.phi_partials(point) + contract("kim,mj->ikj", gamma, phi)
    out -= contract("km,mij->ikj", phi, gamma)
    return out


@on_batch
def xi_derivatives(structure: AcmStructure, f: ScalarField, point) -> tuple:
    """xi(f) and xi(xi(f)) from exact partials of f and xi, memoised on a
    batch.

    xi(f) = xi^k d_k f and xi(xi(f)) = xi^k d_k xi^m d_m f
    + xi^k xi^m d_k d_m f.  Over a Kenmotsu base, where eta = g(xi, .) and
    nabla_xi xi = 0, these are eta(grad f) and Hess(f)(xi, xi), so every
    closed form in base data reads them from here.
    """
    coords = structure.manifold.coords
    xi = structure.xi_values(point)
    df = f.partials(coords, point)
    xixif = (
        contract("k,km,m->", xi, structure.xi_field.partials(coords, point), df)
        + contract("k,m,km->", xi, xi, f.second_partials(coords, point))
    )
    return contract("k,k->", xi, df), xixif


@on_batch
def kenmotsu_details(structure: AcmStructure, point) -> dict:
    """Residuals of the Kenmotsu condition and its first corollary.

    The defining condition is
        (nabla_X phi) Y = g(phi X, Y) xi - eta(Y) phi X,
    and the corollary checked alongside is nabla xi = I - eta (x) xi.
    Memoised on a batch.
    """
    phi = structure.phi_values(point)
    xi = structure.xi_values(point)
    eta = structure.eta_values(point)
    nabla_phi = nabla_phi_tensor(structure, point)
    # target: g(phi d_i, d_j) xi^k - eta_j phi^k_i
    target = (contract("ij,k->ikj", phi_flat(structure, point), xi)
              - contract("j,ki->ikj", eta, phi))
    nabla_xi = covariant_derivative(structure.manifold, structure.xi_field, point)
    target_xi = np.eye(structure.manifold.dim) - outer(eta, xi)
    return {
        "nabla-phi": max_abs(nabla_phi - target, 3),
        "nabla-xi": max_abs(nabla_xi - target_xi, 2),
    }


def kenmotsu_residual(structure: AcmStructure, point):
    """Largest residual of the Kenmotsu condition (NaN if any is)."""
    details = kenmotsu_details(structure, point)
    return np.maximum(details["nabla-phi"], details["nabla-xi"])


# ---------------------------------------------------------------------------
# Sampling

def sample_batch(manifold, box, count, seed) -> Samples:
    """Deterministic uniform samples in ``box`` lying in the chart domain.

    ``box`` maps each coordinate to (lo, hi).  Rejection sampling enforces
    the domain constraints.  Candidates are drawn in blocks of exactly the
    number still missing, which yields the same doubles as drawing them one
    by one, so a given seed always yields the same points.  A constraint
    that cannot be evaluated, or a box whose width overflows, raises
    StructureError naming the chart and the constraint subtree and sample,
    or the coordinate.
    """
    rng = np.random.default_rng(seed)
    lows = np.array([box[c][0] for c in manifold.coords])
    highs = np.array([box[c][1] for c in manifold.coords])
    for c in manifold.coords:
        if not np.isfinite(float(box[c][1]) - float(box[c][0])):
            raise StructureError(f"sampling box of {manifold.name} is too "
                                 f"wide in {c}: {box[c]} has no finite width")
    limit = 1000 * count + 1000
    blocks = []
    accepted = drawn = 0
    while accepted < count:
        if drawn >= limit:
            raise StructureError(
                f"could not draw {count} points inside the domain of "
                f"{manifold.name}; box {box} may miss the domain"
            )
        k = min(count - accepted, limit - drawn)
        draw = rng.uniform(lows, highs, size=(k, manifold.dim))
        drawn += k
        try:
            inside = manifold.contains(dict(zip(manifold.coords, draw.T)))
        except EvalError as err:
            raise StructureError(
                f"domain constraint of {manifold.name} cannot be evaluated: {err}"
            ) from err
        blocks.append(draw[inside])
        accepted += int(np.count_nonzero(inside))
    points = np.concatenate(blocks)
    return Samples({
        c: np.ascontiguousarray(points[:, i]) for i, c in enumerate(manifold.coords)
    })
