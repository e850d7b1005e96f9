"""Dense tensors and metric data at one point or at a batch of points.

Conventions used across the package:

* a (p, q) tensor is stored as a dense ndarray whose first p tensor axes
  are the contravariant (upper) indices and whose last q axes are the
  covariant (lower) ones;
* data for a batch of N sample points carries one leading sample axis in
  front of the tensor axes, so (N, d, d) holds a (0, 2) tensor per sample;
  the functions here work on either, contracting with ``contract`` and
  broadcast products;
* a sample axis has length N, or 1 where a value reads no coordinate: a
  batched value's sample axes are the broadcast of those of what it is
  computed from, so a constant metric is evaluated once, not once per
  sample, and every function here takes operands whose sample axes differ
  in length and returns their broadcast (``plus`` sums into a buffer
  only when that does not widen it);
* that sample-major index order is the API, not always the memory layout:
  an elementwise pass over a rank-4 tensor (a sum of index permutations,
  a Kulkarni-Nomizu product, a max over components) runs on a
  component-major array (``component_major``), whose sample axes are
  innermost, so each numpy inner loop runs over a whole row of samples
  rather than over d components; its result is handed back as the
  sample-major view (``sample_major``) of that buffer, so callers must not
  assume a result is contiguous.  Evaluated values (the metric, its
  partials, phi, xi, eta and every field) are such views too, each tree
  one row of its buffer, so ``component_major`` of one is that memoised,
  read-only buffer itself, not a copy;
* every (0, 4) tensor of the package (the curvature R04, each
  Kulkarni-Nomizu product, the deformed curvature and the soliton
  residuals built from them) is antisymmetric in its first pair by
  construction, and is stored on its first-pair block x[(a < b), c, d]:
  P = d(d-1)/2 rows of (c, d) components, in the order of ``pair_index``,
  rank 3 to ``max_abs``.  The full tensor's rows with a > b are the exact
  negatives of these (x - y = -(y - x), and products and sums commute
  with negation exactly) and its rows with a = b exact zeros, so a max
  over the block's components is the max over the full tensor's, bit for
  bit.  Every rank-4 kernel computes the block alone, in buffers the size
  of the block (P d^2 values per sample): no d^4 product and no array of
  2P rows of pairs and their swaps is formed;
* a contraction (a Hilbert-Schmidt raise or pairing, a metric trace, a
  product of (0, 2), (1, 1) and (1, 2) tensors, a Lie derivative, the
  curvature's Gamma Gamma term and its R13 raise) is one ``contract``
  call, written in component indices alone
  (``contract("ik,kj->ij", a, b)``) on sample-major operands.  It is the
  package's one ``np.einsum``: it runs over the ``component_major``
  operands with the sample axes last (``"ik...,kj...->ij..."``), so each
  of its passes runs over whole rows of samples, and returns the
  sample-major view of its result.  An operand that is itself such a view
  (an evaluated value, a kernel's result) is not copied.  Each output
  element is then the sum of its terms in the order of the subscripts,
  from the first term on, where the per-sample products this replaced
  summed in an order of their own: a sum with one nonzero term, as on a
  diagonal metric, keeps its bits, and others move at round-off.  On a batch
  whose every operand is sample-free, numpy reduces the components of
  its one sample in an order of its own.  Only the metric's inverse
  guard stays a batched matmul (``geometry``);
* the curvature (0, 4) index order is R(X, Y, Z, W) = g(R(X, Y)Z, W) with
  slots stored in that order;
* the Hilbert-Schmidt pairing of two (0, 2) tensors is
  g^{ik} g^{jl} T1_{ij} T2_{kl}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .expr import locate

__all__ = [
    "TensorValue", "MetricData", "StructureError",
    "max_abs", "symmetric", "outer", "kulkarni_nomizu", "pair_index",
    "hs_raise", "hs_pair", "hs_inner", "trace",
    "component_major", "sample_major", "plus",
]
# ``contract`` is not exported: ``perfbench/tracing.py`` wraps every
# exported function another layer calls, and each contraction's time
# belongs to the layer that asks for it

_SYMMETRY_TOL = 1e-12


class StructureError(Exception):
    """A structural invariant failed (degenerate metric, bad valence, ...)."""


@dataclass(frozen=True, eq=False)
class TensorValue:
    """Components of a (p, q) tensor at a single point."""

    p: int
    q: int
    data: np.ndarray
    symmetric: bool = field(default=False)

    def __post_init__(self):
        array = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", array)
        if array.ndim != self.p + self.q:
            raise StructureError(
                f"valence ({self.p},{self.q}) needs {self.p + self.q} axes, "
                f"got {array.ndim}"
            )
        if array.ndim > 0:
            dims = set(array.shape)
            if len(dims) != 1:
                raise StructureError(f"ragged tensor shape {array.shape}")
        if not np.all(np.isfinite(array)):
            raise StructureError("non-finite tensor component")
        if self.symmetric:
            if (self.p, self.q) != (0, 2):
                raise StructureError("symmetry flag is for (0,2) tensors")
            scale = float(np.max(np.abs(array))) if array.size else 0.0
            if float(np.max(np.abs(array - array.T))) > _SYMMETRY_TOL * max(scale, 1.0):
                raise StructureError("tensor declared symmetric is not")

    @property
    def dim(self) -> int:
        return self.data.shape[0] if self.data.ndim else 0

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data)))


@dataclass(frozen=True, eq=False)
class MetricData:
    """Metric components and their first partials at a point or a batch.

    Attributes (each with the sample axis in front for a batch)
    ----------
    g : (d, d) metric components
    inv : (d, d) inverse metric, from a Gauss-Jordan elimination without
        pivoting that also decides positive definiteness
        (``geometry._gauss_jordan``)
    dg : (d, d, d) first partials, dg[k, i, j] = d_k g_ij
    """

    g: np.ndarray
    inv: np.ndarray
    dg: np.ndarray

    @property
    def dim(self) -> int:
        return self.g.shape[-1]


def max_abs(data, rank: int):
    """Largest |component| of each sample's rank-``rank`` tensor.

    Reduces the last ``rank`` axes; NaN anywhere in a sample's tensor gives
    NaN for that sample.  With at most 27 components, |data| is taken
    once, into one leading component axis (one pass, no reshaping copy,
    for a component-major view), so the reduction is a few elementwise
    maxima over whole sample arrays rather than one short reduction per
    sample.  More components are reduced in the layout they come in, so a
    component-major view is not copied, and as max(max x, -min x), which
    is max |x| exactly and needs no |x| array.
    """
    if not rank:
        return np.abs(data)
    k = data.ndim - rank
    lead = data.shape[:k]
    size = math.prod(data.shape[k:])
    if size > 27:
        axes = tuple(range(k, data.ndim))
        # + 0.0 turns a -0.0 maximum into the 0.0 that |x| gives
        return np.maximum(data.max(axis=axes), -data.min(axis=axes)) + 0.0
    # the component axes in front, as one C-ordered |x| pass: a
    # sample-major view of a component-major buffer is read in its own order
    components = np.abs(
        data.transpose(tuple(range(k, data.ndim)) + tuple(range(k))), order="C"
    )
    return components.reshape((size,) + lead).max(axis=0)


def symmetric(data, point) -> np.ndarray:
    """``data`` checked as symmetric (0, 2) tensors, sample by sample.

    Each sample's components must be finite and symmetric to 1e-12
    relative to max(1, max |component|).  Failure raises StructureError
    naming the first offending sample of ``point``.
    """
    # one reduction gives both the finiteness test and the scale
    scale = max_abs(data, 2)
    finite = np.isfinite(scale)
    if not np.all(finite):
        raise StructureError(
            f"non-finite tensor component at {locate(point, ~finite)}"
        )
    asym = max_abs(data - np.swapaxes(data, -1, -2), 2)
    bad = asym > _SYMMETRY_TOL * np.maximum(scale, 1.0)
    if np.any(bad):
        raise StructureError(
            f"tensor declared symmetric is not at {locate(point, bad)}"
        )
    return data


def plus(x: np.ndarray, y) -> np.ndarray:
    """x + y, summed into the buffer of ``x`` unless ``y`` widens its
    sample axes; the caller must own ``x``."""
    if np.broadcast_shapes(x.shape, np.shape(y)) != x.shape:
        return x + y
    x += y
    return x


def outer(u, v) -> np.ndarray:
    """u (x) v of two (covariant or contravariant) vectors, per sample."""
    return u[..., :, None] * v[..., None, :]


def component_major(x, rank: int, ndim: int = None) -> np.ndarray:
    """``x`` with its last ``rank`` (component) axes moved in front of its
    sample axes, as a contiguous array.

    The sample axes are padded on the left with length-1 axes up to
    ``ndim`` of them, so two such arrays broadcast as their sample-major
    originals do.  A sample-major view of a component-major array (see
    ``sample_major``) comes back without a copy.
    """
    x = np.asarray(x, dtype=float)
    k = x.ndim - rank
    if ndim is not None and ndim > k:
        x = x.reshape((1,) * (ndim - k) + x.shape)
        k = ndim
    return np.ascontiguousarray(x.transpose(_moved(k, rank)))


def sample_major(x: np.ndarray, rank: int) -> np.ndarray:
    """The view of a component-major array with its sample axes in front
    of its ``rank`` component axes: the index order of the API."""
    return x.transpose(_moved(rank, x.ndim - rank))


def contract(spec: str, *operands):
    """The contraction ``spec`` of sample-major ``operands``, written in
    component indices alone (``"ik,kj->ij"``): each term's length is its
    operand's rank, and the sample axes broadcast as in the operands.

    It is the einsum of ``spec`` with ``...`` after every term, over the
    ``component_major`` operands (each a view when it is already laid out
    so), and returns the sample-major view of its result.
    """
    subscripts, ranks, rank = _parsed(spec)
    return sample_major(
        np.einsum(subscripts, *map(component_major, operands, ranks)), rank)


@cache
def _parsed(spec: str) -> tuple:
    """The einsum subscripts of ``spec`` with the sample axes last, its
    operands' ranks and its result's rank."""
    inputs, output = spec.split("->")
    terms = inputs.split(",")
    return (",".join(t + "..." for t in terms) + "->" + output + "...",
            tuple(map(len, terms)), len(output))


@cache
def _moved(k: int, rank: int) -> tuple:
    """The axis order that moves the last ``rank`` of k + rank axes in
    front of the first k."""
    return tuple(range(k, k + rank)) + tuple(range(k))


class Pairs(NamedTuple):
    """The first-pair block of dimension d (see the module docstring)."""

    i: np.ndarray  # (P,): row p is the pair (i[p], j[p]), i < j
    j: np.ndarray
    row: np.ndarray  # (d, d): x[a, b] = sign[a, b] * block[row[a, b]]
    sign: np.ndarray


@cache
def pair_index(d: int) -> Pairs:
    """The index arrays of the first-pair block of dimension ``d``, built
    once per d; they are read-only."""
    i, j = np.triu_indices(d, 1)
    row = np.zeros((d, d), dtype=np.intp)
    sign = np.zeros((d, d))
    row[i, j] = row[j, i] = np.arange(i.size)
    sign[i, j], sign[j, i] = 1.0, -1.0
    out = Pairs(i, j, row, sign)
    for x in out:
        x.flags.writeable = False
    return out


def kulkarni_nomizu(a, b) -> np.ndarray:
    """Kulkarni-Nomizu product of two symmetric (0, 2) tensors, on its
    first-pair block.

    (A o B)(X,Y,Z,W) = A(X,W)B(Y,Z) + A(Y,Z)B(X,W)
                       - A(X,Z)B(Y,W) - A(Y,W)B(X,Z)

    Each kept entry is (A_ad B_bc - A_ac B_bd) + (A_bc B_ad - A_bd B_ac).
    The product is formed component-major in buffers the size of the block
    and returned as a sample-major view; writing into it writes into that
    buffer alone.
    """
    ndim = max(np.ndim(a), np.ndim(b)) - 2
    a = component_major(a, 2, ndim)
    b = component_major(b, 2, ndim)
    pairs = pair_index(a.shape[0])
    # x[p, c, d] = A_ad B_bc and y[p, c, d] = A_bc B_ad at the pairs (a, b),
    # so the entry is x less x with c and d swapped plus y less y with c
    # and d swapped
    x = a[pairs.i][:, None, :] * b[pairs.j][:, :, None]
    y = a[pairs.j][:, :, None] * b[pairs.i][:, None, :]
    out = x - x.swapaxes(1, 2)
    out += np.subtract(y, y.swapaxes(1, 2), out=x)
    return sample_major(out, 3)


def hs_raise(tensors, m) -> list:
    """g^{ik} T_kl g^{lj} of each (0, 2) tensor T in ``tensors`` under the
    metric ``m`` (anything with an ``inv`` attribute), as (g^{-1} T) g^{-1};
    each broadcasts against ``m.inv``."""
    return [contract("il,lj->ij", contract("ki,kl->il", m.inv, t), m.inv)
            for t in tensors]


def hs_pair(raised, t2):
    """The pairing of a tensor raised by ``hs_raise`` with ``t2``."""
    return contract("ij,ij->", raised, t2)


def hs_inner(t1, t2, m):
    """Hilbert-Schmidt pairing of two (0, 2) tensors under the metric ``m``."""
    return hs_pair(hs_raise((t1,), m)[0], t2)


def trace(t, m):
    """The metric trace g^{ij} T_ij of (0, 2) tensors under the metric
    ``m``."""
    return contract("ij,ij->", m.inv, t)
