"""Pointwise dense tensors and metric data at a chart point.

Conventions used across the package:

* a (p, q) tensor is stored as a dense ndarray whose first p axes are the
  contravariant (upper) indices and whose last q axes are the covariant
  (lower) ones;
* the curvature (0, 4) index order is R(X, Y, Z, W) = g(R(X, Y)Z, W) with
  slots stored in that order;
* the Hilbert-Schmidt pairing of two (0, 2) tensors is
  g^{ik} g^{jl} T1_{ij} T2_{kl}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TensorValue", "MetricAtPoint", "StructureError",
    "metric_at", "kulkarni_nomizu", "hs_inner",
]

_SYMMETRY_TOL = 1e-12
_INVERSE_TOL = 1e-10


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
class MetricAtPoint:
    """Metric components and their first partials at one point.

    Attributes
    ----------
    g : (d, d) metric components
    inv : (d, d) inverse metric, computed by LU factorization
    dg : (d, d, d) first partials, dg[k, i, j] = d_k g_ij
    """

    g: np.ndarray
    inv: np.ndarray
    dg: np.ndarray

    @property
    def dim(self) -> int:
        return self.g.shape[0]


def metric_at(manifold, point) -> MetricAtPoint:
    """Evaluate a manifold's metric and its partials at ``point``.

    The manifold refuses non-finite components; positive definiteness is
    enforced by attempting a Cholesky factorization.  Failure raises
    StructureError naming the point.
    """
    g = manifold.metric_values(point)
    dim = g.shape[0]
    scale = max(float(np.max(np.abs(g))), 1.0)
    if float(np.max(np.abs(g - g.T))) > _SYMMETRY_TOL * scale:
        raise StructureError(f"metric not symmetric at {point}")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise StructureError(f"metric not positive definite at {point}") from None
    inv = np.linalg.inv(g)
    residual = float(np.max(np.abs(g @ inv - np.eye(dim))))
    if residual > _INVERSE_TOL:
        raise StructureError(f"metric too ill-conditioned at {point}")
    return MetricAtPoint(g=g, inv=inv, dg=manifold.metric_partials(point))


def kulkarni_nomizu(t1: TensorValue, t2: TensorValue) -> TensorValue:
    """Kulkarni-Nomizu product of two symmetric (0, 2) tensors.

    (T1 o T2)(X,Y,Z,W) = T1(X,W)T2(Y,Z) + T1(Y,Z)T2(X,W)
                         - T1(X,Z)T2(Y,W) - T1(Y,W)T2(X,Z)
    """
    for t in (t1, t2):
        if (t.p, t.q) != (0, 2):
            raise StructureError("Kulkarni-Nomizu product needs (0,2) tensors")
    a, b = t1.data, t2.data
    out = (
        np.einsum("ad,bc->abcd", a, b)
        + np.einsum("bc,ad->abcd", a, b)
        - np.einsum("ac,bd->abcd", a, b)
        - np.einsum("bd,ac->abcd", a, b)
    )
    return TensorValue(0, 4, out)


def hs_inner(t1: TensorValue, t2: TensorValue, m: MetricAtPoint) -> float:
    """Hilbert-Schmidt pairing of two (0, 2) tensors under the metric ``m``."""
    for t in (t1, t2):
        if (t.p, t.q) != (0, 2):
            raise StructureError("Hilbert-Schmidt pairing needs (0,2) tensors")
    return float(np.einsum("ik,jl,ij,kl->", m.inv, m.inv, t1.data, t2.data))
