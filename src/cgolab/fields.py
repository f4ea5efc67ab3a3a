"""Complex field containers: N-vector and NxN-matrix samples per grid node.

Data layout: axis 0 is x, axis 1 is y, trailing axes are the system
dimensions.  Fields are immutable values; every operation returns a new
field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .grid import Grid2D, check_same


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _Field:
    """Complex samples per grid node; subclasses fix the trailing rank."""

    grid: Grid2D
    data: np.ndarray

    _rank = 0  # trailing system axes

    def __post_init__(self):
        d = np.asarray(self.data, dtype=complex)
        check_same(self.grid, d)
        if d.ndim == 2:
            d = d.reshape(d.shape + (1,) * self._rank)
        if d.ndim != 2 + self._rank or len(set(d.shape[2:])) > 1:
            raise GridError(f"bad {type(self).__name__} shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise GridError(f"{type(self).__name__} has non-finite entries")
        object.__setattr__(self, "data", _freeze(d))

    @property
    def n_sys(self) -> int:
        return self.data.shape[2]

    def with_data(self, data: np.ndarray):
        return type(self)(self.grid, data)

    def __sub__(self, other):
        check_same(self, other)
        return self.with_data(self.data - other.data)

    def conj(self):
        return self.with_data(np.conj(self.data))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data)))

    def l2(self) -> float:
        """Discrete L2 norm over the domain (trapezoid-weighted)."""
        w = self.grid.quad_weights()
        return weighted_l2(self.data, w.reshape(w.shape + (1,) * self._rank))


class VectorField(_Field):
    """Complex N-vector per node, data shape (nx, ny, N)."""

    _rank = 1


class MatrixField(_Field):
    """Complex NxN matrix per node, data shape (nx, ny, N, N)."""

    _rank = 2

    def matvec(self, v: VectorField) -> VectorField:
        """Pointwise matrix-vector product."""
        check_same(self, v)
        return VectorField(self.grid, pointwise(self.data, v.data))

    def matmat(self, other: "MatrixField") -> "MatrixField":
        """Pointwise matrix-matrix product."""
        check_same(self, other)
        return MatrixField(self.grid, pointwise(self.data, other.data))


def pointwise(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise m @ v for matrix samples m and vector, matrix or scalar samples v.

    Scalar samples, shape (nx, ny), are one component per node, for a 1 x 1 m.
    """
    if v.ndim == 2:
        return pointwise(m, v[:, :, None])[:, :, 0]
    if v.ndim == 3:
        return np.einsum("xyab,xyb->xya", m, v)
    return np.einsum("xyab,xybc->xyac", m, v)


def weighted_l2(x: np.ndarray, w: np.ndarray) -> float:
    """sqrt(sum(w |x|^2)), with ``w`` broadcast against ``x``."""
    return float(np.sqrt(np.sum(w * np.abs(x) ** 2)))


def as_data(g, *others) -> np.ndarray:
    """Complex samples of a field or raw array ``g``, after ``check_same(*others, g)``."""
    check_same(*others, g)
    return np.asarray(getattr(g, "data", g), dtype=complex)


def same_kind(template, grid: Grid2D, data: np.ndarray):
    """Wrap raw ``data`` as a field of the kind of ``template``; arrays stay raw."""
    if isinstance(template, _Field):
        return type(template)(grid, data)
    return data
