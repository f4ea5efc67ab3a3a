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


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a whole array by einsum's loop: np.linalg.norm's BLAS
    dot sums in an order, and so to last bits, that follow the thread count."""
    v = np.ascontiguousarray(x).view(float).ravel()
    return float(np.sqrt(np.einsum("i,i->", v, v)))


# the forward solver's trace-part series takes at most 4 terms; a Vekua
# series that needs over 30 contracts so slowly that GMRES is faster
_SERIES_RTOL = 1e-13
_SERIES_STALL = 0.8
_SERIES_CAP = 30


def _residual_series(apply, precondition, b: np.ndarray, norm):
    """x = M b, then x <- x + M (b - apply(x)), M = ``precondition``.  ``norm``
    gives one norm or one per column, and each stops on its own: when its
    residual norm(b - apply(x)) / norm(b) is <= _SERIES_RTOL, a term leaves it
    at >= _SERIES_STALL times its last (the first against 1, the residual of
    x = 0), or on a NaN, which fails every test; a stopped column's residual
    is zeroed, so it takes no further term.  All stop after _SERIES_CAP terms.
    Returns x, its relative residual(s) and the number of terms after M b."""
    b_norm = np.maximum(norm(b), 1e-300)
    x = precondition(b)
    prev, run, terms = 1.0, True, 0
    while True:
        r = b - apply(x)
        res = norm(r) / b_norm
        run = run & (_SERIES_RTOL < res) & (res < _SERIES_STALL * prev)
        if terms == _SERIES_CAP or not np.any(run):
            return x, res, terms
        if not np.all(run):
            r[..., ~run] = 0  # in place: M r adds zero to the stopped columns
        prev = res
        x += precondition(r)
        del r  # not held alive through the next apply(x): one field less at peak
        terms += 1


def as_data(g, *others) -> np.ndarray:
    """Complex samples of a field or raw array ``g``, after ``check_same(*others, g)``."""
    check_same(*others, g)
    return np.asarray(getattr(g, "data", g), dtype=complex)


def same_kind(template, grid: Grid2D, data: np.ndarray):
    """Wrap raw ``data`` as a field of the kind of ``template``; arrays stay raw."""
    if isinstance(template, _Field):
        return type(template)(grid, data)
    return data
