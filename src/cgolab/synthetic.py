"""Seeded smooth synthetic fields with closed-form derivatives.

Coefficient matrices and test functions used by the experiments must be
resamplable on any grid (refinement ladders compare discretizations of
one continuum object), so they are stored as low-order trigonometric
polynomials with exact derivative evaluators rather than as node samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid2D
from .fields import VectorField, MatrixField

# 1D basis: 1, sin(pi t), cos(pi t), sin(2 pi t), cos(2 pi t)
N_MODES = 5


def _basis_1d(t: np.ndarray, order: int) -> np.ndarray:
    """Stack of the five basis functions differentiated ``order`` times.

    Returns shape (N_MODES,) + t.shape.
    """
    out = np.zeros((N_MODES,) + t.shape)
    ks = [0, 1, 1, 2, 2]
    for m in range(N_MODES):
        k = ks[m]
        w = k * np.pi
        if k == 0:
            out[m] = 1.0 if order == 0 else 0.0
            continue
        is_sin = m % 2 == 1
        # d/dt cycles sin -> cos -> -sin -> -cos
        phase = order % 4
        sign = w ** order
        if is_sin:
            fn = [np.sin, np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u)][phase]
        else:
            fn = [np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u), np.sin][phase]
        out[m] = sign * fn(w * t)
    return out


@dataclass(frozen=True)
class TrigSpec:
    """Trig polynomial with values of any trailing shape.

    coeffs has shape (N_MODES, N_MODES) + value_shape; the scalar case has
    value_shape == ().
    """

    coeffs: np.ndarray

    @property
    def value_shape(self) -> tuple:
        return self.coeffs.shape[2:]

    def eval(self, X: np.ndarray, Y: np.ndarray, dx: int = 0, dy: int = 0) -> np.ndarray:
        bx = _basis_1d(X[:, 0], dx)         # (M, nx)
        by = _basis_1d(Y[0, :], dy)         # (M, ny)
        # tensor contraction: out[x, y, ...] = sum_{m,n} bx[m,x] by[n,y] c[m,n,...]
        c = self.coeffs.reshape(N_MODES, N_MODES, -1)
        out = np.einsum("mx,ny,mnv->xyv", bx, by, c)
        return out.reshape(X.shape + self.value_shape)

    def sample(self, grid: Grid2D, dx: int = 0, dy: int = 0) -> np.ndarray:
        X, Y = grid.meshgrid()
        return self.eval(X, Y, dx, dy)

    def dz(self, grid: Grid2D) -> np.ndarray:
        return 0.5 * (self.sample(grid, 1, 0) - 1j * self.sample(grid, 0, 1))

    def dzbar(self, grid: Grid2D) -> np.ndarray:
        return 0.5 * (self.sample(grid, 1, 0) + 1j * self.sample(grid, 0, 1))

    def lap(self, grid: Grid2D) -> np.ndarray:
        return self.sample(grid, 2, 0) + self.sample(grid, 0, 2)

    def matrix_field(self, grid: Grid2D) -> MatrixField:
        return MatrixField(grid, self.sample(grid))

    def vector_field(self, grid: Grid2D) -> VectorField:
        return VectorField(grid, self.sample(grid))


def _decay_weights() -> np.ndarray:
    ks = np.array([0, 1, 1, 2, 2], dtype=float)
    return 1.0 / (1.0 + ks[:, None] + ks[None, :]) ** 2


def random_trig_spec(rng: np.random.Generator, value_shape: tuple = (),
                     amplitude: float = 1.0) -> TrigSpec:
    """Seeded random trig polynomial with smoothly decaying mode amplitudes."""
    shape = (N_MODES, N_MODES) + value_shape
    c = rng.standard_normal(shape)
    c = c + 1j * rng.standard_normal(shape)
    c = c * _decay_weights().reshape(N_MODES, N_MODES + 0, *([1] * len(value_shape)))
    scale = amplitude / max(np.abs(c).sum(), 1e-30)
    return TrigSpec(np.asarray(c * scale, dtype=complex))


def random_coefficient_specs(seed: int, n_sys: int, amplitude: float = 1.0):
    """(A, B, Q) specs for a random smooth coefficient triple."""
    rng = np.random.default_rng(seed)
    shape = (n_sys, n_sys)
    return tuple(random_trig_spec(rng, shape, amplitude) for _ in range(3))
