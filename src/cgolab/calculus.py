"""Wirtinger derivatives, Laplacian, and boundary traces on tensor grids.

First derivatives use 4th-order centered stencils in the interior and
2nd-order one-sided stencils on the two outermost node layers.  The
Laplacian is the classical 5-point stencil; the factorization
``lap = 4 * dz(dzbar(.))`` holds to stencil accuracy and is exercised in
the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import GridError
from .grid import BoundaryPartition, _INWARD_STEP, _edge_indices, check_same
from .fields import VectorField


def _diff(data: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative along x (axis 0) or y (axis 1), broadcasting trailing axes."""
    if data.shape[axis] < 5:
        raise GridError("grid too small for the derivative stencil")
    f = np.moveaxis(data, axis, 0)
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
    out[1] = (f[2] - f[0]) / (2 * h)
    out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
    out[-2] = (f[-1] - f[-3]) / (2 * h)
    return np.moveaxis(out, 0, axis)


def _diff2(data: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative, 3-point centered; one-sided 2nd order at the edges."""
    if data.shape[axis] < 5:
        raise GridError("grid too small for the derivative stencil")
    f = np.moveaxis(data, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[:-2] - 2 * f[1:-1] + f[2:]) / (h * h)
    out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / (h * h)
    out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / (h * h)
    return np.moveaxis(out, 0, axis)


def dz_array(data: np.ndarray, grid) -> np.ndarray:
    """Wirtinger d/dz = (d/dx - i d/dy)/2 on raw samples."""
    return 0.5 * (_diff(data, grid.h_x, 0) - 1j * _diff(data, grid.h_y, 1))


def dzbar_array(data: np.ndarray, grid) -> np.ndarray:
    """Wirtinger d/dzbar = (d/dx + i d/dy)/2 on raw samples."""
    return 0.5 * (_diff(data, grid.h_x, 0) + 1j * _diff(data, grid.h_y, 1))


def wirtinger_pair(data: np.ndarray, grid) -> tuple[np.ndarray, np.ndarray]:
    """(dz, dzbar) of raw samples from one d/dx and one d/dy, bit for bit
    equal to ``dz_array`` and ``dzbar_array``."""
    dx, idy = _diff(data, grid.h_x, 0), 1j * _diff(data, grid.h_y, 1)
    return 0.5 * (dx - idy), 0.5 * (dx + idy)


def laplacian_array(data: np.ndarray, grid) -> np.ndarray:
    return _diff2(data, grid.h_x, 0) + _diff2(data, grid.h_y, 1)


def trace_boundary(f: VectorField, part: BoundaryPartition, label: str) -> np.ndarray:
    """Samples of ``f`` at the nodes of the labeled arcs, in arc order.

    Returns shape (n_nodes, N).
    """
    check_same(f, part)
    ii, jj = part.nodes(label)
    return np.array(f.data[ii, jj, :])


def normal_derivative(f: VectorField, part: BoundaryPartition, label: str) -> np.ndarray:
    """2nd-order one-sided outward normal derivative at labeled nodes.

    (3 u0 - 4 u1 + u2) / (2h), with u_k the sample k layers inside the edge.
    Returns shape (n_nodes, N), in arc order.
    """
    check_same(f, part)
    g = f.grid
    d = f.data
    out = []
    for edge in part.arcs(label):
        i, j = _edge_indices(g, edge)
        di, dj = _INWARD_STEP[edge]
        h = g.h_x if di else g.h_y
        out.append((3 * d[i, j] - 4 * d[i + di, j + dj]
                    + d[i + 2 * di, j + 2 * dj]) / (2 * h))
    return np.concatenate(out, axis=0)
