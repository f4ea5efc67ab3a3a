"""Rectangular tensor grids and boundary geometry.

The domain is a rectangle, by default the unit square.  Node ``(i, j)``
sits at ``z = x_min + i*h_x + 1j*(y_min + j*h_y)``; axis 0 of every field
array is the x index, axis 1 the y index.

Boundary ownership convention: the bottom and top edges own their corner
nodes; the left and right edges own only the nodes strictly between the
corners.  Every boundary node therefore belongs to exactly one edge.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError

EDGES = ("bottom", "right", "top", "left")

GAMMA_TILDE = "gamma_tilde"
GAMMA_0 = "gamma_0"


def is_int(v) -> bool:
    """An integer, a bool excluded."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_finite_real(v) -> bool:
    """A finite real number, a bool excluded."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid on the rectangle [x_min,x_max] x [y_min,y_max]."""

    nx: int
    ny: int
    x_min: float = 0.0
    x_max: float = 1.0
    y_min: float = 0.0
    y_max: float = 1.0

    def __post_init__(self):
        if not (is_int(self.nx) and is_int(self.ny) and self.nx >= 9 and self.ny >= 9):
            raise GridError(f"need integers nx, ny >= 9, got {self.nx!r}, {self.ny!r}")
        if not (all(map(is_finite_real, (self.x_min, self.x_max, self.y_min, self.y_max)))
                and self.x_max > self.x_min and self.y_max > self.y_min):
            raise GridError("grid bounds must be finite with x_min < x_max, y_min < y_max")

    @property
    def h_x(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def h_y(self) -> float:
        return (self.y_max - self.y_min) / (self.ny - 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) arrays of shape (nx, ny)."""
        return np.meshgrid(self.xs(), self.ys(), indexing="ij")

    def nodes_z(self) -> np.ndarray:
        """Complex coordinates z = x + iy, shape (nx, ny)."""
        X, Y = self.meshgrid()
        return X + 1j * Y

    def cell_area(self) -> float:
        return self.h_x * self.h_y

    def quad_weights(self) -> np.ndarray:
        """Tensor trapezoid weights, shape (nx, ny), summing to the area."""
        w = np.ones(self.shape)
        w[0, :] *= 0.5
        w[-1, :] *= 0.5
        w[:, 0] *= 0.5
        w[:, -1] *= 0.5
        return w * self.cell_area()

    def interior(self) -> tuple[slice, slice]:
        """Index window without the boundary collar: 5% of each side, at least 3 nodes.

        The transform quadrature loses an order in that collar, so
        interior error measures read this window.
        """
        mx, my = (max(3, int(np.ceil(0.05 * (n - 1)))) for n in self.shape)
        return np.s_[mx:-mx, my:-my]


def check_same(*args) -> None:
    """Refuse arguments that do not share one grid, or one system size N.

    An argument is a Grid2D; an object with a ``grid`` (a field, triple,
    partition, plan, cutoff, factorization or Cauchy data set), whose N,
    if any, is its ``n_sys``; raw samples, whose first two axes must be
    the grid's shape and whose third, if any, is N; or None, which is
    skipped.  Every public entry point taking two or more calls this first.
    """
    seen = []  # (name, grid or None, grid shape, N or None) per argument
    for a in args:
        g = a if isinstance(a, Grid2D) else getattr(a, "grid", None)
        if g is not None:
            seen.append((type(a).__name__, g, g.shape, getattr(a, "n_sys", None)))
        elif a is not None:
            s = np.shape(a)
            seen.append((f"samples of shape {s}", None, s[:2], (*s[2:3], None)[0]))
    for k, what in ((1, "grid"), (2, "grid shape"), (3, "system size N")):
        first, *rest = [t for t in seen if t[k] is not None] or [None]
        for t in rest:
            if t[k] != first[k]:
                raise GridError(f"{first[0]} and {t[0]} differ in {what}: "
                                f"{first[k]} against {t[k]}")


def _edge_indices(grid: Grid2D, edge: str) -> tuple[np.ndarray, np.ndarray]:
    nx, ny = grid.nx, grid.ny
    if edge == "bottom":
        return np.arange(nx), np.zeros(nx, dtype=int)
    if edge == "top":
        return np.arange(nx), np.full(nx, ny - 1)
    if edge == "left":
        return np.zeros(ny - 2, dtype=int), np.arange(1, ny - 1)
    if edge == "right":
        return np.full(ny - 2, nx - 1), np.arange(1, ny - 1)
    raise GridError(f"unknown edge {edge!r}")


# (di, dj) from an edge node to its neighbour one layer inside: the
# outward normal of the edge is minus this step
_INWARD_STEP = {"bottom": (0, 1), "top": (0, -1), "left": (1, 0), "right": (-1, 0)}


@dataclass(frozen=True)
class BoundaryPartition:
    """Split of the rectangle boundary into labeled arcs (whole edges).

    ``labels`` maps each edge name to GAMMA_TILDE or GAMMA_0.
    """

    grid: Grid2D
    labels: dict = field(default_factory=lambda: {e: GAMMA_TILDE for e in EDGES})

    def __post_init__(self):
        for e in EDGES:
            if e not in self.labels:
                raise GridError(f"edge {e!r} missing a label")
            if self.labels[e] not in (GAMMA_TILDE, GAMMA_0):
                raise GridError(f"bad label {self.labels[e]!r} for edge {e!r}")

    def arcs(self, label: str | None = None) -> list[str]:
        """Edge names in canonical order, optionally filtered by label."""
        return [e for e in EDGES if label is None or self.labels[e] == label]

    def nodes(self, label: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(i, j) index arrays over the (filtered) boundary, arc order."""
        idx = [_edge_indices(self.grid, e) for e in self.arcs(label)]
        if not idx:
            raise GridError(f"no boundary arcs with label {label!r}")
        ii, jj = zip(*idx)
        return np.concatenate(ii), np.concatenate(jj)

    def arc_weights(self, label: str) -> np.ndarray:
        """Trapezoid quadrature weights along the labeled arcs, node order."""
        ws = []
        for e in self.arcs(label):
            i, j = _edge_indices(self.grid, e)
            h = self.grid.h_x if e in ("bottom", "top") else self.grid.h_y
            w = np.full(len(i), h)
            w[0] *= 0.5
            w[-1] *= 0.5
            ws.append(w)
        return np.concatenate(ws)


def remark_partition(grid: Grid2D) -> BoundaryPartition:
    """Observed boundary on top and bottom, homogeneous data on the sides.

    This is the configuration of the gauge non-uniqueness experiment on
    the unit square.
    """
    return BoundaryPartition(grid, {
        "bottom": GAMMA_TILDE, "top": GAMMA_TILDE,
        "left": GAMMA_0, "right": GAMMA_0,
    })


@dataclass(frozen=True)
class CutoffFunction:
    """Real cutoff in [0, 1] vanishing identically outside ``support_box``.

    support_box = (x0, x1, y0, y1).
    """

    grid: Grid2D
    values: np.ndarray
    support_box: tuple[float, float, float, float]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        check_same(self.grid, v)
        if v.ndim != 2 or not np.isfinite(v).all():
            raise GridError("cutoff values must be one finite number per node")
        if v.min() < 0.0 or v.max() > 1.0:
            raise GridError("cutoff values must lie in [0, 1]")
        X, Y = self.grid.meshgrid()
        x0, x1, y0, y1 = self.support_box
        outside = (X < x0) | (X > x1) | (Y < y0) | (Y > y1)
        if np.any(v[outside] != 0.0):
            raise GridError("cutoff must vanish outside its support box")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def bump_cutoff(grid: Grid2D, center: complex, radius: float) -> CutoffFunction:
    """Smooth radial bump equal to exp(-r0^2/(r0^2-r^2)) scaled to peak 1."""
    Z = grid.nodes_z()
    r2 = np.abs(Z - center) ** 2
    r02 = radius * radius
    with np.errstate(divide="ignore", over="ignore"):
        v = np.where(r2 < r02,
                     np.exp(1.0 - r02 / np.maximum(r02 - r2, 1e-300)), 0.0)
    cx, cy = center.real, center.imag
    return CutoffFunction(grid, v, (cx - radius, cx + radius, cy - radius, cy + radius))


def plateau_cutoff(grid: Grid2D, center: complex, r_flat: float,
                   r_supp: float) -> CutoffFunction:
    """Cutoff identically 1 for r <= r_flat, 0 for r >= r_supp, smooth between."""
    if not r_flat < r_supp:
        raise GridError("need r_flat < r_supp")
    Z = grid.nodes_z()
    r = np.abs(Z - center)
    t = np.clip((r - r_flat) / (r_supp - r_flat), 0.0, 1.0)

    def s(u):
        # C^inf step: 0 at 0, 1 at 1
        with np.errstate(divide="ignore", over="ignore"):
            a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
            b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
        return a / (a + b)

    v = 1.0 - s(t)
    cx, cy = center.real, center.imag
    return CutoffFunction(grid, v,
                          (cx - r_supp, cx + r_supp, cy - r_supp, cy + r_supp))

