"""Sparse direct solver for the N-system and partial Cauchy data assembly.

The operator  lap(u) + 2 A dz(u) + 2 B dzbar(u) + Q u  is discretized with
the 5-point Laplacian and centered first derivatives.  Only the interior
unknowns form the square system K; the interior-to-boundary coupling C
moves Dirichlet data to the right-hand side, rhs - C u_B.  K is complex and
not symmetric, but its sparsity pattern is, so it is factored once per
coefficient triple by SuperLU in symmetric mode (minimum degree on A'+A,
static diagonal pivots).  Every solve checks its relative residual
against 1e-8; if the check or the static factorization fails, K is
factored again with COLAMD and partial pivoting and the solve repeated.
``cauchy_data`` solves all its boundary profiles as one block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import GridError, SingularSystemError
from .grid import EDGES, Grid2D, BoundaryPartition, GAMMA_TILDE, _edge_indices
from .fields import VectorField, MatrixField
from .calculus import normal_derivative, trace_boundary


@dataclass(frozen=True)
class CoefficientTriple:
    """The (A, B, Q) matrix coefficients of one elliptic operator.

    ``_derived`` caches fields computed from the coefficients alone.
    """

    a_coef: MatrixField
    b_coef: MatrixField
    q_coef: MatrixField
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        if not (self.a_coef.grid == self.b_coef.grid == self.q_coef.grid):
            raise GridError("coefficient grids differ")
        if not (self.a_coef.n_sys == self.b_coef.n_sys == self.q_coef.n_sys):
            raise GridError("coefficient system sizes differ")

    @property
    def grid(self) -> Grid2D:
        return self.a_coef.grid

    @property
    def n_sys(self) -> int:
        return self.a_coef.n_sys


def _stencil_blocks(coefs: CoefficientTriple):
    """(offset, NxN coupling block per interior node) of the 5-point operator.

    dz = d_x - i d_y and dzbar = d_x + i d_y are twice the Wirtinger
    derivatives, so the blocks discretize lap + 2 A d/dz + 2 B d/dzbar + Q.
    """
    grid = coefs.grid
    inner = np.s_[1:-1, 1:-1]
    a, b = coefs.a_coef.data[inner], coefs.b_coef.data[inner]
    eye = np.eye(coefs.n_sys)
    hx2, hy2 = grid.h_x ** 2, grid.h_y ** 2
    yield (0, 0), (-2 / hx2 - 2 / hy2) * eye + coefs.q_coef.data[inner]
    for (di, dj), lap, d_x, d_y in (((1, 0), 1 / hx2, 0.5 / grid.h_x, 0.0),
                                    ((-1, 0), 1 / hx2, -0.5 / grid.h_x, 0.0),
                                    ((0, 1), 1 / hy2, 0.0, 0.5 / grid.h_y),
                                    ((0, -1), 1 / hy2, 0.0, -0.5 / grid.h_y)):
        yield (di, dj), lap * eye + a * (d_x - 1j * d_y) + b * (d_x + 1j * d_y)


class OperatorFactorization:
    """One assembled and LU-factored elliptic system, reusable across solves.

    ``pivoting`` names the factorization in use: "static" (symmetric mode,
    diagonal pivots) or "partial" (the fallback after a failed residual
    check or a failed static factorization).
    """

    def __init__(self, coefs: CoefficientTriple):
        grid = coefs.grid
        nx, ny, n = grid.nx, grid.ny, coefs.n_sys
        ii, jj, _, _ = BoundaryPartition(grid).nodes()
        n_int = (nx - 2) * (ny - 2)
        # unknown numbers: interior nodes row-major, boundary nodes in the
        # canonical boundary order; -1 marks the other kind
        interior = np.full(grid.shape, -1)
        interior[1:-1, 1:-1] = np.arange(n_int).reshape(nx - 2, ny - 2)
        boundary = np.full(grid.shape, -1)
        boundary[ii, jj] = np.arange(len(ii))
        comp = np.arange(n)
        rows = np.arange(n_int)[:, None, None] * n + comp[:, None]
        k_parts, c_parts = [], []
        for (di, dj), block in _stencil_blocks(coefs):
            block = block.reshape(n_int, n, n)
            for number, parts in ((interior, k_parts), (boundary, c_parts)):
                col = number[1 + di:nx - 1 + di, 1 + dj:ny - 1 + dj].ravel()
                on = col >= 0
                parts.append(np.broadcast_arrays(
                    block[on], rows[on], col[on][:, None, None] * n + comp))

        def matrix(parts, n_cols, fmt):
            vals, r, c = (np.concatenate([a.ravel() for a in p])
                          for p in zip(*parts))
            return sp.coo_matrix((vals, (r, c)),
                                 shape=(n_int * n, n_cols * n)).asformat(fmt)

        self.grid = grid
        self.n_sys = n
        self._boundary_nodes = (ii, jj)
        # K couples interior unknowns; C carries Dirichlet data to the rhs
        self._matrix = matrix(k_parts, n_int, "csc")
        self._coupling = matrix(c_parts, len(ii), "csr")
        try:
            self._lu = splu(self._matrix, permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=0.0,
                            options=dict(SymmetricMode=True))
            self._pivoting = "static"
        except RuntimeError:
            self._factor_partial()

    @property
    def pivoting(self) -> str:
        return self._pivoting

    def _factor_partial(self) -> None:
        try:
            self._lu = splu(self._matrix)
        except RuntimeError as exc:
            raise SingularSystemError(
                "factorization failed (near interior eigenvalue?); "
                f"try shifting Q: {exc}") from exc
        self._pivoting = "partial"

    def _residuals(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Relative residual of each column; inf where x is not finite."""
        res = np.linalg.norm(self._matrix @ x - b, axis=0)
        res = res / np.maximum(np.linalg.norm(b, axis=0), 1e-300)
        return np.where(np.isfinite(x).all(axis=0), res, np.inf)

    def _solve_block(self, boundary: np.ndarray,
                     rhs: np.ndarray | None) -> np.ndarray:
        """Solutions for k data sets at once, shape (nx, ny, N, k).

        ``boundary`` has shape (n_boundary_nodes, N, k) in canonical
        boundary order; ``rhs`` holds interior sources, (nx, ny, N, k).
        """
        grid, n = self.grid, self.n_sys
        k = boundary.shape[-1]
        b = -(self._coupling @ boundary.reshape(self._coupling.shape[1], k))
        if rhs is not None:
            b += rhs[1:-1, 1:-1].reshape(b.shape)
        x = self._lu.solve(b)
        worst = self._residuals(x, b).max(initial=0.0)
        if worst > 1e-8 and self._pivoting == "static":
            self._factor_partial()
            x = self._lu.solve(b)
            worst = self._residuals(x, b).max(initial=0.0)
        if not worst <= 1e-8:
            raise SingularSystemError(
                "discrete system numerically singular; try shifting Q")
        u = np.empty((grid.nx, grid.ny, n, k), dtype=complex)
        u[1:-1, 1:-1] = x.reshape(grid.nx - 2, grid.ny - 2, n, k)
        u[self._boundary_nodes] = boundary
        return u

    def solve(self, boundary_values: np.ndarray | None,
              rhs: VectorField | None) -> VectorField:
        nb = len(self._boundary_nodes[0])
        bv = np.asarray(0.0 if boundary_values is None else boundary_values,
                        dtype=complex)
        if bv.ndim == 1:  # one profile for every component
            bv = bv[:, None]
        bv = np.broadcast_to(bv, (nb, self.n_sys))
        src = None if rhs is None else rhs.data[..., None]
        return VectorField(self.grid,
                           self._solve_block(bv[..., None], src)[..., 0])


def solve_dirichlet(coefs: CoefficientTriple,
                    boundary_values: np.ndarray | None = None,
                    rhs: VectorField | None = None,
                    factorization: OperatorFactorization | None = None) -> VectorField:
    """Solve L u = rhs with Dirichlet data on the whole boundary.

    ``boundary_values`` follows the canonical boundary node order of
    BoundaryPartition(grid) (all edges observed); None means zero data.
    """
    if rhs is not None and (rhs.grid != coefs.grid or rhs.n_sys != coefs.n_sys):
        raise GridError("rhs field does not match the coefficient grid")
    fac = factorization or OperatorFactorization(coefs)
    return fac.solve(boundary_values, rhs)


def hat_profiles(partition: BoundaryPartition, m: int) -> list[np.ndarray]:
    """First m piecewise-linear hats on the observed arcs, zero on the rest.

    Profiles are returned as full canonical-boundary-order value arrays.
    Hat centers are spread evenly over the nodes strictly interior to the
    observed arcs, skipping nodes adjacent to the unobserved part.
    """
    grid = partition.grid
    full = BoundaryPartition(grid)
    fi, fj, _, _ = full.nodes()
    key = {(a, b): k for k, (a, b) in enumerate(zip(fi, fj))}

    eligible = []
    for edge in partition.arcs(GAMMA_TILDE):
        i, j = _edge_indices(grid, edge)
        for a, b in zip(i[2:-2], j[2:-2]):  # keep zero-extension exact
            eligible.append((int(a), int(b)))
    if m > len(eligible):
        raise GridError(f"cannot place {m} hats on {len(eligible)} eligible nodes")
    if m == 0:
        return []
    picks = [eligible[int(round(t))]
             for t in np.linspace(0, len(eligible) - 1, m)]
    out = []
    for (a, b) in picks:
        v = np.zeros(len(fi))
        v[key[(a, b)]] = 1.0
        for d in (-1, 1):
            nb = (a + d, b) if b in (0, grid.ny - 1) else (a, b + d)
            if nb in key:
                v[key[nb]] = 0.5
        out.append(v)
    return out


def fourier_profiles(partition: BoundaryPartition, m: int) -> list[np.ndarray]:
    """First m sine profiles per observed arc arclength, zero elsewhere.

    Grid-independent boundary data; profile k lives on observed arc
    (k mod n_arcs) with mode (k // n_arcs) + 1.  A mode at or past
    (nodes on its edge - 1) samples to zero or aliases to a lower mode,
    so it is refused.
    """
    grid = partition.grid
    # start of each edge in the canonical boundary order
    sizes = [len(_edge_indices(grid, e)[0]) for e in EDGES]
    starts = dict(zip(EDGES, np.cumsum([0] + sizes)))
    X, Y = grid.meshgrid()
    arcs = partition.arcs(GAMMA_TILDE)
    out = []
    for k in range(m):
        edge = arcs[k % len(arcs)]
        mode = k // len(arcs) + 1
        nodes = grid.nx if edge in ("bottom", "top") else grid.ny
        if mode >= nodes - 1:
            raise GridError(f"Fourier profile {k} needs mode {mode}, but the "
                            f"{edge} edge has only {nodes} nodes")
        i, j = _edge_indices(grid, edge)
        if edge in ("bottom", "top"):
            t = (X[i, j] - grid.x_min) / (grid.x_max - grid.x_min)
        else:
            t = (Y[i, j] - grid.y_min) / (grid.y_max - grid.y_min)
        v = np.zeros(sum(sizes))
        v[starts[edge]:starts[edge] + len(i)] = np.sin(mode * np.pi * t)
        out.append(v)
    return out


@dataclass(frozen=True)
class PartialCauchyData:
    """Dirichlet/Neumann trace pairs on the observed arcs, u = 0 elsewhere."""

    partition: BoundaryPartition
    basis_id: str
    dirichlet: list  # arrays (n_tilde_nodes, N)
    neumann: list    # arrays (n_tilde_nodes, N)

    def __len__(self) -> int:
        return len(self.dirichlet)


def cauchy_data(coefs: CoefficientTriple, partition: BoundaryPartition,
                basis_size: int, basis: str = "hat",
                components: str = "first") -> PartialCauchyData:
    """Assemble the finite-basis surrogate of the partial Cauchy data set.

    Each scalar boundary profile is applied to the first system component
    (components='first') or to every component in turn (components='all',
    giving basis_size * N entries).
    """
    if coefs.grid != partition.grid:
        raise GridError("coefficients and partition on different grids")
    profiles = {"hat": hat_profiles, "fourier": fourier_profiles}[basis](
        partition, basis_size)
    n = coefs.n_sys
    comps = range(n) if components == "all" else (0,)
    # one column of boundary data per entry, profile-major
    entries = [(prof, c) for prof in profiles for c in comps]
    fac = OperatorFactorization(coefs)
    boundary = np.zeros((len(fac._boundary_nodes[0]), n, len(entries)),
                        dtype=complex)
    for j, (prof, c) in enumerate(entries):
        boundary[:, c, j] = prof
    u = fac._solve_block(boundary, None)
    fields = [VectorField(fac.grid, u[..., j]) for j in range(len(entries))]
    dir_traces = [trace_boundary(f, partition, GAMMA_TILDE) for f in fields]
    neu_traces = [normal_derivative(f, partition, GAMMA_TILDE) for f in fields]
    return PartialCauchyData(partition=partition,
                             basis_id=f"{basis}:{basis_size}:{components}",
                             dirichlet=dir_traces, neumann=neu_traces)


def cauchy_distance(c1: PartialCauchyData, c2: PartialCauchyData) -> float:
    """Max over entries of ||dN||_{L2(observed)} / ||dirichlet||_{L2(observed)}."""
    if c1.basis_id != c2.basis_id or c1.partition != c2.partition:
        raise GridError("Cauchy data sets use different bases or partitions")
    w = c1.partition.arc_weights(GAMMA_TILDE)
    worst = 0.0
    for d1, n1, n2 in zip(c1.dirichlet, c1.neumann, c2.neumann):
        dn = np.sqrt(np.sum(w[:, None] * np.abs(n1 - n2) ** 2))
        dd = np.sqrt(np.sum(w[:, None] * np.abs(d1) ** 2))
        worst = max(worst, float(dn / max(dd, 1e-300)))
    return worst
