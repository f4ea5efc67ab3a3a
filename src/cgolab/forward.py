"""Sparse solver for the N-system and partial Cauchy data assembly.

The operator  lap(u) + 2 A dz(u) + 2 B dzbar(u) + Q u  is discretized with
the 5-point Laplacian and centered first derivatives.  Only the interior
unknowns form the square system K; the interior-to-boundary coupling C
moves Dirichlet data to the right-hand side, rhs - C u_B.

Every component shares the principal part lap I_N; the components couple
only through A, B and Q.  So for N > 1 only the scalar trace part of K is
factored: the operator with coefficients tr(A)/N, tr(B)/N and tr(Q)/N on
n_interior unknowns, which differs from K by lower-order terms.  A block
of k right-hand sides is one GMRES on K with its columns stacked as one
vector, preconditioned by that factor (one solve of N * k right-hand
sides per step) and started from its solve, to a residual of 1e-13
relative to the whole block.  The step count does not grow with the grid
(equivalent-operator preconditioning: Axelsson & Karatson, Numer.
Algorithms 50, 2009): 4 per gauge-scenario block at nx 33, 65 and 129.
For N = 1 the trace part is K itself and the factor solves directly.
SuperLU factors in symmetric mode (minimum degree on A'+A, static
diagonal pivots): K is not symmetric, but its sparsity pattern is.

The factorizations form one ordered ladder: the trace part ("trace",
N > 1 only), K with static pivots ("static"), K with COLAMD and partial
pivoting ("partial").  The solver factors at the first rung that
succeeds.  Every solve checks each column's relative residual against
1e-8 and, while the check misses, factors at the next rung and solves
again.  ``cauchy_data`` solves all its boundary profiles as one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError, SingularSystemError
from .grid import EDGES, Grid2D, BoundaryPartition, GAMMA_TILDE, _edge_indices, check_same
from .fields import VectorField, MatrixField, weighted_l2
from .calculus import dz_array, normal_derivative, trace_boundary

# GMRES on K, preconditioned by the trace-part factor, stops at this residual
# relative to the block or after _GMRES_RESTARTS cycles of _GMRES_RESTART steps
_GMRES_RTOL = 1e-13
_GMRES_RESTART = 10
_GMRES_RESTARTS = 3


@dataclass(frozen=True)
class CoefficientTriple:
    """The (A, B, Q) matrix coefficients of one elliptic operator."""

    a_coef: MatrixField
    b_coef: MatrixField
    q_coef: MatrixField

    def __post_init__(self):
        check_same(self.a_coef, self.b_coef, self.q_coef)

    @property
    def grid(self) -> Grid2D:
        return self.a_coef.grid

    @property
    def n_sys(self) -> int:
        return self.a_coef.n_sys

    @cached_property
    def first_order_part(self) -> np.ndarray:
        """2 dz A + B A, read-only samples taken on first access."""
        part = (2 * dz_array(self.a_coef.data, self.grid)
                + self.b_coef.matmat(self.a_coef).data)
        part.flags.writeable = False
        return part

    def mirror(self) -> "CoefficientTriple":
        """(conj B, conj A, conj Q): L u = f iff L_mirror conj(u) = conj(f).  Not cached."""
        return CoefficientTriple(self.b_coef.conj(), self.a_coef.conj(),
                                 self.q_coef.conj())


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
    """One assembled elliptic system, reusable across solves.

    For N > 1 the factor is of K's scalar trace part, the mean of its N
    diagonal component blocks, and preconditions GMRES on K; for N = 1 it
    is of K itself and solves directly (see the module docstring).

    ``pivoting`` names the factorization in use: "static" (symmetric mode,
    diagonal pivots) or "partial" (K factored with partial pivoting after
    a failed residual check or a failed static factorization).
    ``iterations`` is the GMRES step count of the last block solve; 0 when
    K itself is factored.
    """

    def __init__(self, coefs: CoefficientTriple):
        import scipy.sparse as sp  # the first solver built loads scipy

        grid = coefs.grid
        nx, ny, n = grid.nx, grid.ny, coefs.n_sys
        ii, jj = BoundaryPartition(grid).nodes()
        n_int = (nx - 2) * (ny - 2)
        # unknown numbers: interior nodes row-major, boundary nodes in the
        # canonical boundary order; -1 marks the other kind
        interior = np.full(grid.shape, -1)
        interior[1:-1, 1:-1] = np.arange(n_int).reshape(nx - 2, ny - 2)
        boundary = np.full(grid.shape, -1)
        boundary[ii, jj] = np.arange(len(ii))
        offsets, blocks = zip(*_stencil_blocks(coefs))
        blocks = np.stack(blocks, axis=2).reshape(-1, n, n)  # node-major

        def block_rows(number, n_cols):
            """Per node, the blocks of its neighbours that ``number`` numbers."""
            col = np.stack([number[1 + di:nx - 1 + di, 1 + dj:ny - 1 + dj].ravel()
                            for di, dj in offsets], axis=1)
            order = np.argsort(col, axis=1)  # ascending columns, -1 first
            col = np.take_along_axis(col, order, axis=1)
            on = col >= 0
            pick = (np.arange(n_int)[:, None] * len(offsets) + order)[on]
            indptr = np.concatenate(([0], np.cumsum(on.sum(axis=1))))
            return sp.bsr_matrix((blocks[pick], col[on], indptr),
                                 shape=(n_int * n, n_cols * n))

        self.grid = grid
        self.n_sys = n
        self._boundary_nodes = (ii, jj)
        # K couples interior unknowns, C carries Dirichlet data to the rhs;
        # the trace part is the mean of K's diagonal component blocks
        k_blocks = block_rows(interior, n_int)
        self._matrix = k_blocks.tocsr()
        self._coupling = block_rows(boundary, len(ii)).tocsr()
        self._trace = sp.csr_matrix(
            (np.einsum("kii->k", k_blocks.data) / n, k_blocks.indices,
             k_blocks.indptr), shape=(n_int, n_int))
        self._iterations = 0
        # the rungs not yet tried, in order (see the module docstring)
        self._ladder = (["trace"] if n > 1 else []) + ["static", "partial"]
        self._factor_next()

    @property
    def pivoting(self) -> str:
        return "partial" if self._rung == "partial" else "static"

    @property
    def iterations(self) -> int:
        return self._iterations

    def _factor_next(self) -> None:
        """Factor at the next rung of the ladder that succeeds."""
        while self._ladder:
            self._rung = self._ladder.pop(0)
            matrix = (self._trace if self._rung == "trace" else self._matrix).tocsc()
            try:
                self._lu = (splu(matrix) if self._rung == "partial"
                            else _static_splu(matrix))
                return
            except RuntimeError as exc:
                failure = exc
        raise SingularSystemError(
            "factorization failed (near interior eigenvalue?); "
            f"try shifting Q: {failure}") from failure

    def _residuals(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Relative residual of each column; inf where x is not finite."""
        res = np.linalg.norm(self._matrix @ x - b, axis=0)
        res = res / np.maximum(np.linalg.norm(b, axis=0), 1e-300)
        return np.where(np.isfinite(x).all(axis=0), res, np.inf)

    def _precondition(self, v: np.ndarray) -> np.ndarray:
        """Apply the inverse trace part to every component of v."""
        # rows are node * N + component, so each node's N components (of
        # each column) form one row of the scalar system's right-hand side
        rows = v.shape[0] // self.n_sys
        return self._lu.solve(v.reshape(rows, -1)).reshape(v.shape)

    def _solve_columns(self, b: np.ndarray) -> np.ndarray:
        """Solve K x = b: directly with K's factor, or by one GMRES on K."""
        self._iterations = 0
        if self._rung != "trace":
            return self._lu.solve(b)
        import scipy.sparse.linalg

        # the k columns stacked as one vector: one Krylov space, and one
        # preconditioner solve per step, serve the whole block
        shape = b.shape
        op, prec = (scipy.sparse.linalg.LinearOperator(
                        (b.size,) * 2, dtype=complex,
                        matvec=lambda v, f=f: f(v.reshape(shape)).ravel())
                    for f in (self._matrix.dot, self._precondition))
        steps = []
        # a column that stops short of the tolerance is caught by the
        # residual check of _solve_block
        x, _ = scipy.sparse.linalg.gmres(
            op, b.ravel(), x0=self._precondition(b).ravel(), M=prec,
            rtol=_GMRES_RTOL, atol=0.0, restart=_GMRES_RESTART,
            maxiter=_GMRES_RESTARTS, callback=steps.append, callback_type="pr_norm")
        self._iterations = len(steps)
        return x.reshape(shape)

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
        x = self._solve_columns(b)
        while not self._residuals(x, b).max(initial=0.0) <= 1e-8:
            if not self._ladder:
                raise SingularSystemError(
                    "discrete system numerically singular; try shifting Q")
            self._factor_next()
            x = self._solve_columns(b)
        u = np.empty((grid.nx, grid.ny, n, k), dtype=complex)
        u[1:-1, 1:-1] = x.reshape(grid.nx - 2, grid.ny - 2, n, k)
        u[self._boundary_nodes] = boundary
        return u

    def solve(self, boundary_values: np.ndarray | None,
              rhs: VectorField | None) -> VectorField:
        """Solve L u = rhs with Dirichlet data on the whole boundary.

        ``boundary_values`` follows the canonical boundary node order of
        BoundaryPartition(grid) (all edges observed), shape (n_b,) for one
        profile on every component or (n_b, N); None means zero data.
        Data of another shape, non-finite data and an ``rhs`` of another
        grid or N are refused with ``GridError`` before any solve.
        """
        check_same(self, rhs)
        n, nb = self.n_sys, len(self._boundary_nodes[0])
        bv = np.zeros((nb, n), dtype=complex) if boundary_values is None \
            else np.asarray(boundary_values, dtype=complex)
        if bv.shape not in ((nb,), (nb, n)):
            raise GridError(f"boundary values of shape {bv.shape}; expected "
                            f"({nb},) or ({nb}, {n}) in canonical boundary order")
        if not np.isfinite(bv).all():
            raise GridError("boundary values are not all finite")
        if bv.ndim == 1:  # one profile for every component
            bv = bv[:, None]
        source = None if rhs is None else rhs.data[..., None]
        u = self._solve_block(np.broadcast_to(bv, (nb, n))[..., None], source)
        return VectorField(self.grid, u[..., 0])


def splu(*args, **kwargs):
    """scipy.sparse.linalg.splu, whose module is imported on the first call."""
    from scipy.sparse.linalg import splu as scipy_splu
    return scipy_splu(*args, **kwargs)


def _static_splu(matrix):
    """SuperLU in symmetric mode: minimum degree on A'+A, diagonal pivots."""
    return splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))


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

    @property
    def grid(self) -> Grid2D:
        return self.partition.grid

    @property
    def n_sys(self) -> int | None:
        return self.dirichlet[0].shape[1] if self.dirichlet else None


def cauchy_data(coefs: CoefficientTriple, partition: BoundaryPartition,
                basis_size: int) -> PartialCauchyData:
    """Assemble the finite-basis surrogate of the partial Cauchy data set.

    The basis is the first ``basis_size`` sine profiles of
    ``fourier_profiles``; each is applied to the first system component.
    """
    check_same(coefs, partition)
    profiles = fourier_profiles(partition, basis_size)
    fac = OperatorFactorization(coefs)
    # one column of boundary data per profile
    boundary = np.zeros((len(fac._boundary_nodes[0]), coefs.n_sys,
                         len(profiles)), dtype=complex)
    for j, prof in enumerate(profiles):
        boundary[:, 0, j] = prof
    u = fac._solve_block(boundary, None)
    fields = [VectorField(fac.grid, u[..., j]) for j in range(len(profiles))]
    dir_traces = [trace_boundary(f, partition, GAMMA_TILDE) for f in fields]
    neu_traces = [normal_derivative(f, partition, GAMMA_TILDE) for f in fields]
    return PartialCauchyData(partition=partition,
                             basis_id=f"fourier:{basis_size}",
                             dirichlet=dir_traces, neumann=neu_traces)


def cauchy_distance(c1: PartialCauchyData, c2: PartialCauchyData) -> float:
    """Max over entries of ||dN||_{L2(observed)} / ||dirichlet||_{L2(observed)}."""
    check_same(c1, c2)
    if c1.basis_id != c2.basis_id or c1.partition != c2.partition:
        raise GridError("Cauchy data sets use different bases or partitions")
    w = c1.partition.arc_weights(GAMMA_TILDE)[:, None]
    worst = 0.0
    for d1, n1, n2 in zip(c1.dirichlet, c1.neumann, c2.neumann):
        worst = max(worst, weighted_l2(n1 - n2, w) / max(weighted_l2(d1, w), 1e-300))
    return worst
