"""Sparse solver for the N-system and partial Cauchy data assembly.

The operator  lap(u) + 2 A dz(u) + 2 B dzbar(u) + Q u  is discretized with
the 5-point Laplacian and centered first derivatives.  Only the interior
unknowns form the square system K; the interior-to-boundary coupling C
moves Dirichlet data to the right-hand side, rhs - C u_B.  K and C are
block-sparse (BSR) with one N x N block per node pair: their index
structure is computed once, and each stencil offset's blocks are written
straight into their slots of one data array, one offset at a time.

Every component shares the principal part lap I_N; the components couple
only through A, B and Q.  So the first factor is of K's scalar trace
part: coefficients tr(A)/N, tr(B)/N and tr(Q)/N on n_interior unknowns,
lower-order terms away from K, and K itself, entry for entry, at N = 1.
With M a factor's solve (for the trace part one solve of N * k
right-hand sides serves a block of k), every block is the residual
series x = M b, x <- x + M (b - K x) of fields._residual_series, in
which each column stops on its own, as its single-column solve would:
at a residual 1e-13 relative to its own right-hand side, a stall or a
NaN.  The block stops when every column has, or at the cap.  On a
factor of K this is iterative refinement (Higham, Accuracy and Stability
of Numerical Algorithms, 2002, ch. 12).  On the trace part M K is so
close to I that Krylov acceleration buys nothing (equivalent-operator
preconditioning: Axelsson & Karatson, Numer. Algorithms 50, 2009): on
the gauge scenario's N = 3 pair M b leaves a residual of 4e-4 (nx 33) to
9e-5 (nx 129) and each term shrinks it about 3e-3 times, so 4 terms
after M b reach 1e-13 at nx 33, 65 and 129.

The factorizations form a two-rung ladder: the trace part in SuperLU's
symmetric mode ("static": minimum degree on A'+A, diagonal pivots; K is
not symmetric, but its sparsity pattern is), then K with COLAMD and
partial pivoting ("partial").  The solver factors at the first rung that
succeeds.  Every solve checks each column's relative residual against
1e-8 and, if the check misses, factors K and solves again.
``cauchy_data`` solves all its boundary profiles as one block.

An operator similar to another by a positive diagonal W, K ~ W^-1 K1 W
up to O(h^2) (the gauge pair, W = e^{s eta}), may start from a borrowed
rung ahead of the two: the other operator's trace-part factor M1, which
its ``OperatorFactorization.lend`` gives, preconditioning with
M = W^-1 M1 W, so that it factors nothing.  On the gauge scenario's
N = 3 pair the series then takes 7, 5 and 4 terms after M b at nx 33,
65 and 129.  A block is kept on the borrowed rung only if
every column's residual reaches the series' 1e-13, not just the 1e-8
check; otherwise the block is solved again from scratch on the
operator's own ladder, bit for bit the path it takes without the
borrowed rung.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError, SingularSystemError
from .grid import (Grid2D, BoundaryPartition, GAMMA_TILDE, _edge_indices, check_same,
                   is_int)
from .fields import (VectorField, MatrixField, pointwise, weighted_l2, _residual_series,
                     _SERIES_RTOL)
from .calculus import dz_array, normal_derivative, trace_boundary


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

    def apply(self, u, dz, dzbar, lap) -> np.ndarray:
        """L u = lap + 2 A dz + 2 B dzbar + Q u from samples of u, dz u, dzbar u and lap u."""
        return (lap + 2 * pointwise(self.a_coef.data, dz)
                + 2 * pointwise(self.b_coef.data, dzbar)
                + pointwise(self.q_coef.data, u))

    def mirror(self) -> "CoefficientTriple":
        """(conj B, conj A, conj Q): L u = f iff L_mirror conj(u) = conj(f).  Not cached."""
        return CoefficientTriple(self.b_coef.conj(), self.a_coef.conj(),
                                 self.q_coef.conj())


# the 5-point stencil's neighbour offsets, in the order _stencil_blocks yields them
_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


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
    for di, dj in _OFFSETS[1:]:
        lap = 1 / hx2 if di else 1 / hy2
        d_x, d_y = 0.5 * di / grid.h_x, 0.5 * dj / grid.h_y
        yield (di, dj), lap * eye + a * (d_x - 1j * d_y) + b * (d_x + 1j * d_y)


class OperatorFactorization:
    """One assembled elliptic system, reusable across solves.

    ``pivoting`` names the rung of the factor in use, "borrowed", "static"
    or "partial", and ``iterations`` the number of residual series terms
    after the first, M b, in the last block solve (see the module
    docstring for both).  ``borrowed`` is None or the pair (lu, w) that
    another operator's ``lend`` gives; a factor of another size or weights
    of another shape are refused with ``GridError``.
    """

    def __init__(self, coefs: CoefficientTriple, borrowed=None):
        import scipy.sparse as sp  # the first solver built loads scipy

        grid = coefs.grid
        nx, ny, n = grid.nx, grid.ny, coefs.n_sys
        ii, jj = BoundaryPartition(grid).nodes()
        n_int = (nx - 2) * (ny - 2)
        if borrowed is not None and (borrowed[0].shape != (n_int, n_int)
                                     or np.shape(borrowed[1]) != grid.shape):
            raise GridError("a borrowed factor must be of the trace part, and its "
                            "weights one per node, on the same grid")
        # unknown numbers: interior nodes row-major, boundary nodes in the
        # canonical boundary order; -1 marks the other kind
        interior = np.full(grid.shape, -1)
        interior[1:-1, 1:-1] = np.arange(n_int).reshape(nx - 2, ny - 2)
        boundary = np.full(grid.shape, -1)
        boundary[ii, jj] = np.arange(len(ii))

        def structure(number):
            """BSR indices and indptr of the blocks that ``number`` numbers,
            and the flat (node, offset) index of each block in their order."""
            col = np.stack([number[1 + di:nx - 1 + di, 1 + dj:ny - 1 + dj].ravel()
                            for di, dj in _OFFSETS], axis=1)
            order = np.argsort(col, axis=1)  # ascending columns, -1 first
            col = np.take_along_axis(col, order, axis=1)
            on = col >= 0
            pick = (np.arange(n_int)[:, None] * len(_OFFSETS) + order)[on]
            indptr = np.concatenate(([0], np.cumsum(on.sum(axis=1))))
            return col[on], indptr, pick

        k_indices, k_indptr, k_pick = structure(interior)
        c_indices, c_indptr, c_pick = structure(boundary)
        # each (node, offset) block's slot in one data array: K's, then C's
        slot = np.empty((n_int, len(_OFFSETS)), dtype=int)
        np.put(slot, np.concatenate((k_pick, c_pick)), np.arange(slot.size))
        data = np.empty((slot.size, n, n), dtype=complex)
        for offset, block in _stencil_blocks(coefs):
            data[slot[:, _OFFSETS.index(offset)]] = block.reshape(n_int, n, n)
            del block  # free it before the next offset's is made
        n_k = len(k_indices)

        self.grid = grid
        self.n_sys = n
        self._boundary_nodes = (ii, jj)
        # K couples interior unknowns, C carries Dirichlet data to the rhs;
        # the trace part is the mean of K's diagonal component blocks
        self._matrix = sp.bsr_matrix((data[:n_k], k_indices, k_indptr),
                                     shape=(n_int * n, n_int * n))
        self._coupling = sp.bsr_matrix((data[n_k:], c_indices, c_indptr),
                                       shape=(n_int * n, len(ii) * n))
        self._trace = sp.csr_matrix(
            (np.einsum("kii->k", self._matrix.data) / n, self._matrix.indices,
             self._matrix.indptr), shape=(n_int, n_int))
        self.iterations = 0
        # the rungs not yet tried, in order (see the module docstring)
        self._ladder = ["static", "partial"]
        if borrowed is None:
            self._factor_next()
        else:
            self.pivoting, self._lu = "borrowed", borrowed[0]
            self._weights = borrowed[1][1:-1, 1:-1].reshape(n_int, 1)

    def lend(self, w: np.ndarray):
        """The ``borrowed`` pair (lu, w) that lends this operator's factor,
        conjugated by node weights w, to another on the same grid and N;
        None unless the factor is of the trace part ("static"), N > 1 and
        every weight is finite and positive.  At N = 1 the trace part is K,
        so the other operator's own factor solves it directly, to round-off
        rather than to the borrowed series' 1e-13."""
        lends = self.pivoting == "static" and self.n_sys > 1
        return (self._lu, w) if lends and np.all((0 < w) & (w < np.inf)) else None

    def _factor_next(self) -> None:
        """Factor at the next rung of the ladder that succeeds."""
        while self._ladder:
            self.pivoting = self._ladder.pop(0)
            try:
                self._lu = (splu(self._trace.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.0,
                                 options=dict(SymmetricMode=True))
                            if self.pivoting == "static" else splu(self._matrix.tocsc()))
                return
            except RuntimeError as exc:
                failure = exc
        raise SingularSystemError(
            "factorization failed (near interior eigenvalue?); "
            f"try shifting Q: {failure}") from failure

    def _precondition(self, v: np.ndarray) -> np.ndarray:
        """Apply the factor's solve to v: to every component for the trace part."""
        # rows are node * N + component, so each node's N components (of
        # each column) form one row of the trace part's right-hand side
        if self.pivoting != "borrowed":
            return self._lu.solve(v.reshape(self._lu.shape[0], -1)).reshape(v.shape)
        y = self._lu.solve(v.reshape(len(self._weights), -1) * self._weights)
        y /= self._weights  # W^-1 M1 W v, in place: no block beyond the static path's
        return y.reshape(v.shape)

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
        while True:
            # weights near the floating range's ends can overflow the borrowed
            # series; its non-finite block is refused below
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                x, res, self.iterations = _residual_series(
                    lambda v: self._matrix @ v, self._precondition, b,
                    lambda v: np.linalg.norm(v, axis=0))
            # the borrowed rung keeps a block only at the series' own tolerance
            tol = _SERIES_RTOL if self.pivoting == "borrowed" else 1e-8
            if np.isfinite(x).all() and res.max(initial=0.0) <= tol:
                break
            if not self._ladder:
                raise SingularSystemError(
                    "discrete system numerically singular; try shifting Q")
            self._factor_next()
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
        Data that are not numbers, of another shape or not finite, and an
        ``rhs`` of another grid or N are refused with ``GridError`` before
        any solve.
        """
        check_same(self, rhs)
        n, nb = self.n_sys, len(self._boundary_nodes[0])
        try:
            bv = np.asarray(np.zeros(nb) if boundary_values is None
                            else boundary_values)
            numbers = bv.dtype.kind in "iufc"
        except ValueError:  # ragged nesting
            numbers = False
        if not numbers:
            raise GridError("boundary values must be an array of numbers, got "
                            f"{type(boundary_values).__name__}")
        bv = bv.astype(complex)
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


def fourier_profiles(partition: BoundaryPartition, m: int) -> list[np.ndarray]:
    """First m sine profiles per observed arc arclength, zero elsewhere.

    Grid-independent boundary data; profile k lives on observed arc
    (k mod n_arcs) with mode (k // n_arcs) + 1.  A mode at or past
    (nodes on its edge - 1) samples to zero or aliases to a lower mode,
    so it is refused, as is an m that is not a positive integer.
    """
    if not is_int(m) or m < 1:
        raise GridError(f"basis size must be a positive integer, got {m!r}")
    arcs = partition.arcs(GAMMA_TILDE)
    if not arcs:
        raise GridError("partition has no observed arc to carry a Fourier profile")
    grid = partition.grid
    X, Y = grid.meshgrid()
    canonical = partition.nodes()  # every edge, in the canonical boundary order
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
        v = np.zeros(grid.shape)
        v[i, j] = np.sin(mode * np.pi * t)
        out.append(v[canonical])
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
    return _profile_data(OperatorFactorization(coefs), partition, profiles)


def _profile_data(fac: OperatorFactorization, partition: BoundaryPartition,
                  profiles: list) -> PartialCauchyData:
    """The data of ``fac``'s operator through ``profiles``, one block solve."""
    # one column of boundary data per profile
    boundary = np.zeros((len(fac._boundary_nodes[0]), fac.n_sys,
                         len(profiles)), dtype=complex)
    for j, prof in enumerate(profiles):
        boundary[:, 0, j] = prof
    u = fac._solve_block(boundary, None)
    fields = [VectorField(fac.grid, u[..., j]) for j in range(len(profiles))]
    dir_traces = [trace_boundary(f, partition, GAMMA_TILDE) for f in fields]
    neu_traces = [normal_derivative(f, partition, GAMMA_TILDE) for f in fields]
    return PartialCauchyData(partition=partition,
                             basis_id=f"fourier:{len(profiles)}",
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
