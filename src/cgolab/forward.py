"""Sparse direct solver for the N-system and partial Cauchy data assembly.

The operator  lap(u) + 2 A dz(u) + 2 B dzbar(u) + Q u  is assembled as a
complex block-sparse matrix (5-point Laplacian, centered first
derivatives), Dirichlet rows are replaced by identity, and the system is
factored once per coefficient triple.  No symmetry is assumed anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import GridError, SingularSystemError
from .grid import Grid2D, BoundaryPartition, GAMMA_TILDE, _edge_indices
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


@dataclass(frozen=True)
class RealFormCoefficients:
    """First-order coefficients of the real form  lap + A*d_x1 + B*d_x2 + Q."""

    a_real: MatrixField
    b_real: MatrixField

    def __post_init__(self):
        if self.a_real.grid != self.b_real.grid or self.a_real.n_sys != self.b_real.n_sys:
            raise GridError("real-form coefficient fields mismatch")


def real_form_to_complex(rf: RealFormCoefficients) -> tuple[MatrixField, MatrixField]:
    """Map (A_real, B_real) to the Wirtinger pair (A_real + i B_real, A_real - i B_real)."""
    a = rf.a_real.data + 1j * rf.b_real.data
    b = rf.a_real.data - 1j * rf.b_real.data
    return (MatrixField(rf.a_real.grid, a), MatrixField(rf.a_real.grid, b))


def complex_to_real_form(a_coef: MatrixField, b_coef: MatrixField) -> RealFormCoefficients:
    """Round trip of real_form_to_complex."""
    ar = 0.5 * (a_coef.data + b_coef.data)
    br = (a_coef.data - b_coef.data) / 2j
    return RealFormCoefficients(MatrixField(a_coef.grid, ar),
                                MatrixField(a_coef.grid, br))


def _scalar_stencils(grid: Grid2D):
    """Interior-row sparse Lap, Dx, Dy; boundary rows are left empty."""
    nx, ny = grid.nx, grid.ny
    n = nx * ny
    idx = np.arange(n).reshape(nx, ny)
    inter = idx[1:-1, 1:-1].ravel()

    def shifted(di, dj):
        return idx[1 + di:nx - 1 + di, 1 + dj:ny - 1 + dj].ravel()

    hx2, hy2 = grid.h_x ** 2, grid.h_y ** 2

    def build(entries):
        rows, cols, vals = [], [], []
        for (di, dj), v in entries:
            rows.append(inter)
            cols.append(shifted(di, dj))
            vals.append(np.full(inter.size, v, dtype=complex))
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n))

    lap = build([((0, 0), -2 / hx2 - 2 / hy2), ((1, 0), 1 / hx2),
                 ((-1, 0), 1 / hx2), ((0, 1), 1 / hy2), ((0, -1), 1 / hy2)])
    dx = build([((1, 0), 0.5 / grid.h_x), ((-1, 0), -0.5 / grid.h_x)])
    dy = build([((0, 1), 0.5 / grid.h_y), ((0, -1), -0.5 / grid.h_y)])
    return lap, dx, dy, idx


def _block_diag_of(field_data: np.ndarray) -> sp.csr_matrix:
    """Sparse block-diagonal matrix of per-node NxN blocks."""
    nx, ny, n, _ = field_data.shape
    m = nx * ny
    blocks = field_data.reshape(m, n, n)
    rows = (np.arange(m)[:, None, None] * n + np.arange(n)[None, :, None])
    cols = (np.arange(m)[:, None, None] * n + np.arange(n)[None, None, :])
    return sp.csr_matrix((blocks.ravel(),
                          (np.broadcast_to(rows, blocks.shape).ravel(),
                           np.broadcast_to(cols, blocks.shape).ravel())),
                         shape=(m * n, m * n))


class OperatorFactorization:
    """One assembled and LU-factored elliptic system, reusable across solves."""

    def __init__(self, coefs: CoefficientTriple):
        grid = coefs.grid
        n = coefs.n_sys
        lap, dx, dy, idx = _scalar_stencils(grid)
        eye_n = sp.identity(n, format="csr", dtype=complex)
        dz = dx - 1j * dy       # 2 * d/dz
        dzbar = dx + 1j * dy    # 2 * d/dzbar
        M = (sp.kron(lap, eye_n)
             + _block_diag_of(coefs.a_coef.data) @ sp.kron(dz, eye_n)
             + _block_diag_of(coefs.b_coef.data) @ sp.kron(dzbar, eye_n))
        # Q only on interior rows; boundary rows become identity
        q = coefs.q_coef.data.copy()
        q[0, :] = q[-1, :] = 0.0
        q[:, 0] = q[:, -1] = 0.0
        M = (M + _block_diag_of(q)).tolil()

        bmask = np.zeros(grid.shape, dtype=bool)
        bmask[0, :] = bmask[-1, :] = True
        bmask[:, 0] = bmask[:, -1] = True
        bnodes = idx[bmask]
        for p in bnodes:
            for a in range(n):
                r = p * n + a
                M.rows[r] = [r]
                M.data[r] = [1.0 + 0.0j]
        self.grid = grid
        self.n_sys = n
        self._idx = idx
        self._bmask = bmask
        M = M.tocsc()
        self._matrix = M
        try:
            self._lu = splu(M)
        except RuntimeError as exc:
            raise SingularSystemError(
                "factorization failed (near interior eigenvalue?); "
                f"try shifting Q: {exc}") from exc

    def solve(self, boundary_values: np.ndarray | None,
              rhs: VectorField | None) -> VectorField:
        grid, n = self.grid, self.n_sys
        b = np.zeros((grid.nx * grid.ny, n), dtype=complex)
        if rhs is not None:
            interior = ~self._bmask
            b[self._idx[interior]] = rhs.data[interior]
        if boundary_values is not None:
            bv = np.asarray(boundary_values, dtype=complex)
            if bv.ndim == 1:
                bv = bv[:, None]
            flat = np.zeros((grid.nx * grid.ny, n), dtype=complex)
            part = BoundaryPartition(grid)
            ii, jj, _, _ = part.nodes()
            flat[self._idx[ii, jj]] = bv
            b[self._idx[self._bmask]] = flat[self._idx[self._bmask]]
        x = self._lu.solve(b.ravel())
        res = np.linalg.norm(self._matrix @ x - b.ravel())
        scale = max(np.linalg.norm(b), 1e-300)
        if not np.all(np.isfinite(x)) or res / scale > 1e-8:
            raise SingularSystemError(
                "discrete system numerically singular; try shifting Q")
        return VectorField(grid, x.reshape(grid.nx, grid.ny, n))


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


def neumann_trace(u: VectorField, partition: BoundaryPartition, label: str) -> np.ndarray:
    """2nd-order one-sided outward normal derivative on the labeled arcs."""
    return normal_derivative(u, partition, label)


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
    (k mod n_arcs) with mode (k // n_arcs) + 1.
    """
    grid = partition.grid
    full = BoundaryPartition(grid)
    fi, fj, _, _ = full.nodes()
    X, Y = grid.meshgrid()
    arcs = partition.arcs(GAMMA_TILDE)
    out = []
    for k in range(m):
        edge = arcs[k % len(arcs)]
        mode = k // len(arcs) + 1
        v = np.zeros(len(fi))
        for p, (a, b) in enumerate(zip(fi, fj)):
            on = {"bottom": b == 0, "top": b == grid.ny - 1,
                  "left": a == 0, "right": a == grid.nx - 1}[edge]
            if edge in ("left", "right"):
                on = on and 0 < b < grid.ny - 1
            if on:
                if edge in ("bottom", "top"):
                    t = (X[a, b] - grid.x_min) / (grid.x_max - grid.x_min)
                else:
                    t = (Y[a, b] - grid.y_min) / (grid.y_max - grid.y_min)
                v[p] = np.sin(mode * np.pi * t)
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

    def to_json_dict(self) -> dict:
        def enc(arrs):
            return [[[v.real, v.imag] for v in a.ravel()] for a in arrs]
        return {
            "partition": self.partition.to_json_dict(),
            "basis_id": self.basis_id,
            "n_sys": (self.dirichlet[0].shape[1] if self.dirichlet else 0),
            "dirichlet": enc(self.dirichlet),
            "neumann": enc(self.neumann),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PartialCauchyData":
        part = BoundaryPartition.from_json_dict(d["partition"])
        n = d["n_sys"]

        def dec(entries):
            out = []
            for a in entries:
                arr = np.array([complex(re, im) for re, im in a])
                out.append(arr.reshape(-1, n))
            return out
        return cls(partition=part, basis_id=d["basis_id"],
                   dirichlet=dec(d["dirichlet"]), neumann=dec(d["neumann"]))

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, sort_keys=True)

    @classmethod
    def load(cls, path) -> "PartialCauchyData":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))


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
    fac = OperatorFactorization(coefs)
    dir_traces, neu_traces = [], []
    comps = range(n) if components == "all" else (0,)
    for k, prof in enumerate(profiles):
        for c in comps:
            bv = np.zeros((len(prof), n), dtype=complex)
            bv[:, c] = prof
            try:
                u = fac.solve(bv, None)
            except SingularSystemError as exc:
                raise SingularSystemError(f"basis element {k}: {exc}") from exc
            dir_traces.append(trace_boundary(u, partition, GAMMA_TILDE))
            neu_traces.append(neumann_trace(u, partition, GAMMA_TILDE))
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
