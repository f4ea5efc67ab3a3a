"""Solid Cauchy transforms and Vekua-type inverses of 2*d/dzbar + B.

Quadrature: tensor trapezoid over the node-centered cells with the
singular cell handled analytically.  The kernel 1/(zeta - z) integrated
over a rectangle centered at z vanishes by odd symmetry, so the
self-cell constant is exactly zero; the target node's own contribution
is simply dropped.

The transform of a field is a fixed finite sum per target node, a
discrete convolution with the difference kernel.  The plan places that
kernel circularly on an FFT grid of L0 x L1 points, each the smallest
11-smooth length of at least 2n - 1, where the circular convolution
equals the linear one, and keeps its spectrum (numpy.fft along axis 0,
then along axis 1).  One apply works on each component plane in turn,
in place in the plan's one L0 x L1 work array, whose padding it zeroes
each time: a forward FFT along axis 0 over the ny input columns only
(the zero padding columns transform to zero), one along axis 1, the
product with the spectrum, an inverse FFT along axis 0, the scaling by
1/(L0 L1), and an inverse FFT along axis 1 over the nx kept output rows
only (Markel's FFT pruning, IEEE Trans. Audio Electroacoust. 19, 1971).
These are the one-axis passes, in the same order and with the scaling
at the same place, that scipy.fft's fft2 / ifft2 make over the padded
grid, and numpy >= 2 runs the same pocketfft: the result is bit for bit
the one of that two-dimensional pair, and no scipy module is loaded.

The Vekua inverse solves the integral form w + (1/2) dzbar^{-1}(B w) =
(1/2) dzbar^{-1} g by its Neumann series, the forward solver's residual
series and stopping rule with M = I (Saad, Iterative Methods for Sparse
Linear Systems, 2003, ch. 4).  Its last residual is the tolerance check;
on a miss GMRES, which imports scipy on its first call, solves the same
discrete equation under the same check.  Whole-array norms use no BLAS.
Building an operator applies no transform.  The conjugated
inverses R_{tau,B} are one such solve under a phase conjugation, and
R_tau is their B = 0 case; their side 'z' is the conjugate of side
'zbar' run on conj g and conj B, since (2 dz + B) w = g iff
(2 dzbar + conj B) conj w = conj g.  Every entry point first refuses
arguments off one grid and N (``check_same``).  r_tau_b refuses a side
other than 'z' / 'zbar' and a tau that is not a finite number > 0,
before any transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, ConvergenceError, SingularSystemError
from .grid import Grid2D, CutoffFunction, check_same, check_tau
from .fields import (VectorField, MatrixField, as_data, pointwise, same_kind, _norm,
                     _residual_series)
from .weights import HolomorphicWeight


def _fast_len(n: int) -> int:
    """The smallest 11-smooth m >= n: the FFT lengths pocketfft runs fastest."""
    m = n
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _kernel_table(grid: Grid2D) -> np.ndarray:
    """Circular kernel: the weight of source s at target t sits at (t - s) mod L.

    The entry is -(1/pi) / (zeta_s - z_t); L = _fast_len(2n - 1) per
    axis, so no two offsets of the grid share a slot.
    """
    dx = np.arange(-(grid.nx - 1), grid.nx)
    dy = np.arange(-(grid.ny - 1), grid.ny)
    D = dx[:, None] * grid.h_x + 1j * dy[None, :] * grid.h_y  # z_t - zeta_s
    D *= np.pi
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, D, out=D)
    # self cell: closed-form polar/odd-symmetry integration of 1/(zeta - z)
    # over the centered singular cell gives exactly 0
    D[grid.nx - 1, grid.ny - 1] = 0.0
    shape = (_fast_len(2 * grid.nx - 1), _fast_len(2 * grid.ny - 1))
    K = np.zeros(shape, dtype=complex)
    K[np.ix_(dx % shape[0], dy % shape[1])] = D
    return K


@dataclass(frozen=True)
class TransformPlan:
    """Precomputed quadrature data: node weights and the kernel spectrum.

    It also holds the one L0 x L1 work array in which an apply runs every
    pass in place, so the passes allocate nothing; each apply zeroes the
    padding it reads.  So one plan serves one apply at a time.
    """

    grid: Grid2D
    _spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spectrum = _kernel_table(self.grid)
        np.fft.fft(spectrum, axis=0, out=spectrum)
        np.fft.fft(spectrum, axis=1, out=spectrum)
        object.__setattr__(self, "_spectrum", spectrum)
        object.__setattr__(self, "_weights", self.grid.quad_weights())
        object.__setattr__(self, "_work", np.empty_like(spectrum))


def _apply_kernel(plan: TransformPlan, samples: np.ndarray) -> np.ndarray:
    """-(1/pi) * sum_s w_s g_s / (zeta_s - z_t) for every target node t."""
    nx, ny = plan.grid.shape
    work = plan._work
    cols, kept = work[:, :ny], work[:nx]
    scale = 1.0 / work.size
    planes = samples.reshape(nx, ny, -1)
    out = np.empty(planes.shape, dtype=complex)
    for k in range(planes.shape[2]):
        np.multiply(planes[:, :, k], plan._weights, out=cols[:nx])
        cols[nx:] = 0.0
        np.fft.fft(cols, axis=0, out=cols)
        work[:, ny:] = 0.0
        np.fft.fft(work, axis=1, out=work)
        work *= plan._spectrum
        np.fft.ifft(work, axis=0, norm="forward", out=work)
        flat = kept.view(float)
        flat *= scale  # re and im times 1/(L0 L1), where and as ifft2 scales
        np.fft.ifft(kept, axis=1, norm="forward", out=kept)
        out[:, :, k] = kept[:, :ny]
    return out.reshape(samples.shape)


def dzbar_inv(g, plan: TransformPlan):
    """Solid Cauchy transform inverting d/dzbar on the rectangle."""
    return same_kind(g, plan.grid, _apply_kernel(plan, as_data(g, plan)))


def dz_inv(g, plan: TransformPlan):
    """Conjugate-kernel transform inverting d/dz; dz_inv(g) = conj(dzbar_inv(conj g))."""
    out = np.conj(_apply_kernel(plan, np.conj(as_data(g, plan))))
    return same_kind(g, plan.grid, out)


@dataclass(frozen=True)
class VekuaOperator:
    """Inverse of (2*d/dzbar + B) built from the solid Cauchy transform."""

    b_coef: MatrixField
    plan: TransformPlan

    def __post_init__(self):
        check_same(self.b_coef, self.plan)

    def full_map(self, v: np.ndarray) -> np.ndarray:
        """v -> (1/2) dzbar_inv(B v), the map K of the integral form w + K w."""
        return 0.5 * dzbar_inv(pointwise(self.b_coef.data, v), self.plan)


def make_vekua_operator(b_coef: MatrixField, plan: TransformPlan) -> VekuaOperator:
    """The operator of B on the plan's grid; building it applies no transform."""
    return VekuaOperator(b_coef=b_coef, plan=plan)


def neumann_series_apply(op: VekuaOperator, g, cutoff: CutoffFunction | None = None):
    """The cutoff series S_B g = (1/2) sum_j (-1)^j ((1/2) dzbar^{-1} e B)^j dzbar^{-1} g.

    ``e`` holds the values of ``cutoff``; no cutoff means e = 1.  The
    series is the inverse of 2 dzbar + e B, so this is vekua_solve of the
    operator with B cut off to e B, under its contract: its series, or
    GMRES where the series stalls.  Without a cutoff it is vekua_solve(op, g).
    """
    check_same(op.b_coef, g, cutoff)
    if cutoff is not None:
        op = VekuaOperator(op.b_coef.with_data(
            cutoff.values[:, :, None, None] * op.b_coef.data), op.plan)
    return vekua_solve(op, g)


def gmres(*args, **kwargs):
    """scipy.sparse.linalg.gmres, whose module is imported on the first call."""
    from scipy.sparse.linalg import gmres as scipy_gmres
    return scipy_gmres(*args, **kwargs)


def vekua_solve(op: VekuaOperator, g):
    """Solve (2 dzbar + B) w = g through its integral form w + K w = (1/2) dzbar_inv(g).

    Meets a relative residual <= 1e-8 on that discrete equation by the
    Neumann series or else GMRES, or raises ConvergenceError naming the
    residual; GMRES's own stop flag decides nothing.
    """
    w, _ = _vekua_solve(op, as_data(g, op.b_coef), 1e-8)
    return same_kind(g, op.plan.grid, w)


def _vekua_solve(op: VekuaOperator, gd: np.ndarray, tol: float):
    """Raw-sample vekua_solve: w and the norm of rhs - (w + K w), rhs = dzbar_inv(gd) / 2."""
    rhs = 0.5 * dzbar_inv(gd, op.plan)
    rhs_norm = _norm(rhs)

    def apply(v):
        return v + op.full_map(v)

    w, res, _ = _residual_series(apply, np.copy, rhs, _norm)
    if not res <= tol:
        from scipy.sparse.linalg import LinearOperator

        A = LinearOperator((gd.size, gd.size), dtype=complex,
                           matvec=lambda x: apply(x.reshape(gd.shape)).ravel())
        x, info = gmres(A, rhs.ravel(), rtol=0.01 * tol, atol=0.0, maxiter=400,
                        restart=80)
        if info < 0:
            raise SingularSystemError("Vekua integral system breakdown")
        w = x.reshape(gd.shape)
        res = _norm(rhs - apply(w)) / rhs_norm
        if not res <= tol:
            raise ConvergenceError(f"Vekua solve missed the residual tolerance: "
                                   f"residual {res:.2e} > {tol:g}", residual=res)
    return w, res * rhs_norm


def r_tau_b(g, weight: HolomorphicWeight, tau: float, b_coef: MatrixField,
            plan: TransformPlan, side: str = "zbar",
            cutoff: CutoffFunction | None = None):
    """Conjugated Vekua inverses R_{tau,B} / R~_{tau,B}.

    side 'zbar' solves (2 d_zbar + 2 tau d_zbar conj(Phi) + B) w = g as
    e^{2 i tau psi} (2 d_zbar + B)^{-1}(e^{-2 i tau psi} g), one vekua_solve
    at its 1e-8 tolerance (Phi - conj(Phi) = 2 i psi); side 'z' solves
    (2 d_z + 2 tau d_z Phi + B) w = g, the conjugate of side 'zbar'
    solved for conj g with conj B.  At B = 0 the solve's series stops at
    its first term: R_tau g = (1/2) e^{2 i tau psi} dzbar_inv(e^{-2 i tau psi} g).

    `cutoff` is accepted and ignored: the benchmark's rtau_ladder
    workload still passes it, until the benchmark rewrite of ROADMAP
    item 1 drops that argument.  The paper's composite
    T_B g = S_B g - T_B((1 - e) B S_B g), with S_B the cutoff series,
    solves the same discrete equation (I + K) w = (1/2) dzbar^{-1} g as
    vekua_solve for every cutoff e: (I + K) - (I + K_e) is
    (1/2) dzbar^{-1}((1 - e) B .), the second resolvent identity.  So
    T_B does not depend on e.
    """
    gd = as_data(g, b_coef, plan, cutoff)
    check_tau(tau)
    if side not in ("z", "zbar"):
        raise GridError(f"side must be 'z' or 'zbar', got {side!r}")
    mirrored = side == "z"
    op = make_vekua_operator(b_coef.conj() if mirrored else b_coef, plan)
    osc = np.exp(2j * tau * weight.psi(plan.grid.nodes_z()))
    osc = osc.reshape(osc.shape + (1,) * (gd.ndim - 2))
    if mirrored:
        gd = np.conj(gd)
    # osc stays the left operand: numpy's complex multiply is not commutative bit for bit
    out = osc * vekua_solve(op, np.conj(osc) * gd)
    return same_kind(g, plan.grid, np.conj(out) if mirrored else out)
