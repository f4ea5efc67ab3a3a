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
in the plan's work arrays: a forward FFT along axis 0 over the ny input
columns only (the zero padding columns transform to zero), one along
axis 1, the product with the spectrum, an inverse FFT along axis 0, the
scaling by 1/(L0 L1), and an inverse FFT along axis 1 over the nx kept
output rows only (Markel's FFT pruning, IEEE Trans. Audio Electroacoust.
19, 1971).  These are the one-axis passes, in the same order and with
the scaling at the same place, that scipy.fft's fft2 / ifft2 make over
the padded grid, and numpy >= 2 runs the same pocketfft: the result is
bit for bit the one of that two-dimensional pair, and no scipy module
is loaded.

The Vekua inverse solves the integral form w + (1/2) dzbar^{-1}(B w) =
(1/2) dzbar^{-1} g by its Neumann series, handing over to GMRES when the
series contracts too slowly; the GMRES fallback imports scipy on its
first call.  Building an operator applies no transform.  The conjugated
inverses R_{tau,B} are one such solve under a phase conjugation; their
side 'z' is the conjugate of side 'zbar' run on conj g and conj B, since
(2 dz + B) w = g iff (2 dzbar + conj B) conj w = conj g.  Every entry
point first refuses arguments off one grid and N (``check_same``).
r_tau and r_tau_b refuse a side other than 'z' / 'zbar' and a tau that
is not a finite number > 0, before any transform.  The series of
v -> (1/2) dzbar^{-1}(e B v) for a cutoff e that its caller passes
(``neumann_series_apply``) is kept to observe the smallness-of-support
mechanism; it is gated on the norm ratios of its own terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, ConvergenceError, DivergenceError, SingularSystemError
from .grid import Grid2D, CutoffFunction, check_same, check_tau
from .fields import VectorField, MatrixField, as_data, pointwise, same_kind
from .weights import HolomorphicWeight

# most Neumann-series terms vekua_solve sums before falling back to GMRES
_SERIES_CAP = 80
# the cutoff series stops once a term's norm is below this factor times eps
# times the norm of its running sum: one addition moves an entry only by a
# term above about eps / 2 of that entry, so further terms are round-off
_CUTOFF_STOP = 1e-3


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
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = 1.0 / (np.pi * D)
    # self cell: closed-form polar/odd-symmetry integration of 1/(zeta - z)
    # over the centered singular cell gives exactly 0
    vals[grid.nx - 1, grid.ny - 1] = 0.0
    shape = (_fast_len(2 * grid.nx - 1), _fast_len(2 * grid.ny - 1))
    K = np.zeros(shape, dtype=complex)
    K[np.ix_(dx % shape[0], dy % shape[1])] = vals
    return K


@dataclass(frozen=True)
class TransformPlan:
    """Precomputed quadrature data: node weights and the kernel spectrum.

    It also holds the work arrays of an apply, so the passes allocate
    nothing: the zero-padded input of the forward axis-0 pass, the
    zero-padded input of the axis-1 pass (the padding of both stays zero),
    the L0 x L1 array that the product and the inverse axis-0 pass
    overwrite in place, and the kept rows of the inverse axis-1 pass.  So
    one plan serves one apply at a time.
    """

    grid: Grid2D
    _spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _work: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nx, ny = self.grid.shape
        spectrum = np.fft.fft(np.fft.fft(_kernel_table(self.grid), axis=0), axis=1)
        l0, l1 = spectrum.shape
        object.__setattr__(self, "_spectrum", spectrum)
        object.__setattr__(self, "_weights", self.grid.quad_weights())
        object.__setattr__(self, "_work", (
            np.zeros((l0, ny), dtype=complex), np.zeros((l0, l1), dtype=complex),
            np.empty((l0, l1), dtype=complex), np.empty((nx, l1), dtype=complex)))


def _apply_kernel(plan: TransformPlan, samples: np.ndarray) -> np.ndarray:
    """-(1/pi) * sum_s w_s g_s / (zeta_s - z_t) for every target node t."""
    nx, ny = plan.grid.shape
    padded0, padded1, full, kept = plan._work
    scale = 1.0 / full.size
    planes = samples.reshape(nx, ny, -1)
    out = np.empty(planes.shape, dtype=complex)
    for k in range(planes.shape[2]):
        np.multiply(planes[:, :, k], plan._weights, out=padded0[:nx])
        np.fft.fft(padded0, axis=0, out=padded1[:, :ny])
        np.fft.fft(padded1, axis=1, out=full)
        full *= plan._spectrum
        np.fft.ifft(full, axis=0, norm="forward", out=full)
        rows = full[:nx].view(float)
        rows *= scale  # re and im times 1/(L0 L1), where and as ifft2 scales
        np.fft.ifft(full[:nx], axis=1, norm="forward", out=kept)
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
    """Build the operator; no transform is applied.

    Whether a Neumann series of the operator converges is judged by the
    series itself, from the norm ratios of its own terms (see
    neumann_series_apply and vekua_solve).
    """
    return VekuaOperator(b_coef=b_coef, plan=plan)


def neumann_series_apply(op: VekuaOperator, g, terms: int,
                         cutoff: CutoffFunction | None = None
                         ) -> np.ndarray | VectorField | MatrixField:
    """Partial sum of (1/2) sum_j (-1)^j ((1/2) dzbar^{-1} e B)^j dzbar^{-1} g.

    ``e`` holds the values of ``cutoff``; no cutoff means e = 1.  Stops
    after the first term with norm <= 1e-3 eps times the norm of the
    running sum, or after `terms` terms, whichever comes first; `terms` is
    a cap.  Zero g costs one transform.  The series judges its own
    convergence: it raises DivergenceError, naming the ratios, when three
    consecutive term-norm ratios are >= 1.  A shorter run of growing
    terms is the transient growth of a non-normal map and is summed on.
    """
    term = 0.5 * dzbar_inv(as_data(g, op.b_coef, cutoff), op.plan)
    e = 1.0 if cutoff is None else \
        cutoff.values.reshape(cutoff.values.shape + (1,) * (term.ndim - 2))
    total = term.copy()
    prev_norm = np.linalg.norm(term)
    stop = _CUTOFF_STOP * np.finfo(float).eps
    growth = []  # the current run of term-norm ratios >= 1
    for _ in range(1, terms):
        if prev_norm <= stop * np.linalg.norm(total):
            break
        term = -(0.5 * dzbar_inv(e * pointwise(op.b_coef.data, term), op.plan))
        total += term
        nrm = np.linalg.norm(term)
        if prev_norm > 0 and nrm >= prev_norm:
            growth.append(nrm / prev_norm)
            if len(growth) >= 3:
                raise DivergenceError(
                    "series term norms failed to decay for 3 consecutive "
                    "terms: term ratios " + ", ".join(f"{r:.2f}" for r in growth))
        else:
            growth = []
        prev_norm = nrm
    return same_kind(g, op.plan.grid, total)


def gmres(*args, **kwargs):
    """scipy.sparse.linalg.gmres, whose module is imported on the first call."""
    from scipy.sparse.linalg import gmres as scipy_gmres
    return scipy_gmres(*args, **kwargs)


def vekua_solve(op: VekuaOperator, g, tol: float = 1e-8):
    """Solve (2 dzbar + B) w = g through its integral form w + K w = (1/2) dzbar_inv(g).

    Starts the Neumann series of the integral form.  After each term it
    first checks convergence, then leaves for a GMRES solve of the same
    discrete integral equation as soon as a term's norm is >= 0.8 times
    the previous one; GMRES also takes over when the series reaches its
    cap or misses the residual check.  The residual contract is on that
    discrete operator; it also judges a GMRES run that stops at its cap.
    """
    w, _, _ = _vekua_solve(op, as_data(g, op.b_coef), tol)
    return same_kind(g, op.plan.grid, w)


def _vekua_solve(op: VekuaOperator, gd: np.ndarray, tol: float):
    """vekua_solve on raw samples; returns w, the op.full_map(w) of its check, and rhs."""
    rhs = 0.5 * dzbar_inv(gd, op.plan)
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(gd), np.zeros_like(gd), rhs

    w = rhs.copy()
    term, prev_norm = rhs, rhs_norm
    for _ in range(_SERIES_CAP):
        term = -op.full_map(term)
        w += term
        nrm = np.linalg.norm(term)
        if nrm < 0.1 * tol * rhs_norm:
            break
        if nrm >= 0.8 * prev_norm:
            w = None  # contracting too slowly, if at all
            break
        prev_norm = nrm
    else:
        w = None
    if w is not None:
        kw = op.full_map(w)
        if np.linalg.norm(w + kw - rhs) / rhs_norm > tol:
            w = None  # fall through to GMRES

    if w is None:
        shape = gd.shape

        def mv(x):
            v = x.reshape(shape)
            return (v + op.full_map(v)).ravel()

        from scipy.sparse.linalg import LinearOperator

        A = LinearOperator((gd.size, gd.size), matvec=mv, dtype=complex)
        x, info = gmres(A, rhs.ravel(), rtol=0.01 * tol, atol=0.0, maxiter=400,
                        restart=80)
        if info < 0:
            raise SingularSystemError("Vekua integral system breakdown")
        w = x.reshape(shape)
        kw = op.full_map(w)
        res = np.linalg.norm(w + kw - rhs) / rhs_norm
        if res > tol:
            raise ConvergenceError(f"Vekua solve missed the residual tolerance: "
                                   f"residual {res:.2e} > {tol:g}", residual=res)
    return w, kw, rhs


def _mirrored(tau, side: str) -> bool:
    """Refuse a bad tau or side; True on side 'z', the conjugate mirror of 'zbar'."""
    check_tau(tau)
    if side not in ("z", "zbar"):
        raise GridError(f"side must be 'z' or 'zbar', got {side!r}")
    return side == "z"


def _phase_conjugated(gd: np.ndarray, weight: HolomorphicWeight, tau: float,
                      grid: Grid2D, mirrored: bool, inverse) -> np.ndarray:
    """e^{2 i tau psi} inverse(e^{-2 i tau psi} gd); mirrored, its conjugate at conj gd."""
    osc = np.exp(2j * tau * weight.psi(grid.nodes_z()))
    osc = osc.reshape(osc.shape + (1,) * (gd.ndim - 2))
    if mirrored:
        gd = np.conj(gd)
    # osc stays the left operand: numpy's complex multiply is not commutative bit for bit
    out = osc * inverse(np.conj(osc) * gd)
    return np.conj(out) if mirrored else out


def r_tau(g, weight: HolomorphicWeight, tau: float, plan: TransformPlan,
          side: str = "zbar"):
    """Conjugated transforms R_tau (side 'zbar') and R~_tau (side 'z').

    R_tau g    = (1/2) e^{2 i tau psi} dzbar_inv(g e^{-2 i tau psi}),
    R~_tau g   = (1/2) e^{-2 i tau psi} dz_inv(g e^{2 i tau psi}) = conj(R_tau conj g),
    using Phi - conj(Phi) = 2 i psi.
    """
    gd = as_data(g, plan)
    mirrored = _mirrored(tau, side)
    out = _phase_conjugated(gd, weight, tau, plan.grid, mirrored,
                            lambda x: 0.5 * dzbar_inv(x, plan))
    return same_kind(g, plan.grid, out)


def r_tau_b(g, weight: HolomorphicWeight, tau: float, b_coef: MatrixField,
            plan: TransformPlan, side: str = "zbar",
            cutoff: CutoffFunction | None = None):
    """Conjugated Vekua inverses R_{tau,B} / R~_{tau,B}.

    side 'zbar' solves (2 d_zbar + 2 tau d_zbar conj(Phi) + B) w = g,
    side 'z'    solves (2 d_z    + 2 tau d_z Phi        + B) w = g,
    the conjugate of side 'zbar' solved for conj g with conj B.  Each is
    one vekua_solve, at its default tolerance, under the phase
    conjugation of r_tau, B identically zero included: that solve's series
    stops at its first term and gives r_tau bit for bit.

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
    mirrored = _mirrored(tau, side)
    op = make_vekua_operator(b_coef.conj() if mirrored else b_coef, plan)
    out = _phase_conjugated(gd, weight, tau, plan.grid, mirrored,
                            lambda x: vekua_solve(op, x))
    return same_kind(g, plan.grid, out)
