"""Oscillating solutions with holomorphic phase and matrix amplitudes.

The solutions are e^{tau Phi} w0, whose amplitude kills the first-order
terms of the operator after conjugation by e^{tau Phi}, so the full
residual is carried by the zero-order factorization remainder.  The
amplitude solves the integral fixed point

    w0 + (1/2) dzbar^{-1}(A w0) = seed,        seed holomorphic,

whose residual is measured on the discrete integral system itself: it
is the last residual of the solve's series, so it costs no transform of
its own.  The stencil residual of the differential form is reported
separately since it is bounded below by the differentiation error of
the scheme.  Every
antiholomorphic quantity (the branch w0~ e^{tau conj Phi}, its residual,
Q - 2 dzbar B - A B) is the conjugate of its holomorphic twin on
``coefs.mirror()`` = (conj B, conj A, conj Q).  One amplitude serves every
tau: it carries the derivatives of w0, the triple carries 2 dz A + B A,
and a tau that is not a finite number > 0 is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import LabError, OverflowGuardError
from .grid import Grid2D, check_same, check_tau
from .fields import VectorField, MatrixField, pointwise, _norm
from .calculus import dz_array, dzbar_array, laplacian_array, wirtinger_pair
from .synthetic import random_trig_spec
from .forward import CoefficientTriple
from .weights import HolomorphicWeight
from .transforms import TransformPlan, make_vekua_operator, _vekua_solve

# residual tolerance of the two amplitude solves
_AMPLITUDE_TOL = 1e-9


def holomorphic_seed(grid: Grid2D, n_sys: int) -> VectorField:
    """Affine entire seed 1 + (k+1) z/4 in slot k, sampled on the grid."""
    z = grid.nodes_z()
    return VectorField(grid, np.stack([1.0 + 0.25 * (k + 1) * z
                                       for k in range(n_sys)], axis=2))


@dataclass(frozen=True)
class CgoAmplitude:
    """Amplitude w0 with its seed, derivatives and residual report.

    d_w0: the (dz, dzbar) pair of w0 under the package stencils.
    residual: relative residual of the discrete integral fixed point, the
    worse of w0's solve and the mirror's.  stencil_residual: relative
    interior residual of (2 dzbar + A) w0 and of the mirror's twin under
    the package difference stencils, the worse of the two; it converges
    at the stencil order, not to zero.
    """

    w0: VectorField
    seed: VectorField
    d_w0: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    residual: float
    stencil_residual: float

    def __post_init__(self):
        check_same(self.w0, self.seed, *self.d_w0)
        if not self.residual <= 1e-6:
            raise LabError(f"amplitude integral residual {self.residual:.2e} "
                           "exceeds the 1e-6 contract")

    @cached_property
    def lap_w0(self) -> np.ndarray:
        """The Laplacian of w0, taken on first access."""
        return laplacian_array(self.w0.data, self.w0.grid)


def _stencil_residual(w: VectorField, dw: np.ndarray, m: MatrixField) -> float:
    """Relative interior residual of (2 d + m) w, given dw = d w under the package stencils."""
    r = 2 * dw + pointwise(m.data, w.data)
    sl = np.s_[3:-3, 3:-3]
    return _norm(r[sl]) / max(_norm(w.data[sl]), 1e-30)


def build_amplitude(coefs: CoefficientTriple, plan: TransformPlan) -> CgoAmplitude:
    """Solve (2 dzbar + A) w0 = 0 from the affine holomorphic seed, and score it.

    The mirror's amplitude, with conj B, is solved too: the residuals
    are the worse of the two sides.
    """
    check_same(coefs, plan)
    grid = coefs.grid
    seed = holomorphic_seed(grid, coefs.n_sys)

    def solve(m: MatrixField):
        # w = seed + v with (2 dzbar + m) v = -m seed: w + K w - seed is the
        # residual v + K v + K seed of the solve, whose right-hand side is -K seed
        op = make_vekua_operator(m, plan)
        v, res = _vekua_solve(op, m.matvec(seed).data * (-1.0), _AMPLITUDE_TOL)
        return seed.with_data(seed.data + v), float(res) / _norm(seed.data)

    # the mirror's side first: conj B, its solve and its one derivative are
    # dropped before w0's derivative pair, which the amplitude keeps, is taken
    b_bar = coefs.b_coef.conj()
    w_mirror, res_b = solve(b_bar)
    sres_b = _stencil_residual(w_mirror, dzbar_array(w_mirror.data, grid), b_bar)
    del b_bar, w_mirror
    w0, res_a = solve(coefs.a_coef)
    d_w0 = wirtinger_pair(w0.data, grid)
    sres = max(_stencil_residual(w0, d_w0[1], coefs.a_coef), sres_b)
    return CgoAmplitude(w0=w0, seed=seed, d_w0=d_w0, residual=max(res_a, res_b),
                        stencil_residual=sres)


@dataclass(frozen=True)
class CgoSolution:
    """The holomorphic branch w0 e^{tau Phi} at one tau, as cgo_residual reads it."""

    amplitude: CgoAmplitude
    weight: HolomorphicWeight
    tau: float


def build_cgo_solution(amplitude: CgoAmplitude, weight: HolomorphicWeight,
                       tau: float) -> CgoSolution:
    check_tau(tau)
    return CgoSolution(amplitude=amplitude, weight=weight, tau=float(tau))


def _apply_operator(v: np.ndarray, coefs: CoefficientTriple) -> np.ndarray:
    grid = coefs.grid
    dz, dzbar = wirtinger_pair(v, grid)
    return (laplacian_array(v, grid)
            + 2 * pointwise(coefs.a_coef.data, dz)
            + 2 * pointwise(coefs.b_coef.data, dzbar)
            + pointwise(coefs.q_coef.data, v))


def zero_order_remainder(coefs: CoefficientTriple) -> np.ndarray:
    """Q - 2 dz A - B A; the mirror's is conj(Q - 2 dzbar B - A B)."""
    return coefs.q_coef.data - coefs.first_order_part


def cgo_residual(sol: CgoSolution, coefs: CoefficientTriple) -> dict:
    """Weighted interior residual of the holomorphic oscillating branch.

    Measures the conjugated defect  e^{-tau Phi} (L - S)(w0 e^{tau Phi})
    with the conjugation carried out analytically,

        lap w0 + 4 tau Phi' dzbar w0
        + 2 A (dz w0 + tau Phi' w0) + 2 B dzbar w0 + (Q - S) w0,

    in relative L2 over grid.interior(), which drops the boundary collar
    where the transform quadrature is first-order accurate.  Applying
    the stencils to the oscillating product instead would bury the
    identity under truncation error growing like tau^4.  residual_raw is
    the max-norm of the same defect.  The derivatives of w0 come from the
    amplitude and Q - S = 2 dz A + B A from the triple; a defect too large
    for floating point is refused with OverflowGuardError.  The residual
    of the antiholomorphic branch is this one on the mirror triple and
    its amplitude.
    """
    grid = coefs.grid
    amp = sol.amplitude
    check_same(amp.w0, coefs)
    w = amp.w0.data
    dz_w, dzbar_w = amp.d_w0
    dphi = sol.weight.dPhi(grid.nodes_z())[:, :, None]
    sl = grid.interior()
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        first = (2 * pointwise(coefs.a_coef.data, dz_w + sol.tau * dphi * w)
                 + 2 * pointwise(coefs.b_coef.data, dzbar_w)
                 + 4 * sol.tau * dphi * dzbar_w)
        defect = amp.lap_w0 + first + pointwise(coefs.first_order_part, w)
        num = _norm(defect[sl])
    den = _norm(w[sl])
    if den == 0.0:
        raise LabError("amplitude vanishes on the interior window")
    rec = {"tau": sol.tau, "nx": grid.nx, "residual_weighted": num / den,
           "residual_raw": float(np.max(np.abs(defect[sl])))}
    if not np.isfinite(rec["residual_weighted"]):
        raise OverflowGuardError("non-finite weighted residual")
    return rec


def _factored(v: np.ndarray, coefs: CoefficientTriple) -> np.ndarray:
    """(2 dz + B)(2 dzbar + A) v + (Q - 2 dz A - B A) v on raw samples."""
    grid = coefs.grid
    inner = 2 * dzbar_array(v, grid) + pointwise(coefs.a_coef.data, v)
    return (2 * dz_array(inner, grid) + pointwise(coefs.b_coef.data, inner)
            + pointwise(zero_order_remainder(coefs), v))


def factorization_check(coefs: CoefficientTriple) -> dict:
    """Compare L v against both first-order factorizations on a smooth probe.

    factored_1: (2 dz + B)(2 dzbar + A) v + (Q - 2 dz A - B A) v
    factored_2: (2 dzbar + A)(2 dz + B) v + (Q - 2 dzbar B - A B) v,
    the conjugate of factored_1 of the mirror triple on conj v.

    The composition of one-sided closures pollutes a band near the
    boundary, hence the max norms trimmed by 6 nodes.  The probe is a
    seeded random trigonometric field.
    """
    grid, n = coefs.grid, coefs.n_sys
    rng = np.random.default_rng(7)
    v = random_trig_spec(rng, (n,), amplitude=1.0).vector_field(grid).data
    direct = _apply_operator(v, coefs)
    f1 = _factored(v, coefs)
    f2 = np.conj(_factored(np.conj(v), coefs.mirror()))
    sl = np.s_[6:-6, 6:-6]
    scale = max(float(np.max(np.abs(direct[sl]))), 1e-30)
    return {"nx": grid.nx,
            "discrepancy_1": float(np.max(np.abs((f1 - direct)[sl]))),
            "discrepancy_2": float(np.max(np.abs((f2 - direct)[sl]))),
            "relative_1": float(np.max(np.abs((f1 - direct)[sl]))) / scale,
            "relative_2": float(np.max(np.abs((f2 - direct)[sl]))) / scale}
