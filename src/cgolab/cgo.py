"""Oscillating solutions with holomorphic phase and matrix amplitudes.

The amplitude pair kills the first-order terms of the operator after
conjugation by exp(tau * Phi), so the full residual is carried by the
zero-order factorization remainder.  Amplitudes are produced by the
integral fixed point

    w0 + (1/2) dzbar^{-1}(A w0) = seed,        seed holomorphic,
    w0~ + (1/2) dz^{-1}(B w0~) = seed~,        seed~ = conj(seed),

whose residual is measured on the discrete integral system itself, from
the transform that each solve's residual check applied; the stencil
residual of the differential form is reported separately since it is
bounded below by the differentiation error of the scheme.  conj(w0~)
solves the first equation with conj B, the A of ``coefs.mirror()``: every
antiholomorphic quantity (u~, its residual, Q - 2 dzbar B - A B) is the
conjugate of its holomorphic twin on the mirror.  One amplitude serves
every tau: the tau-independent terms of the defect are cached on it, the
branch u is formed on first access, and a tau that is not a finite
number > 0 is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import LabError, OverflowGuardError
from .grid import Grid2D, check_same
from .fields import VectorField, MatrixField, pointwise
from .calculus import dz_array, dzbar_array, laplacian_array, wirtinger_pair
from .synthetic import random_trig_spec
from .forward import CoefficientTriple
from .weights import HolomorphicWeight
from .transforms import TransformPlan, make_vekua_operator, _check_tau, _vekua_solve

_EXP_GUARD = 300.0
# residual tolerance of the two amplitude solves
_AMPLITUDE_TOL = 1e-9


def holomorphic_seed(grid: Grid2D, n_sys: int) -> VectorField:
    """Affine entire seed 1 + (k+1) z/4 in slot k, sampled on the grid."""
    z = grid.nodes_z()
    return VectorField(grid, np.stack([1.0 + 0.25 * (k + 1) * z
                                       for k in range(n_sys)], axis=2))


@dataclass(frozen=True)
class CgoAmplitude:
    """Amplitude pair with its seeds and residual report.

    residual: relative residual of the discrete integral fixed point
    (worst of the two sides).  stencil_residual: relative interior
    residual of (2 dzbar + A) w0 and (2 dz + B) w0~ under the package
    difference stencils; it converges at the stencil order, not to zero.
    ``_derived`` holds the (dz, dzbar) pair of w0 that build_amplitude took
    once, and caches the other tau-independent terms of cgo_residual.
    """

    w0: VectorField
    w0_tilde: VectorField
    seed: VectorField
    seed_tilde: VectorField
    residual: float
    stencil_residual: float
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        check_same(self.w0, self.w0_tilde, self.seed, self.seed_tilde)
        if not self.residual <= 1e-6:
            raise LabError(f"amplitude integral residual {self.residual:.2e} "
                           "exceeds the 1e-6 contract")


def _stencil_residual(w: VectorField, dw: np.ndarray, m: MatrixField) -> float:
    """Relative interior residual of (2 d + m) w, given dw = d w under the package stencils."""
    r = 2 * dw + pointwise(m.data, w.data)
    sl = np.s_[3:-3, 3:-3]
    return float(np.linalg.norm(r[sl]) / max(np.linalg.norm(w.data[sl]), 1e-30))


def build_amplitude(coefs: CoefficientTriple, plan: TransformPlan) -> CgoAmplitude:
    """Solve both amplitude equations through the Vekua integral form.

    The seeds are the affine holomorphic seed and its conjugate; w0~ is
    the conjugate of the mirror's w0.
    """
    check_same(coefs, plan)
    grid = coefs.grid
    seed = holomorphic_seed(grid, coefs.n_sys)

    def solve(m: MatrixField):
        # w = seed + v with (2 dzbar + m) v = -m seed; K seed = -rhs bit for
        # bit, so the solve's own K v gives w + K w - seed = w + (K v - rhs) - seed
        op = make_vekua_operator(m, plan)
        v, kv, rhs = _vekua_solve(op, m.matvec(seed).data * (-1.0), _AMPLITUDE_TOL)
        w = seed.with_data(seed.data + v)
        res = np.linalg.norm(w.data + (kv - rhs) - seed.data) / np.linalg.norm(seed.data)
        return w, float(res)

    # the mirror's side first: conj B, its solve and its one derivative are
    # dropped before w0's derivative pair, which the amplitude keeps, is taken
    b_bar = coefs.b_coef.conj()
    w_mirror, res_b = solve(b_bar)
    sres_b = _stencil_residual(w_mirror, dzbar_array(w_mirror.data, grid), b_bar)
    del b_bar
    w0, res_a = solve(coefs.a_coef)
    d_w0 = wirtinger_pair(w0.data, grid)
    sres = max(_stencil_residual(w0, d_w0[1], coefs.a_coef), sres_b)
    amp = CgoAmplitude(w0=w0, w0_tilde=w_mirror.conj(), seed=seed,
                       seed_tilde=seed.conj(), residual=max(res_a, res_b),
                       stencil_residual=sres)
    amp._derived["d"] = d_w0
    return amp


@dataclass(frozen=True)
class CgoSolution:
    """The holomorphic conjugated solution branch at a given tau.

    ``u`` is the rescaled branch w0 * exp(tau (Phi - phi_shift)), so its
    modulus never exceeds |w0|; it is computed on first access.
    phi_shift = max phi records the removed real constant.  The
    antiholomorphic branch w0~ * exp(tau (conj(Phi) - phi_shift)) is the
    conjugate of ``u`` built on the mirror triple's amplitude.
    """

    amplitude: CgoAmplitude
    weight: HolomorphicWeight
    tau: float
    phi_shift: float

    @cached_property
    def u(self) -> VectorField:
        w = self.amplitude.w0
        osc = np.exp(self.tau * (self.weight.Phi(w.grid.nodes_z()) - self.phi_shift))
        return w.with_data(w.data * osc[:, :, None])


def build_cgo_solution(amplitude: CgoAmplitude, weight: HolomorphicWeight,
                       tau: float) -> CgoSolution:
    _check_tau(tau)
    Phi = weight.Phi(amplitude.w0.grid.nodes_z())
    shift = float(Phi.real.max())
    if tau * (shift - float(Phi.real.min())) > _EXP_GUARD:
        raise OverflowGuardError(
            "tau * phase range exceeds the floating guard; rescale the weight "
            "or lower tau")
    return CgoSolution(amplitude=amplitude, weight=weight, tau=float(tau),
                       phi_shift=shift)


def _apply_operator(v: np.ndarray, coefs: CoefficientTriple) -> np.ndarray:
    grid = coefs.grid
    dz, dzbar = wirtinger_pair(v, grid)
    return (laplacian_array(v, grid)
            + 2 * pointwise(coefs.a_coef.data, dz)
            + 2 * pointwise(coefs.b_coef.data, dzbar)
            + pointwise(coefs.q_coef.data, v))


def _first_order_part(coefs: CoefficientTriple) -> np.ndarray:
    """Q - S = 2 dz A + B A; cached on the triple."""
    part = coefs._derived.get("first_order_part")
    if part is None:
        part = (2 * dz_array(coefs.a_coef.data, coefs.grid)
                + coefs.b_coef.matmat(coefs.a_coef).data)
        part.flags.writeable = False
        coefs._derived["first_order_part"] = part
    return part


def zero_order_remainder(coefs: CoefficientTriple) -> np.ndarray:
    """Q - 2 dz A - B A; the mirror's is conj(Q - 2 dzbar B - A B)."""
    return coefs.q_coef.data - _first_order_part(coefs)


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
    the max-norm of the same defect.  dz w0 and dzbar w0 come from
    build_amplitude; the Laplacian is cached on the amplitude, and the
    terms in the coefficients per triple (by identity).  The residual of
    the antiholomorphic branch is this one on the mirror triple and its
    amplitude.
    """
    grid = coefs.grid
    amp = sol.amplitude
    check_same(amp.w0, coefs)
    w = amp.w0.data
    dphi = sol.weight.dPhi(grid.nodes_z())[:, :, None]
    if "d" not in amp._derived:  # an amplitude not made by build_amplitude
        amp._derived["d"] = wirtinger_pair(w, grid)
    dz_w, dzbar_w = amp._derived["d"]
    lap = amp._derived.get("lap")
    if lap is None:
        lap = amp._derived["lap"] = laplacian_array(w, grid)
    cached = amp._derived.get("coefs")
    if cached is None or cached[0] is not coefs:
        cached = amp._derived["coefs"] = (
            coefs, 2 * pointwise(coefs.b_coef.data, dzbar_w),
            pointwise(_first_order_part(coefs), w))
    _, flat, zero_order = cached
    first = (2 * pointwise(coefs.a_coef.data, dz_w + sol.tau * dphi * w)
             + flat + 4 * sol.tau * dphi * dzbar_w)
    defect = lap + first + zero_order

    sl = grid.interior()
    num = float(np.linalg.norm(defect[sl]))
    den = float(np.linalg.norm(w[sl]))
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
