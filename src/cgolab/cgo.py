"""Oscillating solutions with holomorphic phase and matrix amplitudes.

The amplitude pair kills the first-order terms of the operator after
conjugation by exp(tau * Phi), so the full residual is carried by the
zero-order factorization remainder.  Amplitudes are produced by the
integral fixed point

    w0 + (1/2) dzbar^{-1}(A w0) = seed,        seed holomorphic,
    w0~ + (1/2) dz^{-1}(B w0~) = seed~,        seed~ antiholomorphic,

whose residual is measured on the discrete integral system itself, from
the transform that each solve's residual check applied; the stencil
residual of the differential form is reported separately since it is
bounded below by the differentiation error of the scheme.  One amplitude
pair serves every tau: the tau-independent terms of the defect are cached
on it, the branches u and u~ are formed on first access, and a tau that
is not a finite number > 0 is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import LabError, OverflowGuardError
from .grid import Grid2D
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
    ``_derived`` holds, per piece ('holo' for w0, 'anti' for w0~), the
    (dz, dzbar) pair that build_amplitude took once, and caches the other
    tau-independent terms of cgo_residual.
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
        if not self.residual <= 1e-6:
            raise LabError(f"amplitude integral residual {self.residual:.2e} "
                           "exceeds the 1e-6 contract")


def _first_order(w: np.ndarray, deriv, m: MatrixField, grid: Grid2D) -> np.ndarray:
    """(2 deriv + m) w on raw samples."""
    return 2 * deriv(w, grid) + pointwise(m.data, w)


def _stencil_residual(w: VectorField, dw: np.ndarray, m: MatrixField) -> float:
    """Relative interior residual of (2 d + m) w, given dw = d w under the package stencils."""
    r = 2 * dw + pointwise(m.data, w.data)
    sl = np.s_[3:-3, 3:-3]
    return float(np.linalg.norm(r[sl]) / max(np.linalg.norm(w.data[sl]), 1e-30))


def build_amplitude(coefs: CoefficientTriple, plan: TransformPlan) -> CgoAmplitude:
    """Solve both amplitude equations through the Vekua integral form.

    The seeds are the affine holomorphic seed and its conjugate.
    """
    grid = coefs.grid
    seed = holomorphic_seed(grid, coefs.n_sys)
    seed_tilde = seed.conj()

    def solve(m: MatrixField, side: str, s: VectorField):
        # w = s + v with (2 d_side + m) v = -m s; K s = -rhs bit for bit, so
        # the solve's own K v gives w + K w - s = w + (K v - rhs) - s
        op = make_vekua_operator(m, side, plan)
        v, kv, rhs = _vekua_solve(op, m.matvec(s).data * (-1.0), _AMPLITUDE_TOL)
        w = s.with_data(s.data + v)
        res = np.linalg.norm(w.data + (kv - rhs) - s.data) / np.linalg.norm(s.data)
        return w, float(res)

    # w0 solves (2 dzbar + A) w0 = 0, w0~ the mirrored system
    w0, res_a = solve(coefs.a_coef, "zbar", seed)
    w0t, res_b = solve(coefs.b_coef, "z", seed_tilde)
    d_w0, d_w0t = wirtinger_pair(w0.data, grid), wirtinger_pair(w0t.data, grid)
    sres = max(_stencil_residual(w0, d_w0[1], coefs.a_coef),
               _stencil_residual(w0t, d_w0t[0], coefs.b_coef))
    amp = CgoAmplitude(w0=w0, w0_tilde=w0t, seed=seed, seed_tilde=seed_tilde,
                       residual=max(res_a, res_b), stencil_residual=sres)
    amp._derived.update(holo=d_w0, anti=d_w0t)
    return amp


@dataclass(frozen=True)
class CgoSolution:
    """One conjugated solution branch at a given tau.

    ``u`` is the rescaled branch w0 * exp(tau (Phi - phi_shift)), so its
    modulus never exceeds |w0|, and ``u_tilde`` is w0~ * exp(tau
    (conj(Phi) - phi_shift)); both are computed on first access.
    phi_shift = max phi records the removed real constant.
    """

    amplitude: CgoAmplitude
    weight: HolomorphicWeight
    tau: float
    phi_shift: float

    def _branch(self, w: VectorField, conj: bool) -> VectorField:
        Phi = self.weight.Phi(w.grid.nodes_z())
        osc = np.exp(self.tau * ((np.conj(Phi) if conj else Phi) - self.phi_shift))
        return w.with_data(w.data * osc[:, :, None])

    @cached_property
    def u(self) -> VectorField:
        return self._branch(self.amplitude.w0, conj=False)

    @cached_property
    def u_tilde(self) -> VectorField:
        return self._branch(self.amplitude.w0_tilde, conj=True)


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


def _sides(coefs: CoefficientTriple, piece: str):
    """(A, B, 0) for 'holo', (B, A, 1) for 'anti'.

    The first coefficient carries the phase; its derivative is slot k of
    a (dz, dzbar) pair, the other coefficient's is slot 1 - k.
    """
    if piece == "holo":
        return coefs.a_coef, coefs.b_coef, 0
    if piece == "anti":
        return coefs.b_coef, coefs.a_coef, 1
    raise LabError(f"unknown piece {piece!r}")


def _first_order_part(coefs: CoefficientTriple, piece: str) -> np.ndarray:
    """Q - S = 2 dz A + B A for 'holo', 2 dzbar B + A B for 'anti'; cached on the triple."""
    key = ("first_order_part", piece)
    if key not in coefs._derived:
        m, m_other, k = _sides(coefs, piece)
        d = (dz_array, dzbar_array)[k]
        part = 2 * d(m.data, coefs.grid) + m_other.matmat(m).data
        part.flags.writeable = False
        coefs._derived[key] = part
    return coefs._derived[key]


def zero_order_remainder(coefs: CoefficientTriple, piece: str = "holo") -> np.ndarray:
    """Q - 2 dz A - B A for the holomorphic branch, Q - 2 dzbar B - A B mirrored."""
    return coefs.q_coef.data - _first_order_part(coefs, piece)


def cgo_residual(sol: CgoSolution, coefs: CoefficientTriple,
                 piece: str = "holo") -> dict:
    """Weighted interior residual of one oscillating branch.

    Measures the conjugated defect  e^{-tau Phi} (L - S)(w0 e^{tau Phi})
    with the conjugation carried out analytically,

        lap w0 + 4 tau Phi' dzbar w0
        + 2 A (dz w0 + tau Phi' w0) + 2 B dzbar w0 + (Q - S) w0,

    in relative L2 over grid.interior(), which drops the boundary collar
    where the transform quadrature is first-order accurate.  Applying
    the stencils to the oscillating product instead would bury the
    identity under truncation error growing like tau^4.  residual_raw is
    the max-norm of the same defect.  dz w0 and dzbar w0 come from
    build_amplitude; the Laplacian is cached on the amplitude per piece, and
    the terms in the coefficients per piece and triple (by identity).
    """
    grid = coefs.grid
    amp = sol.amplitude
    if grid != amp.w0.grid:
        raise LabError("solution and coefficients live on different grids")
    m_osc, m_flat, k = _sides(coefs, piece)
    # the holo branch carries exp(tau Phi), the anti branch exp(tau conj(Phi))
    dphi = sol.weight.dPhi(grid.nodes_z())[:, :, None]
    if piece == "holo":
        w = amp.w0.data
    else:
        w, dphi = amp.w0_tilde.data, np.conj(dphi)
    if piece not in amp._derived:  # an amplitude not made by build_amplitude
        amp._derived[piece] = wirtinger_pair(w, grid)
    d_osc_w, dw = amp._derived[piece][k], amp._derived[piece][1 - k]
    lap = amp._derived.get((piece, "lap"))
    if lap is None:
        lap = amp._derived[piece, "lap"] = laplacian_array(w, grid)
    cached = amp._derived.get((piece, "coefs"))
    if cached is None or cached[0] is not coefs:
        cached = amp._derived[piece, "coefs"] = (
            coefs, 2 * pointwise(m_flat.data, dw),
            pointwise(_first_order_part(coefs, piece), w))
    _, flat, zero_order = cached
    first = (2 * pointwise(m_osc.data, d_osc_w + sol.tau * dphi * w)
             + flat + 4 * sol.tau * dphi * dw)
    defect = lap + first + zero_order

    sl = grid.interior()
    num = float(np.linalg.norm(defect[sl]))
    den = float(np.linalg.norm(w[sl]))
    if den == 0.0:
        raise LabError("amplitude vanishes on the interior window")
    rec = {"tau": sol.tau, "nx": grid.nx, "piece": piece,
           "residual_weighted": num / den,
           "residual_raw": float(np.max(np.abs(defect[sl])))}
    if not np.isfinite(rec["residual_weighted"]):
        raise OverflowGuardError("non-finite weighted residual")
    return rec


def factorization_check(coefs: CoefficientTriple) -> dict:
    """Compare L v against both first-order factorizations on a smooth probe.

    factored_1: (2 dz + B)(2 dzbar + A) v + (Q - 2 dz A - B A) v
    factored_2: (2 dzbar + A)(2 dz + B) v + (Q - 2 dzbar B - A B) v

    The composition of one-sided closures pollutes a band near the
    boundary, hence the max norms trimmed by 6 nodes.  The probe is a
    seeded random trigonometric field.
    """
    grid, n = coefs.grid, coefs.n_sys
    rng = np.random.default_rng(7)
    v = random_trig_spec(rng, (n,), amplitude=1.0).vector_field(grid).data
    direct = _apply_operator(v, coefs)
    f1 = (_first_order(_first_order(v, dzbar_array, coefs.a_coef, grid),
                       dz_array, coefs.b_coef, grid)
          + pointwise(zero_order_remainder(coefs, "holo"), v))
    f2 = (_first_order(_first_order(v, dz_array, coefs.b_coef, grid),
                       dzbar_array, coefs.a_coef, grid)
          + pointwise(zero_order_remainder(coefs, "anti"), v))
    sl = np.s_[6:-6, 6:-6]
    scale = max(float(np.max(np.abs(direct[sl]))), 1e-30)
    return {"nx": grid.nx,
            "discrepancy_1": float(np.max(np.abs((f1 - direct)[sl]))),
            "discrepancy_2": float(np.max(np.abs((f2 - direct)[sl]))),
            "relative_1": float(np.max(np.abs((f1 - direct)[sl]))) / scale,
            "relative_2": float(np.max(np.abs((f2 - direct)[sl]))) / scale}
