"""Gauge non-uniqueness family, coefficient relations, and Carleman probes.

The gauge profile eta is always closed-form with closed-form
derivatives: the exact-cancellation checks on the coefficient relations
would be contaminated by numerically differentiating eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LabError, OverflowGuardError
from .grid import (Grid2D, BoundaryPartition, GAMMA_0, GAMMA_TILDE, remark_partition,
                   check_same, check_tau)
from .fields import MatrixField, VectorField, pointwise, weighted_l2
from .calculus import dz_array, normal_derivative
from .synthetic import TrigSpec, random_trig_spec, N_MODES
from .forward import (CoefficientTriple, OperatorFactorization, cauchy_data,
                      cauchy_distance, fourier_profiles, _profile_data)
from .weights import weight_catalog


# eta(x2) = sin^6(pi (x2 - 1/8) / (3/4)) on (1/8, 7/8), zero outside.  The
# bands of width 1/8 at the bottom and top edges keep eta and all of its
# derivatives identically zero on and next to the observed arcs, so the
# gauge changes no Cauchy data there.  The power 6 keeps eta C^5 across
# the window edges, more derivatives than the 4th-order stencils
# downstream consume.
_ETA_A, _ETA_B = 0.125, 0.875
_ETA_W = np.pi / (_ETA_B - _ETA_A)


def _eta_window(grid: Grid2D):
    """sin u, cos u with u = pi (x2 - 1/8) / (3/4), and the open window mask."""
    _, Y = grid.meshgrid()
    u = (Y - _ETA_A) * _ETA_W
    return np.sin(u), np.cos(u), (Y > _ETA_A) & (Y < _ETA_B)


def _eta_y(grid: Grid2D):
    sn, cs, m = _eta_window(grid)
    return np.where(m, 6 * _ETA_W * sn ** 5 * cs, 0.0)


@dataclass(frozen=True)
class GaugeSpec:
    """Gauge e^{s eta} of the non-uniqueness remark, eta(x2) flat on the observed arcs."""

    s: float

    def eta(self, grid: Grid2D):
        sn, _, m = _eta_window(grid)
        return np.where(m, sn ** 6, 0.0)

    def eta_z(self, grid: Grid2D):
        return 0.5 * (0.0 - 1j * _eta_y(grid))

    def eta_zbar(self, grid: Grid2D):
        return 0.5 * (0.0 + 1j * _eta_y(grid))

    def lap_eta(self, grid: Grid2D):
        sn, cs, m = _eta_window(grid)
        return np.where(m, 6 * _ETA_W ** 2 * sn ** 4 * (5 * cs ** 2 - sn ** 2), 0.0)

    def grad_sq(self, grid: Grid2D):
        return _eta_y(grid) ** 2


def gauge_transform(coefs: CoefficientTriple, gauge: GaugeSpec) -> CoefficientTriple:
    """Coefficients of  e^{-s eta} L e^{s eta}:

    A -> A + 2 s eta_zbar,  B -> B + 2 s eta_z,
    Q -> Q + (s lap(eta) + s^2 |grad eta|^2) I + 2 s eta_z A + 2 s eta_zbar B.
    """
    grid = coefs.grid
    s = gauge.s
    ez = gauge.eta_z(grid)[:, :, None, None]
    ezb = gauge.eta_zbar(grid)[:, :, None, None]
    eye = np.eye(coefs.n_sys)
    a2 = coefs.a_coef.data + 2 * s * ezb * eye
    b2 = coefs.b_coef.data + 2 * s * ez * eye
    scal = (s * gauge.lap_eta(grid) + s * s * gauge.grad_sq(grid))[:, :, None, None]
    q2 = (coefs.q_coef.data + scal * eye
          + 2 * s * ez * coefs.a_coef.data + 2 * s * ezb * coefs.b_coef.data)
    return CoefficientTriple(MatrixField(grid, a2), MatrixField(grid, b2),
                             MatrixField(grid, q2))


@dataclass(frozen=True)
class RelationResidual:
    """Norms of the two first-order coefficient relations' residuals."""

    boundary_gap: float
    norms: dict


def _relation_terms(t1: CoefficientTriple, t2: CoefficientTriple):
    """dA, dB and the residual 2 dz dA + B2 dA + dB A1 - dQ of the first relation."""
    grid = t1.grid
    dA = t1.a_coef.data - t2.a_coef.data
    dB = t1.b_coef.data - t2.b_coef.data
    dQ = t1.q_coef.data - t2.q_coef.data
    lead = 2 * dz_array(dA, grid) + pointwise(t2.b_coef.data, dA)
    return dA, dB, MatrixField(grid, lead + pointwise(dB, t1.a_coef.data) - dQ)


def check_relations(t1: CoefficientTriple, t2: CoefficientTriple,
                    partition: BoundaryPartition) -> RelationResidual:
    """Residuals of
    2 dz(A1-A2) + B2 (A1-A2) + (B1-B2) A1 - (Q1-Q2)   and
    2 dzbar(B1-B2) + A2 (B1-B2) + (A1-A2) B1 - (Q1-Q2),
    plus the max coefficient gap on the observed arcs.  The second
    relation is the conjugate of the first on the mirrored pair.
    """
    check_same(t1, t2, partition)
    dA, dB, f1 = _relation_terms(t1, t2)
    _, _, f2 = _relation_terms(t1.mirror(), t2.mirror())
    ii, jj = partition.nodes(GAMMA_TILDE)
    gap = float(np.max(np.max(np.abs(dA[ii, jj]), axis=(1, 2))
                       + np.max(np.abs(dB[ii, jj]), axis=(1, 2))))
    norms = {"r_a1_l2": f1.l2(), "r_a1_max": f1.max_abs(),
             "r_a2_l2": f2.l2(), "r_a2_max": f2.max_abs()}
    return RelationResidual(boundary_gap=gap, norms=norms)


def coefficient_gap(t1: CoefficientTriple, t2: CoefficientTriple) -> float:
    return max((t1.a_coef - t2.a_coef).max_abs(),
               (t1.b_coef - t2.b_coef).max_abs(),
               (t1.q_coef - t2.q_coef).max_abs())


def refinement_orders(errs) -> list:
    """Observed orders log2(e_k / e_{k+1}) along a ladder that halves h.

    A rung whose error is not positive (exact to round-off) gives inf.
    """
    return [float(np.log2(a / b)) if (a > 0 and b > 0) else float("inf")
            for a, b in zip(errs[:-1], errs[1:])]


def _gauge_pair_data(t1: CoefficientTriple, gauge: GaugeSpec,
                     partition: BoundaryPartition, m: int):
    """Partial Cauchy data of t1 and of its gauge transform t2 through the
    first m profiles, and their coefficient gap.

    The gauge is the similarity e^{-s eta} L e^{s eta}, so c2 starts on
    the borrowed rung of t1's factor that ``lend`` gives, W = e^{s eta}
    (see ``forward``).  t1's K and C are freed before t2 is made, and the
    pair's references to t1 and t2 before c2's series, so that it holds
    no more at its peak than two separate ``cauchy_data`` calls.
    """
    check_same(t1, partition)
    profiles = fourier_profiles(partition, m)  # refused before any factorization
    fac = OperatorFactorization(t1)
    c1 = _profile_data(fac, partition, profiles)
    lent = fac.lend(np.exp(gauge.s * gauge.eta(partition.grid)))
    del fac
    t2 = gauge_transform(t1, gauge)
    gap = coefficient_gap(t1, t2)
    del t1
    fac = OperatorFactorization(t2, lent)
    del t2, lent
    return c1, _profile_data(fac, partition, profiles), gap


def gauge_equivalence_experiment(make_triple, gauge: GaugeSpec, nx_ladder,
                                 m: int) -> dict:
    """Cauchy-data distance of a triple vs its gauge transform on a grid ladder.

    ``make_triple(grid)`` must sample one fixed continuum triple on any
    grid.  The data are observed on the remark partition.  The continuum
    claim is equality of the data; discretely the distance must vanish
    under refinement while the coefficient gap stays put.
    """
    distances, gaps = [], []
    for nx in nx_ladder:
        grid = Grid2D(nx=nx, ny=nx)
        part = remark_partition(grid)
        # the pair owns t1, so that it can drop it before c2's series
        c1, c2, gap = _gauge_pair_data(make_triple(grid), gauge, part, m)
        gaps.append(gap)
        distances.append(cauchy_distance(c1, c2))
    return {"nx_ladder": list(nx_ladder), "distances": distances,
            "orders": refinement_orders(distances),
            "coefficient_gap": max(gaps)}


def off_gauge_separation(make_triple, gauge: GaugeSpec, nx: int) -> dict:
    """Distances for a seeded family of non-gauge Q perturbations vs the gauge pair.

    Each of 20 perturbations, drawn from ``default_rng(0)``, is a random
    trig field of amplitude 3 added to Q; the data are observed on the
    remark partition through the first 4 boundary profiles.  The gauge
    pair's data are those of ``gauge_equivalence_experiment``; each
    perturbation is factored on its own.
    """
    grid = Grid2D(nx=nx, ny=nx)
    part = remark_partition(grid)
    t1 = make_triple(grid)
    c1, c2, _ = _gauge_pair_data(t1, gauge, part, 4)
    gauge_dist = cauchy_distance(c1, c2)
    rng = np.random.default_rng(0)
    n = t1.n_sys
    off = []
    for _ in range(20):
        spec = random_trig_spec(rng, (n, n), amplitude=3.0)
        q = MatrixField(grid, t1.q_coef.data + spec.sample(grid))
        t2 = CoefficientTriple(t1.a_coef, t1.b_coef, q)
        off.append(cauchy_distance(c1, cauchy_data(t2, part, 4)))
    return {"gauge_distance": gauge_dist, "off_gauge_distances": off,
            "separation": min(off) / max(gauge_dist, 1e-300)}


# ---------------------------------------------------------------------------
# Carleman probes

def random_h01_spec(rng: np.random.Generator, value_shape) -> TrigSpec:
    """Random trig polynomial of amplitude 1 from sine modes only: vanishes on the boundary."""
    spec = random_trig_spec(rng, value_shape, 1.0)
    c = spec.coeffs.copy()
    keep = np.zeros((N_MODES, N_MODES), dtype=bool)
    for i in (1, 3):
        for j in (1, 3):
            keep[i, j] = True
    c[~keep] = 0.0
    return TrigSpec(c)


_PROBE_KINDS = ("first_order_dz", "first_order_dzbar", "system_zero_order",
                "full_operator")


def _convex_weight(grid: Grid2D) -> np.ndarray:
    """Convex weight phi_c = exp(lam psi_c) of the first-order and zero-order probes.

    lam = 2, and psi_c = x + 0.1 y has a gradient that vanishes nowhere.
    """
    X, Y = grid.meshgrid()
    return np.exp(2.0 * (X + 0.1 * Y))


def carleman_probe(kind: str, tau_ladder, test_family,
                   coefs: CoefficientTriple) -> dict:
    """Empirical left/right ratios of one Carleman inequality over a tau ladder.

    kinds: 'first_order_dz', 'first_order_dzbar' (H^1_0 scalar/vector
    test functions), 'system_zero_order' (matrix unknowns, with the pair
    (B, A) of ``coefs``), all three under the convex weight
    ``_convex_weight``; 'full_operator' (the full elliptic operator of
    ``coefs``, with the partition and the holomorphic weight of
    ``full_operator_setup``).  The probes run on the grid of ``coefs``, and
    the samples of the test family must have its N (``check_same``);
    every tau must be a finite number > 0.  A rung on which every member
    of the test family is vacuous (both sides 0) is refused, and so is a
    non-finite ratio.

    PASS surrogate for the existential constant: the sup ratio over the
    upper half of the ladder must not exceed the sup over the lower half.
    """
    taus, test_family = list(tau_ladder), list(test_family)
    for tau in taus:
        check_tau(tau)
    grid = coefs.grid
    check_same(coefs, *(tf.sample(grid) for tf in test_family))
    if len(taus) < 2 or any(b <= a for a, b in zip(taus[:-1], taus[1:])):
        raise LabError("tau ladder must be increasing with >= 2 rungs")
    if kind not in _PROBE_KINDS:
        raise LabError(f"unknown probe kind {kind!r}; "
                       f"choose one of {', '.join(_PROBE_KINDS)}")
    if not test_family:
        raise LabError("empty test family: every ratio would be vacuous")
    partition = weight = None
    if kind == "full_operator":
        partition, weight = full_operator_setup(grid)
        phi = weight.phi(grid.nodes_z())
    else:
        phi = _convex_weight(grid)
    phi = phi - phi.max()  # ratio-invariant normalization against overflow

    ratios = []
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for tau in taus:
            wexp = np.exp(tau * phi)
            rung = []
            for tf in test_family:
                num, den = _probe_sides(kind, tf, tau, wexp, coefs, partition, weight)
                if num == 0.0 and den == 0.0:
                    continue  # vacuous member
                if den == 0.0:
                    raise LabError("zero right-hand side with nonzero left side")
                rung.append(num / den)
            if not rung:
                raise LabError(f"every test-family member is vacuous at tau {tau:g}")
            ratios.append(float(np.max(rung)))  # unlike max(), np.max keeps a NaN
    bad = [tau for tau, r in zip(taus, ratios) if not np.isfinite(r)]
    if bad:
        raise OverflowGuardError(f"non-finite Carleman ratio of the {kind} "
                                 f"probe at tau {bad[0]:g}")
    half = len(taus) // 2
    sup_low, sup_high = max(ratios[:half]), max(ratios[half:])
    return {"kind": kind, "taus": taus, "ratios": ratios,
            "sup_low": sup_low, "sup_high": sup_high,
            "passed": bool(sup_high <= sup_low)}


def _probe_sides(kind, tf, tau, wexp, coefs, partition, weight):
    grid = coefs.grid
    qw = grid.quad_weights()[:, :, None] * (wexp ** 2)[:, :, None]

    def norm(x):
        return weighted_l2(x.reshape(x.shape[0], x.shape[1], -1), qw)

    w = tf.sample(grid)
    if kind != "full_operator":
        # sqrt(tau) |w| against |f|, f the first-order image of w
        if kind == "system_zero_order":
            f = (2 * tf.dz(grid) + pointwise(coefs.a_coef.data, w)
                 - pointwise(w, coefs.b_coef.data))
        else:
            f = (tf.dz if kind == "first_order_dz" else tf.dzbar)(grid)
        return np.sqrt(tau) * norm(w), norm(f)
    lap = tf.lap(grid)
    lu = (lap + 2 * pointwise(coefs.a_coef.data, tf.dz(grid))
          + 2 * pointwise(coefs.b_coef.data, tf.dzbar(grid))
          + pointwise(coefs.q_coef.data, w))
    dphi = weight.dPhi(grid.nodes_z())
    gx = tf.sample(grid, 1, 0)
    gy = tf.sample(grid, 0, 1)
    # grad(u e^{tau phi}) = (grad u + tau u grad phi) e^{tau phi};
    # grad phi = (Re dPhi, -Im dPhi) for holomorphic Phi
    px, py = dphi.real, -dphi.imag
    h1 = (norm(w) ** 2
          + norm(gx + tau * px[:, :, None] * w) ** 2
          + norm(gy + tau * py[:, :, None] * w) ** 2)
    lhs = (tau * norm(w) ** 2 + h1
           + tau * tau * norm(np.abs(dphi)[:, :, None] * w) ** 2)
    rhs = norm(lu) ** 2
    uf = VectorField(grid, w)
    for label in (GAMMA_0, GAMMA_TILDE):
        dn = normal_derivative(uf, partition, label)
        ii, jj = partition.nodes(label)
        aw = partition.arc_weights(label)
        bterm = float(np.sum(aw[:, None] * np.abs(dn) ** 2
                             * (wexp[ii, jj] ** 2)[:, None]))
        if label == GAMMA_0:
            lhs += bterm
        else:
            rhs += tau * bterm
    return float(np.sqrt(lhs)), float(np.sqrt(rhs))


def full_operator_setup(grid: Grid2D):
    """Partition/weight pair meeting the side conditions of the full probe.

    Only the left edge is hidden; the quadratic phase centered on it has
    vanishing imaginary part there and its critical point sits on the
    hidden arc.  The real part then peaks on an observed arc, which is
    what lets the observed-flux term control the left side.
    """
    part = BoundaryPartition(grid, {"left": GAMMA_0, "bottom": GAMMA_TILDE,
                                    "right": GAMMA_TILDE, "top": GAMMA_TILDE})
    w = weight_catalog("quadratic", {"c": 0.5j})
    return part, w
