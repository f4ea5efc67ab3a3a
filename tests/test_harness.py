import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgolab import (Grid2D, MatrixField, CoefficientTriple, remark_partition,
                    gauge_transform, check_relations,
                    coefficient_gap, carleman_probe, random_h01_spec,
                    full_operator_setup, GaugeSpec, LabError, GridError,
                    OverflowGuardError, TrigSpec, random_trig_spec,
                    find_critical_points, GAMMA_0, GAMMA_TILDE)
from cgolab import (cli, forward, harness, BoundaryPartition, OperatorFactorization,
                    cauchy_data, fourier_profiles)
from cgolab.fields import _SERIES_CAP, _SERIES_RTOL, _residual_series
from cgolab.harness import refinement_orders

from conftest import make_triple, NOT_FINITE_POSITIVE


def test_window_is_compactly_supported_and_smooth():
    gauge = GaugeSpec(1.0)
    grid = Grid2D(nx=9, ny=2001)
    t = grid.ys()
    v = gauge.eta(grid)[0]
    assert np.all(v[t <= 0.125] == 0.0)
    assert np.all(v[t >= 0.875] == 0.0)
    # finite difference of the closed-form first derivative, read off
    # eta_zbar = (eta_x + i eta_y) / 2 with eta_x = 0
    fd = np.gradient(v, t)
    assert np.max(np.abs(fd - 2 * gauge.eta_zbar(grid)[0].imag)) < 5e-4


def test_remark_gauge_is_flat_on_observed_edges():
    gauge = GaugeSpec(0.7)
    grid = Grid2D(nx=33, ny=33)
    eta = gauge.eta(grid)
    assert np.all(eta[:, 0] == 0.0) and np.all(eta[:, -1] == 0.0)
    assert np.all(gauge.eta_z(grid)[:, 0] == 0.0)


def test_gauge_not_flat_on_observed_edges_fails_the_criteria(tmp_path, monkeypatch):
    """Mutant: eta's window shifted to (-1/8, 5/8), same width, so eta != 0
    on the bottom edge.  The scenario criteria, not a flag on the gauge,
    must catch it: the data distance stops refining and the coefficients
    differ on the observed arcs."""
    monkeypatch.setattr(harness, "_ETA_A", -0.125)
    monkeypatch.setattr(harness, "_ETA_B", 0.625)
    gauge = cli.run(cli.ScenarioConfig(scenario="gauge", seed=0,
                                       nx_ladder=(17, 33, 65)), tmp_path / "g")
    assert not gauge["criteria"]["distance_order_ge_1.5"]
    rel = cli.run(cli.ScenarioConfig(scenario="relations", seed=0,
                                     nx_ladder=(33, 65, 129)), tmp_path / "r")
    assert not rel["criteria"]["boundary_gap_zero"]


def pair_and_own_data(seed, n, nx, s, monkeypatch):
    """The gauge pair's (c1, c2), c2 from its own ladder, and the pivoting
    of each factorization the pair read data from."""
    grid = Grid2D(nx=nx, ny=nx)
    part, gauge = remark_partition(grid), GaugeSpec(s)
    t1 = make_triple(seed, n, grid)
    own = cauchy_data(gauge_transform(t1, gauge), part, 4)
    profile_data, rungs = harness._profile_data, []

    def recorded(fac, *args):
        data = profile_data(fac, *args)
        rungs.append(fac.pivoting)
        return data

    monkeypatch.setattr(harness, "_profile_data", recorded)
    c1, c2, _ = harness._gauge_pair_data(t1, gauge, part, 4)
    return c1, c2, own, rungs


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("nx, s", [(9, 0.7), (9, 8.0), (17, 8.0), (33, 8.0)])
def test_gauge_pair_off_the_borrowed_rung_is_the_own_ladder_bit_for_bit(
        monkeypatch, n, nx, s):
    # at nx 9 the borrowed series reaches its cap at 4e-9, past 1e-13 though
    # inside the 1e-8 check; at s = 8 the conjugated factor is too far off
    # and the series stalls.  The pair is built by hand: at N = 1 ``lend``
    # lends nothing
    grid = Grid2D(nx=nx, ny=nx)
    gauge = GaugeSpec(s)
    t1 = make_triple(0, n, grid)
    lent = OperatorFactorization(t1)._lu, np.exp(s * gauge.eta(grid))
    fac = OperatorFactorization(gauge_transform(t1, gauge), lent)
    assert fac.pivoting == "borrowed"
    boundary = np.zeros((len(BoundaryPartition(grid).nodes()[0]), n, 4), dtype=complex)
    boundary[:, 0] = np.transpose(fourier_profiles(remark_partition(grid), 4))
    _, res, terms = _residual_series(
        lambda v: fac._matrix @ v, fac._precondition,
        -(fac._coupling @ boundary.reshape(-1, 4)), lambda v: np.linalg.norm(v, axis=0))
    assert res.max() > _SERIES_RTOL
    assert (terms == _SERIES_CAP) == (s == 0.7)
    u = fac._solve_block(boundary, None)
    assert fac.pivoting == "static"
    assert np.array_equal(
        u, OperatorFactorization(gauge_transform(t1, gauge))._solve_block(boundary, None))
    c1, c2, own, rungs = pair_and_own_data(0, n, nx, s, monkeypatch)
    assert rungs == ["static", "static"]
    for got, want in zip(c2.neumann + c2.dirichlet, own.neumann + own.dirichlet):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("nx", [33, 65])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gauge_pair_solves_t2_on_the_borrowed_rung(monkeypatch, n, nx, seed):
    # at N = 1 t2's own factor is an exact LU of K, so nothing is lent
    c1, c2, own, rungs = pair_and_own_data(seed, n, nx, 0.7, monkeypatch)
    assert rungs == ["static", "borrowed" if n > 1 else "static"]
    assert c1.basis_id == c2.basis_id == own.basis_id
    for got, want in zip(c2.dirichlet, own.dirichlet):
        assert np.array_equal(got, want)
    for got, want in zip(c2.neumann, own.neumann):
        assert np.max(np.abs(got - want)) <= (1e-10 if n > 1 else 0.0) * np.max(np.abs(want))


def test_gauge_experiment_factors_once_per_rung(monkeypatch):
    splu, calls = forward.splu, []
    monkeypatch.setattr(forward, "splu",
                        lambda *args, **kw: calls.append(kw) or splu(*args, **kw))
    rep = harness.gauge_equivalence_experiment(lambda grid: make_triple(0, 3, grid),
                                               GaugeSpec(0.7), (17, 33, 65), 4)
    assert len(calls) == 3 and all(kw for kw in calls)  # the trace parts only
    assert min(rep["orders"]) >= 1.5


def test_gauge_transform_identity_at_zero_strength(grid33):
    t = make_triple(1, 2, grid33)
    t0 = gauge_transform(t, GaugeSpec(0.0))
    assert coefficient_gap(t, t0) == 0.0


@settings(max_examples=10, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_gauge_transforms_compose_additively(s, r):
    grid = Grid2D(nx=17, ny=17)
    t = make_triple(4, 1, grid)
    one = gauge_transform(gauge_transform(t, GaugeSpec(s)), GaugeSpec(r))
    two = gauge_transform(t, GaugeSpec(s + r))
    assert coefficient_gap(one, two) < 1e-10


def test_relation_residuals_refine_on_gauge_pairs():
    gauge = GaugeSpec(0.7)
    errs, gaps = [], []
    for nx in (33, 65, 129):
        grid = Grid2D(nx=nx, ny=nx)
        t1 = make_triple(3, 1, grid)
        res = check_relations(t1, gauge_transform(t1, gauge),
                              remark_partition(grid))
        errs.append(max(res.norms["r_a1_l2"], res.norms["r_a2_l2"]))
        gaps.append(res.boundary_gap)
    assert min(refinement_orders(errs)) > 1.8
    assert max(gaps) == 0.0  # the window vanishes identically on the band


def test_single_term_perturbation_reproduces_bump_norm(grid33):
    """Perturbing Q alone turns both relations into -(Q1-Q2) exactly."""
    t1 = make_triple(6, 2, grid33)
    bump = random_trig_spec(np.random.default_rng(0), (2, 2), 1.0)
    q2 = MatrixField(grid33, t1.q_coef.data + bump.sample(grid33))
    t2 = CoefficientTriple(t1.a_coef, t1.b_coef, q2)
    res = check_relations(t1, t2, remark_partition(grid33))
    dq = MatrixField(grid33, bump.sample(grid33))
    assert res.norms["r_a1_l2"] == dq.l2()
    assert res.norms["r_a2_max"] == dq.max_abs()


def test_carleman_first_order_probe_decays(grid33):
    rng = np.random.default_rng(2)
    fam = [random_h01_spec(rng, (1,)) for _ in range(3)]
    rep = carleman_probe("first_order_dz", [8.0, 16.0, 32.0, 64.0], fam,
                         make_triple(0, 1, grid33))
    assert rep["passed"]
    assert rep["ratios"][-1] < rep["ratios"][0]


def test_carleman_probe_rejects_bad_ladder(grid33):
    t = make_triple(0, 1, grid33)
    with pytest.raises(LabError):
        carleman_probe("first_order_dz", [8.0], [], t)
    with pytest.raises(LabError):
        carleman_probe("first_order_dz", [8.0, 4.0], [], t)


@pytest.mark.parametrize("tau", NOT_FINITE_POSITIVE)
def test_carleman_probe_refuses_tau_that_is_not_finite_positive(grid33, monkeypatch, tau):
    t = make_triple(0, 1, grid33)
    fam = [random_h01_spec(np.random.default_rng(2), (1,))]

    def no_work(*args, **kwargs):
        raise AssertionError("evaluated a rung before the tau check")

    monkeypatch.setattr(harness, "_probe_sides", no_work)
    for ladder in ([8.0, tau], [tau, 16.0]):
        with pytest.raises(GridError, match=r"^tau must be a finite number > 0, got "):
            carleman_probe("first_order_dz", ladder, fam, t)


def test_carleman_probe_refuses_a_non_finite_ratio_of_any_member(grid33, monkeypatch):
    rng = np.random.default_rng(2)
    fam = [random_h01_spec(rng, (1,)) for _ in range(2)]
    probe_sides = harness._probe_sides

    def second_member_overflows(kind, tf, tau, *args):
        num, den = probe_sides(kind, tf, tau, *args)
        return (np.inf, np.inf) if tf is fam[1] and tau == 16.0 else (num, den)

    monkeypatch.setattr(harness, "_probe_sides", second_member_overflows)
    with pytest.raises(OverflowGuardError, match="^non-finite Carleman ratio of the "
                                                 "first_order_dz probe at tau 16$"):
        carleman_probe("first_order_dz", [8.0, 16.0], fam, make_triple(0, 1, grid33))


@pytest.mark.parametrize("case, message", [
    ("unknown kind", "unknown probe kind"),
    ("empty convex family", "empty test family"),
    ("empty full family", "empty test family"),
    ("vacuous family", "every test-family member is vacuous at tau 8$"),
])
def test_carleman_probe_refuses_incomplete_input_before_any_work(
        grid33, monkeypatch, case, message):
    t = make_triple(0, 1, grid33)
    vec = random_h01_spec(np.random.default_rng(0), (1,))
    kind, family = {
        "unknown kind": ("nonsense", [vec]),
        "empty convex family": ("first_order_dz", []),
        "empty full family": ("full_operator", []),
        "vacuous family": ("first_order_dz", [TrigSpec(0 * vec.coeffs)]),
    }[case]

    def no_work(*args, **kwargs):
        raise AssertionError("probe evaluated before its inputs were checked")

    # a vacuous family shows itself only once the first rung is evaluated
    if case != "vacuous family":
        monkeypatch.setattr(harness, "_probe_sides", no_work)
    with pytest.raises(LabError, match=message):
        carleman_probe(kind, [8.0, 16.0], family, t)


def test_h01_spec_vanishes_on_boundary(grid33):
    spec = random_h01_spec(np.random.default_rng(0), (2,))
    v = spec.sample(grid33)
    assert np.max(np.abs(v[0, :])) < 1e-14
    assert np.max(np.abs(v[:, -1])) < 1e-14


def test_full_operator_setup_flags():
    """The fixed setup meets the paper's hypotheses on Phi over its partition.

    Only the left edge is hidden (gamma_0); Im Phi vanishes there, and the
    one critical point, nondegenerate since Phi'' = 2, lies off the
    observed arcs (gamma_tilde).
    """
    for nx in (17, 33, 65, 129):
        part, w = full_operator_setup(Grid2D(nx=nx, ny=nx))
        assert part.labels == {"left": GAMMA_0, "bottom": GAMMA_TILDE,
                               "right": GAMMA_TILDE, "top": GAMMA_TILDE}
        z = part.grid.nodes_z()
        assert np.max(np.abs(w.psi(z[part.nodes(GAMMA_0)]))) < 1e-12
        (point,) = find_critical_points(w, part.grid)
        assert w.dPhi(point.location) == 0
        assert abs(np.linalg.det(point.hessian)) == pytest.approx(4.0)  # |Phi''|^2
        assert np.min(np.abs(z[part.nodes(GAMMA_TILDE)] - point.location)) > 1e-8
