import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgolab import (Grid2D, MatrixField, CoefficientTriple, remark_partition,
                    gauge_transform, check_relations,
                    coefficient_gap, carleman_probe, random_h01_spec,
                    CarlemanConvexWeight, full_operator_setup, BoundaryPartition,
                    GaugeSpec, LabError, TrigSpec, random_trig_spec,
                    weight_catalog)
from cgolab import cli, harness
from cgolab.harness import refinement_orders

from conftest import make_triple


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
    cw = CarlemanConvexWeight(gx=1.0, gy=0.1, lam=2.0)
    rng = np.random.default_rng(2)
    fam = [random_h01_spec(rng, (1,), 1.0) for _ in range(3)]
    rep = carleman_probe("first_order_dz", cw, [8.0, 16.0, 32.0, 64.0],
                         fam, grid33)
    assert rep["passed"]
    assert rep["ratios"][-1] < rep["ratios"][0]


def test_carleman_probe_rejects_bad_ladder(grid33):
    cw = CarlemanConvexWeight(gx=1.0, gy=0.1, lam=2.0)
    with pytest.raises(LabError):
        carleman_probe("first_order_dz", cw, [8.0], [], grid33)
    with pytest.raises(LabError):
        carleman_probe("first_order_dz", cw, [8.0, 4.0], [], grid33)


def test_carleman_probe_kind_weight_mismatch(grid33):
    cw = CarlemanConvexWeight(gx=1.0, gy=0.1, lam=2.0)
    with pytest.raises(LabError):
        carleman_probe("full_operator", cw, [8.0, 16.0], [], grid33)


@pytest.mark.parametrize("case, message", [
    ("unknown kind", "unknown probe kind"),
    ("no b_pair", "needs a coefficient pair"),
    ("no partition", "needs a partition and coefficients"),
    ("no coefs", "needs a partition and coefficients"),
    ("empty convex family", "empty test family"),
    ("empty full family", "empty test family"),
    ("Im Phi on gamma_0", "Im Phi does not vanish on gamma_0"),
    ("degenerate critical point", "degenerate critical point"),
    ("critical point on gamma_tilde", "critical point on gamma_tilde"),
    ("vacuous family", "every test-family member is vacuous at tau 8$"),
    ("partition on another grid", "^Grid2D and BoundaryPartition differ in grid"),
    ("coefs on another grid", "^Grid2D and CoefficientTriple differ in grid"),
    ("b_pair on another grid", "^Grid2D and MatrixField differ in grid"),
])
def test_carleman_probe_refuses_incomplete_input_before_any_work(
        grid33, monkeypatch, case, message):
    cw = CarlemanConvexWeight(gx=1.0, gy=0.1, lam=2.0)
    part, hw = full_operator_setup(grid33)
    observed = BoundaryPartition(grid33)  # every edge observed: no gamma_0
    t = make_triple(0, 1, grid33)
    rng = np.random.default_rng(0)
    vec, mat = random_h01_spec(rng, (1,), 1.0), random_h01_spec(rng, (1, 1), 1.0)
    full = {"partition": part, "coefs": t}
    kind, weight, family, kw = {
        "unknown kind": ("nonsense", cw, [vec], {}),
        "no b_pair": ("system_zero_order", cw, [mat], {}),
        "no partition": ("full_operator", hw, [vec], {"coefs": t}),
        "no coefs": ("full_operator", hw, [vec], {"partition": part}),
        "empty convex family": ("first_order_dz", cw, [], {}),
        "empty full family": ("full_operator", hw, [], full),
        "Im Phi on gamma_0": ("full_operator",
                              weight_catalog("quadratic", {"c": 0.5 + 0.5j}),
                              [vec], full),
        "degenerate critical point": (
            "full_operator", weight_catalog("cubic", {"c": 0.5 + 0.5j, "m": 0}),
            [vec], {"partition": observed, "coefs": t}),
        "critical point on gamma_tilde": (
            "full_operator", weight_catalog("quadratic", {"c": 0.5}),
            [vec], {"partition": observed, "coefs": t}),
        "vacuous family": ("first_order_dz", cw, [TrigSpec(0 * vec.coeffs)], {}),
        "partition on another grid": (
            "full_operator", hw, [vec],
            {"partition": full_operator_setup(Grid2D(nx=17, ny=17))[0],
             "coefs": t}),
        "coefs on another grid": (
            "full_operator", hw, [vec],
            {"partition": part, "coefs": make_triple(0, 1, Grid2D(nx=17, ny=17))}),
        "b_pair on another grid": (
            "system_zero_order", cw, [mat],
            {"b_pair": (make_triple(0, 1, Grid2D(nx=17, ny=17)).b_coef,) * 2}),
    }[case]

    def no_work(*args, **kwargs):
        raise AssertionError("probe evaluated before its inputs were checked")

    # a vacuous family shows itself only once the first rung is evaluated
    if case != "vacuous family":
        monkeypatch.setattr(harness, "_probe_sides", no_work)
    with pytest.raises(LabError, match=message):
        carleman_probe(kind, weight, [8.0, 16.0], family, grid33, **kw)


def test_h01_spec_vanishes_on_boundary(grid33):
    spec = random_h01_spec(np.random.default_rng(0), (2,), 1.0)
    v = spec.sample(grid33)
    assert np.max(np.abs(v[0, :])) < 1e-14
    assert np.max(np.abs(v[:, -1])) < 1e-14


def test_full_operator_setup_flags():
    """The setup pair meets the hypotheses on Phi that the full probe checks."""
    part, w = full_operator_setup(Grid2D(nx=33, ny=33))
    harness._check_phase(w, part)
    assert part.labels["left"] == "gamma_0"
