import numpy as np
import pytest

from cgolab import (Grid2D, weight_catalog, find_critical_points,
                    oscillatory_integral, stationary_phase_leading,
                    resolution_nodes_per_period, CarlemanConvexWeight,
                    LabError, GridError, random_trig_spec, bump_cutoff,
                    BoundaryPartition, VectorField, remark_partition)
from cgolab.harness import _check_phase

from conftest import NOT_FINITE_POSITIVE


def test_catalog_kinds_and_flags():
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    grid = Grid2D(nx=33, ny=33)
    # nondegenerate critical point off gamma_tilde: passes with no gamma_0
    _check_phase(w, BoundaryPartition(grid))
    # the generic quadratic phase does not satisfy the hidden-arc
    # flatness requirement on the side edges, and the probe says so
    with pytest.raises(LabError, match="Im Phi does not vanish on gamma_0"):
        _check_phase(w, remark_partition(grid))


def test_catalog_rejects_center_outside_domain():
    with pytest.raises(LabError):
        weight_catalog("quadratic", {"c": 3.0 + 0.5j})


@pytest.mark.parametrize("kind, params", [
    ("quadratic", {}), ("cubic", {"c": 0.5 + 0.5j}), ("linear", {}),  # missing
    ("quadratic", {"c": 0.5 + 0.5j, "m": 1}),  # extra
    ("linear", {"alpha": 1.0, "c": 0.5 + 0.5j})])
def test_catalog_refuses_a_missing_or_extra_parameter(kind, params):
    with pytest.raises(LabError, match=f"{kind} weight takes the parameters"):
        weight_catalog(kind, params)


@pytest.mark.parametrize("kind, params, name", [
    ("cubic", {"c": 0.5, "m": "x"}, "m"),
    ("linear", {"alpha": None}, "alpha"),
    ("quadratic", {"c": "x"}, "c"),
    ("quadratic", {"c": True}, "c"),
    ("quadratic", {"c": complex("nan")}, "c"),
    ("linear", {"alpha": float("inf")}, "alpha")])
def test_catalog_refuses_a_parameter_that_is_not_a_finite_number(kind, params,
                                                                 name):
    with pytest.raises(LabError, match=f"{kind} weight parameter {name} must "
                                       "be a finite number"):
        weight_catalog(kind, params)


def test_catalog_refuses_an_unknown_kind():
    with pytest.raises(LabError, match="unknown weight kind 'sextic'"):
        weight_catalog("sextic", {"c": 0.5 + 0.5j})


def test_linear_weight_has_no_critical_points():
    w = weight_catalog("linear", {"alpha": 1.0 + 2.0j})
    assert w.closed_form_critical_points() == []
    assert find_critical_points(w, Grid2D(nx=33, ny=33)) == []


def test_quadratic_critical_point_is_its_center():
    c = 0.4 + 0.6j
    w = weight_catalog("quadratic", {"c": c})
    pts = find_critical_points(w, Grid2D(nx=33, ny=33))
    assert len(pts) == 1
    assert pts[0].location == c
    assert pts[0].margin == pytest.approx(2.0)


def test_cubic_critical_points_match_closed_form():
    w = weight_catalog("cubic", {"c": 0.5 + 0.5j, "m": 0.04})
    pts = find_critical_points(w, Grid2D(nx=65, ny=65))
    got = sorted(p.location.real for p in pts)
    assert np.allclose(got, [0.3, 0.7], atol=1e-10)


@pytest.mark.parametrize("kind, params", [
    ("quadratic", {"c": 0.4 + 0.6j}),
    ("quadratic", {"c": 0.0}),
    ("cubic", {"c": 0.5 + 0.5j, "m": 0.04}),
    ("cubic", {"c": 0.5 + 0.5j, "m": 0.09j}),
    ("cubic", {"c": 0.9 + 0.5j, "m": 0.04}),
])
def test_critical_points_are_zeros_of_dphi_in_the_rectangle(kind, params):
    grid = Grid2D(nx=33, ny=33)
    w = weight_catalog(kind, params)
    pts = find_critical_points(w, grid)
    assert pts
    for p in pts:
        z = p.location
        assert grid.x_min <= z.real <= grid.x_max
        assert grid.y_min <= z.imag <= grid.y_max
        assert abs(complex(w.dPhi(np.asarray(z)))) <= 1e-14


def test_critical_point_outside_the_rectangle_is_dropped():
    # the cubic's points are c +- sqrt(m) = 1.1 + 0.5j (outside) and 0.7 + 0.5j
    w = weight_catalog("cubic", {"c": 0.9 + 0.5j, "m": 0.04})
    pts = find_critical_points(w, Grid2D(nx=33, ny=33))
    assert [p.location for p in pts] == [0.7 + 0.5j]


def test_hessian_is_harmonic_saddle():
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    pt = find_critical_points(w, Grid2D(nx=33, ny=33))[0]
    H = pt.hessian
    d2 = complex(w.d2Phi(np.asarray(pt.location)))
    assert np.linalg.det(H) == pytest.approx(-abs(d2) ** 2)
    eigs = np.linalg.eigvalsh(H)
    assert eigs[0] < 0 < eigs[1]  # signature zero


def test_carleman_weight_invariants():
    with pytest.raises(LabError):
        CarlemanConvexWeight(gx=1.0, gy=0.0, lam=0.5)
    with pytest.raises(LabError):
        CarlemanConvexWeight(gx=0.0, gy=0.0, lam=2.0)
    cw = CarlemanConvexWeight(gx=1.0, gy=0.1, lam=2.0)
    # psi_c is linear, so its gradient is the pair of unit differences
    p0 = cw.psi_c(0.0, 0.0)
    assert np.hypot(cw.psi_c(1.0, 0.0) - p0, cw.psi_c(0.0, 1.0) - p0) > 0


def test_resolution_warns_when_underresolved():
    grid = Grid2D(nx=17, ny=17)
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    g = np.ones(grid.shape)
    assert resolution_nodes_per_period(w, grid, 1.0) > 8
    with pytest.warns(UserWarning):
        oscillatory_integral(g, w, 500.0, grid)


def test_stationary_phase_against_fine_quadrature():
    """Leading term at the saddle vs a well-resolved direct quadrature.

    With a compactly supported amplitude there is no boundary
    contribution and the relative error decays like 1/tau.
    """
    grid = Grid2D(nx=257, ny=257)
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    pt = find_critical_points(w, Grid2D(nx=33, ny=33))[0]
    bump = bump_cutoff(grid, 0.5 + 0.5j, 0.4).values
    spec = random_trig_spec(np.random.default_rng(7), (), 1.0)
    g = spec.sample(grid) * bump

    # closed form of the same amplitude at the saddle (bump == 1 there)
    z = pt.location
    g_at = complex(spec.eval(np.asarray([[z.real]]), np.asarray([[z.imag]]))[0, 0])

    rels = []
    for tau in (16.0, 64.0):
        full = oscillatory_integral(g, w, tau, grid)
        lead = stationary_phase_leading(g_at, pt, tau)
        rels.append(abs(full - lead) / abs(full))
    assert rels[0] < 0.2
    assert rels[1] < rels[0]


def test_one_bound_decides_whether_a_critical_point_is_degenerate():
    grid = Grid2D(nx=33, ny=33)
    observed = BoundaryPartition(grid)  # no gamma_0, points off gamma_tilde
    # m = 1e-14 puts the points at c +- 1e-7, where |d2Phi| = 2e-7 lies
    # below the bound: the critical-point search and the Carleman probe's
    # phase check refuse them alike
    w = weight_catalog("cubic", {"c": 0.5 + 0.5j, "m": 1e-14})
    assert [abs(complex(w.d2Phi(np.asarray(p))))
            for p in w.closed_form_critical_points()] == pytest.approx([2e-7] * 2)
    with pytest.raises(LabError, match="^degenerate critical point$"):
        find_critical_points(w, grid)
    with pytest.raises(LabError, match="degenerate critical point"):
        _check_phase(w, observed)
    # m = 1e-12 gives |d2Phi| = 2e-6, above it: every check accepts, and
    # the stationary phase takes the points as they come
    w = weight_catalog("cubic", {"c": 0.5 + 0.5j, "m": 1e-12})
    _check_phase(w, observed)
    pts = find_critical_points(w, grid)
    assert len(pts) == 2
    assert all(np.isfinite(stationary_phase_leading(1.0, p, 8.0)) for p in pts)


@pytest.mark.parametrize("tau", NOT_FINITE_POSITIVE)
def test_phase_integrals_refuse_tau_that_is_not_finite_positive(tau):
    grid = Grid2D(nx=33, ny=33)
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    point = find_critical_points(w, grid)[0]
    message = r"^tau must be a finite number > 0, got "
    with pytest.raises(GridError, match=message):
        oscillatory_integral(np.ones(grid.shape), w, tau, grid)
    with pytest.raises(GridError, match=message):
        stationary_phase_leading(1.0, point, tau)
    with pytest.raises(GridError, match=message):
        resolution_nodes_per_period(w, grid, tau)


@pytest.mark.parametrize("trail", [(2,), (5,), (1, 1)])
def test_oscillatory_integral_refuses_multi_component_samples(trail):
    grid = Grid2D(nx=33, ny=33)
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    g = np.random.default_rng(0).standard_normal(grid.shape + trail)
    with pytest.raises(GridError, match=r"^samples of shape .* are not one "
                                        r"scalar per node of the 33 x 33 grid$"):
        oscillatory_integral(g, w, 4.0, grid)
    if len(trail) == 1:
        with pytest.raises(GridError):
            oscillatory_integral(VectorField(grid, g), w, 4.0, grid)
    # one component is the scalar field itself
    one = g.reshape(grid.shape + (-1,))[:, :, :1]
    assert (oscillatory_integral(one, w, 4.0, grid)
            == oscillatory_integral(one[:, :, 0], w, 4.0, grid))
