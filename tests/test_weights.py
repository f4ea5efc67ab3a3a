import numpy as np
import pytest

from cgolab import (Grid2D, weight_catalog, find_critical_points,
                    oscillatory_integral, stationary_phase_leading,
                    resolution_nodes_per_period, HolomorphicWeight,
                    LabError, GridError, random_trig_spec, bump_cutoff,
                    VectorField)
from cgolab.harness import _convex_weight

from conftest import NOT_FINITE_POSITIVE


def test_catalog_kinds_and_flags():
    """The catalog holds the quadratic weight alone, with its closed forms."""
    c = 0.4 + 0.6j
    w = weight_catalog("quadratic", {"c": c})
    assert w == HolomorphicWeight(c=c)
    z = Grid2D(nx=33, ny=33).nodes_z()
    assert np.array_equal(w.Phi(z), (z - c) ** 2)
    assert np.array_equal(w.dPhi(z), 2.0 * (z - c))
    assert np.array_equal(w.phi(z) + 1j * w.psi(z), w.Phi(z))
    for kind in ("linear", "cubic"):
        with pytest.raises(LabError, match=f"^unknown weight kind '{kind}'"):
            weight_catalog(kind, {"c": c})


def test_catalog_rejects_center_outside_domain():
    with pytest.raises(LabError, match="outside the closed domain"):
        weight_catalog("quadratic", {"c": 3.0 + 0.5j})


@pytest.mark.parametrize("kind, params", [
    ("quadratic", {}), ("quadratic", {"alpha": 1.0}),  # missing
    ("quadratic", {"m": 0.04}),
    ("quadratic", {"c": 0.5 + 0.5j, "m": 1}),  # extra
    ("quadratic", {"alpha": 1.0, "c": 0.5 + 0.5j})])
def test_catalog_refuses_a_missing_or_extra_parameter(kind, params):
    with pytest.raises(LabError, match=f"^{kind} weight takes the parameter c; got "):
        weight_catalog(kind, params)


@pytest.mark.parametrize("kind, params, name", [
    ("quadratic", {"c": None}, "c"),
    ("quadratic", {"c": float("inf")}, "c"),
    ("quadratic", {"c": "x"}, "c"),
    ("quadratic", {"c": True}, "c"),
    ("quadratic", {"c": complex("nan")}, "c"),
    ("quadratic", {"c": complex(0.5, float("-inf"))}, "c")])
def test_catalog_refuses_a_parameter_that_is_not_a_finite_number(kind, params,
                                                                 name):
    with pytest.raises(LabError, match=f"{kind} weight parameter {name} must "
                                       "be a finite number"):
        weight_catalog(kind, params)


def test_catalog_refuses_an_unknown_kind():
    with pytest.raises(LabError, match="unknown weight kind 'sextic'"):
        weight_catalog("sextic", {"c": 0.5 + 0.5j})


def test_quadratic_critical_point_is_its_center():
    c = 0.4 + 0.6j
    w = weight_catalog("quadratic", {"c": c})
    pts = find_critical_points(w, Grid2D(nx=33, ny=33))
    assert len(pts) == 1
    assert pts[0].location == c
    assert pts[0].psi_value == 0.0


@pytest.mark.parametrize("kind, params", [
    ("quadratic", {"c": 0.4 + 0.6j}),
    ("quadratic", {"c": 0.0}),
    ("quadratic", {"c": 1.0 + 1.0j}),
    ("quadratic", {"c": 0.5j}),
    ("quadratic", {"c": 1}),
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
    # the center 0.7 + 0.5j lies in the unit square but right of x = 0.5
    w = weight_catalog("quadratic", {"c": 0.7 + 0.5j})
    assert find_critical_points(w, Grid2D(nx=33, ny=33, x_max=0.5)) == []
    assert len(find_critical_points(w, Grid2D(nx=33, ny=33, x_max=0.7))) == 1


def test_hessian_is_harmonic_saddle():
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    pt = find_critical_points(w, Grid2D(nx=33, ny=33))[0]
    H = pt.hessian
    # psi = 2 (x - Re c)(y - Im c), and det psi'' = -|Phi''|^2 = -4
    assert np.array_equal(H, [[0.0, 2.0], [2.0, 0.0]])
    assert np.linalg.det(H) == pytest.approx(-4.0)
    eigs = np.linalg.eigvalsh(H)
    assert eigs[0] < 0 < eigs[1]  # signature zero


def test_carleman_weight_invariants():
    """The probes' convex weight is exp(lam psi_c), lam = 2 >= 1, psi_c = x + 0.1 y.

    Its logarithm has the gradient (2, 0.2) at every node, so psi_c has
    no critical point on the closed rectangle.
    """
    for nx in (17, 33, 65, 129, 257):
        grid = Grid2D(nx=nx, ny=nx)
        phi_c = _convex_weight(grid)
        assert np.all(phi_c >= 1.0)
        log_x, log_y = np.gradient(np.log(phi_c), grid.h_x, grid.h_y)
        assert np.allclose(log_x, 2.0, atol=1e-9)
        assert np.allclose(log_y, 0.2, atol=1e-9)


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
