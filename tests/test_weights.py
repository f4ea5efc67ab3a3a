import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgolab import (Grid2D, weight_catalog,
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


@pytest.mark.parametrize("kind, params", [
    ("quadratic", {"c": 0.4 + 0.6j}),
    ("quadratic", {"c": 0.0}),
    ("quadratic", {"c": 1.0 + 1.0j}),
    ("quadratic", {"c": 0.5j}),
    ("quadratic", {"c": 1}),
])
def test_critical_points_are_zeros_of_dphi_in_the_rectangle(kind, params):
    """The catalog's center c lies in the unit square, and dPhi and psi vanish there."""
    w = weight_catalog(kind, params)
    assert w.c == params["c"]
    assert 0.0 <= w.c.real <= 1.0 and 0.0 <= w.c.imag <= 1.0
    assert w.dPhi(w.c) == 0
    assert w.psi(w.c) == 0


def psi_hessian(w, h=0.125):
    """Central second differences of psi at c: exact, since psi is quadratic."""
    def psi(dx, dy):
        return float(w.psi(w.c + complex(dx, dy)))
    pxx = (psi(h, 0) - 2 * psi(0, 0) + psi(-h, 0)) / h ** 2
    pyy = (psi(0, h) - 2 * psi(0, 0) + psi(0, -h)) / h ** 2
    pxy = (psi(h, h) - psi(h, -h) - psi(-h, h) + psi(-h, -h)) / (4 * h * h)
    return np.array([[pxx, pxy], [pxy, pyy]])


def test_hessian_is_harmonic_saddle():
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    H = psi_hessian(w)
    # psi = 2 (x - Re c)(y - Im c), and det psi'' = -|Phi''|^2 = -4
    assert np.array_equal(H, [[0.0, 2.0], [2.0, 0.0]])
    assert np.linalg.det(H) == pytest.approx(-4.0)
    eigs = np.linalg.eigvalsh(H)
    assert eigs[0] < 0 < eigs[1]  # signature zero


def general_leading(g0, tau, hessian, psi0):
    """The general stationary-phase leading term at a nondegenerate critical
    point, from the det and signature of psi'' and the value psi0 there."""
    det = float(np.linalg.det(hessian))
    eigs = np.linalg.eigvalsh(hessian)
    sigma = int(np.sum(eigs > 0) - np.sum(eigs < 0))
    pref = (2 * np.pi / (2 * tau)) * abs(det) ** -0.5
    return (pref * np.exp(1j * np.pi * sigma / 4) * complex(g0)
            * np.exp(2j * tau * psi0))


def test_closed_form_is_the_general_term_bit_for_bit():
    # the stationary-phase scenario's range: g(c) of a unit-amplitude
    # trigonometric spec and tau up to the sweep's 128, with margin
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    saddle = psi_hessian(w), float(w.psi(w.c))
    rng = np.random.default_rng(20)
    g0s = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    taus = 10.0 ** rng.uniform(-3.0, 4.0, 2000)
    for g0, tau in zip(g0s, taus):
        got, want = stationary_phase_leading(g0, tau), general_leading(g0, tau, *saddle)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


@settings(max_examples=300, deadline=None)
@given(st.floats(-300, 300), st.floats(0, 2 * np.pi), st.floats(-300, 300))
def test_closed_form_is_the_general_term_in_value_over_a_wide_range(lg, arg, lt):
    """Where the general term is finite the two agree in value; only the sign
    of an underflowed zero may differ."""
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    g0, tau = 10.0 ** lg * np.exp(1j * arg), 10.0 ** lt
    got = stationary_phase_leading(g0, tau)
    with np.errstate(all="ignore"):
        want = general_leading(g0, tau, psi_hessian(w), float(w.psi(w.c)))
    if np.isfinite(want):
        assert got == want
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
    bump = bump_cutoff(grid, 0.5 + 0.5j, 0.4).values
    spec = random_trig_spec(np.random.default_rng(7), (), 1.0)
    g = spec.sample(grid) * bump

    # closed form of the same amplitude at the saddle (bump == 1 there)
    z = w.c
    g_at = complex(spec.eval([z.real], [z.imag])[0, 0])

    rels = []
    for tau in (16.0, 64.0):
        full = oscillatory_integral(g, w, tau, grid)
        lead = stationary_phase_leading(g_at, tau)
        rels.append(abs(full - lead) / abs(full))
    assert rels[0] < 0.2
    assert rels[1] < rels[0]


@pytest.mark.parametrize("tau", NOT_FINITE_POSITIVE)
def test_phase_integrals_refuse_tau_that_is_not_finite_positive(tau):
    grid = Grid2D(nx=33, ny=33)
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    message = r"^tau must be a finite number > 0, got "
    with pytest.raises(GridError, match=message):
        oscillatory_integral(np.ones(grid.shape), w, tau, grid)
    with pytest.raises(GridError, match=message):
        stationary_phase_leading(1.0, tau)
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
