import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from cgolab import (Grid2D, TransformPlan, VectorField,
                    dzbar_inv, dz_inv, make_vekua_operator, vekua_solve,
                    neumann_series_apply, r_tau, r_tau_b, bump_cutoff, plateau_cutoff,
                    random_trig_spec, weight_catalog, GridError, ConvergenceError)
from cgolab import transforms
from cgolab.calculus import dzbar_array, dz_array
from cgolab.fields import pointwise, _norm, _SERIES_RTOL
from cgolab.harness import refinement_orders

from conftest import make_triple, inset_slice, count_transforms, constant_matrix


def test_kernel_table_self_cell_is_exactly_zero(grid33):
    """The singular cell integrates to 0 in closed form; only it is dropped."""
    K = transforms._kernel_table(grid33)
    assert K[0, 0] == 0.0  # zero offset sits at the origin of the circular table
    # every other offset of the grid holds a nonzero entry, the padding none
    assert np.count_nonzero(K) == (2 * grid33.nx - 1) * (2 * grid33.ny - 1) - 1


def _scipy_apply_kernel(plan, samples):
    """The former apply: one scipy.fft fft2 / ifft2 pair over the padded grid."""
    trail = (1,) * (samples.ndim - 2)
    f = scipy.fft.fft2(samples * plan._weights.reshape(plan.grid.shape + trail),
                       s=plan._spectrum.shape, axes=(0, 1))
    f *= plan._spectrum.reshape(plan._spectrum.shape + trail)
    out = scipy.fft.ifft2(f, axes=(0, 1), overwrite_x=True)
    return np.ascontiguousarray(out[:plan.grid.nx, :plan.grid.ny])


@pytest.mark.parametrize("nx, ny", [(17, 33), (33, 33), (129, 129), (257, 257)])
def test_pruned_passes_are_the_scipy_pair_bit_for_bit(nx, ny):
    grid = Grid2D(nx=nx, ny=ny)
    plan = TransformPlan(grid)
    assert np.array_equal(plan._spectrum,
                          scipy.fft.fft2(transforms._kernel_table(grid)))
    rng = np.random.default_rng(nx + ny)
    for trail in [(), (2,), (2, 2)]:
        shape = grid.shape + trail
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = transforms._apply_kernel(plan, g)
        assert out.shape == shape and out.flags.c_contiguous
        assert np.array_equal(out, _scipy_apply_kernel(plan, g))


@pytest.mark.parametrize("nx, ny", [(17, 33), (33, 17)])
def test_a_reused_plan_carries_nothing_over(nx, ny):
    """Each apply clears the padding of the plan's one work array itself:
    NaN left in it, or the last apply's spectrum, changes no bit."""
    grid = Grid2D(nx=nx, ny=ny)
    plan = TransformPlan(grid)
    assert isinstance(plan._work, np.ndarray)
    assert plan._work.shape == plan._spectrum.shape
    plan._work.fill(np.nan)
    rng = np.random.default_rng(nx * ny)
    for trail in [(), (2,), (1,)]:
        shape = grid.shape + trail
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = transforms._apply_kernel(plan, g)
        assert np.array_equal(out, transforms._apply_kernel(TransformPlan(grid), g))


@pytest.mark.parametrize("nx", [129, 257])
def test_plan_build_and_apply_peak_at_three_spectra(nx):
    """Building a plan and one single-plane apply hold at most three arrays
    of the spectrum's size at once: the spectrum, the work array, and the
    input and output planes with the build's temporaries."""
    g = np.ones((nx, nx), dtype=complex)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        plan = TransformPlan(Grid2D(nx=nx, ny=nx))
        transforms._apply_kernel(plan, g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 3 * plan._spectrum.nbytes


def test_fast_len_is_scipy_next_fast_len():
    assert [transforms._fast_len(n) for n in range(1, 1101)] == \
        [scipy.fft.next_fast_len(n) for n in range(1, 1101)]


def _brute_force_transform(g, grid, conj_kernel=False):
    """-(1/pi) sum_{s != t} w_s g_s / (zeta_s - z_t), as an explicit double sum."""
    z = grid.nodes_z().ravel()
    w = grid.quad_weights().ravel()
    diff = z[None, :] - z[:, None]  # [t, s] = zeta_s - z_t
    if conj_kernel:
        diff = np.conj(diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.where(diff == 0, 0.0, 1.0 / diff)
    gs = g.reshape(z.size, -1)
    return (-(1.0 / np.pi) * K @ (w[:, None] * gs)).reshape(g.shape)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("wrap", [False, True])
def test_transforms_match_brute_force_sum(n, wrap):
    # non-square, so each axis gets its own circular embedding
    grid = Grid2D(nx=11, ny=14)
    plan = TransformPlan(grid)
    rng = np.random.default_rng(n)
    g = rng.standard_normal((11, 14, n)) + 1j * rng.standard_normal((11, 14, n))
    arg = VectorField(grid, g) if wrap else g
    for inv, conj_kernel in ((dzbar_inv, False), (dz_inv, True)):
        out = inv(arg, plan)
        assert isinstance(out, VectorField) == wrap
        got = out.data if wrap else out
        ref = _brute_force_transform(g, grid, conj_kernel)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_round_trip_small_grid(grid33, plan33):
    rng = np.random.default_rng(0)
    g = random_trig_spec(rng, (), 1.0).sample(grid33)[:, :, None]
    back = dzbar_array(dzbar_inv(g, plan33), grid33)
    sl = inset_slice(grid33, frac=0.1)
    assert np.max(np.abs((back - g)[sl])) < 5e-3  # frozen from the 33-node run


def test_dz_inv_is_conjugate_of_dzbar_inv(grid33, plan33):
    rng = np.random.default_rng(3)
    g = (rng.standard_normal((33, 33, 1)) + 1j * rng.standard_normal((33, 33, 1)))
    assert np.allclose(dz_inv(g, plan33), np.conj(dzbar_inv(np.conj(g), plan33)))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_transform_linearity(seed):
    grid = Grid2D(nx=17, ny=17)
    plan = TransformPlan(grid)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((17, 17, 1)) + 1j * rng.standard_normal((17, 17, 1))
    g = rng.standard_normal((17, 17, 1)) + 1j * rng.standard_normal((17, 17, 1))
    a = complex(rng.standard_normal(), rng.standard_normal())
    lhs = dzbar_inv(a * f + g, plan)
    rhs = a * dzbar_inv(f, plan) + dzbar_inv(g, plan)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_vekua_solve_satisfies_equation(grid33, plan33):
    t = make_triple(2, 2, grid33, amplitude=0.4)
    op = make_vekua_operator(t.a_coef, plan33)
    rng = np.random.default_rng(1)
    g = random_trig_spec(rng, (2,), 1.0).vector_field(grid33)
    w = vekua_solve(op, g)
    # residual on the discrete integral system is the solver contract
    lhs = w.data + op.full_map(w.data)
    rhs = 0.5 * dzbar_inv(g.data, plan33)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-8
    # and the differential residual converges at stencil order, not zero
    res = 2 * dzbar_array(w.data, grid33) + t.a_coef.matvec(w).data - g.data
    assert np.max(np.abs(res[inset_slice(grid33)])) < 3e-2


def _count_gmres(monkeypatch):
    """Each GMRES call records how many transforms were applied before it."""
    kernel_calls, gmres_at = count_transforms(monkeypatch), []
    gmres = transforms.gmres

    def counted_gmres(*args, **kwargs):
        gmres_at.append(len(kernel_calls))
        return gmres(*args, **kwargs)

    monkeypatch.setattr(transforms, "gmres", counted_gmres)
    return gmres_at


def test_series_and_direct_paths_agree(grid33, plan33, monkeypatch):
    b = constant_matrix(grid33, [[0.8 + 0.2j]])
    op = make_vekua_operator(b, plan33)
    gmres_calls = _count_gmres(monkeypatch)
    rng = np.random.default_rng(5)
    g = random_trig_spec(rng, (1,), 1.0).vector_field(grid33)
    w_series = neumann_series_apply(op, g)
    w_direct = vekua_solve(op, g)
    assert gmres_calls == []  # both stayed on the series
    # without a cutoff the series is the Vekua solve itself
    assert np.array_equal(w_series.data, w_direct.data)


def test_strong_b_takes_gmres_and_meets_contract(grid33, plan33, monkeypatch):
    b = constant_matrix(grid33, [[40.0]])
    op = make_vekua_operator(b, plan33)
    gmres_calls = _count_gmres(monkeypatch)
    rng = np.random.default_rng(1)
    g = random_trig_spec(rng, (1,), 1.0).vector_field(grid33)
    w = vekua_solve(op, g)
    # one call, right after the right-hand side and the first growing term
    assert gmres_calls == [2]
    rhs = 0.5 * dzbar_inv(g.data, plan33)
    res = w.data + op.full_map(w.data) - rhs
    assert np.linalg.norm(res) / np.linalg.norm(rhs) <= 1e-8


@pytest.mark.parametrize("x_of", ["gmres", "zeros"])
def test_gmres_stop_at_maxiter_is_judged_by_the_residual(grid33, plan33, monkeypatch,
                                                         x_of):
    """GMRES's own stop flag decides nothing: the solve's residual check does."""
    op = make_vekua_operator(constant_matrix(grid33, [[40.0]]), plan33)
    g = random_trig_spec(np.random.default_rng(1), (1,), 1.0).vector_field(grid33)
    w = vekua_solve(op, g)
    real_gmres = transforms.gmres

    def stopped_at_maxiter(*args, **kwargs):
        x, _ = real_gmres(*args, **kwargs)
        return (x if x_of == "gmres" else np.zeros_like(x)), 7

    monkeypatch.setattr(transforms, "gmres", stopped_at_maxiter)
    if x_of == "gmres":
        assert np.array_equal(vekua_solve(op, g).data, w.data)
    else:
        with pytest.raises(ConvergenceError, match=r"residual 1\.00e\+00 > 1e-08$"):
            vekua_solve(op, g)


@pytest.mark.parametrize("b, gmres_expected", [(0.8 + 0.2j, False), (40.0, True)])
def test_private_solve_returns_its_last_residual(grid33, plan33, monkeypatch,
                                                 b, gmres_expected):
    op = make_vekua_operator(constant_matrix(grid33, [[b]]), plan33)
    gmres_calls = _count_gmres(monkeypatch)
    g = random_trig_spec(np.random.default_rng(5), (1,), 1.0).vector_field(grid33)
    w, res = transforms._vekua_solve(op, g.data, 1e-8)
    assert bool(gmres_calls) == gmres_expected
    # the norm of the returned w's residual, as the solve measured it
    rhs = 0.5 * dzbar_inv(g.data, plan33)
    assert res == pytest.approx(_norm(rhs - (w + op.full_map(w))), rel=1e-15)
    assert res <= (1e-8 if gmres_expected else _SERIES_RTOL) * _norm(rhs)
    assert np.array_equal(vekua_solve(op, g).data, w)


def _complex_normal(rng):
    return rng.standard_normal((33, 33, 1)) + 1j * rng.standard_normal((33, 33, 1))


# the series terms of each grow before they shrink: for b = 40 with g = 1
# the ratios run 4.57, 3.20, ..., 1.01, then fall to about 0.54; the
# complex b = 8.5 input runs 0.95, 1.11, 1.05, 0.95, then falls to about
# 0.4; the real one runs 1.01, 1.31, 1.03, then 0.80, 0.66, ... to 0.12
@pytest.mark.parametrize("b, g_of", [
    (40.0, lambda: np.ones((33, 33, 1), dtype=complex)),
    (8.5, lambda: _complex_normal(np.random.default_rng(0))),
    (8.5, lambda: np.random.default_rng(0).standard_normal((33, 33, 1))),
], ids=["b40-ones", "b8.5-complex", "b8.5-real"])
def test_series_rides_out_transient_growth(grid33, plan33, b, g_of):
    op = make_vekua_operator(constant_matrix(grid33, [[b]]), plan33)
    g = g_of()
    w = neumann_series_apply(op, g)
    rhs = 0.5 * dzbar_inv(g, plan33)
    res = w + op.full_map(w) - rhs
    assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(rhs)


@pytest.mark.parametrize("case", ["constant", "system"])
def test_building_an_operator_costs_no_transform(grid33, plan33, monkeypatch,
                                                 case):
    calls = count_transforms(monkeypatch)
    if case == "system":
        b = random_trig_spec(np.random.default_rng(6), (2, 2), 0.4).matrix_field(grid33)
    else:
        b = constant_matrix(grid33, [[2.0]])
    make_vekua_operator(b, plan33)
    assert len(calls) == 0


def cutoff_map(b, cutoff, plan, v):
    """One step of the cutoff series: v -> (1/2) dzbar_inv(e B v)."""
    e = cutoff.values.reshape(cutoff.values.shape + (1,) * (v.ndim - 2))
    return 0.5 * dzbar_inv(e * pointwise(b.data, v), plan)


def test_term_ratios_shrink_with_cutoff_support(grid33, plan33):
    # the smallness-of-support contraction mechanism, observed directly
    b = constant_matrix(grid33, [[2.0]])
    rng = np.random.default_rng(1)
    g = random_trig_spec(rng, (1,), 1.0).vector_field(grid33)
    sups = []
    for r in (0.45, 0.25, 0.1):
        cut = bump_cutoff(grid33, 0.5 + 0.5j, r)
        # norm ratios of successive Neumann-series terms
        term = 0.5 * dzbar_inv(g.data, plan33)
        ratios = []
        for _ in range(4):
            nxt = cutoff_map(b, cut, plan33, term)
            ratios.append(np.linalg.norm(nxt) / np.linalg.norm(term))
            term = nxt
        sups.append(max(ratios))
    assert sups[0] > sups[1] > sups[2]


def test_r_tau_b_is_phase_conjugated_vekua_solve(grid33, plan33):
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    cut = plateau_cutoff(grid33, 0.5 + 0.5j, 0.3, 0.45)
    rng = np.random.default_rng(2)
    b = random_trig_spec(rng, (1, 1), 0.5).matrix_field(grid33)
    g = random_trig_spec(rng, (1,), 1.0).vector_field(grid33)
    osc = np.exp(2j * 4.0 * w.psi(grid33.nodes_z()))[:, :, None]
    for side in ("zbar", "z"):
        if side == "zbar":
            direct = osc * vekua_solve(make_vekua_operator(b, plan33),
                                       np.conj(osc) * g.data)
        else:  # the conjugate of side 'zbar' on conj g and conj B
            direct = np.conj(osc * vekua_solve(make_vekua_operator(b.conj(), plan33),
                                               np.conj(osc) * np.conj(g.data)))
        u = r_tau_b(g, w, 4.0, b, plan33, side=side)
        assert np.array_equal(u.data, direct)
        # T_B does not depend on the cutoff
        u_cut = r_tau_b(g, w, 4.0, b, plan33, side=side, cutoff=cut)
        assert np.array_equal(u_cut.data, u.data)


def test_r_tau_b_meets_contract_through_transient_growth(grid33, plan33):
    # the Neumann series of this source grows for three terms (ratios
    # 1.13, 1.59, 1.34) before it contracts
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    b = constant_matrix(grid33, [[12.0]])
    g = np.random.default_rng(0).standard_normal((33, 33, 1))
    u = r_tau_b(g, w, 4.0, b, plan33, side="zbar")
    conj_in = np.conj(np.exp(2j * 4.0 * w.psi(grid33.nodes_z())))[:, :, None]
    op = make_vekua_operator(b, plan33)
    v = conj_in * u
    rhs = 0.5 * dzbar_inv(conj_in * g, plan33)
    res = v + op.full_map(v) - rhs
    assert np.linalg.norm(res) / np.linalg.norm(rhs) <= 1e-8


def test_r_tau_b_transform_count(monkeypatch):
    # criterion 3 inputs at tau 8, with the plateau cutoff that the
    # rtau_ladder workload still passes: the phase-conjugated source is
    # one transform and each residual of the series one more
    grid = Grid2D(nx=257, ny=257)
    plan = TransformPlan(grid)
    c = 0.5 + 0.5j
    w = weight_catalog("quadratic", {"c": c})
    b = random_trig_spec(np.random.default_rng(3), (1, 1), 0.3).matrix_field(grid)
    bump = bump_cutoff(grid, c, 0.3).values
    g = VectorField(grid, ((grid.nodes_z() - c) * bump)[:, :, None])
    calls = count_transforms(monkeypatch)
    r_tau_b(g, w, 8.0, b, plan, side="z",
            cutoff=plateau_cutoff(grid, c, 0.34, 0.45))
    assert 0 < len(calls) <= 8


@pytest.mark.parametrize("case", ["field", "zero", "system"])
def test_cutoff_series_stops_at_round_off(grid33, plan33, monkeypatch, case):
    """The cutoff series is the Vekua solve of e B, on its series path."""
    # a plateau cutoff around the quadratic weight's critical point
    cut = plateau_cutoff(grid33, 0.5 + 0.5j, 0.3, 0.45)
    rng = np.random.default_rng(2)
    n = 2 if case == "system" else 1
    b = random_trig_spec(rng, (n, n), 0.5).matrix_field(grid33)
    op = make_vekua_operator(b, plan33)
    g = random_trig_spec(rng, (n,), 1.0).vector_field(grid33).data
    if case == "zero":
        g = np.zeros_like(g)
    term = 0.5 * dzbar_inv(g, plan33)
    reference = term.copy()
    for _ in range(1, 40):
        term = -cutoff_map(b, cut, plan33, term)
        reference += term

    gmres_calls = _count_gmres(monkeypatch)
    calls = count_transforms(monkeypatch)
    total = neumann_series_apply(op, g, cutoff=cut)
    assert gmres_calls == []
    if case == "zero":
        # the right-hand side and the residual of w = 0, which is 0
        assert len(calls) == 2
        assert np.array_equal(total, reference)
    else:
        assert len(calls) < 40
        assert _norm(total - reference) <= _SERIES_RTOL * _norm(reference)


def test_r_tau_rejects_zero_tau(grid33, plan33):
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    g = VectorField(grid33, np.ones((33, 33, 1), dtype=complex))
    with pytest.raises(GridError):
        r_tau(g, w, 0.0, plan33)


def _no_transform(*args, **kwargs):
    raise AssertionError("applied a transform before the check")


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -4.0, 0.0, True])
@pytest.mark.parametrize("entry", ["r_tau", "r_tau_b"])
def test_conjugated_inverses_refuse_tau_that_is_not_finite_positive(
        grid33, plan33, monkeypatch, entry, tau):
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    g = VectorField(grid33, np.ones((33, 33, 1), dtype=complex))
    b = constant_matrix(grid33, [[2.0]])
    monkeypatch.setattr(transforms, "_apply_kernel", _no_transform)
    with pytest.raises(GridError, match=r"^tau must be a finite number > 0, got "):
        if entry == "r_tau":
            r_tau(g, w, tau, plan33)
        else:
            r_tau_b(g, w, tau, b, plan33)


@pytest.mark.parametrize("entry", ["r_tau", "r_tau_b"])
def test_side_other_than_z_or_zbar_is_refused_up_front(grid33, plan33,
                                                       monkeypatch, entry):
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    g = VectorField(grid33, np.ones((33, 33, 1), dtype=complex))
    b = constant_matrix(grid33, [[2.0]])
    monkeypatch.setattr(transforms, "_apply_kernel", _no_transform)
    with pytest.raises(GridError, match=r"^side must be 'z' or 'zbar', got 'x'"):
        if entry == "r_tau":
            r_tau(g, w, 4.0, plan33, side="x")
        else:
            r_tau_b(g, w, 4.0, b, plan33, side="x")


@pytest.mark.parametrize("shape", [(1, 1, 1), (33, 1, 2), (17, 17, 1)])
@pytest.mark.parametrize("entry", [
    "dzbar_inv", "dz_inv", "r_tau zbar", "r_tau z", "r_tau_b zbar",
    "r_tau_b z", "vekua_solve zbar", "vekua_solve z", "neumann_series_apply"])
def test_entry_points_refuse_samples_off_the_plan_grid(grid33, plan33,
                                                       monkeypatch, entry, shape):
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    b = constant_matrix(grid33, [[2.0]])
    name, _, side = entry.partition(" ")
    call = {
        "dzbar_inv": lambda g: dzbar_inv(g, plan33),
        "dz_inv": lambda g: dz_inv(g, plan33),
        "r_tau": lambda g: r_tau(g, w, 4.0, plan33, side=side),
        "r_tau_b": lambda g: r_tau_b(g, w, 4.0, b, plan33, side=side),
        # side 'z' runs its solve on the mirror's coefficient conj B
        "vekua_solve": lambda g: vekua_solve(
            make_vekua_operator(b if side == "zbar" else b.conj(), plan33), g),
        "neumann_series_apply": lambda g: neumann_series_apply(
            make_vekua_operator(b, plan33), g),
    }[name]

    def no_work(*args, **kwargs):
        raise AssertionError("worked on samples of the wrong shape")

    monkeypatch.setattr(transforms, "_phase_conjugated", no_work)
    monkeypatch.setattr(transforms, "_apply_kernel", no_work)
    with pytest.raises(GridError, match=r"and samples of shape .* differ in grid "
                                        r"shape: \(33, 33\) against"):
        call(np.ones(shape, dtype=complex))


def test_r_tau_b_reduces_to_r_tau_for_zero_b(grid33, plan33):
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    rng = np.random.default_rng(4)
    g = random_trig_spec(rng, (1,), 1.0).vector_field(grid33)
    b0 = constant_matrix(grid33, [[0.0]])
    u1 = r_tau(g, w, 4.0, plan33)
    u2 = r_tau_b(g, w, 4.0, b0, plan33)
    assert np.max(np.abs(u1.data - u2.data)) == 0.0


@pytest.mark.parametrize("b_value", [0.5, 0.0])
def test_scalar_samples_are_one_component_per_node(grid33, plan33, b_value):
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    g = random_trig_spec(np.random.default_rng(4), (1,), 1.0).vector_field(grid33)
    scalar = g.data[:, :, 0]
    b = constant_matrix(grid33, [[b_value]])
    u = vekua_solve(make_vekua_operator(b, plan33), scalar)
    assert u.shape == (33, 33)
    assert np.array_equal(u, vekua_solve(make_vekua_operator(b, plan33), g).data[:, :, 0])
    for side in ("zbar", "z"):
        u = r_tau_b(scalar, w, 4.0, b, plan33, side=side)
        assert u.shape == (33, 33)
        assert np.array_equal(u, r_tau_b(g, w, 4.0, b, plan33, side=side).data[:, :, 0])
        if b_value == 0.0:
            assert np.array_equal(u, r_tau(scalar, w, 4.0, plan33, side=side))


def test_conjugated_identity_residual(grid33, plan33):
    """(2 dzbar + 2 tau dzbar(conj Phi) + B) applied to the conjugated
    inverse reproduces the source up to stencil plus quadrature error."""
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    tau = 4.0
    rng = np.random.default_rng(2)
    b = random_trig_spec(rng, (2, 2), 0.4).matrix_field(grid33)
    g = random_trig_spec(rng, (2,), 1.0).vector_field(grid33)
    u = r_tau_b(g, w, tau, b, plan33)
    Z = grid33.nodes_z()
    res = (2 * dzbar_array(u.data, grid33)
           + 2 * tau * np.conj(w.dPhi(Z))[:, :, None] * u.data
           + b.matvec(u).data - g.data)
    assert np.max(np.abs(res[inset_slice(grid33)])) < 2e-2


def test_round_trip_refinement_order():
    rng0 = 2
    errs = []
    for nx in (33, 65, 129):
        grid = Grid2D(nx=nx, ny=nx)
        plan = TransformPlan(grid)
        g = random_trig_spec(np.random.default_rng(rng0), (), 1.0).sample(grid)[:, :, None]
        back = dzbar_array(dzbar_inv(g, plan), grid)
        errs.append(np.max(np.abs((back - g)[inset_slice(grid)])))
    assert min(refinement_orders(errs)) > 1.8
