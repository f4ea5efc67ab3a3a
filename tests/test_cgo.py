from dataclasses import replace

import numpy as np
import pytest

from cgolab import (Grid2D, TransformPlan, build_amplitude,
                    build_cgo_solution, cgo_residual, factorization_check,
                    zero_order_remainder, weight_catalog, GaugeSpec,
                    gauge_transform, make_vekua_operator, check_relations,
                    r_tau_b, remark_partition, random_trig_spec, MatrixField,
                    LabError, OverflowGuardError)
from cgolab import transforms
from cgolab.calculus import dz_array, dzbar_array
from cgolab.fields import pointwise, _norm
from cgolab.cgo import _stencil_residual, holomorphic_seed
from cgolab.harness import refinement_orders

from conftest import make_triple, count_transforms, constant_matrix, NOT_FINITE_POSITIVE


def test_amplitude_integral_residual_contract(grid33, plan33):
    t = make_triple(3, 2, grid33)
    amp = build_amplitude(t, plan33)
    assert amp.residual <= 1e-8
    # the stencil residual is truncation-limited, not tiny
    assert 1e-8 < amp.stencil_residual < 1e-2


@pytest.mark.parametrize("n_sys", [1, 2])
def test_amplitude_residual_from_the_solve_check(grid33, plan33, n_sys):
    for seed_no in range(10):
        t = make_triple(seed_no, n_sys, grid33)
        amp = build_amplitude(t, plan33)
        # the residual is the worse of w0's and the mirror's, which solves with conj B
        sides = ((t.a_coef, amp.w0),
                 (t.b_coef.conj(), build_amplitude(t.mirror(), plan33).w0))
        s = amp.seed
        solves = []
        for m, w in sides:
            op = make_vekua_operator(m, plan33)
            v, res = transforms._vekua_solve(op, m.matvec(s).data * (-1.0), 1e-9)
            assert np.array_equal(w.data, s.data + v)
            # the solve's right-hand side is -K s bit for bit, so its residual
            # v + K v + K s is that of the fixed point w + K w = s
            ks = op.full_map(s.data)
            assert res == pytest.approx(_norm(-ks - (v + op.full_map(v))), rel=1e-15)
            solves.append(res / _norm(s.data))
            # measured on w itself, the fixed point holds to the round-off of K w
            fixed_point = _norm(w.data + op.full_map(w.data) - s.data)
            assert fixed_point <= 1e-14 * _norm(s.data)
        assert amp.residual == max(solves) <= 1e-12


def test_amplitude_transform_count(monkeypatch):
    grid = Grid2D(nx=65, ny=65)
    t, plan = make_triple(3, 2, grid), TransformPlan(grid)
    calls = count_transforms(monkeypatch)
    build_amplitude(t, plan)
    # the integral residual is each solve's own last residual: no transform of its own
    assert len(calls) == 14


@pytest.mark.parametrize("nx", [17, 65, 257])
@pytest.mark.parametrize("n_sys", [1, 2, 3])
def test_library_seeds_are_annihilated(nx, n_sys):
    grid = Grid2D(nx=nx, ny=nx)
    seed = holomorphic_seed(grid, n_sys)
    scale = seed.max_abs()
    sl = grid.interior()
    assert np.max(np.abs(dzbar_array(seed.data, grid)[sl])) <= 1e-12 * scale
    assert np.max(np.abs(dz_array(seed.conj().data, grid)[sl])) <= 1e-12 * scale


def test_amplitude_annihilation_refines():
    errs = []
    for nx in (33, 65, 129):
        grid = Grid2D(nx=nx, ny=nx)
        t = make_triple(3, 1, grid)
        amp = build_amplitude(t, TransformPlan(grid))
        errs.append(amp.stencil_residual)
    assert min(refinement_orders(errs)) > 1.5


@pytest.mark.filterwarnings("error")
def test_overflow_guard_fires(grid33, plan33):
    t = make_triple(4, 1, grid33)
    amp = build_amplitude(t, plan33)
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    # the defect is formed analytically, never exponentiated: a large tau is measured
    assert np.isfinite(cgo_residual(build_cgo_solution(amp, w, 1e4), t)["residual_weighted"])
    # a defect too large for floating point is refused, without a numpy warning
    with pytest.raises(OverflowGuardError, match="^non-finite weighted residual$"):
        cgo_residual(build_cgo_solution(amp, w, 1e300), t)


@pytest.mark.parametrize("tau", NOT_FINITE_POSITIVE)
def test_solution_refuses_tau_that_is_not_finite_positive(grid33, plan33, tau):
    amp = build_amplitude(make_triple(4, 1, grid33), plan33)
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    with pytest.raises(LabError, match=r"^tau must be a finite number > 0, got "):
        build_cgo_solution(amp, w, tau)


def test_residual_reuses_tau_independent_terms_per_triple(grid33, plan33):
    t = make_triple(5, 2, grid33)
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    amp = build_amplitude(t, plan33)

    tm = t.mirror()
    amp_m = build_amplitude(tm, plan33)

    def fresh(source, coefs, tau):
        sol = build_cgo_solution(build_amplitude(source, plan33), w, tau)
        return cgo_residual(sol, coefs)

    for tau in (4.0, 8.0, 16.0):
        # the holomorphic branch, and the antiholomorphic one as the mirror's
        for a, coefs in ((amp, t), (amp_m, tm)):
            rec = cgo_residual(build_cgo_solution(a, w, tau), coefs)
            assert rec == fresh(coefs, coefs, tau)
    # another triple on the same amplitude reads its own coefficients
    t2 = gauge_transform(t, GaugeSpec(0.7))
    sol = build_cgo_solution(amp, w, 8.0)
    rec2 = cgo_residual(sol, t2)
    assert rec2 == fresh(t, t2, 8.0)
    assert rec2 != cgo_residual(sol, t) == fresh(t, t, 8.0)


@pytest.mark.parametrize("piece", ["holo", "anti"])
def test_residual_is_the_same_on_the_call_that_fills_the_cache(grid33, plan33, piece):
    t = make_triple(5, 2, grid33)
    if piece == "anti":  # the antiholomorphic branch is the mirror's holomorphic one
        t = t.mirror()
    amp, w = build_amplitude(t, plan33), weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    assert "lap_w0" not in vars(amp) and "first_order_part" not in vars(t)
    first = cgo_residual(build_cgo_solution(amp, w, 8.0), t)
    assert "lap_w0" in vars(amp) and "first_order_part" in vars(t)
    assert cgo_residual(build_cgo_solution(amp, w, 8.0), t) == first
    # a copy of the amplitude takes its own Laplacian, and so does a copy of the triple
    bare, t_copy = replace(amp), replace(t)
    assert "lap_w0" not in vars(bare) and "first_order_part" not in vars(t_copy)
    assert cgo_residual(build_cgo_solution(bare, w, 8.0), t_copy) == first


def test_weighted_residual_record_fields(grid33, plan33):
    t = make_triple(5, 2, grid33)
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    for coefs in (t, t.mirror()):
        sol = build_cgo_solution(build_amplitude(coefs, plan33), w, 4.0)
        rec = cgo_residual(sol, coefs)
        assert list(rec) == ["tau", "nx", "residual_weighted", "residual_raw"]
        assert rec["tau"] == 4.0 and rec["nx"] == 33
        assert 0 < rec["residual_weighted"] < 1e-2


def test_zero_order_remainders_differ_between_pieces(grid33):
    t = make_triple(5, 2, grid33)
    a, b, q = t.a_coef.data, t.b_coef.data, t.q_coef.data
    s1 = zero_order_remainder(t)
    assert np.array_equal(s1, q - (2 * dz_array(a, grid33) + pointwise(b, a)))
    # the second piece, Q - 2 dzbar B - A B, is the mirror's remainder conjugated
    s2 = np.conj(zero_order_remainder(t.mirror()))
    assert np.array_equal(s2, q - (2 * dzbar_array(b, grid33) + pointwise(a, b)))
    assert np.max(np.abs(s1 - s2)) > 1e-3


def test_factorization_discrepancy_refines():
    errs1, errs2 = [], []
    for nx in (33, 65, 129):
        rep = factorization_check(make_triple(6, 2, Grid2D(nx=nx, ny=nx)))
        errs1.append(rep["discrepancy_1"])
        errs2.append(rep["discrepancy_2"])
    assert min(refinement_orders(errs1)) > 1.8
    assert min(refinement_orders(errs2)) > 1.8


def _gauge_conjugated_residual(amp, gauge, t):
    """Stencil residual of e^{s eta} (w0, w0~) under 2 dzbar + (A - 2 s eta_zbar)
    and its mirror: the coefficients of the gauge map at strength -s."""
    grid = t.grid
    fac = np.exp(gauge.s * gauge.eta(grid))[:, :, None]
    w0_tilde = build_amplitude(t.mirror(), TransformPlan(grid)).w0.conj()
    w0, w0t = amp.w0.data * fac, w0_tilde.data * fac
    t2 = gauge_transform(t, GaugeSpec(-gauge.s))
    return max(
        _stencil_residual(amp.w0.with_data(w0), dzbar_array(w0, grid), t2.a_coef),
        _stencil_residual(w0_tilde.with_data(w0t), dz_array(w0t, grid), t2.b_coef))


def test_gauge_conjugated_amplitude_still_annihilated(grid33, plan33):
    t = make_triple(7, 1, grid33)
    amp = build_amplitude(t, plan33)
    # transformed pair solves the transformed system to stencil accuracy
    assert _gauge_conjugated_residual(amp, GaugeSpec(0.6), t) < 5e-2
    # the zero gauge leaves the amplitude system as build_amplitude scored it
    assert np.isclose(_gauge_conjugated_residual(amp, GaugeSpec(0.0), t),
                      amp.stencil_residual, rtol=1e-12, atol=0)


def test_gauge_conjugated_residual_refines():
    errs = []
    gauge = GaugeSpec(0.6)
    for nx in (33, 65, 129):
        grid = Grid2D(nx=nx, ny=nx)
        t = make_triple(7, 1, grid)
        amp = build_amplitude(t, TransformPlan(grid))
        errs.append(_gauge_conjugated_residual(amp, gauge, t))
    assert min(refinement_orders(errs)) > 1.5


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("n_sys", [1, 2, 3])
@pytest.mark.parametrize("nx", [17, 33])
def test_mirror_identity_is_exact(nx, n_sys, seed):
    """Every d/dz-side quantity is its d/dzbar twin on the mirror, conjugated."""
    grid = Grid2D(nx=nx, ny=nx)
    plan = TransformPlan(grid)
    t = make_triple(seed, n_sys, grid)
    tm = t.mirror()
    assert np.array_equal(tm.a_coef.data, np.conj(t.b_coef.data))
    assert np.array_equal(tm.b_coef.data, np.conj(t.a_coef.data))
    assert np.array_equal(tm.q_coef.data, np.conj(t.q_coef.data))
    # both amplitudes are scored as the worse of the same two solves
    amp, amp_m = build_amplitude(t, plan), build_amplitude(tm, plan)
    assert (amp.residual, amp.stencil_residual) == (amp_m.residual, amp_m.stencil_residual)

    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    rng = np.random.default_rng(seed)
    b = random_trig_spec(rng, (n_sys, n_sys), 0.5).matrix_field(grid)
    g = random_trig_spec(rng, (n_sys,), 1.0).vector_field(grid)
    cases = [(b, g)]
    if nx == 33 and n_sys == 1:
        # constant b = 12: the series grows, so the solve falls back to GMRES
        cases.append((constant_matrix(grid, [[12.0]]), g))
    for bc, gc in cases:
        assert np.array_equal(r_tau_b(gc, w, 4.0, bc, plan, side="z").data,
                              np.conj(r_tau_b(gc.conj(), w, 4.0, bc.conj(), plan,
                                              side="zbar").data))

    t2 = gauge_transform(t, GaugeSpec(0.7))
    part = remark_partition(grid)
    res, res_m = check_relations(t, t2, part), check_relations(tm, t2.mirror(), part)
    assert res.norms["r_a2_l2"] == res_m.norms["r_a1_l2"]
    assert res.norms["r_a2_max"] == res_m.norms["r_a1_max"]
    # and both are the second relation written out on the pair itself
    dA, dB = t.a_coef.data - t2.a_coef.data, t.b_coef.data - t2.b_coef.data
    f2 = MatrixField(grid, 2 * dzbar_array(dB, grid) + pointwise(t2.a_coef.data, dB)
                     + pointwise(dA, t.b_coef.data) - (t.q_coef.data - t2.q_coef.data))
    assert (res.norms["r_a2_l2"], res.norms["r_a2_max"]) == (f2.l2(), f2.max_abs())
