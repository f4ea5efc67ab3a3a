"""Desk-scale acceptance run: nine numbered checks, one verdict line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdicts.
Everything is seeded; total runtime stays within a few minutes.
"""

import json
import warnings

import numpy as np
import pytest

import cgolab as L
from cgolab.calculus import dzbar_array
from cgolab.cli import ScenarioConfig, run as cli_run

from conftest import make_triple, refinement_orders, inset_slice

QUAD = {"c": 0.5 + 0.5j}


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_transform_round_trip_and_disk():
    errs = []
    for nx in (65, 129, 257):
        grid = L.Grid2D(nx=nx, ny=nx)
        plan = L.TransformPlan(grid)
        g = L.random_trig_spec(np.random.default_rng(2), (), 1.0).sample(grid)[:, :, None]
        back = dzbar_array(L.dzbar_inv(g, plan), grid)
        errs.append(np.max(np.abs((back - g)[inset_slice(grid)])))
    orders = refinement_orders(errs)

    grid = L.Grid2D(nx=257, ny=257, x_min=-2, x_max=2, y_min=-2, y_max=2)
    Z = grid.nodes_z()
    chi = (np.abs(Z) <= 1.0).astype(complex)[:, :, None]
    K = L.dzbar_inv(chi, L.TransformPlan(grid))[:, :, 0]
    inside = np.abs(Z) <= 0.95
    disk_err = np.max(np.abs(K - np.conj(Z))[inside])

    ok = min(orders) >= 1.8 and disk_err < 5e-3
    verdict(1, ok, f"orders {[round(o, 2) for o in orders]}, disk {disk_err:.2e}")


def test_criterion_2_conjugated_identity_refines():
    w = L.weight_catalog("quadratic", QUAD)
    tau = 4.0
    errs = []
    for nx in (65, 129, 257):
        grid = L.Grid2D(nx=nx, ny=nx)
        plan = L.TransformPlan(grid)
        rng = np.random.default_rng(2)
        b = L.random_trig_spec(rng, (2, 2), 0.4).matrix_field(grid)
        g = L.random_trig_spec(rng, (2,), 1.0).vector_field(grid)
        u = L.r_tau_b(g, w, tau, b, plan)
        Z = grid.nodes_z()
        res = (2 * dzbar_array(u.data, grid)
               + 2 * tau * np.conj(w.dPhi(Z))[:, :, None] * u.data
               + b.matvec(u).data - g.data)
        errs.append(np.max(np.abs(res[inset_slice(grid)])))
    orders = refinement_orders(errs)
    verdict(2, min(orders) >= 1.8, f"orders {[round(o, 2) for o in orders]}")


def test_criterion_3_decay_along_tau_ladder():
    grid = L.Grid2D(nx=257, ny=257)
    plan = L.TransformPlan(grid)
    w = L.weight_catalog("quadratic", QUAD)
    c = QUAD["c"]
    Z = grid.nodes_z()
    b = L.random_trig_spec(np.random.default_rng(3), (1, 1), 0.3).matrix_field(grid)
    cut = L.plateau_cutoff(grid, c, 0.34, 0.45)
    bump = L.bump_cutoff(grid, c, 0.3).values
    g = L.VectorField(grid, ((Z - c) * bump)[:, :, None])
    vals = []
    for tau in (8.0, 16.0, 32.0, 64.0):
        u = L.r_tau_b(g, w, tau, b, plan, side="z", cutoff=cut)
        # g/(2 tau dPhi) in closed form; the 0/0 at the critical point
        # resolves to bump/(4 tau)
        ref = (bump / (4.0 * tau))[:, :, None]
        vals.append(tau * L.VectorField(grid, u.data - ref).l2())
    ok = all(b_ < a_ for a_, b_ in zip(vals, vals[1:]))
    verdict(3, ok, "tau*norm " + ", ".join(f"{v:.4f}" for v in vals))


def test_criterion_4_stationary_phase():
    warnings.filterwarnings("ignore", message="fewer than 8 nodes")
    grid = L.Grid2D(nx=257, ny=257)
    w = L.weight_catalog("quadratic", QUAD)
    pt = L.find_critical_points(w, L.Grid2D(nx=33, ny=33))[0]
    spec = L.random_trig_spec(np.random.default_rng(1), (), 1.0)
    g_gen = spec.sample(grid)

    def g_at(z):
        return complex(spec.eval(np.asarray([[z.real]]),
                                 np.asarray([[z.imag]]))[0, 0])

    taus = [16.0, 32.0, 64.0, 128.0]
    rels = []
    for tau in taus:
        full = L.oscillatory_integral(g_gen, w, tau, grid)
        lead = L.stationary_phase_leading(g_at, w, pt, tau)
        rels.append(abs(full - lead) / abs(full))
    slope = np.polyfit(np.log(taus), np.log(rels), 1)[0]

    # generic amplitude vs one vanishing at the critical point: the
    # two decay statements must separate in measured log-log slope
    Z = grid.nodes_z()
    g_van = np.abs(Z - QUAD["c"]) ** 2 * L.bump_cutoff(grid, QUAD["c"], 0.35).values
    slope_gen = np.polyfit(np.log(taus),
                           np.log([abs(L.oscillatory_integral(g_gen, w, t, grid))
                                   for t in taus]), 1)[0]
    slope_van = np.polyfit(np.log(taus),
                           np.log([abs(L.oscillatory_integral(g_van, w, t, grid))
                                   for t in taus]), 1)[0]
    sep = slope_gen - slope_van
    ok = slope <= -0.8 and sep >= 0.3
    verdict(4, ok, f"error slope {slope:.2f}, rate separation {sep:.2f}")


def test_criterion_5_cgo_identity_and_factorization():
    w = L.weight_catalog("quadratic", QUAD)
    rows = []
    for nx in (65, 129, 257):
        grid = L.Grid2D(nx=nx, ny=nx)
        t = make_triple(3, 2, grid)
        amp = L.build_amplitude(t, L.TransformPlan(grid))
        for tau in (4.0, 8.0, 16.0):
            rec = L.cgo_residual(L.build_cgo_solution(amp, w, tau), t)
            rows.append((tau, 1.0 / (nx - 1), rec["residual_weighted"]))
    coef, r2 = L.fit_power_law(rows)

    errs = [L.factorization_check(make_triple(6, 2, L.Grid2D(nx=nx, ny=nx)))
            ["discrepancy_1"] for nx in (65, 129, 257)]
    orders = refinement_orders(errs)
    ok = r2 >= 0.95 and min(orders) >= 1.8
    verdict(5, ok, f"fit R2 {r2:.3f} (exps tau {coef[0]:.2f}, h {coef[1]:.2f}), "
            f"factorization orders {[round(o, 2) for o in orders]}")


def test_criterion_6_gauge_non_uniqueness():
    gauge = L.remark_gauge(0.7)
    sa, sb, sq = L.random_coefficient_specs(3, 1, 0.3)

    def mk(grid):
        return L.CoefficientTriple(sa.matrix_field(grid), sb.matrix_field(grid),
                                   sq.matrix_field(grid))

    rep = L.gauge_equivalence_experiment(mk, gauge, (33, 65, 129), m=4)
    sep = L.off_gauge_separation(mk, gauge, 129, m=4, n_samples=20, seed=0)
    ok = (min(rep["orders"]) >= 1.5 and rep["coefficient_gap"] >= 0.5
          and sep["separation"] >= 10.0)
    verdict(6, ok, f"orders {[round(o, 2) for o in rep['orders']]}, "
            f"gap {rep['coefficient_gap']:.2f}, separation {sep['separation']:.1f}x")


def test_criterion_7_relations_on_gauge_pairs():
    gauge = L.remark_gauge(0.7)
    errs, gaps = [], []
    for nx in (33, 65, 129):
        grid = L.Grid2D(nx=nx, ny=nx)
        t1 = make_triple(3, 1, grid)
        res = L.check_relations(t1, L.gauge_transform(t1, gauge),
                                L.remark_partition(grid))
        errs.append(max(res.norms["r_a1_l2"], res.norms["r_a2_l2"]))
        gaps.append(res.boundary_gap)
    orders = refinement_orders(errs)

    grid = L.Grid2D(nx=65, ny=65)
    t1 = make_triple(4, 2, grid)
    bump = L.random_trig_spec(np.random.default_rng(0), (2, 2), 1.0)
    t2 = L.CoefficientTriple(t1.a_coef, t1.b_coef,
                             L.MatrixField(grid, t1.q_coef.data + bump.sample(grid)))
    res = L.check_relations(t1, t2, L.remark_partition(grid))
    exact = res.norms["r_a1_l2"] == L.MatrixField(grid, bump.sample(grid)).l2()

    ok = min(orders) >= 1.8 and max(gaps) == 0.0 and exact
    verdict(7, ok, f"orders {[round(o, 2) for o in orders]}, "
            f"gap {max(gaps)}, single-term exact {exact}")


def test_criterion_8_carleman_probe_quartet():
    grid = L.Grid2D(nx=129, ny=129)
    taus = [8.0, 16.0, 32.0, 64.0]
    cw = L.CarlemanConvexWeight(gx=1.0, gy=0.1, lam=2.0)
    part, hw = L.full_operator_setup(grid)
    details, all_ok = [], True
    for n in (1, 2):
        rng = np.random.default_rng(20 + n)
        t = make_triple(11 + n, n, grid)
        vec = [L.random_h01_spec(rng, (n,), 1.0) for _ in range(3)]
        mat = [L.random_h01_spec(rng, (n, n), 1.0) for _ in range(3)]
        reports = [
            L.carleman_probe("first_order_dz", cw, taus, vec, grid),
            L.carleman_probe("first_order_dzbar", cw, taus, vec, grid),
            L.carleman_probe("system_zero_order", cw, taus, mat, grid,
                             b_pair=(t.b_coef, t.a_coef)),
            L.carleman_probe("full_operator", hw, taus, vec, grid,
                             partition=part, coefs=t),
        ]
        all_ok &= all(r["passed"] for r in reports)
        details.append(f"N={n}: " + ",".join("ok" if r["passed"] else "FAIL"
                                             for r in reports))
    verdict(8, all_ok, "; ".join(details))


def test_criterion_9_forward_solver(tmp_path):
    details = []
    ok = True
    for n in (1, 2, 3):
        errs = []
        for nx in (33, 65, 129):
            grid = L.Grid2D(nx=nx, ny=nx)
            t = make_triple(11 + n, n, grid)
            uspec = L.random_trig_spec(np.random.default_rng(5), (n,), 1.0)
            u_ex = uspec.sample(grid)
            rhs = L.VectorField(grid, uspec.lap(grid)
                                + 2 * np.einsum("xyab,xyb->xya", t.a_coef.data, uspec.dz(grid))
                                + 2 * np.einsum("xyab,xyb->xya", t.b_coef.data, uspec.dzbar(grid))
                                + np.einsum("xyab,xyb->xya", t.q_coef.data, u_ex))
            ii, jj, _, _ = L.BoundaryPartition(grid).nodes()
            uh = L.solve_dirichlet(t, boundary_values=u_ex[ii, jj], rhs=rhs)
            errs.append(np.max(np.abs(uh.data - u_ex)))
        orders = refinement_orders(errs)
        ok &= min(orders) >= 1.9
        details.append(f"N={n} orders {[round(o, 2) for o in orders]}")

    grid = L.Grid2D(nx=33, ny=33)
    t = make_triple(12, 2, grid)
    fac = L.OperatorFactorization(t)
    ii, jj, _, _ = L.BoundaryPartition(grid).nodes()
    rng = np.random.default_rng(0)
    b1 = rng.standard_normal((len(ii), 2)) + 1j * rng.standard_normal((len(ii), 2))
    b2 = rng.standard_normal((len(ii), 2)) + 1j * rng.standard_normal((len(ii), 2))
    lin = np.max(np.abs(fac.solve(2 * b1 - 0.5j * b2, None).data
                        - 2 * fac.solve(b1, None).data
                        + 0.5j * fac.solve(b2, None).data))
    ok &= lin < 1e-8

    cfg = ScenarioConfig(scenario="relations", nx_ladder=(17, 33), seed=3)
    cli_run(cfg, tmp_path / "a")
    cli_run(cfg, tmp_path / "b")
    identical = all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
                    for f in ("report.json", "table.csv"))
    ok &= identical
    verdict(9, ok, "; ".join(details) + f"; linearity {lin:.1e}; "
            f"byte-identical {identical}")
