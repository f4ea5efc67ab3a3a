"""Desk-scale acceptance run: nine numbered checks, one verdict line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdicts.
Everything is seeded; the module runs in seconds.  A check
that a ``lab run`` scenario also makes reads its criteria and figures
from ``cli.run``, the one place where that criterion and its bound live.
"""

import warnings

import numpy as np

import cgolab as L
from cgolab.calculus import dzbar_array
from cgolab.cli import ScenarioConfig, fit_power_law, run as cli_run
from cgolab.harness import refinement_orders

from conftest import make_triple, inset_slice

QUAD = {"c": 0.5 + 0.5j}


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def scenario(tmp_path, **kw):
    """Run one ``lab run`` scenario; returns (all criteria pass, metrics)."""
    report = cli_run(ScenarioConfig(**kw), tmp_path / kw["scenario"])
    return all(report["criteria"].values()), report["metrics"]


def rounded(orders):
    return [round(o, 2) for o in orders]


def test_criterion_1_transform_round_trip_and_disk(tmp_path):
    passed, m = scenario(tmp_path, scenario="transforms", seed=2,
                         nx_ladder=(65, 129, 257))

    grid = L.Grid2D(nx=257, ny=257, x_min=-2, x_max=2, y_min=-2, y_max=2)
    Z = grid.nodes_z()
    chi = (np.abs(Z) <= 1.0).astype(complex)[:, :, None]
    K = L.dzbar_inv(chi, L.TransformPlan(grid))[:, :, 0]
    inside = np.abs(Z) <= 0.95
    disk_err = np.max(np.abs(K - np.conj(Z))[inside])

    ok = passed and disk_err < 5e-3
    verdict(1, ok, f"orders {rounded(m['orders'])}, disk {disk_err:.2e}")


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
    bump = L.bump_cutoff(grid, c, 0.3).values
    g = L.VectorField(grid, ((Z - c) * bump)[:, :, None])
    vals = []
    for tau in (8.0, 16.0, 32.0, 64.0):
        u = L.r_tau_b(g, w, tau, b, plan, side="z")
        # g/(2 tau dPhi) in closed form; the 0/0 at the critical point
        # resolves to bump/(4 tau)
        ref = (bump / (4.0 * tau))[:, :, None]
        vals.append(tau * L.VectorField(grid, u.data - ref).l2())
    ok = all(b_ < a_ for a_, b_ in zip(vals, vals[1:]))
    verdict(3, ok, "tau*norm " + ", ".join(f"{v:.4f}" for v in vals))


def test_criterion_4_stationary_phase(tmp_path):
    warnings.filterwarnings("ignore", message="fewer than 8 nodes")
    taus = (16.0, 32.0, 64.0, 128.0)
    passed, m = scenario(tmp_path, scenario="stationary-phase", seed=1,
                         nx_ladder=(257,), tau_ladder=taus)

    # generic amplitude vs one vanishing at the critical point: the
    # two decay statements must separate in measured log-log slope
    grid = L.Grid2D(nx=257, ny=257)
    w = L.weight_catalog("quadratic", QUAD)
    g_gen = L.random_trig_spec(np.random.default_rng(1), (), 1.0).sample(grid)
    Z = grid.nodes_z()
    g_van = np.abs(Z - QUAD["c"]) ** 2 * L.bump_cutoff(grid, QUAD["c"], 0.35).values
    slope_gen, slope_van = (
        fit_power_law([(t, abs(L.oscillatory_integral(g, w, t, grid)))
                       for t in taus])[0][0]
        for g in (g_gen, g_van))
    sep = slope_gen - slope_van
    ok = passed and sep >= 0.3
    verdict(4, ok, f"error slope {m['slope']:.2f}, rate separation {sep:.2f}")


def test_criterion_5_cgo_identity_and_factorization(tmp_path):
    passed, m = scenario(tmp_path, scenario="cgo", seed=3, n_sys=2,
                         nx_ladder=(65, 129, 257), tau_ladder=(4.0, 8.0, 16.0))

    errs = [L.factorization_check(make_triple(6, 2, L.Grid2D(nx=nx, ny=nx)))
            ["discrepancy_1"] for nx in (65, 129, 257)]
    orders = refinement_orders(errs)
    # passed includes h_exponent_ge_1.5: the residual refines with the grid
    ok = passed and min(orders) >= 1.8
    verdict(5, ok, f"fit R2 {m['r_squared']:.3f} (exps tau {m['tau_exponent']:.2f}, "
            f"h {m['h_exponent']:.2f}), factorization orders {rounded(orders)}")


def test_criterion_6_gauge_non_uniqueness(tmp_path):
    passed, m = scenario(tmp_path, scenario="gauge", seed=3, n_sys=1,
                         nx_ladder=(33, 65, 129), basis_size=4)
    sep = L.off_gauge_separation(make_triple(3, 1, L.Grid2D(nx=129, ny=129)),
                                 L.GaugeSpec(0.7))
    ok = passed and sep["separation"] >= 10.0
    verdict(6, ok, f"orders {rounded(m['orders'])}, "
            f"gap {m['coefficient_gap']:.2f}, separation {sep['separation']:.1f}x")


def test_criterion_7_relations_on_gauge_pairs(tmp_path):
    passed, m = scenario(tmp_path, scenario="relations", seed=3, n_sys=1,
                         nx_ladder=(33, 65, 129))

    grid = L.Grid2D(nx=65, ny=65)
    t1 = make_triple(4, 2, grid)
    bump = L.random_trig_spec(np.random.default_rng(0), (2, 2), 1.0)
    t2 = L.CoefficientTriple(t1.a_coef, t1.b_coef,
                             L.MatrixField(grid, t1.q_coef.data + bump.sample(grid)))
    res = L.check_relations(t1, t2, L.remark_partition(grid))
    exact = res.norms["r_a1_l2"] == L.MatrixField(grid, bump.sample(grid)).l2()

    ok = passed and exact
    verdict(7, ok, f"orders {rounded(m['orders'])}, "
            f"gap {max(m['boundary_gaps'])}, single-term exact {exact}")


def test_criterion_8_carleman_probe_quartet(tmp_path):
    details, all_ok = [], True
    for n in (1, 2):
        passed, m = scenario(tmp_path / f"n{n}", scenario="carleman", seed=11 + n,
                             n_sys=n, nx_ladder=(129,),
                             tau_ladder=(8.0, 16.0, 32.0, 64.0))
        all_ok &= passed
        details.append(f"N={n}: " + ",".join("ok" if r["passed"] else "FAIL"
                                             for r in m["probes"]))
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
            ii, jj = L.BoundaryPartition(grid).nodes()
            uh = L.OperatorFactorization(t).solve(u_ex[ii, jj], rhs)
            errs.append(np.max(np.abs(uh.data - u_ex)))
        orders = refinement_orders(errs)
        ok &= min(orders) >= 1.9
        details.append(f"N={n} orders {[round(o, 2) for o in orders]}")

    grid = L.Grid2D(nx=33, ny=33)
    t = make_triple(12, 2, grid)
    fac = L.OperatorFactorization(t)
    ii, jj = L.BoundaryPartition(grid).nodes()
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
