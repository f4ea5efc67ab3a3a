"""Command line front end: seeded scenario runs and decay-law fitting.

``lab run config.json [--out DIR] [--seed N]`` executes one
scenario and writes a JSON report plus CSV tables; ``lab fit table.csv
--x col --y col`` fits a log-log power law to a table column pair.
Reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError, GridError, LabError
from .grid import Grid2D, remark_partition, is_int, is_finite_real
from .synthetic import random_coefficient_specs, random_trig_spec
from .weights import (weight_catalog, find_critical_points, oscillatory_integral,
                      stationary_phase_leading, resolution_nodes_per_period)
from .transforms import TransformPlan, dzbar_inv
from .calculus import dzbar_array
from .forward import CoefficientTriple, fourier_profiles
from .harness import (GaugeSpec, gauge_transform, check_relations,
                      gauge_equivalence_experiment, carleman_probe,
                      random_h01_spec, refinement_orders, _PROBE_KINDS)
from .cgo import build_amplitude, build_cgo_solution, cgo_residual


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    seed: int = 0
    n_sys: int = 1
    nx_ladder: tuple = (65, 129)
    tau_ladder: tuple = (4.0, 8.0, 16.0)
    basis_size: int = 4
    amplitude: float = 0.3
    gauge_strength: float = 0.7

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"choose one of {', '.join(SCENARIOS)}")
        if not is_int(self.seed) or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if not is_int(self.n_sys) or self.n_sys < 1 or self.n_sys > 3:
            raise ConfigError("n_sys must be 1, 2, or 3")
        if not all(is_int(nx) and nx >= 9 for nx in self.nx_ladder):
            raise ConfigError("nx_ladder entries must be integers >= 9")
        if not all(is_finite_real(t) and t > 0 for t in self.tau_ladder):
            raise ConfigError("tau_ladder entries must be finite numbers > 0")
        for name, ladder, least in zip(("nx_ladder", "tau_ladder"),
                                       (self.nx_ladder, self.tau_ladder),
                                       _SCENARIO_TABLE[self.scenario][1]):
            if len(ladder) < least:
                raise ConfigError(f"scenario {self.scenario} needs at least "
                                  f"{least} {name} entries")
            if any(b <= a for a, b in zip(ladder[:-1], ladder[1:])):
                raise ConfigError(f"{name} must be strictly increasing")
        if not is_int(self.basis_size) or self.basis_size < 1:
            raise ConfigError("basis_size must be a positive integer")
        if self.scenario == "gauge":
            # the coarsest rung must hold every profile of the basis
            nx = self.nx_ladder[0]
            try:
                fourier_profiles(remark_partition(Grid2D(nx=nx, ny=nx)),
                                 self.basis_size)
            except GridError as exc:
                raise ConfigError(f"basis_size {self.basis_size} on nx {nx}: "
                                  f"{exc}") from exc
        for name in ("amplitude", "gauge_strength"):
            if not is_finite_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = ScenarioConfig.__dataclass_fields__
    extra = set(raw) - set(known)
    if extra:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(extra))}")
    if "scenario" not in raw:
        raise ConfigError("config is missing the 'scenario' key")
    try:
        for key in ("nx_ladder", "tau_ladder"):
            if key in raw:
                raw[key] = tuple(raw[key])
        return ScenarioConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def fit_power_law(samples) -> tuple[np.ndarray, float]:
    """Least-squares power law y = exp(c) * x_1**e_1 * ... * x_K**e_K in log-log.

    ``samples`` holds (x_1, ..., x_K, y) rows; needs >= 3 rows of one
    length, of finite, strictly positive values, whose x columns determine
    every coefficient.  Returns the coefficients [e_1, ..., e_K, c] and R^2.
    """
    pts = [tuple(float(v) for v in row) for row in samples]
    if len(pts) < 3:
        raise LabError("power-law fit needs at least 3 samples")
    if len({len(row) for row in pts}) > 1:
        raise LabError("power-law fit needs rows of one length")
    if not all(math.isfinite(v) and v > 0 for row in pts for v in row):
        raise LabError("power-law fit needs finite, strictly positive samples")
    logs = [np.log([row[k] for row in pts]) for k in range(len(pts[0]))]
    ly = logs.pop()
    A = np.vstack(logs + [np.ones_like(ly)]).T
    coef, _, rank, _ = np.linalg.lstsq(A, ly, rcond=None)
    if rank < A.shape[1]:
        raise LabError("power-law fit is underdetermined: an x column is "
                       "constant or repeats another")
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return coef, r2


def _triple(cfg: ScenarioConfig, grid: Grid2D) -> CoefficientTriple:
    sa, sb, sq = random_coefficient_specs(cfg.seed, cfg.n_sys, cfg.amplitude)
    return CoefficientTriple(sa.matrix_field(grid), sb.matrix_field(grid),
                             sq.matrix_field(grid))


def _run_transforms(cfg: ScenarioConfig) -> tuple[dict, dict, list]:
    rng = np.random.default_rng(cfg.seed)
    spec = random_trig_spec(rng, (), amplitude=1.0)
    errs, rows = [], []
    for nx in cfg.nx_ladder:
        grid = Grid2D(nx=int(nx), ny=int(nx))
        plan = TransformPlan(grid)
        g = spec.sample(grid)[:, :, None]
        back = dzbar_array(dzbar_inv(g, plan), grid)
        err = float(np.max(np.abs((back - g)[grid.interior()])))
        errs.append(err)
        rows.append({"nx": int(nx), "roundtrip_error": err})
    orders = refinement_orders(errs)
    metrics = {"errors": errs, "orders": orders}
    criteria = {"roundtrip_order_ge_1.8": bool(min(orders) >= 1.8)}
    return metrics, criteria, rows


def _run_cgo(cfg: ScenarioConfig) -> tuple[dict, dict, list]:
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    rows = []
    for nx in cfg.nx_ladder:
        grid = Grid2D(nx=int(nx), ny=int(nx))
        plan = TransformPlan(grid)
        coefs = _triple(cfg, grid)
        amp = build_amplitude(coefs, plan)
        for tau in cfg.tau_ladder:
            sol = build_cgo_solution(amp, w, float(tau))
            rows.append(cgo_residual(sol, coefs))
    # residual ~ C tau^e_tau h^e_h: both tau and h vary across the rows
    coef, r2 = fit_power_law([(r["tau"], 1.0 / (r["nx"] - 1),
                               r["residual_weighted"]) for r in rows])
    metrics = {"records": rows, "tau_exponent": float(coef[0]),
               "h_exponent": float(coef[1]), "r_squared": r2}
    # second-order stencils: a residual that does not refine with h has a broken amplitude
    criteria = {"power_law_r2_ge_0.95": bool(r2 >= 0.95),
                "h_exponent_ge_1.5": bool(coef[1] >= 1.5)}
    return metrics, criteria, rows


def _run_gauge(cfg: ScenarioConfig) -> tuple[dict, dict, list]:
    rep = gauge_equivalence_experiment(lambda grid: _triple(cfg, grid),
                                       GaugeSpec(cfg.gauge_strength),
                                       cfg.nx_ladder, m=cfg.basis_size)
    rows = [{"nx": nx, "cauchy_distance": d}
            for nx, d in zip(rep["nx_ladder"], rep["distances"])]
    criteria = {"distance_order_ge_1.5": bool(min(rep["orders"]) >= 1.5),
                "coefficient_gap_ge_0.5": bool(rep["coefficient_gap"] >= 0.5)}
    return rep, criteria, rows


def _run_carleman(cfg: ScenarioConfig) -> tuple[dict, dict, list]:
    nx = int(cfg.nx_ladder[-1])
    coefs = _triple(cfg, Grid2D(nx=nx, ny=nx))
    rng = np.random.default_rng(cfg.seed)
    taus = [float(t) for t in cfg.tau_ladder]
    n = cfg.n_sys
    vec_family = [random_h01_spec(rng, (n,)) for _ in range(3)]
    mat_family = [random_h01_spec(rng, (n, n)) for _ in range(3)]
    reports = [carleman_probe(kind, taus, mat_family if kind == "system_zero_order"
                              else vec_family, coefs)
               for kind in _PROBE_KINDS]
    rows = [{"kind": r["kind"], "tau": t, "ratio": ratio}
            for r in reports for t, ratio in zip(r["taus"], r["ratios"])]
    metrics = {"probes": reports}
    criteria = {f"{r['kind']}_nonincreasing_sup": bool(r["passed"])
                for r in reports}
    return metrics, criteria, rows


def _run_stationary_phase(cfg: ScenarioConfig) -> tuple[dict, dict, list]:
    nx = int(cfg.nx_ladder[-1])
    grid = Grid2D(nx=nx, ny=nx)
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    point = find_critical_points(w, grid)[0]
    rng = np.random.default_rng(cfg.seed)
    spec = random_trig_spec(rng, (), amplitude=1.0)
    z0 = point.location
    g0 = complex(spec.eval(np.full((1, 1), z0.real), np.full((1, 1), z0.imag))[0, 0])
    rows = []
    for tau in cfg.tau_ladder:
        full = oscillatory_integral(spec.sample(grid), w, float(tau), grid)
        lead = stationary_phase_leading(g0, point, float(tau))
        rel = abs(full - lead) / max(abs(full), 1e-300)
        rows.append({"tau": float(tau), "relative_error": float(rel),
                     "nodes_per_period":
                         float(resolution_nodes_per_period(w, grid, float(tau)))})
    coef, r2 = fit_power_law([(r["tau"], r["relative_error"]) for r in rows])
    slope = float(coef[0])
    metrics = {"records": rows, "slope": slope, "r_squared": r2}
    criteria = {"error_slope_le_-0.8": bool(slope <= -0.8)}
    return metrics, criteria, rows


def _run_relations(cfg: ScenarioConfig) -> tuple[dict, dict, list]:
    gauge = GaugeSpec(cfg.gauge_strength)
    rows, l2s, gaps = [], [], []
    for nx in cfg.nx_ladder:
        grid = Grid2D(nx=int(nx), ny=int(nx))
        part = remark_partition(grid)
        t1 = _triple(cfg, grid)
        res = check_relations(t1, gauge_transform(t1, gauge), part)
        l2s.append(max(res.norms["r_a1_l2"], res.norms["r_a2_l2"]))
        gaps.append(res.boundary_gap)
        rows.append({"nx": int(nx), "residual_l2": l2s[-1],
                     "boundary_gap": gaps[-1]})
    orders = refinement_orders(l2s)
    metrics = {"residuals": l2s, "orders": orders, "boundary_gaps": gaps}
    criteria = {"residual_order_ge_1.8": bool(min(orders) >= 1.8),
                "boundary_gap_zero": bool(max(gaps) == 0.0)}
    return metrics, criteria, rows


# each scenario's runner and the fewest (nx_ladder, tau_ladder) rungs its
# criteria can judge: an order needs two grids, the slope fit three taus,
# the (tau, h) fit two of each, and a Carleman probe compares two halves
# of its tau ladder
_SCENARIO_TABLE = {"transforms": (_run_transforms, (2, 1)),
                   "cgo": (_run_cgo, (2, 2)),
                   "gauge": (_run_gauge, (2, 1)),
                   "carleman": (_run_carleman, (1, 2)),
                   "stationary-phase": (_run_stationary_phase, (1, 3)),
                   "relations": (_run_relations, (2, 1))}
SCENARIOS = tuple(_SCENARIO_TABLE)


def write_table(path: Path, rows: list) -> None:
    if not rows:
        return
    cols = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(float(v)) if isinstance(v, float) else v
                             for k, v in row.items()})


def _write_report(out: Path, cfg: ScenarioConfig, **fields) -> dict:
    """Write report.json (schema 1, sorted keys) of one run of ``cfg``."""
    report = {"schema": 1, "scenario": cfg.scenario, "inputs": asdict(cfg),
              **fields}
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n")
    return report


def run(cfg: ScenarioConfig, out_dir: str | Path) -> dict:
    metrics, criteria, rows = _SCENARIO_TABLE[cfg.scenario][0](cfg)
    out = Path(out_dir)
    report = _write_report(out, cfg, metrics=metrics, criteria=criteria,
                           passed=bool(all(criteria.values())))
    write_table(out / "table.csv", rows)
    return report


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = ScenarioConfig(**{**asdict(cfg), "seed": args.seed})
        out = Path(args.out)
        # mkdir would fail only after the whole scenario ran
        blocker = next(p for p in (out, *out.parents) if p.exists())
        if not blocker.is_dir():
            raise ConfigError(f"--out {out}: {blocker} is not a directory")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(cfg, out)
    except LabError as exc:
        # the directory holds the failed run only, not an earlier table
        (out / "table.csv").unlink(missing_ok=True)
        _write_report(out, cfg, error=str(exc), passed=False)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, ok in sorted(report["criteria"].items()):
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return 0 if report["passed"] else 1


def _read_pairs(path: str, x: str, y: str) -> list:
    """(x, y) float pairs from two columns of a CSV table."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or x not in reader.fieldnames \
                    or y not in reader.fieldnames:
                raise LabError(f"columns {x!r}/{y!r} not found")
            return [(float(row[x]), float(row[y])) for row in reader]
    except OSError as exc:
        raise LabError(f"cannot read table: {exc}") from exc
    except (ValueError, TypeError) as exc:  # a non-numeric or missing cell
        raise LabError(f"bad cell in {path}: {exc}") from exc


def _cmd_fit(args: argparse.Namespace) -> int:
    try:
        (slope, intercept), r2 = fit_power_law(
            _read_pairs(args.table, args.x, args.y))
    except LabError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 2
    print(f"slope {slope:.6f}  intercept {intercept:.6f}  r_squared {r2:.6f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lab",
                                     description="scenario runner and decay fitter")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(fn=_cmd_run)
    p_fit = sub.add_parser("fit", help="fit a power law to a CSV column pair")
    p_fit.add_argument("table")
    p_fit.add_argument("--x", required=True)
    p_fit.add_argument("--y", required=True)
    p_fit.set_defaults(fn=_cmd_fit)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
