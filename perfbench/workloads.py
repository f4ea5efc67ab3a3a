"""The benchmark workloads: seeded inputs, one experiment, its output check.

Each workload drives only the public cgolab API.  ``setup`` builds the
inputs from the seed, ``experiment`` runs one complete refinement
experiment and returns its named outputs, and ``check`` returns the
contract violations found in those outputs (an empty list when they are
correct).  The seed reaches the program only through the generated
inputs: the coefficient specs and the scenario seed.

``smoke=True`` shrinks every ladder to small grids for the benchmark's
own tests; the benchmark itself always runs the full ladders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import cgolab
from cgolab.cli import ScenarioConfig

QUAD_C = 0.5 + 0.5j


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    setup: Callable[..., dict]
    experiment: Callable[[dict], dict]
    check: Callable[[dict], list]


def _quadratic_weight():
    return cgolab.weight_catalog("quadratic", {"c": QUAD_C})


# cgo_amplitude -------------------------------------------------------------

def _cgo_setup(seed: int, workdir: Path, smoke: bool = False) -> dict:
    sa, sb, sq = cgolab.random_coefficient_specs(seed, 2, 0.3)
    rungs = []
    for nx in ((17, 33) if smoke else (65, 129, 257)):
        grid = cgolab.Grid2D(nx=nx, ny=nx)
        rungs.append((grid, cgolab.CoefficientTriple(
            sa.matrix_field(grid), sb.matrix_field(grid), sq.matrix_field(grid))))
    return {"rungs": rungs, "weight": _quadratic_weight(),
            "taus": (4.0, 8.0, 16.0)}


def _cgo_experiment(inp: dict) -> dict:
    out = {}
    for grid, coefs in inp["rungs"]:
        amp = cgolab.build_amplitude(coefs, cgolab.TransformPlan(grid))
        key = f"nx{grid.nx}"
        out[f"{key}.amplitude_residual"] = amp.residual
        out[f"{key}.stencil_residual"] = amp.stencil_residual
        for tau in inp["taus"]:
            rec = cgolab.cgo_residual(
                cgolab.build_cgo_solution(amp, inp["weight"], tau), coefs)
            out[f"{key}.tau{tau:g}.residual_weighted"] = rec["residual_weighted"]
            out[f"{key}.tau{tau:g}.residual_raw"] = rec["residual_raw"]
    return out


def _cgo_check(out: dict) -> list:
    bad = [f"{k} = {v:.3e} exceeds the 1e-6 amplitude contract"
           for k, v in out.items()
           if k.endswith(".amplitude_residual") and not v <= 1e-6]
    bad += [f"{k} is not finite" for k, v in out.items()
            if k.endswith(".residual_weighted") and not math.isfinite(v)]
    return bad


# rtau_ladder ---------------------------------------------------------------

def _rtau_setup(seed: int, workdir: Path, smoke: bool = False) -> dict:
    nx = 33 if smoke else 257
    grid = cgolab.Grid2D(nx=nx, ny=nx)
    z = grid.nodes_z()
    bump = cgolab.bump_cutoff(grid, QUAD_C, 0.3).values
    b = cgolab.random_trig_spec(np.random.default_rng(seed), (1, 1), 0.3)
    return {"grid": grid, "weight": _quadratic_weight(),
            "b": b.matrix_field(grid),
            "cutoff": cgolab.plateau_cutoff(grid, QUAD_C, 0.34, 0.45),
            "bump": bump,
            "g": cgolab.VectorField(grid, ((z - QUAD_C) * bump)[:, :, None]),
            "taus": (8.0, 16.0, 32.0, 64.0)}


def _rtau_experiment(inp: dict) -> dict:
    grid = inp["grid"]
    plan = cgolab.TransformPlan(grid)
    out = {}
    for tau in inp["taus"]:
        # r_tau_b raises ConvergenceError when the vekua_solve residual
        # contract fails, so reaching the next line means it held
        u = cgolab.r_tau_b(inp["g"], inp["weight"], tau, inp["b"], plan,
                           side="z", cutoff=inp["cutoff"])
        # g / (2 tau dPhi) in closed form is bump / (4 tau)
        ref = (inp["bump"] / (4.0 * tau))[:, :, None]
        out[f"tau{tau:g}.scaled_error"] = \
            tau * cgolab.VectorField(grid, u.data - ref).l2()
        out[f"tau{tau:g}.u_l2"] = u.l2()
    return out


def _rtau_check(out: dict) -> list:
    return [f"{k} is not finite" for k, v in out.items()
            if k.endswith(".scaled_error") and not math.isfinite(v)]


# gauge_cauchy --------------------------------------------------------------

def _gauge_setup(seed: int, workdir: Path, smoke: bool = False) -> dict:
    cfg = ScenarioConfig(scenario="gauge", seed=seed, n_sys=3,
                         nx_ladder=(33, 65) if smoke else (33, 65, 129),
                         basis_size=4)
    return {"config": cfg, "out_dir": Path(workdir) / "gauge_report"}


def _gauge_experiment(inp: dict) -> dict:
    report = cgolab.run(inp["config"], inp["out_dir"])
    m = report["metrics"]
    out = {f"nx{nx}.cauchy_distance": d
           for nx, d in zip(m["nx_ladder"], m["distances"])}
    out["coefficient_gap"] = m["coefficient_gap"]
    out["passed"] = report["passed"]
    out.update({f"criterion.{k}": v for k, v in report["criteria"].items()})
    return out


def _gauge_check(out: dict) -> list:
    bad = [f"{k} failed" for k, v in out.items()
           if k.startswith("criterion.") and v is not True]
    if out.get("passed") is not True:
        bad.append("report['passed'] is false")
    if sum(k.startswith("criterion.") for k in out) != 2:
        bad.append("the gauge report does not carry exactly two criteria")
    return bad


WORKLOADS = {w.name: w for w in (
    Workload("cgo_amplitude", 3, _cgo_setup, _cgo_experiment, _cgo_check),
    Workload("rtau_ladder", 3, _rtau_setup, _rtau_experiment, _rtau_check),
    Workload("gauge_cauchy", 0, _gauge_setup, _gauge_experiment, _gauge_check),
)}


def compare_to_reference(out: dict, ref: dict) -> list:
    """Mismatches against a reference record of ``record_reference.py``.

    ``outputs`` must match within the relative tolerance ``rtol``.
    ``round_off_outputs`` sit at round-off level, where only their order
    of magnitude means something: each must stay within a factor
    ``factor`` of its reference.
    """
    bad = []
    for key, want in ref["outputs"].items():
        got = out.get(key)
        if not isinstance(got, float) or not abs(got - want) <= ref["rtol"] * abs(want):
            bad.append(f"{key} = {got!r}, reference {want!r} (rtol {ref['rtol']:g})")
    for key, want in ref.get("round_off_outputs", {}).items():
        got = out.get(key)
        if not isinstance(got, float) or not want / ref["factor"] <= got <= want * ref["factor"]:
            bad.append(f"{key} = {got!r}, reference {want!r} "
                       f"(within a factor {ref['factor']:g})")
    return bad
