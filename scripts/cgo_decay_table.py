#!/usr/bin/env python3
"""Tabulate the conjugated-solution residual over a (tau, nx) grid and fit it.

Writes decay.csv (columns tau, nx, residual_weighted, residual_raw) and
prints the two-exponent power-law fit.  The same table feeds
``lab fit decay.csv --x tau --y residual_weighted`` for the 1D view.
"""

import argparse
import csv

from cgolab import (Grid2D, TransformPlan, build_amplitude, build_cgo_solution,
                    cgo_residual, weight_catalog, random_coefficient_specs,
                    CoefficientTriple, fit_power_law)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="decay.csv")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--n-sys", type=int, default=2)
    ap.add_argument("--taus", type=float, nargs="+", default=[4.0, 8.0, 16.0])
    ap.add_argument("--nxs", type=int, nargs="+", default=[65, 129, 257])
    args = ap.parse_args()

    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    sa, sb, sq = random_coefficient_specs(args.seed, args.n_sys, 0.3)
    rows = []
    for nx in args.nxs:
        grid = Grid2D(nx=nx, ny=nx)
        t = CoefficientTriple(sa.matrix_field(grid), sb.matrix_field(grid),
                              sq.matrix_field(grid))
        amp = build_amplitude(t, TransformPlan(grid))
        for tau in args.taus:
            rec = cgo_residual(build_cgo_solution(amp, w, tau), t)
            rec.pop("piece")
            rows.append(rec)
            print(rec)

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)

    coef, r2 = fit_power_law([(r["tau"], 1.0 / (r["nx"] - 1), r["residual_weighted"])
                              for r in rows])
    print(f"residual ~ C tau^{coef[0]:.2f} h^{coef[1]:.2f}, R^2 = {r2:.4f}")


if __name__ == "__main__":
    main()
