#!/usr/bin/env python3
"""Run every built-in scenario with its default config and summarize.

Usage: python scripts/run_all_scenarios.py [--out DIR] [--seed N | --seed A-B] [--fast]

A seed range A-B (inclusive) runs every scenario at each seed, writes
each seed's reports under DIR/seed<N>/, and prints a scenario x seed
pass matrix.  The exit code is 1 when any scenario fails at any seed.
"""

import argparse
import re
import sys
from pathlib import Path

from cgolab.cli import SCENARIOS, ScenarioConfig, run


def _seeds(text: str):
    """An int for one seed N, a range for an inclusive range A-B."""
    m = re.fullmatch(r"(\d+)-(\d+)", text)
    if m is None:
        return int(text)
    seeds = range(int(m.group(1)), int(m.group(2)) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_seed(seed: int, fast: bool, out: Path) -> dict:
    """Run every scenario at one seed; map each scenario name to its pass flag."""
    ladders = {"nx_ladder": (17, 33, 65) if fast else (33, 65, 129)}
    passed = {}
    for name in SCENARIOS:
        kw = dict(scenario=name, seed=seed, **ladders)
        if name == "stationary-phase":
            kw["nx_ladder"] = (129,) if fast else (257,)
            kw["tau_ladder"] = (8.0, 16.0, 32.0, 64.0, 128.0)
        if name == "carleman":
            kw["tau_ladder"] = (8.0, 16.0, 32.0, 64.0)
        passed[name] = run(ScenarioConfig(**kw), out / name)["passed"]
    return passed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    ap.add_argument("--seed", type=_seeds, default=0,
                    help="one seed N, or an inclusive range A-B")
    ap.add_argument("--fast", action="store_true",
                    help="coarser ladders for a quick shakeout")
    args = ap.parse_args()
    out = Path(args.out)

    single = isinstance(args.seed, int)
    seeds = [args.seed] if single else args.seed
    matrix = {seed: run_seed(seed, args.fast, out if single else out / f"seed{seed}")
              for seed in seeds}
    if single:
        for name, ok in matrix[args.seed].items():
            print(f"{name:18s} {'ok' if ok else 'FAILED'}")
    else:
        print(f"{'scenario':18s}" + "".join(f"{seed:>6d}" for seed in seeds))
        for name in SCENARIOS:
            print(f"{name:18s}" + "".join(
                f"{'ok' if matrix[seed][name] else 'FAIL':>6s}" for seed in seeds))
    failures = [name if single else f"{name}@{seed}" for seed in seeds
                for name in SCENARIOS if not matrix[seed][name]]
    if failures:
        print("failed:", ", ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
