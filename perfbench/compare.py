"""Compare two sets of benchmark results, metric by metric, one row per workload.

    python3 perfbench/compare.py SET_A SET_B

Each set is a directory of records written by ``run.py --out`` (or one
such file).  For every metric the table gives each set's median and
quartiles over its runs, the run count, and the ratio of the medians,
marked ``!`` where B is worse than A by more than the bound in
BENCHMARK.json.  ``failed_frac`` is failed over attempted experiments of
the whole set.  The experiment_s tail percentile is taken over the
experiments of all runs in the set pooled together.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import ROOT, tail


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(path: Path) -> dict:
    """{(workload, trace): [records]} of a result directory or file."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = defaultdict(list)
    for f in files:
        rec = json.loads(f.read_text())
        out[(rec["workload"], rec["trace"])].append(rec)
    return out


def _cell(values):
    if not values:
        return f"{'-':>30s}"
    q1, med, q3 = quartiles(values)
    return f"{med:11.5g} [{q1:.4g}, {q3:.4g}] n={len(values):<2d}"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(p)) for p in argv]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, group in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for metric in [m["name"] for m in group]:
            print(f"\n{metric}  ({'traced' if trace else 'untraced'} runs)")
            for w in workloads:
                vals = [[r["metrics"][metric]["value"] for r in s.get((w, trace), [])]
                        for s in sets]
                row = f"  {w:14s} A {_cell(vals[0])} | B {_cell(vals[1])}"
                if vals[0] and vals[1] and statistics.median(vals[0]):
                    ratio = statistics.median(vals[1]) / statistics.median(vals[0])
                    worse = ratio - 1 if better[metric] == "lower" else 1 - ratio
                    bound = bounds[metric]
                    row += f" | B/A {ratio:.4f}{' !' if bound and worse > bound else ''}"
                print(row)
    print("\nfailed_frac and pooled experiment_s (untraced runs)")
    for w in workloads:
        cells = []
        for s in sets:
            recs = s.get((w, 0), [])
            if not recs:
                cells.append("-")
                continue
            att = sum(r["attempted"] for r in recs)
            fail = sum(r["failed"] for r in recs)
            pooled = [x for r in recs for x in r["experiment_s"]]
            t = tail(pooled)
            cells.append(f"failed {fail}/{att}, {len(pooled)} experiments, median "
                         f"{statistics.median(pooled):.4f} s"
                         + (f", p{t[0]:.0f} {t[1]:.4f} s" if t else ", no tail (< 11)"))
        print(f"  {w:14s} A {cells[0]} | B {cells[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
