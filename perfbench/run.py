"""cgolab benchmark: time whole seeded refinement experiments, one workload per call.

    python3 perfbench/run.py --workload NAME [--seed N] [--trace 0|1] [--out FILE]

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json:
the median wall time of one experiment, the median set-up time over
several fresh processes, and the peak resident memory of the process that
ran the experiments.  With ``--trace 1`` it runs one warm-up experiment,
then alternates plain and traced experiments and prints the per-layer
metrics, plus ``trace_overhead_frac``.  Every run measures for
``run_seconds`` of BENCHMARK.json; ``--seconds`` is accepted so that the
usual harness call line works, but it must equal ``run_seconds``.
Every output is checked (see workloads.py); the last line of standard
output is the JSON result, and ``--out`` also writes the full record with
its samples and provenance.  Run it from anywhere; it measures the cgolab
under ``src/`` next to this directory, without installing it.

Load is one process at a time.  Each one runs with its BLAS thread pools
set to one thread (``PINNED_ENV``); the ``scipy.fft`` worker count is left
as it is (1 by default).  cgolab calls BLAS only for vector norms, too
small to gain from a second thread, but an idle OpenBLAS worker spins on
the second core between calls: it doubles the CPU time of a transform
workload and makes its wall time follow whatever else the machine runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import provenance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0        # the whole call, every process included
SETUP_SAMPLES = 9       # fresh processes timed from start to ready inputs
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def tail(samples):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


class BenchError(Exception):
    pass


def _worker(args, spec, deadline, setup_only):
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(spec["run_seconds"]), str(args.trace), repr(spawned)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env={**os.environ, **PINNED_ENV},
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {BUDGET_S:.0f} s budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, spec) -> dict:
    deadline = time.monotonic() + BUDGET_S
    # set-up samples are taken half before and half after the experiments,
    # so that they span the run rather than one speed plateau of the machine
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [_worker(args, spec, deadline, True)["setup_s"]
              for _ in range(extra // 2)]
    rec = _worker(args, spec, deadline, False)
    setups.append(rec["setup_s"])
    setups += [_worker(args, spec, deadline, True)["setup_s"]
               for _ in range(extra - extra // 2)]
    rec["setup_samples"] = setups

    if args.trace:
        plain = statistics.median(rec["experiment_s"])
        traced = statistics.median(rec["traced_experiment_s"])
        metrics = {k: statistics.median(m[k] for m in rec["layers"])
                   for k in rec["layers"][0]} if rec["layers"] else {}
        metrics["trace_overhead_frac"] = (traced - plain) / plain
        declared = spec["per_layer"]
    else:
        metrics = {"experiment_s": statistics.median(rec["experiment_s"]),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": rec["peak_rss_mb"]}
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                         f"{sorted(units)}")
    rec["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    rec["correct"] = rec["failed"] == 0
    return rec


def report(rec):
    """Human-readable lines; the JSON result follows them."""
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}")
    for name, m in rec["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    samples = rec["experiment_s"]
    t = tail(samples)
    print(f"  experiment_s samples {len(samples)}: "
          + " ".join(f"{s:.4f}" for s in samples)
          + (f"; p{t[0]:.0f} {t[1]:.4f} s" if t else
             "; no tail percentile (needs at least 11 samples)"))
    if rec["trace"]:
        print("  traced experiment_s samples: "
              + " ".join(f"{s:.4f}" for s in rec["traced_experiment_s"])
              + "; warm-up: " + " ".join(f"{s:.4f}" for s in rec["warmup_experiment_s"]))
    else:
        print("  setup_s samples: " + " ".join(f"{s:.4f}" for s in rec["setup_samples"]))
    print(f"  failed_frac {rec['failed'] / rec['attempted']:.4g} "
          f"({rec['failed']}/{rec['attempted']} experiments)"
          f"{'' if rec['reference_checked'] else '; no reference for this seed'}")
    for p in rec["problems"]:
        print(f"  problem: {p}")
    m = rec["machine"]
    print(f"  machine: {m['nproc']} cpus, {m['cpu_model']}, caches {m['caches']}, "
          f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, "
          f"{m['blas']} threads {m['blas_threads']}, fft workers {m['fft_workers']}; "
          f"revision {rec['revision']} dirty {rec['dirty']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", default="default",
                    help="workload seed (default: the seed of the acceptance "
                         "test the workload mirrors)")
    ap.add_argument("--seconds", type=float, default=None,
                    help=argparse.SUPPRESS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="also write the full result record to this file")
    args = ap.parse_args(argv)

    bench = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cgolab" / "__init__.py").is_file() or not bench.is_file():
        print(f"error: {ROOT} needs both src/cgolab and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed != "default" and not args.seed.isdigit():
        print("error: --seed takes a nonnegative integer", file=sys.stderr)
        return 2
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        print(f"error: --seconds must equal run_seconds of BENCHMARK.json "
              f"({spec['run_seconds']}); the window is set there only",
              file=sys.stderr)
        return 2

    try:
        rec = measure(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rec.update(provenance.revision(ROOT), seconds=float(spec["run_seconds"]))
    report(rec)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
