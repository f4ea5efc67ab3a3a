"""One workload process: set up, then run experiments for a time window.

Started by run.py as a fresh interpreter, so set-up time covers the
interpreter start, ``import cgolab`` and building the seeded inputs.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SPAWNED [--setup-only]

SPAWNED is the launcher's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes on the machine).  The
last line of standard output is one JSON object for the launcher.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cgolab  # noqa: E402
from cgolab.errors import LabError  # noqa: E402

import provenance  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, compare_to_reference  # noqa: E402

REFERENCE = HERE / "reference.json"


def run_one(workload, inputs, trace=False):
    """One experiment: (wall seconds, outputs or None, problems, spans).

    A traced experiment gets its own recorder, so parent indices of its
    spans point into its own span list, whose first entry is the root.
    """
    recorder = tracer.Recorder() if trace else None
    t0 = time.perf_counter()
    try:
        if recorder is None:
            out = workload.experiment(inputs)
        else:
            with tracer.traced(recorder), recorder.span(tracer.ROOT):
                out = workload.experiment(inputs)
    except LabError as exc:
        out, bad = None, [f"{type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - t0
    if out is not None:
        bad = workload.check(out)
    return wall, out, bad, recorder.spans if recorder else []


def main(argv):
    name, seed, seconds, trace, spawned = argv[:5]
    seconds, trace, spawned = float(seconds), int(trace), float(spawned)
    if not Path(cgolab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"cgolab imported from {cgolab.__file__}, not {ROOT / 'src'}")
    workload = WORKLOADS[name]
    seed = workload.default_seed if seed == "default" else int(seed)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        inputs = workload.setup(seed, Path(workdir))
        setup_s = time.monotonic() - spawned
        if "--setup-only" in argv:
            print(json.dumps({"setup_s": setup_s}))
            return
        reference = json.loads(REFERENCE.read_text()).get(name, {})
        if reference.get("seed") != seed:
            reference = None

        plain, traced, warmup, layers, span_log, problems = [], [], [], [], [], []
        first_out = None
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            # a traced run first makes one warm-up experiment, whose time is
            # kept apart, then alternates plain and traced experiments, so
            # that neither kind gets the cold first one and the overhead is
            # their gap
            use_trace = bool(trace) and len(warmup) == 1 and len(traced) < len(plain)
            wall, out, bad, spans = run_one(workload, inputs, use_trace)
            attempted += 1
            if trace and not warmup:
                warmup.append(wall)
            else:
                (traced if use_trace else plain).append(wall)
            if out is not None:
                if reference is not None:
                    bad += compare_to_reference(out, reference)
                if first_out is None:
                    first_out = out
                elif out != first_out:
                    bad.append("outputs differ between experiments on the same "
                               "inputs" + (" (traced vs untraced)" if trace else ""))
            if spans:
                layers.append(tracer.layer_metrics(spans))
                root = spans[0][1]
                span_log.append([[n, a - root, b - root, p, c]
                                 for n, a, b, p, c in spans])
            if bad:
                failed += 1
                problems.extend(bad)
            elapsed = time.perf_counter() - start
            typical = statistics.median(warmup + plain + traced)
            if elapsed + typical > seconds and (not trace or traced):
                break

    result = {
        "workload": name, "seed": seed, "trace": trace,
        "setup_s": setup_s, "experiment_s": plain,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted, "failed": failed, "problems": problems,
        "outputs": first_out, "reference_checked": reference is not None,
        "machine": provenance.machine(),
    }
    if trace:
        result["traced_experiment_s"] = traced
        result["warmup_experiment_s"] = warmup
        result["layers"] = layers
        # [name, start, end, parent index, count], seconds from the root span
        result["spans"] = span_log
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
