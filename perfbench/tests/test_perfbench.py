"""Tests of the benchmark itself, on smoke-size grids.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from cgolab.errors import ConvergenceError  # noqa: E402

import tracer  # noqa: E402
import worker  # noqa: E402
from run import tail  # noqa: E402
from workloads import WORKLOADS, compare_to_reference  # noqa: E402


def _traced_run(name, tmp_path):
    w = WORKLOADS[name]
    inputs = w.setup(w.default_seed, tmp_path, smoke=True)
    plain = w.experiment(inputs)
    wall, traced, bad, spans = worker.run_one(w, inputs, trace=True)
    return plain, traced, bad, spans, wall


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return {name: _traced_run(name, tmp_path_factory.mktemp(name))
            for name in WORKLOADS}


def _bindings():
    return {(owner, key): original
            for _, owner, key, original, _ in tracer.targets()}


def test_wrappers_restore_the_original_bindings():
    before = _bindings()
    names = {(getattr(o, "__name__", None), k) for o, k in before}
    # every layer function is bound in its own module and re-exported on cgolab
    assert {("cgolab", "dzbar_inv"), ("cgolab.cgo", "make_vekua_operator"),
            ("cgolab.forward", "splu"), ("cgolab.transforms", "gmres"),
            ("OperatorFactorization", "__init__")} <= names
    with tracer.traced(tracer.Recorder()):
        assert all(getattr(o, k) is not v for (o, k), v in before.items())
    assert all(getattr(o, k) is v for (o, k), v in before.items())


def test_wrappers_are_restored_when_the_experiment_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.traced(tracer.Recorder()):
            raise RuntimeError("boom")
    assert all(getattr(o, k) is v for (o, k), v in before.items())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(runs, name):
    plain, traced, bad, _, _ = runs[name]
    assert bad == []
    assert traced == plain


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_sum_to_the_traced_wall_time(runs, name):
    _, _, _, spans, wall = runs[name]
    assert spans[0][0] == tracer.ROOT and spans[0][3] == -1
    assert all(s[3] >= 0 for s in spans[1:])
    own = tracer.self_times(spans)
    assert min(own) >= 0.0
    total = sum(own)
    assert total == pytest.approx(spans[0][2] - spans[0][1], rel=1e-9)
    # what the root span misses is the cost of installing the wrappers
    assert 0.0 <= wall - total <= 0.02 * wall + 0.01


def test_exact_layer_counts(runs):
    m = {name: tracer.layer_metrics(r[3]) for name, r in runs.items()}
    cgo, rtau, gauge = m["cgo_amplitude"], m["rtau_ladder"], m["gauge_cauchy"]
    # two operators per rung, 40 transforms in each contraction estimate
    assert cgo["transforms.build_calls"] == 2 * 2
    assert rtau["transforms.build_calls"] == 4
    for x in (cgo, rtau):
        assert x["transforms.build_kernel_calls"] == 40 * x["transforms.build_calls"]
        assert x["forward.factor_calls"] == 0
        assert x["forward.lu_nnz"] == 0
    # 40-term cutoff series per tau; N=1 so one field per transform
    assert rtau["transforms.series_kernel_calls"] == 4 * 40
    assert rtau["transforms.kernel_fields"] == rtau["transforms.kernel_calls"]
    assert cgo["transforms.kernel_fields"] == 2 * cgo["transforms.kernel_calls"]
    assert gauge["transforms.kernel_calls"] == 0
    assert gauge["transforms.build_calls"] == 0
    assert gauge["forward.factor_calls"] == 2 * 2
    assert gauge["forward.solve_calls"] == 2 * 2 * 4
    assert gauge["forward.lu_nnz"] > 0
    for x in m.values():
        assert x["transforms.gmres_calls"] == 0


def test_a_lab_error_counts_as_a_failed_experiment(tmp_path):
    def fails(inputs):
        raise ConvergenceError("no convergence", residual=1.0)

    w = replace(WORKLOADS["rtau_ladder"], experiment=fails)
    wall, out, bad, spans = worker.run_one(w, {})
    assert out is None and wall >= 0.0
    assert bad and bad[0].startswith("ConvergenceError")


def test_reference_tolerance_passes_round_off_and_catches_a_change():
    ref = {"rtol": 1e-6, "factor": 10.0, "outputs": {"a": 2.0e-3},
           "round_off_outputs": {"r": 4e-17}}
    assert compare_to_reference({"a": 2.0e-3 * (1 + 5e-9), "r": 5e-17}, ref) == []
    assert compare_to_reference({"a": 2.0e-3 * (1 + 1e-5), "r": 5e-17}, ref)
    # the series-to-GMRES switch moves the amplitude residual about 60x
    assert compare_to_reference({"a": 2.0e-3, "r": 60 * 4e-17}, ref)
    assert compare_to_reference({"r": 4e-17}, ref)


def test_workload_checks_flag_contract_violations():
    assert WORKLOADS["cgo_amplitude"].check(
        {"nx65.amplitude_residual": 2e-6, "nx65.tau4.residual_weighted": math.nan}) \
        and not WORKLOADS["cgo_amplitude"].check({"nx65.amplitude_residual": 1e-17})
    assert WORKLOADS["rtau_ladder"].check({"tau8.scaled_error": math.inf})
    assert WORKLOADS["gauge_cauchy"].check(
        {"passed": False, "criterion.a": True, "criterion.b": False})


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail(list(range(10))) is None
    assert tail(list(range(11))) == (100.0 * 1 / 11, 0)
    p, v = tail(list(range(100)))
    assert p == 90.0 and v == 89 and sum(x > v for x in range(100)) == 10


def test_refuses_to_run_without_the_program(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "gauge_cauchy", "--seed", "0", "--seconds",
                           str(spec["run_seconds"]), "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_refuses_a_window_other_than_run_seconds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                           "gauge_cauchy", "--seconds", str(spec["run_seconds"] + 1)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "run_seconds" in proc.stderr
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_lists_what_the_runs_print(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layer = tracer.layer_metrics(runs["gauge_cauchy"][3])
    declared = [m["name"] for m in spec["per_layer"]]
    assert declared == list(layer) + ["trace_overhead_frac"]
