"""Every cgolab name the benchmark in ``perfbench/`` binds still resolves.

The benchmark wraps layer functions by name and builds its workloads from
the public API, so deleting or renaming one of those names breaks it.
These checks make such a deletion fail here as well as in the
benchmark's own suite, and each workload's experiment must still pass
its own output check on the smoke inputs.  They read ``perfbench/`` and
change nothing in it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_every_traced_binding_resolves():
    bound = {(name, attr) for name, _, attr, _, _ in tracer.targets()}
    wanted = ({(name, attr) for name, _, attr, _ in tracer.FUNCTIONS}
              | {(name, attr) for name, _, attr in tracer.METHODS})
    assert wanted <= bound


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_setup_builds(name, tmp_path):
    w = WORKLOADS[name]
    assert w.setup(w.default_seed, tmp_path, smoke=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_experiment_passes_its_check(name, tmp_path):
    w = WORKLOADS[name]
    out = w.experiment(w.setup(w.default_seed, tmp_path, smoke=True))
    assert w.check(out) == []


def test_traced_gauge_experiment_sees_every_forward_solve(tmp_path):
    # 2 rungs x 2 operators, each solving its Cauchy data as one block;
    # the gauge transform starts on the borrowed rung, so only t1 factors
    w = WORKLOADS["gauge_cauchy"]
    inputs = w.setup(w.default_seed, tmp_path, smoke=True)
    recorder = tracer.Recorder()
    with tracer.traced(recorder), recorder.span(tracer.ROOT):
        out = w.experiment(inputs)
    assert w.check(out) == []
    m = tracer.layer_metrics(recorder.spans)
    assert m["forward.solve_calls"] == 4
    assert m["forward.factor_calls"] == 4
    assert sum(s[0] == "forward.splu" for s in recorder.spans) == 2
