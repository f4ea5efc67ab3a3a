import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgolab import ConfigError, Grid2D, LabError, cli, weight_catalog
from cgolab.weights import resolution_nodes_per_period
from cgolab.cli import (SCENARIOS, ScenarioConfig, load_config,
                        fit_power_law, run, main)


def write_config(tmp_path, **kw):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(kw))
    return p


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, scenario="nope"))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, scenario="transforms", nx_ladder=[]))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, scenario="transforms",
                                 nx_ladder=[65, 33]))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, scenario="transforms", seed=-1))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, scenario="transforms", bogus=1))
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


@pytest.mark.parametrize("text", [
    '{"scenario": "transforms", "nx_ladder": [17.7, 33]}',
    '{"scenario": "transforms", "nx_ladder": [true, 33]}',
    '{"scenario": "transforms", "nx_ladder": 33}',
    '{"scenario": "cgo", "tau_ladder": [-2, 1, 2]}',
    '{"scenario": "cgo", "tau_ladder": [0, 1, 2]}',
    '{"scenario": "cgo", "tau_ladder": [1, Infinity]}',
    '{"scenario": "cgo", "tau_ladder": ["1", "2"]}',
    '{"scenario": "gauge", "n_sys": "2"}',
    '{"scenario": "gauge", "n_sys": true}',
    '{"scenario": "gauge", "basis_size": 2.5}',
    '{"scenario": "gauge", "basis": "fourier"}',
    '{"scenario": "gauge", "basis": "hat"}',
    '{"scenario": "transforms", "nx_ladder": [33]}',
    '{"scenario": "relations", "nx_ladder": [33]}',
    '{"scenario": "gauge", "nx_ladder": [33]}',
    '{"scenario": "cgo", "nx_ladder": [33]}',
    '{"scenario": "cgo", "tau_ladder": [4]}',
    '{"scenario": "carleman", "tau_ladder": [8]}',
    '{"scenario": "stationary-phase", "tau_ladder": [8, 16]}',
    '{"scenario": "cgo", "amplitude": "x"}',
    '{"scenario": "gauge", "gauge_strength": "x"}',
    '{"scenario": "gauge", "gauge_strength": null}',
    '{"scenario": "cgo", "amplitude": NaN}',
    '{"scenario": "gauge", "gauge_strength": Infinity}',
    '{"scenario": "cgo", "amplitude": true}',
    '{"scenario": "cgo", "amplitude": [1]}',
])
def test_invalid_config_exits_2_with_one_line(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def _increasing(elements):
    # three rungs satisfy the fewest-rungs rule of every scenario
    return st.lists(elements, min_size=3, max_size=4,
                    unique=True).map(lambda xs: tuple(sorted(xs)))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TAU = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)

configs = st.builds(
    ScenarioConfig, scenario=st.sampled_from(SCENARIOS),
    seed=st.integers(0, 2 ** 64), n_sys=st.integers(1, 3),
    nx_ladder=_increasing(st.integers(9, 513)), tau_ladder=_increasing(_TAU),
    # 14 sine profiles are the most a gauge ladder starting at nx 9 holds
    basis_size=st.integers(1, 14), amplitude=_FINITE, gauge_strength=_FINITE)

# JSON values that are no number of any kind
_NOT_NUMBERS = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                         st.lists(st.integers(), max_size=2),
                         st.just({"a": 1}))
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def _bad_ladder(bad_entry):
    """A ladder with one bad entry, a ladder out of order, or a scalar."""
    return st.one_of(
        st.tuples(st.lists(st.integers(9, 99), min_size=2, max_size=3),
                  bad_entry).map(lambda p: p[0] + [p[1]]),
        st.lists(st.integers(9, 99), min_size=2, max_size=3, unique=True)
        .map(lambda xs: sorted(xs, reverse=True)),
        st.one_of(st.integers(), st.none(), _FINITE))


_INVALID = {
    "scenario": st.one_of(st.text().filter(lambda s: s not in SCENARIOS),
                          st.integers(), st.none()),
    "seed": st.one_of(st.integers(max_value=-1), st.floats(), _NOT_NUMBERS),
    "n_sys": st.one_of(st.integers().filter(lambda n: not 1 <= n <= 3),
                       st.floats(), _NOT_NUMBERS),
    "nx_ladder": _bad_ladder(st.one_of(st.integers(max_value=8), st.floats(),
                                       _NOT_NUMBERS)),
    "tau_ladder": _bad_ladder(st.one_of(st.floats(max_value=0.0), _NON_FINITE,
                                        _NOT_NUMBERS)),
    "basis_size": st.one_of(st.integers(max_value=0), st.floats(), _NOT_NUMBERS),
    "amplitude": st.one_of(_NON_FINITE, _NOT_NUMBERS),
    "gauge_strength": st.one_of(_NON_FINITE, _NOT_NUMBERS),
}


@settings(max_examples=60, deadline=None)
@given(configs)
def test_config_round_trips_through_json(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        assert load_config(path) == cfg


@settings(max_examples=150, deadline=None)
@given(configs, st.sampled_from(sorted(_INVALID)).flatmap(
    lambda key: st.tuples(st.just(key), _INVALID[key])))
def test_one_invalid_field_exits_2_with_one_line(cfg, bad):
    key, value = bad
    # a config that slips through runs this stub, not a whole scenario
    accepted = {"criteria": {}, "passed": True}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({**asdict(cfg), key: value}))
        err = io.StringIO()
        with redirect_stderr(err), \
                mock.patch.object(cli, "run", lambda cfg, out: accepted):
            code = main(["run", str(path), "--out", str(Path(tmp) / "out")])
        assert code == 2, (key, value)
        assert err.getvalue().startswith("config error: ")
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert not (Path(tmp) / "out").exists()


def test_fit_power_law_recovers_two_exponents():
    rows = [(tau, h, 2.5 * tau ** 0.7 * h ** 3.0)
            for tau in (4.0, 8.0, 16.0) for h in (1 / 32, 1 / 64, 1 / 128)]
    coef, r2 = fit_power_law(rows)
    assert coef[0] == pytest.approx(0.7, abs=1e-12)
    assert coef[1] == pytest.approx(3.0, abs=1e-12)
    assert np.exp(coef[2]) == pytest.approx(2.5)
    assert r2 == pytest.approx(1.0)


def test_fit_power_law_recovers_one_variable_law():
    xs = [2.0, 4.0, 8.0, 16.0]
    (slope, intercept), r2 = fit_power_law([(x, 3.0 * x ** -1.5) for x in xs])
    assert slope == pytest.approx(-1.5, abs=1e-12)
    assert np.exp(intercept) == pytest.approx(3.0)
    assert r2 == pytest.approx(1.0)


def test_fit_power_law_input_contracts():
    with pytest.raises(LabError):
        fit_power_law([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(LabError):
        fit_power_law([(1.0, 1.0), (2.0, -0.5), (3.0, 0.2)])


def test_run_transforms_scenario(tmp_path):
    cfg = ScenarioConfig(scenario="transforms", nx_ladder=(17, 33, 65))
    report = run(cfg, tmp_path / "out")
    assert report["schema"] == 1
    assert report["criteria"]["roundtrip_order_ge_1.8"]
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert data["passed"]
    table = (tmp_path / "out" / "table.csv").read_text().splitlines()
    assert table[0] == "nx,roundtrip_error"
    assert len(table) == 4


def test_stationary_phase_rows_report_nodes_per_period(tmp_path):
    cfg = ScenarioConfig(scenario="stationary-phase", nx_ladder=(129,),
                         tau_ladder=(16.0, 32.0, 64.0))
    with pytest.warns(UserWarning, match="fewer than 8 nodes"):
        report = run(cfg, tmp_path / "out")
    grid = Grid2D(nx=129, ny=129)
    w = weight_catalog("quadratic", {"c": 0.5 + 0.5j})
    npp = [r["nodes_per_period"] for r in report["metrics"]["records"]]
    assert npp == [resolution_nodes_per_period(w, grid, t) for t in cfg.tau_ladder]
    assert npp[1] >= 8 > npp[2]  # the rung the warning is about
    table = (tmp_path / "out" / "table.csv").read_text().splitlines()
    assert table[0] == "tau,relative_error,nodes_per_period"
    assert [float(line.split(",")[2]) for line in table[1:]] == npp


def test_reruns_are_byte_identical(tmp_path):
    cfg = ScenarioConfig(scenario="relations", nx_ladder=(17, 33), seed=5)
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    for name in ("report.json", "table.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_main_run_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario="transforms", nx_ladder=[17, 33])
    code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    bad = write_config(tmp_path, scenario="transforms", nx_ladder=[33, 17])
    assert main(["run", str(bad), "--out", str(tmp_path / "o2")]) == 2


@pytest.mark.filterwarnings("error")
def test_numerical_failure_writes_report_and_exits_1(tmp_path, capsys):
    # an earlier passing run leaves its table in the same directory
    ok = write_config(tmp_path, scenario="transforms", nx_ladder=[17, 33])
    assert main(["run", str(ok), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "table.csv").exists()
    capsys.readouterr()
    cfg = write_config(tmp_path, scenario="cgo", nx_ladder=[17, 33],
                       tau_ladder=[1e300, 1e301])
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["report.json"]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert err == "error: non-finite weighted residual\n"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False
    assert report["error"] == err[len("error: "):].strip()
    assert report["inputs"]["tau_ladder"] == [1e300, 1e301]


@pytest.mark.filterwarnings("error")
def test_carleman_overflow_writes_report_and_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario="carleman", nx_ladder=[17, 33],
                       tau_ladder=[8, 16, 1e300, 1e301])
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["report.json"]
    err = capsys.readouterr().err
    assert err == ("error: non-finite Carleman ratio of the full_operator probe "
                   "at tau 1e+300\n")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False
    assert report["error"] == err[len("error: "):].strip()


# float.hex of the four probes' ratios (first_order_dz, first_order_dzbar,
# system_zero_order, full_operator) at seed 0, nx 33, tau 8, 16, 32 and 64
CARLEMAN_RATIOS = {
    1: [["0x1.c220f26df17a5p-9", "0x1.0236bbe9b2325p-14",
         "0x1.e827fe0cc3e2ap-27", "0x1.e225e47bdb0e4p-51"],
        ["0x1.c2201c714aa30p-9", "0x1.0236bbe703699p-14",
         "0x1.e827fe0cc3e29p-27", "0x1.e225e47bdb0e3p-51"],
        ["0x1.c124f881e8304p-10", "0x1.024596c6a6ac7p-15",
         "0x1.e7a29a69e2271p-28", "0x1.e1d0edc12b158p-52"],
        ["0x1.1235bf4047629p-4", "0x1.3c4ee4428580ep-5",
         "0x1.898f0173c0751p-6", "0x1.fff320088f78ep-7"]],
    2: [["0x1.c27bf41320609p-9", "0x1.01e2b513e1f9bp-14",
         "0x1.e68045fbb7a79p-27", "0x1.e15494af74224p-51"],
        ["0x1.c27b21d24b44dp-9", "0x1.01e2b5105b540p-14",
         "0x1.e68045fbb7a7bp-27", "0x1.e15494af74227p-51"],
        ["0x1.c0c1fa1b85c03p-10", "0x1.01daf20bae646p-15",
         "0x1.e6c0d7232e4b7p-28", "0x1.e16bc884cb299p-52"],
        ["0x1.149f2e7afaec8p-4", "0x1.3d90e46f139f4p-5",
         "0x1.8b3b1fda62039p-6", "0x1.00ff12acb709ap-6"]],
}


@pytest.mark.parametrize("n_sys", [1, 2])
def test_carleman_ratios_are_pinned(tmp_path, n_sys):
    report = run(ScenarioConfig(scenario="carleman", seed=0, n_sys=n_sys,
                                nx_ladder=(33,), tau_ladder=(8.0, 16.0, 32.0, 64.0)),
                 tmp_path)
    assert [[r.hex() for r in p["ratios"]] for p in report["metrics"]["probes"]] \
        == CARLEMAN_RATIOS[n_sys]


def test_stationary_phase_errors_are_pinned(tmp_path):
    cfg = ScenarioConfig(scenario="stationary-phase", seed=0, nx_ladder=(129,),
                         tau_ladder=(8.0, 16.0, 32.0, 64.0, 128.0))
    with pytest.warns(UserWarning, match="fewer than 8 nodes"):
        report = run(cfg, tmp_path)
    assert [r["relative_error"].hex() for r in report["metrics"]["records"]] == [
        "0x1.14779cabe1ce0p-2", "0x1.ff3fdcf2ce5ccp-4", "0x1.0e9a4a581605bp-4",
        "0x1.edb005a6dd8b8p-6", "0x1.d8e1ec5d4f507p-7"]


def test_run_all_scenarios_script_fast(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}

    def script(*args):
        proc = subprocess.run([sys.executable, str(root / "scripts" / "run_all_scenarios.py"),
                               "--fast", *args], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return [line.split() for line in proc.stdout.splitlines()]

    assert script("--out", str(tmp_path / "one")) == \
        [[name, "ok"] for name in SCENARIOS]
    # a seed range prints a scenario x seed pass matrix
    assert script("--out", str(tmp_path / "sweep"), "--seed", "0-1") == \
        [["scenario", "0", "1"]] + [[name, "ok", "ok"] for name in SCENARIOS]
    assert (tmp_path / "sweep" / "seed1" / "cgo" / "report.json").is_file()


def test_import_does_not_load_scipy_interpolate():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import cgolab, sys; "
         "print('scipy.interpolate' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _scipy_modules_after(code):
    """The scipy modules that a fresh interpreter holds after running ``code``."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\nprint(json.dumps("
         "sorted(m for m in sys.modules if m.startswith('scipy'))))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy_module():
    assert _scipy_modules_after("import cgolab") == []


@pytest.mark.parametrize("scenario, loads_scipy", [
    ("transforms", False), ("cgo", False), ("gauge", True)])
def test_only_the_forward_solver_loads_scipy(tmp_path, scenario, loads_scipy):
    """Transforms run on numpy.fft; the sparse solver imports scipy on first use."""
    loaded = _scipy_modules_after(
        "from cgolab.cli import ScenarioConfig, run\n"
        f"run(ScenarioConfig(scenario={scenario!r}, seed=0, nx_ladder=(17, 33, 65)), "
        f"{str(tmp_path)!r})")
    assert ("scipy.sparse.linalg" in loaded) == loads_scipy
    if not loads_scipy:
        assert loaded == []


def test_main_fit_subcommand(tmp_path, capsys):
    table = tmp_path / "t.csv"
    rows = ["tau,residual"] + [f"{t},{2.0 * t ** -2.0}" for t in (2, 4, 8, 16)]
    table.write_text("\n".join(rows) + "\n")
    code = main(["fit", str(table), "--x", "tau", "--y", "residual"])
    assert code == 0
    assert "slope -2.0" in capsys.readouterr().out
    assert main(["fit", str(table), "--x", "tau", "--y", "nope"]) == 2


@pytest.mark.parametrize("scenario, x, y", [
    ("carleman", "tau", "ratio"),
    ("cgo", "tau", "residual_weighted"),
    ("gauge", "nx", "cauchy_distance"),
    ("relations", "nx", "residual_l2"),
    ("stationary-phase", "tau", "relative_error"),
    ("transforms", "nx", "roundtrip_error"),
])
def test_fit_reads_every_scenario_table(tmp_path, capsys, scenario, x, y):
    # the --fast ladders of scripts/run_all_scenarios.py at seed 0
    kw = {"nx_ladder": (17, 33, 65)}
    if scenario == "stationary-phase":
        kw = {"nx_ladder": (129,), "tau_ladder": (8.0, 16.0, 32.0, 64.0, 128.0)}
    if scenario == "carleman":
        kw["tau_ladder"] = (8.0, 16.0, 32.0, 64.0)
    run(ScenarioConfig(scenario=scenario, seed=0, **kw), tmp_path / "out")
    table = tmp_path / "out" / "table.csv"
    # numpy scalars in a table cell must be written as plain floats
    assert "np." not in table.read_text()
    assert main(["fit", str(table), "--x", x, "--y", y]) == 0, \
        capsys.readouterr().err


@pytest.mark.parametrize("nx_ladder, basis_size", [
    ([9, 17], 15), ([9, 17], 64), ([17, 33], 31), ([17, 33], 100)],
    ids=["nx9-15", "nx9-64", "nx17-31", "nx17-100"])
def test_gauge_basis_past_grid_resolution_exits_2(tmp_path, capsys, nx_ladder,
                                                  basis_size):
    # the coarsest rung holds 2 (nx - 2) sine profiles: 14 at nx 9
    cfg = write_config(tmp_path, scenario="gauge", nx_ladder=nx_ladder,
                       basis_size=basis_size)
    with mock.patch.object(cli, "run") as ran:
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert not ran.called
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Fourier profile" in err, err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()
    fits = write_config(tmp_path, scenario="gauge", nx_ladder=nx_ladder,
                        basis_size=2 * (nx_ladder[0] - 2))
    assert load_config(fits).basis_size == 2 * (nx_ladder[0] - 2)


@pytest.mark.parametrize("name, text", [
    ("missing.csv", None),
    ("t.csv", "tau,residual\n2,0.5\na,0.125\n8,0.03\n"),
    ("t.csv", "tau,residual\n2,0.5\n4\n8,0.03\n"),
    ("t.csv", "tau,other\n2,0.5\n4,0.125\n8,0.03\n"),
    ("t.csv", "tau,residual\n2,0.5\n4,nan\n8,0.03\n"),
    ("t.csv", "tau,residual\n2,0.5\n4,inf\n8,0.03\n"),
    ("t.csv", "tau,residual\n4,0.5\n4,0.125\n4,0.03\n"),  # constant x
])
def test_fit_bad_input_exits_2_with_one_line(tmp_path, capsys, name, text):
    table = tmp_path / name
    if text is not None:
        table.write_text(text)
    assert main(["fit", str(table), "--x", "tau", "--y", "residual"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fit error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_run_out_through_a_file_exits_2_before_running(tmp_path, capsys, out):
    cfg = write_config(tmp_path, scenario="transforms", nx_ladder=[17, 33])
    (tmp_path / "file").write_text("keep")
    with mock.patch.object(cli, "run") as ran:
        assert main(["run", str(cfg), "--out", str(tmp_path / out)]) == 2
    assert not ran.called
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert (tmp_path / "file").read_text() == "keep"


def test_console_script_entry_point(tmp_path):
    cfg = write_config(tmp_path, scenario="transforms", nx_ladder=[17, 33])
    proc = subprocess.run([sys.executable, "-m", "cgolab.cli", "run", str(cfg),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_seed_override_changes_report(tmp_path):
    cfg = write_config(tmp_path, scenario="relations", nx_ladder=[17, 33])
    assert main(["run", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", str(cfg), "--out", str(tmp_path / "b"),
                 "--seed", "9"]) == 0
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    assert ra["inputs"]["seed"] == 0 and rb["inputs"]["seed"] == 9
    assert ra["metrics"]["residuals"] != rb["metrics"]["residuals"]
