"""One grid-and-size precondition, ``check_same``, for every entry point.

Each row of the table is an entry point that takes two or more
grid-carrying arguments (fields, triples, partitions, plans, cutoffs,
factorizations, Cauchy data, grids or raw samples).  Its valid call must
run; each variant moves one argument to another grid ("grid <argument>")
or to another system size N ("N <argument>") and must be refused with a
one-line GridError before any transform, factorization or probe
evaluation.  Every callable that cgolab exports is a row here or is
listed in ONE_GRID_OR_NONE, so a new entry point cannot skip the check.
"""

import dataclasses

import numpy as np
import pytest

import cgolab
from cgolab import (Grid2D, TransformPlan, VectorField, MatrixField, CutoffFunction,
                    CoefficientTriple, OperatorFactorization, BoundaryPartition,
                    GridError, VekuaOperator, bump_cutoff,
                    build_amplitude, build_cgo_solution, carleman_probe, cauchy_data,
                    cauchy_distance, cgo_residual, check_relations, coefficient_gap,
                    dz_inv, dzbar_inv, gauge_transform,
                    GaugeSpec, make_vekua_operator, neumann_series_apply,
                    normal_derivative, oscillatory_integral, r_tau, r_tau_b,
                    random_h01_spec, random_trig_spec, remark_partition,
                    trace_boundary, vekua_solve, weight_catalog, GAMMA_TILDE,
                    GAMMA_0, TrigSpec, fourier_profiles)
from cgolab import forward, harness, transforms
from cgolab.grid import EDGES

from conftest import make_triple

G = Grid2D(nx=17, ny=17)
# another rectangle of the same shape: only a comparison of grids sees it
OTHER = Grid2D(nx=17, ny=17, y_max=2.0)
# raw samples carry only a shape, so theirs is another shape
SMALL = Grid2D(nx=13, ny=13)
W = weight_catalog("quadratic", {"c": 0.5 + 0.5j})

# exports that take at most one grid-carrying argument
ONE_GRID_OR_NONE = {
    "Grid2D", "BoundaryPartition", "remark_partition", "bump_cutoff",
    "plateau_cutoff", "TrigSpec", "random_trig_spec", "random_coefficient_specs",
    "HolomorphicWeight", "CriticalPoint", "weight_catalog",
    "find_critical_points", "stationary_phase_leading",
    "resolution_nodes_per_period", "TransformPlan", "OperatorFactorization",
    "fourier_profiles", "PartialCauchyData", "GaugeSpec", "gauge_transform",
    "RelationResidual", "gauge_equivalence_experiment", "off_gauge_separation",
    "random_h01_spec", "full_operator_setup", "CgoSolution", "holomorphic_seed",
    "build_cgo_solution", "zero_order_remainder", "factorization_check",
    "ScenarioConfig", "fit_power_law", "run", "main",
}


class Variant:
    """Grid and N of each argument in one variant of a row."""

    def __init__(self, name):
        self.name = name

    def grid(self, arg, raw=False):
        if self.name != f"grid {arg}":
            return G
        return SMALL if raw else OTHER

    def n(self, arg):
        return 2 if self.name == f"N {arg}" else 1

    def vec(self, arg, raw=False):
        spec = random_trig_spec(np.random.default_rng(1), (self.n(arg),), 1.0)
        f = spec.vector_field(self.grid(arg, raw))
        return f.data if raw else f

    def mat(self, arg, raw=False):
        m = make_triple(2, self.n(arg), self.grid(arg, raw)).b_coef
        return m.data if raw else m

    def triple(self, arg):
        return make_triple(0, self.n(arg), self.grid(arg))

    def plan(self, arg):
        return TransformPlan(self.grid(arg))

    def cutoff(self, arg):
        return bump_cutoff(self.grid(arg), 0.5 + 0.5j, 0.3)

    def partition(self, arg):
        return remark_partition(self.grid(arg))


def _cgo_amplitude(v):
    amp = build_amplitude(make_triple(0, 1, G), TransformPlan(G))
    return lambda: dataclasses.replace(amp, seed=v.vec("seed"))


@dataclasses.dataclass(frozen=True)
class _OnGrid(TrigSpec):
    """A test function sampled on its own grid, whichever grid it is asked for."""

    grid: Grid2D

    def sample(self, grid, dx=0, dy=0):
        return super().sample(self.grid, dx, dy)


def _probe(kind, shape):
    """Row of one Carleman probe kind; ``shape(n)`` is its test functions' value shape."""
    def row(v):
        spec = random_h01_spec(np.random.default_rng(0), shape(v.n("family")))
        family = [_OnGrid(spec.coeffs, v.grid("family", raw=True))]
        coefs = v.triple("coefs")
        return lambda: carleman_probe(kind, [8.0, 16.0], family, coefs)
    return row


def _solve(v):
    fac = OperatorFactorization(make_triple(0, 1, G))
    rhs = v.vec("rhs")
    return lambda: fac.solve(None, rhs)


def _cgo_residual(v):
    amp = build_amplitude(make_triple(0, 1, G), TransformPlan(G))
    sol, coefs = build_cgo_solution(amp, W, 4.0), v.triple("coefs")
    return lambda: cgo_residual(sol, coefs)


def _cauchy_distance(v):
    part = remark_partition(G)
    c1 = cauchy_data(make_triple(0, 1, G), part, 3)
    c2 = cauchy_data(v.triple("c2"), v.partition("c2"), 3)
    return lambda: cauchy_distance(c1, c2)


def _relations(v):
    t1, t2 = make_triple(0, 1, G), v.triple("t2")
    if v.name == "valid":
        t2 = gauge_transform(t1, GaugeSpec(0.7))
    part = v.partition("partition")
    return lambda: check_relations(t1, t2, part)


def _bump_values(v):
    cut = bump_cutoff(v.grid("values", raw=True), 0.5 + 0.5j, 0.3)
    return lambda: CutoffFunction(G, cut.values, cut.support_box)


# name -> (builder of the call in one variant, the variants besides "valid")
ROWS = {
    "VectorField": (lambda v: (lambda d=v.vec("data", raw=True):
                               VectorField(G, d)), ["grid data"]),
    "MatrixField": (lambda v: (lambda d=v.mat("data", raw=True):
                               MatrixField(G, d)), ["grid data"]),
    "CutoffFunction": (_bump_values, ["grid values"]),
    "MatrixField.__sub__": (lambda v: (lambda a=v.mat("a"), b=v.mat("b"): a - b),
                            ["grid b", "N b"]),
    "MatrixField.matvec": (lambda v: (lambda a=v.mat("a"), x=v.vec("x"):
                                      a.matvec(x)), ["grid x", "N x"]),
    "MatrixField.matmat": (lambda v: (lambda a=v.mat("a"), b=v.mat("b"):
                                      a.matmat(b)), ["grid b", "N b"]),
    "trace_boundary": (lambda v: (lambda f=v.vec("f"), p=v.partition("partition"):
                                  trace_boundary(f, p, GAMMA_TILDE)),
                       ["grid partition"]),
    "normal_derivative": (lambda v: (lambda f=v.vec("f"), p=v.partition("partition"):
                                     normal_derivative(f, p, GAMMA_TILDE)),
                          ["grid partition"]),
    "oscillatory_integral": (lambda v: (lambda g=v.vec("g", raw=True)[:, :, 0]:
                                        oscillatory_integral(g, W, 2.0, G)),
                             ["grid g"]),
    "oscillatory_integral field": (lambda v: (lambda g=v.vec("g"):
                                              oscillatory_integral(g, W, 2.0, G)),
                                   ["grid g"]),
    "dzbar_inv": (lambda v: (lambda g=v.vec("g", raw=True), p=v.plan("plan"):
                             dzbar_inv(g, p)), ["grid g"]),
    "dz_inv": (lambda v: (lambda g=v.vec("g"), p=v.plan("plan"): dz_inv(g, p)),
               ["grid g", "grid plan"]),
    "VekuaOperator": (lambda v: (lambda b=v.mat("b"), p=v.plan("plan"):
                                 VekuaOperator(b, p)), ["grid b"]),
    "make_vekua_operator": (lambda v: (lambda b=v.mat("b"), p=v.plan("plan"):
                                       make_vekua_operator(b, p)), ["grid plan"]),
    "neumann_series_apply": (
        lambda v: (lambda op=make_vekua_operator(v.mat("b"), TransformPlan(G)),
                   g=v.vec("g", raw=True), c=v.cutoff("cutoff"):
                   neumann_series_apply(op, g, cutoff=c)),
        ["grid g", "N g", "grid cutoff", "N b"]),
    "vekua_solve": (lambda v: (lambda op=make_vekua_operator(v.mat("b"), TransformPlan(G)),
                               g=v.vec("g"): vekua_solve(op, g)),
                    ["grid g", "N g", "N b"]),
    # samples of shape (nx, ny) are one component per node
    "vekua_solve scalar": (lambda v: (lambda op=make_vekua_operator(v.mat("b"), TransformPlan(G)),
                                      g=v.vec("g", raw=True)[:, :, 0]: vekua_solve(op, g)),
                           ["grid g", "N b"]),
    "r_tau": (lambda v: (lambda g=v.vec("g"), p=v.plan("plan"):
                         r_tau(g, W, 4.0, p, side="z")), ["grid g", "grid plan"]),
    "r_tau_b": (lambda v: (lambda g=v.vec("g"), b=v.mat("b"), p=v.plan("plan"),
                           c=v.cutoff("cutoff"):
                           r_tau_b(g, W, 4.0, b, p, cutoff=c)),
                ["grid g", "N g", "grid b", "N b", "grid plan", "grid cutoff"]),
    "r_tau_b scalar": (lambda v: (lambda g=v.vec("g", raw=True)[:, :, 0], b=v.mat("b"):
                                  r_tau_b(g, W, 4.0, b, TransformPlan(G), side="z")),
                       ["grid g", "N b"]),
    "CoefficientTriple": (lambda v: (lambda a=v.mat("a"), b=v.mat("b"), q=v.mat("q"):
                                     CoefficientTriple(a, b, q)),
                          ["grid b", "N q"]),
    "OperatorFactorization.solve": (_solve, ["grid rhs", "N rhs"]),
    "cauchy_data": (lambda v: (lambda t=v.triple("coefs"), p=v.partition("partition"):
                               cauchy_data(t, p, 3)), ["grid partition", "grid coefs"]),
    "cauchy_distance": (_cauchy_distance, ["grid c2", "N c2"]),
    "check_relations": (_relations, ["grid t2", "N t2", "grid partition"]),
    "coefficient_gap": (lambda v: (lambda t1=v.triple("t1"), t2=v.triple("t2"):
                                   coefficient_gap(t1, t2)), ["grid t2", "N t2"]),
    "carleman_probe first_order_dz": (_probe("first_order_dz", lambda n: (n,)),
                                      ["grid family", "N coefs", "N family"]),
    "carleman_probe system_zero_order": (_probe("system_zero_order", lambda n: (n, n)),
                                         ["grid family", "N coefs", "N family"]),
    "carleman_probe full_operator": (_probe("full_operator", lambda n: (n,)),
                                     ["grid family", "N coefs", "N family"]),
    "build_amplitude": (lambda v: (lambda t=v.triple("coefs"), p=v.plan("plan"):
                                   build_amplitude(t, p)), ["grid plan", "grid coefs"]),
    "CgoAmplitude": (_cgo_amplitude, ["grid seed", "N seed"]),
    "cgo_residual": (_cgo_residual, ["grid coefs", "N coefs"]),
}


@pytest.mark.parametrize("name", ROWS)
def test_each_row_is_a_valid_call(name):
    ROWS[name][0](Variant("valid"))()


@pytest.mark.parametrize("name, variant",
                         [(n, v) for n, (_, vs) in ROWS.items() for v in vs])
def test_mixed_grid_or_n_is_refused_before_any_work(monkeypatch, name, variant):
    call = ROWS[name][0](Variant(variant))

    def no_work(*args, **kwargs):
        raise AssertionError(f"{name} worked before refusing {variant}")

    monkeypatch.setattr(transforms, "_apply_kernel", no_work)
    monkeypatch.setattr(forward, "splu", no_work)
    monkeypatch.setattr(harness, "_probe_sides", no_work)
    with pytest.raises(GridError, match=r"^\S+ and .* differ in (grid|grid shape|"
                                        r"system size N): .* against ") as err:
        call()
    assert "\n" not in str(err.value)


def test_every_export_is_in_the_table_or_takes_at_most_one_grid():
    exports = {name for name, obj in vars(cgolab).items()
               if not name.startswith("_") and callable(obj)
               and not (isinstance(obj, type) and issubclass(obj, Exception))}
    tabled = {name.split(" ")[0] for name in ROWS if "." not in name}
    assert not tabled & ONE_GRID_OR_NONE
    assert exports - tabled - ONE_GRID_OR_NONE == set()
    assert (tabled | ONE_GRID_OR_NONE) - exports == set()


def test_arguments_without_n_are_compared_by_grid_only():
    """Plans, partitions, cutoffs and grids carry no N; samples' third axis is theirs."""
    cgolab.grid.check_same(G, TransformPlan(G), BoundaryPartition(G),
                           bump_cutoff(G, 0.5 + 0.5j, 0.3), make_triple(0, 2, G),
                           np.zeros((17, 17, 2, 5)), None)
    # samples of shape (nx, ny) are one component per node
    cgolab.grid.check_same(make_triple(0, 1, G), np.zeros((17, 17)))
    with pytest.raises(GridError, match=r"^CoefficientTriple and samples of shape "
                                        r"\(17, 17\) differ in system size N: "
                                        r"2 against 1$"):
        cgolab.grid.check_same(make_triple(0, 2, G), np.zeros((17, 17)))
    with pytest.raises(GridError, match=r"^CoefficientTriple and samples of shape "
                                        r"\(17, 17, 1\) differ in system size N: "
                                        r"2 against 1$"):
        cgolab.grid.check_same(TransformPlan(G), make_triple(0, 2, G),
                               np.zeros((17, 17, 1)))
    # Cauchy data of an empty basis carry no N
    empty = forward.PartialCauchyData(remark_partition(G), "fourier:0", [], [])
    cgolab.grid.check_same(empty, make_triple(0, 2, G))


# entry point -> call with the basis size m
BASIS_SIZE_ROWS = {
    "fourier_profiles": lambda m: fourier_profiles(remark_partition(G), m),
    "cauchy_data": lambda m: cauchy_data(make_triple(0, 2, G), remark_partition(G), m),
    "gauge_equivalence_experiment": lambda m: harness.gauge_equivalence_experiment(
        lambda grid: make_triple(0, 2, grid), GaugeSpec(0.7), (17, 33), m),
}


@pytest.mark.parametrize("name", BASIS_SIZE_ROWS)
@pytest.mark.parametrize("m", [0, -1, 2.5, True, 4.0, "4", None])
def test_basis_size_not_a_positive_integer_is_refused_before_any_work(monkeypatch,
                                                                      name, m):
    # an empty basis gave empty data sets at distance 0, a vacuous pass
    def no_work(*args, **kwargs):
        raise AssertionError(f"{name} factored before refusing basis size {m!r}")

    monkeypatch.setattr(forward, "splu", no_work)
    with pytest.raises(GridError, match=r"^basis size must be a positive integer, "
                                        r"got ") as err:
        BASIS_SIZE_ROWS[name](m)
    assert "\n" not in str(err.value)


# entry point -> call with a partition that has no observed arc
NO_ARC_ROWS = {
    "fourier_profiles": lambda part: fourier_profiles(part, 2),
    "cauchy_data": lambda part: cauchy_data(make_triple(0, 2, G), part, 2),
}


@pytest.mark.parametrize("name", NO_ARC_ROWS)
def test_partition_without_observed_arc_is_refused_before_any_work(monkeypatch, name):
    # profile k lives on observed arc k mod (number of observed arcs)
    def no_work(*args, **kwargs):
        raise AssertionError(f"{name} factored before refusing the partition")

    monkeypatch.setattr(forward, "splu", no_work)
    hidden = BoundaryPartition(G, {e: GAMMA_0 for e in EDGES})
    with pytest.raises(GridError, match=r"^partition has no observed arc") as err:
        NO_ARC_ROWS[name](hidden)
    assert "\n" not in str(err.value)
