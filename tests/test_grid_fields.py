import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgolab import (Grid2D, BoundaryPartition, GridError, remark_partition,
                    GAMMA_TILDE, GAMMA_0, VectorField, MatrixField, CutoffFunction,
                    bump_cutoff, plateau_cutoff, random_trig_spec)
from cgolab.fields import _norm, _residual_series, _SERIES_CAP, _SERIES_RTOL
from cgolab.synthetic import N_MODES, _basis_1d

from conftest import constant_matrix


def test_grid_rejects_tiny_resolutions():
    with pytest.raises(GridError):
        Grid2D(nx=5, ny=33)


@pytest.mark.parametrize("kw", [
    {"nx": 33.5}, {"nx": 33.0}, {"nx": np.float64(33)}, {"nx": True}, {"ny": "33"},
    {"x_max": np.inf}, {"x_min": -np.inf}, {"y_max": np.nan}, {"y_min": 1j}])
def test_grid_refuses_values_it_cannot_hold(kw):
    with pytest.raises(GridError, match="^need integers nx, ny >= 9, got|^grid bounds "
                                        "must be finite"):
        Grid2D(**{"nx": 33, "ny": 33, **kw})
    # an integer of any integer type is an integer
    assert Grid2D(nx=np.int64(33), ny=33) == Grid2D(nx=33, ny=33)
    with pytest.raises(GridError, match="x_min < x_max"):
        Grid2D(nx=33, ny=33, x_min=1.0)


def test_quad_weights_integrate_constant_to_area():
    grid = Grid2D(nx=21, ny=33, x_min=-1.0, x_max=3.0)
    assert abs(grid.quad_weights().sum() - 4.0) < 1e-12


def test_quad_weights_trapezoid_edges():
    grid = Grid2D(nx=9, ny=9)
    w = grid.quad_weights()
    ha = grid.h_x * grid.h_y
    assert abs(w[0, 0] - 0.25 * ha) < 1e-15
    assert abs(w[0, 4] - 0.5 * ha) < 1e-15
    assert abs(w[4, 4] - ha) < 1e-15


def test_boundary_nodes_cover_boundary_once():
    grid = Grid2D(nx=13, ny=11)
    part = BoundaryPartition(grid)
    ii, jj = part.nodes()
    seen = set(zip(ii.tolist(), jj.tolist()))
    expect = {(i, j) for i in range(13) for j in range(11)
              if i in (0, 12) or j in (0, 10)}
    assert seen == expect
    assert len(ii) == len(seen)  # no node owned by two arcs


def test_remark_partition_labels():
    part = remark_partition(Grid2D(nx=9, ny=9))
    assert part.labels["bottom"] == GAMMA_TILDE
    assert part.labels["top"] == GAMMA_TILDE
    assert part.labels["left"] == GAMMA_0
    assert part.labels["right"] == GAMMA_0


def test_arc_weights_integrate_arc_length():
    grid = Grid2D(nx=33, ny=33)
    part = remark_partition(grid)
    # two unit-length observed edges
    assert abs(part.arc_weights(GAMMA_TILDE).sum() - 2.0) < 1e-12


def test_field_shape_validation(grid33):
    with pytest.raises(GridError):
        VectorField(grid33, np.zeros((33, 32, 1), dtype=complex))
    with pytest.raises(GridError):
        MatrixField(grid33, np.zeros((33, 33, 2, 3), dtype=complex))


def test_field_rejects_nan(grid33):
    data = np.zeros((33, 33, 1), dtype=complex)
    data[5, 5, 0] = np.nan
    with pytest.raises(GridError):
        VectorField(grid33, data)


def test_fields_are_immutable(grid33):
    f = VectorField(grid33, np.ones((33, 33, 2), dtype=complex))
    with pytest.raises(ValueError):
        f.data[0, 0, 0] = 2.0


def test_matvec_matches_einsum(grid33):
    rng = np.random.default_rng(0)
    m = MatrixField(grid33, rng.standard_normal((33, 33, 2, 2)) + 0j)
    v = VectorField(grid33, rng.standard_normal((33, 33, 2)) + 0j)
    out = m.matvec(v)
    ref = np.einsum("xyab,xyb->xya", m.data, v.data)
    assert np.allclose(out.data, ref)


def test_identity_matrix_acts_trivially(grid33):
    rng = np.random.default_rng(1)
    v = VectorField(grid33, rng.standard_normal((33, 33, 3)) + 0j)
    assert np.allclose(constant_matrix(grid33, np.eye(3)).matvec(v).data, v.data)


def test_l2_of_constant_scalar(grid33):
    f = VectorField(grid33, np.full((33, 33, 1), 2.0, dtype=complex))
    assert abs(f.l2() - 2.0) < 1e-12  # unit square, trapezoid exact


SERIES_NORMS = {"columns": lambda v: np.linalg.norm(v, axis=0), "whole": _norm}


# per row, the factor q by which each term shrinks the residual (apply is
# (1 - q) x and M the identity); the stop, the terms after M b and the
# range of the worst relative residual
@pytest.mark.parametrize("q, nan_at, terms, worst", [
    ((1e-3, 1e-3), None, 4, (0.0, _SERIES_RTOL)),           # rtol
    ((0.9, 0.9), None, 0, (0.9 - 1e-12, 0.9 + 1e-12)),      # stall at the first step
    ((1e-2, 0.85), None, 2, (6.1e-4, 6.2e-4)),              # a later stall
    ((0.5, 0.5), None, _SERIES_CAP, (0.5 ** 31 * (1 - 1e-6), 0.5 ** 31 * (1 + 1e-6))),
    ((0.5, 0.5), 3, 2, None),                                # NaN
], ids=["rtol", "first stall", "later stall", "cap", "nan"])
@pytest.mark.parametrize("norm", SERIES_NORMS)
def test_residual_series_stops(q, nan_at, terms, worst, norm):
    d = 1.0 - np.array(q)[:, None]
    calls = []

    def apply(x):
        calls.append(None)
        return np.full_like(x, np.nan) if len(calls) == nan_at else d * x

    # rows 1 and 1e-3, and columns far apart in scale: each column's own
    # residual is relative to its own right-hand side
    b = np.array([1.0, 1e-3])[:, None] * np.array([1.0, 1e-6, 1e-9]) * (1 + 1j)
    norm_of = SERIES_NORMS[norm]
    x, res, n = _residual_series(apply, np.copy, b, norm_of)
    assert n == terms == len(calls) - 1
    assert np.shape(res) == ((3,) if norm == "columns" else ())
    if worst is None:
        assert np.isnan(res).all()
    else:
        assert worst[0] <= np.max(res) <= worst[1]
        # the residual(s) of the x returned
        assert np.array_equal(res, norm_of(b - d * x) / norm_of(b))


def test_residual_series_columns_stop_on_their_own():
    # per column, the factor q by which each term shrinks its residual: a
    # stall at the first step, rtol after 4 and 13 terms, the cap, and a
    # NaN from the first apply; each column of the block must be its own
    # single-column series, bit for bit
    q = np.array([0.85, 1e-3, 0.1, 0.5, np.nan])
    rng = np.random.default_rng(0)
    b = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))

    def series(cols):
        return _residual_series(lambda x: (1.0 - q[cols]) * x, np.copy, b[:, cols],
                                lambda v: np.linalg.norm(v, axis=0))

    x, res, n = series(slice(None))
    assert n == _SERIES_CAP
    single = [series(slice(j, j + 1)) for j in range(len(q))]
    assert [t for *_, t in single] == [0, 4, 13, _SERIES_CAP, 0]
    for j, (xj, rj, _) in enumerate(single):
        assert np.array_equal(x[:, j:j + 1], xj)
        assert np.array_equal(res[j:j + 1], rj, equal_nan=True)


def test_plateau_cutoff_flat_core_and_support(grid33):
    cut = plateau_cutoff(grid33, 0.5 + 0.5j, 0.2, 0.4)
    Z = grid33.nodes_z()
    r = np.abs(Z - (0.5 + 0.5j))
    assert np.all(cut.values[r <= 0.2] == 1.0)
    assert np.all(cut.values[r >= 0.4] == 0.0)
    assert cut.values.max() <= 1.0 and cut.values.min() >= 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cutoff_refuses_non_finite_values(grid33, bad):
    cut = bump_cutoff(grid33, 0.5 + 0.5j, 0.3)
    values = cut.values.copy()
    values[16, 16] = bad  # inside the bump
    with pytest.raises(GridError, match="^cutoff values must be one finite number "
                                        "per node$"):
        CutoffFunction(grid33, values)


@pytest.mark.parametrize("bad", [-1e-3, 1 + 1e-3])
def test_cutoff_refuses_values_outside_the_unit_interval(grid33, bad):
    values = bump_cutoff(grid33, 0.5 + 0.5j, 0.3).values.copy()
    values[16, 16] = bad
    with pytest.raises(GridError, match=r"^cutoff values must lie in \[0, 1\]$"):
        CutoffFunction(grid33, values)


def test_bump_cutoff_peaks_at_center(grid33):
    cut = bump_cutoff(grid33, 0.5 + 0.5j, 0.3)
    assert abs(cut.values[16, 16] - 1.0) < 1e-12
    assert cut.values[0, 0] == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(9, 40), st.integers(9, 40), st.sampled_from([(), (2,), (3, 3)]),
       st.integers(0, 2), st.integers(0, 2), st.integers(0, 2 ** 16))
def test_trig_spec_sample_matches_mode_by_mode_sum(nx, ny, shape, dx, dy, seed):
    grid = Grid2D(nx=nx, ny=ny, x_min=-0.5, x_max=1.5)
    spec = random_trig_spec(np.random.default_rng(seed), shape, 1.0)
    X, Y = grid.meshgrid()
    bx, by = _basis_1d(X[:, 0], dx), _basis_1d(Y[0, :], dy)
    want = np.zeros(grid.shape + shape, dtype=complex)
    for m in range(N_MODES):
        for n in range(N_MODES):
            want += np.multiply.outer(np.outer(bx[m], by[n]), spec.coeffs[m, n])
    got = spec.sample(grid, dx, dy)
    assert got.shape == want.shape
    # 25 products summed in another order: a few eps of the largest term
    scale = np.abs(bx).max() * np.abs(by).max() * np.abs(spec.coeffs).max()
    assert np.max(np.abs(got - want)) <= 100 * np.finfo(float).eps * scale


def test_trig_spec_eval_takes_the_axis_vectors():
    """eval reads x from xs and y from ys: entry (i, j) is the value at (xs[i], ys[j])."""
    spec = random_trig_spec(np.random.default_rng(0), (), 1.0)
    both = spec.eval([0.1, 0.2], [0.3, 0.9])
    for i, x in enumerate((0.1, 0.2)):
        for j, y in enumerate((0.3, 0.9)):
            assert abs(both[i, j] - spec.eval([x], [y])[0, 0]) <= 1e-15
    assert abs(both[1, 1] - (-0.0300411 + 0.01065745j)) < 1e-7
    grid = Grid2D(nx=17, ny=12, y_max=2.0)
    for dx, dy in ((0, 0), (1, 0), (0, 2)):
        got = spec.eval(grid.xs(), grid.ys(), dx, dy)
        assert got.tobytes() == spec.sample(grid, dx, dy).tobytes()
    for X, Y in (grid.meshgrid(), np.meshgrid(grid.xs(), grid.ys())):
        with pytest.raises(GridError, match=r"^eval takes 1-D coordinate vectors, got "):
            spec.eval(X, Y)
