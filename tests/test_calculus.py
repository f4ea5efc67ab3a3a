import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgolab import (Grid2D, VectorField, remark_partition, GAMMA_TILDE, GAMMA_0,
                    random_trig_spec)
from cgolab.calculus import (dz_array, dzbar_array, laplacian_array,
                             trace_boundary, normal_derivative, wirtinger_pair)

from conftest import outward_normals


def poly_field(grid):
    Z = grid.nodes_z()
    return (Z ** 3 + 2j * Z ** 2 - Z)[:, :, None]


def test_dzbar_kills_holomorphic_polynomial():
    grid = Grid2D(nx=41, ny=41)
    f = poly_field(grid)
    # interior rows use the centered 4th-order stencil, exact on cubics;
    # the one-sided closures near the boundary are 2nd order only
    assert np.max(np.abs(dzbar_array(f, grid)[2:-2, 2:-2])) < 1e-11


@pytest.mark.parametrize("value_shape", [(2,), (2, 2)])
def test_wirtinger_pair_is_dz_and_dzbar_bit_for_bit(value_shape):
    grid = Grid2D(nx=33, ny=41)
    data = random_trig_spec(np.random.default_rng(4), value_shape, 1.0).sample(grid)
    dz, dzbar = wirtinger_pair(data, grid)
    assert np.array_equal(dz, dz_array(data, grid))
    assert np.array_equal(dzbar, dzbar_array(data, grid))


def test_dz_of_cubic_is_exact():
    grid = Grid2D(nx=41, ny=41)
    Z = grid.nodes_z()
    f = poly_field(grid)
    exact = (3 * Z ** 2 + 4j * Z - 1)[:, :, None]
    assert np.max(np.abs((dz_array(f, grid) - exact)[2:-2, 2:-2])) < 1e-10


def test_laplacian_of_harmonic_cubic():
    grid = Grid2D(nx=41, ny=41)
    X, Y = grid.meshgrid()
    f = (X ** 3 - 3 * X * Y ** 2)[:, :, None].astype(complex)
    assert np.max(np.abs(laplacian_array(f, grid)[1:-1, 1:-1])) < 1e-9


def test_wirtinger_composition_gives_quarter_laplacian():
    grid = Grid2D(nx=65, ny=65)
    X, Y = grid.meshgrid()
    f = VectorField(grid, (np.exp(X) * np.cos(Y))[..., None])
    assert f.data.shape == (65, 65, 1)
    lap = laplacian_array(f.data, grid)
    comp = dz_array(dzbar_array(f.data, grid), grid)
    sl = np.s_[4:-4, 4:-4]
    assert np.max(np.abs(4 * comp[sl] - lap[sl])) < 2e-3


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_conjugation_swaps_wirtinger_derivatives(seed):
    grid = Grid2D(nx=17, ny=17)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((17, 17, 1)) + 1j * rng.standard_normal((17, 17, 1))
    lhs = dzbar_array(np.conj(data), grid)
    rhs = np.conj(dz_array(data, grid))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_trace_and_normal_derivative_of_linear_function():
    grid = Grid2D(nx=33, ny=33)
    part = remark_partition(grid)
    X, Y = grid.meshgrid()
    f = VectorField(grid, (2.0 * X + 3.0 * Y)[:, :, None].astype(complex))
    for label, comp in ((GAMMA_TILDE, None), (GAMMA_0, None)):
        ii, jj = part.nodes(label)
        normals = outward_normals(grid, ii, jj)
        tr = trace_boundary(f, part, label)
        assert np.allclose(tr[:, 0], 2.0 * X[ii, jj] + 3.0 * Y[ii, jj])
        dn = normal_derivative(f, part, label)
        expect = 2.0 * normals[:, 0] + 3.0 * normals[:, 1]
        assert np.allclose(dn[:, 0], expect, atol=1e-10)


def test_normal_derivative_orientation_outward():
    grid = Grid2D(nx=33, ny=33)
    part = remark_partition(grid)
    X, _ = grid.meshgrid()
    # grows toward the right edge, so d/dnu > 0 on "right" arcs only
    f = VectorField(grid, X[:, :, None].astype(complex))
    dn = normal_derivative(f, part, GAMMA_0)
    normals = outward_normals(grid, *part.nodes(GAMMA_0))
    signs = np.sign(dn[:, 0].real)
    assert np.allclose(signs, np.sign(normals[:, 0]))
