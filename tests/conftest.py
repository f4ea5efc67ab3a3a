import numpy as np
import pytest

from cgolab import Grid2D, TransformPlan, CoefficientTriple, random_coefficient_specs


def make_triple(seed, n_sys, grid, amplitude=0.3):
    sa, sb, sq = random_coefficient_specs(seed, n_sys, amplitude)
    return CoefficientTriple(sa.matrix_field(grid), sb.matrix_field(grid),
                             sq.matrix_field(grid))


def inset_slice(grid, frac=0.05):
    m = int(np.ceil(frac * (grid.nx - 1)))
    return np.s_[m:-m, m:-m]


@pytest.fixture
def grid33():
    return Grid2D(nx=33, ny=33)


@pytest.fixture
def plan33(grid33):
    return TransformPlan(grid33)
