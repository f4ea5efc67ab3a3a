import numpy as np
import pytest

from cgolab import (Grid2D, TransformPlan, CoefficientTriple, MatrixField,
                    random_coefficient_specs)
from cgolab import transforms


def make_triple(seed, n_sys, grid, amplitude=0.3):
    sa, sb, sq = random_coefficient_specs(seed, n_sys, amplitude)
    return CoefficientTriple(sa.matrix_field(grid), sb.matrix_field(grid),
                             sq.matrix_field(grid))


def constant_matrix(grid, mat):
    """The matrix ``mat`` at every node, as a MatrixField."""
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    n = mat.shape[0]
    return MatrixField(grid, np.broadcast_to(mat, (grid.nx, grid.ny, n, n)).copy())


def outward_normals(grid, ii, jj):
    """Outward unit normals (n, 2) at boundary nodes, from their indices alone.

    Bottom and top own the corners, so a corner gets the y normal.
    """
    nx = np.where(ii == 0, -1.0, np.where(ii == grid.nx - 1, 1.0, 0.0))
    ny = np.where(jj == 0, -1.0, np.where(jj == grid.ny - 1, 1.0, 0.0))
    nx = np.where(ny != 0.0, 0.0, nx)
    return np.stack([nx, ny], axis=1)


def count_transforms(monkeypatch):
    """From now on, record the sample shape of every transform applied."""
    calls = []
    apply_kernel = transforms._apply_kernel

    def counted(plan, samples):
        calls.append(samples.shape)
        return apply_kernel(plan, samples)

    monkeypatch.setattr(transforms, "_apply_kernel", counted)
    return calls


def inset_slice(grid, frac=0.05):
    m = int(np.ceil(frac * (grid.nx - 1)))
    return np.s_[m:-m, m:-m]


@pytest.fixture
def grid33():
    return Grid2D(nx=33, ny=33)


@pytest.fixture
def plan33(grid33):
    return TransformPlan(grid33)
