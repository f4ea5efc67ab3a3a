import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

import cgolab.fields
import cgolab.forward
from cgolab.grid import EDGES
from cgolab import (Grid2D, BoundaryPartition, VectorField, MatrixField,
                    remark_partition, GAMMA_TILDE, GAMMA_0,
                    OperatorFactorization, cauchy_data,
                    cauchy_distance, fourier_profiles,
                    CoefficientTriple, random_trig_spec, GridError,
                    SingularSystemError, normal_derivative, trace_boundary,
                    gauge_transform, GaugeSpec)

from conftest import make_triple, outward_normals


def manufactured(grid, t, seed=5):
    """Exact smooth solution, its Dirichlet trace, and the matching source."""
    n = t.n_sys
    uspec = random_trig_spec(np.random.default_rng(seed), (n,), 1.0)
    u_ex = uspec.sample(grid)
    rhs = VectorField(grid, uspec.lap(grid)
                      + 2 * np.einsum("xyab,xyb->xya", t.a_coef.data, uspec.dz(grid))
                      + 2 * np.einsum("xyab,xyb->xya", t.b_coef.data, uspec.dzbar(grid))
                      + np.einsum("xyab,xyb->xya", t.q_coef.data, u_ex))
    ii, jj = BoundaryPartition(grid).nodes()
    return u_ex, u_ex[ii, jj], rhs


def random_data(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_manufactured_solution_small_grid(grid33):
    t = make_triple(11, 2, grid33)
    u_ex, bv, rhs = manufactured(grid33, t)
    uh = OperatorFactorization(t).solve(bv, rhs)
    assert np.max(np.abs(uh.data - u_ex)) < 3e-4


def test_zero_data_gives_zero_solution(grid33):
    t = make_triple(11, 1, grid33)
    uh = OperatorFactorization(t).solve(None, None)
    assert np.max(np.abs(uh.data)) == 0.0


def test_factorization_reuse_is_consistent(grid33):
    t = make_triple(12, 1, grid33)
    fac = OperatorFactorization(t)
    _, bv, rhs = manufactured(grid33, t)
    u1 = OperatorFactorization(t).solve(bv, rhs)
    fac.solve(bv, None)  # the factor serves an earlier solve first
    u2 = fac.solve(bv, rhs)
    assert np.allclose(u1.data, u2.data)


def test_solver_linearity(grid33):
    t = make_triple(13, 2, grid33)
    fac = OperatorFactorization(t)
    ii, jj = BoundaryPartition(grid33).nodes()
    rng = np.random.default_rng(0)
    b1 = rng.standard_normal((len(ii), 2)) + 1j * rng.standard_normal((len(ii), 2))
    b2 = rng.standard_normal((len(ii), 2)) + 1j * rng.standard_normal((len(ii), 2))
    u1 = fac.solve(b1, None)
    u2 = fac.solve(b2, None)
    u12 = fac.solve(2.0 * b1 - 0.5j * b2, None)
    assert np.max(np.abs(u12.data - 2.0 * u1.data + 0.5j * u2.data)) < 1e-10


def bad_input(case, grid, n):
    """(boundary values, rhs) that break one rule of the solve's input contract."""
    nb = len(BoundaryPartition(grid).nodes()[0])
    bv = np.ones((nb, n), dtype=complex)
    if case == "short":
        return bv[:-1], None
    if case == "components":
        return np.ones((nb, n + 1)), None
    if case in ("nan", "inf"):
        bv[3, 1] = np.nan if case == "nan" else np.inf
        return bv, None
    if case == "strings":
        return [["one"] * n] * nb, None
    if case == "number strings":
        return [["1"] * n] * nb, None
    if case == "dict":
        return {"bottom": 1.0}, None
    if case == "ragged":
        return [[1.0] * n] * (nb - 1) + [[1.0]], None
    rhs_grid = Grid2D(nx=grid.nx + 2, ny=grid.ny) if case == "rhs_grid" else grid
    n_rhs = n + 1 if case == "rhs_components" else n
    return bv, VectorField(rhs_grid, np.ones(rhs_grid.shape + (n_rhs,), dtype=complex))


@pytest.mark.parametrize("case", ["short", "components", "nan", "inf", "strings",
                                  "number strings", "dict", "ragged",
                                  "rhs_grid", "rhs_components"])
def test_solve_refuses_bad_input_before_any_work(grid33, monkeypatch, case):
    t = make_triple(13, 2, grid33)
    fac = OperatorFactorization(t)
    bv, rhs = bad_input(case, grid33, 2)

    def no_work(*args, **kw):
        raise AssertionError("factored or iterated on bad input")

    monkeypatch.setattr(cgolab.forward, "splu", no_work)
    monkeypatch.setattr(fac, "_precondition", no_work)
    with pytest.raises(GridError) as err:
        fac.solve(bv, rhs)
    assert "\n" not in str(err.value)


def test_failed_static_factor_falls_back_to_partial_pivoting(grid33, monkeypatch):
    t = make_triple(13, 2, grid33)
    _, bv, rhs = manufactured(grid33, t)
    want = OperatorFactorization(t)
    assert want.pivoting == "static"
    u_want = want.solve(bv, rhs).data
    splu, calls = cgolab.forward.splu, []

    def static_fails(a, **kw):
        # the trace part's factor fails, so K itself is factored
        calls.append((a.shape[0], kw))
        if kw:
            raise RuntimeError("Factor is exactly singular")
        return splu(a)

    monkeypatch.setattr(cgolab.forward, "splu", static_fails)
    fac = OperatorFactorization(t)
    u = fac.solve(bv, rhs).data
    n_int = 31 * 31
    assert [size for size, _ in calls] == [n_int, 2 * n_int]
    assert fac.pivoting == "partial" and calls[1][1] == {}
    assert fac.iterations == 0
    assert fac.lend(np.ones(grid33.shape)) is None  # only a trace-part factor is lent
    assert np.max(np.abs(u - u_want)) <= 1e-10 * np.max(np.abs(u_want))


def test_block_missing_the_bound_factors_the_operator(grid33, monkeypatch):
    t = make_triple(13, 2, grid33)
    _, bv, rhs = manufactured(grid33, t)
    u_want = OperatorFactorization(t).solve(bv, rhs).data
    splu, calls = cgolab.forward.splu, []

    def halved_trace_part(a, **kw):
        # a factor of half the trace part: M K is near 2 I, so the series'
        # terms stop shrinking the residual and it stops far above the check
        calls.append(a.shape[0])
        return splu(a / 2 if kw else a, **kw)

    monkeypatch.setattr(cgolab.forward, "splu", halved_trace_part)
    fac = OperatorFactorization(t)
    assert fac.pivoting == "static"
    u = fac.solve(bv, rhs).data
    n_int = 31 * 31
    assert calls == [n_int, 2 * n_int]
    # on K's own factor the series stops at M b
    assert fac.pivoting == "partial" and fac.iterations == 0
    assert np.max(np.abs(u - u_want)) <= 1e-10 * np.max(np.abs(u_want))
    assert np.array_equal(fac.solve(bv, rhs).data, u)
    assert fac.iterations == 0 and len(calls) == 2


def zero_column_triple(grid):
    """N=1 triple whose operator has an exactly zero column at the centre node.

    On a grid with power-of-two spacing every entry below is exact: the four
    neighbours' first-order terms cancel their Laplacian weight toward the
    centre, and Q cancels the centre's own.
    """
    a = np.zeros(grid.shape + (1, 1), dtype=complex)
    b = np.zeros_like(a)
    q = np.zeros_like(a)
    c = grid.nx // 2
    s = 1 / grid.h_x
    for (i, j), av, bv in (((c - 1, c), -s, -s), ((c + 1, c), s, s),
                           ((c, c - 1), -1j * s, 1j * s),
                           ((c, c + 1), 1j * s, -1j * s)):
        a[i, j], b[i, j] = av, bv
    q[c, c] = 2 / grid.h_x ** 2 + 2 / grid.h_y ** 2
    return CoefficientTriple(MatrixField(grid, a), MatrixField(grid, b),
                             MatrixField(grid, q))


def test_singular_system_raises():
    grid = Grid2D(nx=17, ny=17)
    ii, _ = BoundaryPartition(grid).nodes()
    with pytest.raises(SingularSystemError):
        fac = OperatorFactorization(zero_column_triple(grid))
        fac.solve(np.ones(len(ii)), None)


def test_operator_is_factored_when_its_trace_part_is_singular():
    # zero_column_triple's coefficients times I, plus the traceless
    # Q = diag(1, -1): the trace part has an exactly zero column, K does not
    grid = Grid2D(nx=17, ny=17)
    one = zero_column_triple(grid)
    a, b, q = (np.kron(c.data, np.eye(2))
               for c in (one.a_coef, one.b_coef, one.q_coef))
    t = CoefficientTriple(MatrixField(grid, a), MatrixField(grid, b),
                          MatrixField(grid, q + np.diag([1.0, -1.0])))
    fac = OperatorFactorization(t)
    assert fac.pivoting == "partial"
    rng = np.random.default_rng(1)
    f = VectorField(grid, random_data(rng, (17, 17, 2)))
    x = fac.solve(None, f).data[1:-1, 1:-1].ravel()
    rhs = f.data[1:-1, 1:-1].ravel()
    assert fac.iterations == 0
    assert np.linalg.norm(fac._matrix @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)
    want = scipy.sparse.linalg.splu(fac._matrix.tocsc()).solve(rhs)
    assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))


def gauge_pair(nx, n):
    """The gauge scenario's triple at seed 0 and its GaugeSpec(0.7) transform."""
    grid = Grid2D(nx=nx, ny=nx)
    t = make_triple(0, n, grid)
    return grid, (t, gauge_transform(t, GaugeSpec(0.7)))


@pytest.mark.parametrize("nx", [33, 65, 129])
def test_trace_part_preconditioner_needs_few_iterations(nx):
    grid, pair = gauge_pair(nx, 3)
    profiles = fourier_profiles(remark_partition(grid), 4)
    for t in pair:
        fac = OperatorFactorization(t)
        for p in profiles:
            bv = np.zeros((len(p), 3))
            bv[:, 0] = p
            fac.solve(bv, None)
            assert 1 <= fac.iterations <= 4
        assert fac.pivoting == "static"


@pytest.mark.parametrize("nx", [33, 65, 129])
def test_single_component_solve_is_the_static_direct_solve(nx):
    # at N = 1 the trace part is K, so its factor solves K directly and the
    # series stops at M b
    grid, pair = gauge_pair(nx, 1)
    p = fourier_profiles(remark_partition(grid), 1)[0]
    for t in pair:
        fac = OperatorFactorization(t)
        k = fac._matrix.tocsr()
        for part in ("shape", "indptr", "indices", "data"):
            assert np.array_equal(getattr(fac._trace, part), getattr(k, part))
        u = fac.solve(p, None).data
        assert fac.pivoting == "static"
        assert fac.iterations == 0
        lu = scipy.sparse.linalg.splu(fac._matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0.0,
                                      options=dict(SymmetricMode=True))
        want = lu.solve(-(fac._coupling @ p.astype(complex)))
        assert np.array_equal(u[1:-1, 1:-1].ravel(), want)


@pytest.mark.parametrize("case", ["operator factor", "other grid", "weights shape"])
def test_borrowed_factor_of_another_kind_is_refused_before_any_work(monkeypatch, case):
    grid, (t1, t2) = gauge_pair(17, 2)
    lender = OperatorFactorization(t1 if case != "other grid" else
                                   make_triple(0, 2, Grid2D(nx=19, ny=17)))
    lu = (scipy.sparse.linalg.splu(lender._matrix.tocsc()) if case == "operator factor"
          else lender._lu)
    w = np.ones(grid.shape if case != "weights shape" else (15, 15))

    def no_work(*args, **kw):
        raise AssertionError("assembled or factored before refusing the borrowed factor")

    monkeypatch.setattr(cgolab.forward, "_stencil_blocks", no_work)
    monkeypatch.setattr(cgolab.forward, "splu", no_work)
    with pytest.raises(GridError, match="^a borrowed factor must be ") as err:
        OperatorFactorization(t2, (lu, w))
    assert "\n" not in str(err.value)


def test_borrowed_rung_on_the_gauge_pair_takes_few_terms():
    # t2's trace part is t1's conjugated by W = e^{s eta} up to O(h^2)
    for nx, terms in ((33, 7), (65, 5), (129, 4)):
        grid, (t1, t2) = gauge_pair(nx, 3)
        lent = OperatorFactorization(t1).lend(np.exp(0.7 * GaugeSpec(0.7).eta(grid)))
        fac = OperatorFactorization(t2, lent)
        own = OperatorFactorization(t2)
        p = fourier_profiles(remark_partition(grid), 1)[0]
        bv = np.zeros((len(p), 3))
        bv[:, 0] = p
        u, want = fac.solve(bv, None).data, own.solve(bv, None).data
        assert fac.pivoting == "borrowed" and fac.iterations <= terms
        assert np.max(np.abs(u - want)) <= 1e-10 * np.max(np.abs(want))
        # without W the conjugation is lost and the series stalls far above
        # 1e-13, so the block is solved again on t2's own trace part
        fac = OperatorFactorization(t2, (lent[0], np.ones(grid.shape)))
        assert np.array_equal(fac.solve(bv, None).data, want)
        assert fac.pivoting == "static"


def test_only_a_trace_part_factor_of_a_system_is_lent():
    grid, (t1, t2) = gauge_pair(17, 2)
    w = np.exp(0.7 * GaugeSpec(0.7).eta(grid))
    lent = OperatorFactorization(t1).lend(w)
    assert lent[1] is w
    assert OperatorFactorization(t2, lent).pivoting == "borrowed"
    # at N = 1 the trace part is K itself
    assert OperatorFactorization(make_triple(0, 1, grid)).lend(w) is None


def test_block_series_takes_one_trace_solve_per_term(monkeypatch):
    # the series stops on each column's own relative residual, so columns
    # 1e-6 and 1e-9 times smaller converge as far as the first
    grid, (t, _) = gauge_pair(65, 3)
    fac = OperatorFactorization(t)
    profiles = fourier_profiles(remark_partition(grid), 3)
    boundary = np.zeros((len(profiles[0]), 3, 3), dtype=complex)
    for j, (p, scale) in enumerate(zip(profiles, (1.0, 1e-6, 1e-9))):
        boundary[:, 0, j] = scale * p
    u = fac._solve_block(boundary, None)
    assert fac.pivoting == "static"
    assert 1 <= fac.iterations <= 4
    x = u[1:-1, 1:-1].reshape(-1, 3)
    b = -(fac._coupling @ boundary.reshape(-1, 3))
    res = np.linalg.norm(fac._matrix @ x - b, axis=0) / np.linalg.norm(b, axis=0)
    assert np.all(res <= cgolab.fields._SERIES_RTOL)
    # one trace-part solve per term for the whole block, whatever its width
    precondition, calls = fac._precondition, []
    monkeypatch.setattr(fac, "_precondition",
                        lambda v: calls.append(v.shape) or precondition(v))
    for k in (1, 4, 12):
        calls.clear()
        wide = np.repeat(boundary[..., :1], k, axis=-1) * np.arange(1, k + 1)
        fac._solve_block(wide, None)
        assert fac.pivoting == "static" and 1 <= fac.iterations <= 4
        assert len(calls) == fac.iterations + 1


@pytest.mark.parametrize("amplitude", [1.0, 3.0, 10.0])
def test_series_stays_on_the_trace_part_for_strong_coefficients(amplitude):
    # coefficients up to 33 times the gauge scenario's: more terms, but the
    # series still meets the check on K without factoring K
    grid = Grid2D(nx=65, ny=65)
    fac = OperatorFactorization(make_triple(0, 3, grid, amplitude=amplitude))
    profiles = fourier_profiles(remark_partition(grid), 4)
    boundary = np.zeros((len(profiles[0]), 3, 4), dtype=complex)
    boundary[:, 0] = np.transpose(profiles)
    x = fac._solve_block(boundary, None)[1:-1, 1:-1].reshape(-1, 4)
    assert fac.iterations >= 1  # K factored would read 0
    b = -(fac._coupling @ boundary.reshape(-1, 4))
    want = scipy.sparse.linalg.splu(fac._matrix.tocsc()).solve(b)
    assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))


def stencil_reference(t):
    """K, C and the trace part built node by node from the stencil blocks."""
    grid, n = t.grid, t.n_sys
    ii, jj = BoundaryPartition(grid).nodes()
    bnum = {(a, b): k for k, (a, b) in enumerate(zip(ii, jj))}
    inum = lambda a, b: (a - 1) * (grid.ny - 2) + b - 1
    n_int = (grid.nx - 2) * (grid.ny - 2)
    entries = {"K": [], "C": [], "trace": []}
    for (di, dj), block in cgolab.forward._stencil_blocks(t):
        for a in range(1, grid.nx - 1):
            for b in range(1, grid.ny - 1):
                blk, row = block[a - 1, b - 1], inum(a, b)
                nb = (a + di, b + dj)
                if nb in bnum:
                    kind, col = "C", bnum[nb]
                else:
                    kind, col = "K", inum(*nb)
                    entries["trace"].append(
                        (row, col, sum(blk[c, c] for c in range(n)) / n))
                for p in range(n):
                    for q in range(n):
                        entries[kind].append((row * n + p, col * n + q, blk[p, q]))
    shapes = {"K": (n_int * n, n_int * n), "C": (n_int * n, len(ii) * n),
              "trace": (n_int, n_int)}
    out = {}
    for kind, rows in entries.items():
        r, c, v = zip(*rows)
        out[kind] = scipy.sparse.csr_matrix((v, (r, c)), shape=shapes[kind])
    return out


@settings(max_examples=20, deadline=None)
@given(st.integers(9, 33), st.integers(9, 33), st.integers(1, 3),
       st.integers(0, 2 ** 16))
def test_assembly_equals_node_by_node_reference(nx, ny, n, seed):
    t = make_triple(seed, n, Grid2D(nx=nx, ny=ny))
    fac = OperatorFactorization(t)
    want = stencil_reference(t)
    for got, kind in ((fac._matrix, "K"), (fac._coupling, "C"),
                      (fac._trace, "trace")):
        assert got.shape == want[kind].shape
        assert (got != want[kind]).nnz == 0


@pytest.mark.parametrize("nx", [65, 129])
def test_assembly_peak_memory_stays_near_the_operator_data(nx):
    # each stencil offset's blocks are written once into K's and C's data;
    # SuperLU's own memory is not traced
    _, (t, _) = gauge_pair(nx, 3)
    tracemalloc.start()
    try:
        fac = OperatorFactorization(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * fac._matrix.data.nbytes


system = st.tuples(st.integers(9, 33), st.integers(9, 33), st.integers(1, 3),
                   st.integers(0, 2 ** 16))


def check_block_solve_equals_column_solves(sys_, observed, m):
    nx, ny, n, seed = sys_
    grid = Grid2D(nx=nx, ny=ny)
    t = make_triple(seed, n, grid)
    part = BoundaryPartition(grid, {e: GAMMA_TILDE if o else GAMMA_0
                                    for e, o in zip(EDGES, observed)})
    profiles = fourier_profiles(part, m)  # modes <= 4 fit every edge of 9 nodes
    cd = cauchy_data(t, part, m)
    fac = OperatorFactorization(t)
    assert len(cd) == len(profiles)
    for p, d, nt in zip(profiles, cd.dirichlet, cd.neumann):
        bv = np.zeros((len(p), n), dtype=complex)
        bv[:, 0] = p
        u = fac.solve(bv, None)
        # each column of the block series stops as its own solve does
        assert np.array_equal(d, trace_boundary(u, part, GAMMA_TILDE))
        assert np.array_equal(nt, normal_derivative(u, part, GAMMA_TILDE))


@settings(max_examples=30, deadline=None)
@given(system, st.lists(st.booleans(), min_size=4, max_size=4).filter(any),
       st.integers(1, 4))
def test_block_solve_equals_column_solves(sys_, observed, m):
    check_block_solve_equals_column_solves(sys_, observed, m)


def test_block_solve_equals_column_solves_recorded_draw():
    # a draw of the random test above on which profile 2 stops after 4
    # terms and the block's worst column after 5
    check_block_solve_equals_column_solves((27, 12, 2, 7246),
                                           [False, False, True, True], 2)


@settings(max_examples=30, deadline=None)
@given(system, st.complex_numbers(max_magnitude=10),
       st.complex_numbers(max_magnitude=10))
def test_solver_is_linear_and_zero_data_gives_zero(sys_, alpha, beta):
    nx, ny, n, seed = sys_
    grid = Grid2D(nx=nx, ny=ny)
    fac = OperatorFactorization(make_triple(seed, n, grid))
    rng = np.random.default_rng(seed)
    nb = len(BoundaryPartition(grid).nodes()[0])
    b1, b2 = random_data(rng, (nb, n)), random_data(rng, (nb, n))
    r1, r2 = (VectorField(grid, random_data(rng, (nx, ny, n))) for _ in "12")
    u1, u2 = fac.solve(b1, r1).data, fac.solve(b2, r2).data
    mix = fac.solve(alpha * b1 + beta * b2,
                    VectorField(grid, alpha * r1.data + beta * r2.data)).data
    scale = max(abs(alpha), abs(beta), 1e-3) * max(np.abs(u1).max(), np.abs(u2).max())
    assert np.max(np.abs(mix - alpha * u1 - beta * u2)) <= 1e-12 * scale
    assert not fac.solve(np.zeros((nb, n)), None).data.any()
    assert not fac.solve(None, None).data.any()


def test_fourier_profiles_are_grid_resamplable():
    part_a = remark_partition(Grid2D(nx=17, ny=17))
    part_b = remark_partition(Grid2D(nx=33, ny=33))
    fa = fourier_profiles(part_a, 3)
    fb = fourier_profiles(part_b, 3)
    # same continuum profile: coarse nodes are every other fine node per arc
    na = len(fa[0]) // 2
    nb = len(fb[0]) // 2
    for a, b in zip(fa, fb):
        assert np.allclose(a[:na], b[:nb][::2], atol=1e-12)


def fourier_reference(partition, m):
    """Node-by-node construction of the sine profiles, in boundary order."""
    grid = partition.grid
    fi, fj = BoundaryPartition(grid).nodes()
    X, Y = grid.meshgrid()
    arcs = partition.arcs(GAMMA_TILDE)
    out = []
    for k in range(m):
        edge = arcs[k % len(arcs)]
        mode = k // len(arcs) + 1
        v = np.zeros(len(fi))
        for p, (a, b) in enumerate(zip(fi, fj)):
            on = {"bottom": b == 0, "top": b == grid.ny - 1,
                  "left": a == 0 and 0 < b < grid.ny - 1,
                  "right": a == grid.nx - 1 and 0 < b < grid.ny - 1}[edge]
            if on:
                if edge in ("bottom", "top"):
                    t = (X[a, b] - grid.x_min) / (grid.x_max - grid.x_min)
                else:
                    t = (Y[a, b] - grid.y_min) / (grid.y_max - grid.y_min)
                v[p] = np.sin(mode * np.pi * t)
        out.append(v)
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(9, 65), st.integers(9, 65),
       st.lists(st.booleans(), min_size=4, max_size=4).filter(any),
       st.integers(1, 3))
def test_fourier_profiles_match_node_by_node_reference(nx, ny, observed, per_arc):
    grid = Grid2D(nx=nx, ny=ny, x_min=-0.5, x_max=1.5)
    part = BoundaryPartition(grid, {e: GAMMA_TILDE if o else GAMMA_0
                                    for e, o in zip(EDGES, observed)})
    m = per_arc * sum(observed)
    got, want = fourier_profiles(part, m), fourier_reference(part, m)
    assert len(got) == len(want) == m
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_fourier_profiles_refuse_modes_past_the_grid():
    part = remark_partition(Grid2D(nx=17, ny=17))
    assert len(fourier_profiles(part, 30)) == 30  # modes up to 15
    with pytest.raises(GridError):
        fourier_profiles(part, 31)  # mode 16 samples to zero on 17 nodes
    grid = Grid2D(nx=17, ny=9)
    side = BoundaryPartition(grid, {e: GAMMA_TILDE if e == "left" else GAMMA_0
                                    for e in EDGES})
    assert len(fourier_profiles(side, 7)) == 7
    with pytest.raises(GridError):
        fourier_profiles(side, 8)


def test_cauchy_data_round_trip_and_distance(grid33):
    # assembling the same data twice gives distance exactly zero
    t = make_triple(3, 1, grid33)
    part = remark_partition(grid33)
    cd = cauchy_data(t, part, 3)
    assert len(cd) == 3
    back = cauchy_data(t, part, 3)
    assert cauchy_distance(cd, back) == 0.0


def test_cauchy_distance_rejects_basis_mismatch(grid33):
    t = make_triple(3, 2, grid33)
    part = remark_partition(grid33)
    c1 = cauchy_data(t, part, 3)
    with pytest.raises(GridError):
        cauchy_distance(c1, cauchy_data(t, part, 2))


def test_cauchy_distance_separates_different_potentials(grid33):
    part = remark_partition(grid33)
    t1 = make_triple(3, 1, grid33)
    q2 = MatrixField(grid33, t1.q_coef.data + 1.0)
    t2 = CoefficientTriple(t1.a_coef, t1.b_coef, q2)
    d = cauchy_distance(cauchy_data(t1, part, 3), cauchy_data(t2, part, 3))
    assert d > 1e-2


def test_neumann_trace_of_coordinate(grid33):
    part = remark_partition(grid33)
    X, _ = grid33.meshgrid()
    _, Y = grid33.meshgrid()
    f = VectorField(grid33, Y[:, :, None].astype(complex))
    dn = normal_derivative(f, part, GAMMA_TILDE)
    normals = outward_normals(grid33, *part.nodes(GAMMA_TILDE))
    assert np.allclose(dn[:, 0], normals[:, 1], atol=1e-11)
