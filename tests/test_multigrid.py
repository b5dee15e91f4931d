"""Tests for the Galerkin multigrid preconditioner of the full law: the
interpolation hierarchy, the coarse operators and the V-cycle as an SPD
preconditioner.

References are independent of the implementation's products: dense matrix
products on the small grids, a differently associated sparse product on the
largest, and exact linear interpolation for the constants.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from pstruct import grid, multigrid, problems, solver
from pstruct.constitutive import ConstitutiveParams

KINDS = ["dirichlet_box", "cubic_periodic"]
MODES = ["full"]  # the one law whose solves switch to the cycle
SIZES = [8, 9, 10, 11, 12, 16]


def frozen_matrix(dom, mode, eta):
    """A frozen matrix of random nodal coefficients, contrast about e^12."""
    rng = np.random.default_rng(3)
    a = np.exp(rng.uniform(-6.0, 6.0, dom.shape))
    mp, mm = grid.face_masks(dom)
    return solver._frozen_matrix(dom, a * mp, a * mm, eta, mode)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 16, 24, 32])
def test_one_coarsening_rule_covers_every_n(kind, n):
    dom = grid.build_domain(kind, n)
    levels = multigrid.interpolations(dom)
    assert levels
    assert levels[0].shape[0] == dom.zeros(())[dom.interior].size
    for fine, coarse in zip(levels, levels[1:]):
        assert fine.shape[1] == coarse.shape[0]
    assert levels[-1].shape[1] <= multigrid.COARSEST_NODES
    for p in levels:
        # every coarse node is a fine node: each column holds one 1, and
        # every other weight lies strictly between 0 and 1
        csc = p.tocsc()
        ones = csc.data == 1.0
        assert np.array_equal(np.add.reduceat(ones, csc.indptr[:-1]), np.ones(p.shape[1]))
        assert np.all((csc.data > 0.0) & (csc.data <= 1.0))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_interpolation_reproduces_constants_away_from_walls(kind, n):
    # the product of the first l interpolations is linear interpolation from
    # level l, whose cells are at most 2^l fine cells wide: it reproduces 1
    # on nodes at least that far from every wall, and stays in [0, 1]
    dom = grid.build_domain(kind, n)
    index = np.indices(dom.shape)
    far = np.ones(dom.shape, dtype=bool)
    composite = sp.identity(dom.zeros(())[dom.interior].size, format="csr")
    for level, p in enumerate(multigrid.interpolations(dom), start=1):
        composite = composite @ p
        for ax in range(3):
            if not dom.is_periodic(ax):
                far &= np.minimum(index[ax], n - index[ax]) >= 2**level
        sums = composite @ np.ones(composite.shape[1])
        mask = far[dom.interior].ravel()
        assert mask.any() or level > 1
        assert np.allclose(sums[mask], 1.0, rtol=0.0, atol=1e-14)
        assert np.all((sums >= 0.0) & (sums <= 1.0 + 1e-14))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", SIZES)
def test_coarse_operators_are_galerkin_products(kind, mode, n):
    dom = grid.build_domain(kind, n)
    matrix = frozen_matrix(dom, mode, eta=1e-3)
    cycle = multigrid.VCycle(dom, matrix)
    # three equal uncoupled blocks; the cycle runs on one of them
    assert (sp.kron(sp.identity(3), cycle.operators[0]) != matrix).nnz == 0
    assert len(cycle.operators) == len(cycle.interpolations) + 1
    for a, p, coarse in zip(cycle.operators, cycle.interpolations, cycle.operators[1:]):
        if a.shape[0] <= 5000:
            ref = p.toarray().T @ a.toarray() @ p.toarray()
        else:
            ref = ((p.T.tocsc() @ a.tocsc()) @ p.tocsc()).toarray()
        got = coarse.toarray()
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", KINDS)
def test_vcycle_rejects_a_matrix_off_its_pattern(kind):
    # the cached Galerkin maps read the fine data by position: a matrix on
    # another pattern would give wrong coarse operators without notice
    dom = grid.build_domain(kind, 9)
    a = np.exp(np.random.default_rng(5).uniform(-6.0, 6.0, dom.shape))
    a[3, 3, 3:5] = 0.0  # the face between the two nodes: an explicit zero
    mp, mm = grid.face_masks(dom)
    matrix = solver._frozen_matrix(dom, a * mp, a * mm, 0.0, "full")
    multigrid.VCycle(dom, matrix)
    pruned = matrix.copy()
    pruned.eliminate_zeros()
    assert pruned.nnz < matrix.nnz
    with pytest.raises(ValueError, match="pattern"):
        multigrid.VCycle(dom, pruned)
    with pytest.raises(ValueError, match="pattern"):
        multigrid.VCycle(dom, solver._frozen_matrix(dom, a * mp, a * mm, 0.0, "symmetric"))


def seven_point_pattern(dom):
    """Every free node and its free neighbours along each axis, in
    interpolations' node order, built from Kronecker products of 1D steps."""
    steps = []
    for ax in range(3):
        if dom.is_periodic(ax):
            m = dom.shape[ax]
            steps.append(sp.diags([1.0] * 5, [1 - m, -1, 0, 1, m - 1], shape=(m, m)))
        else:
            m = dom.shape[ax] - 2
            steps.append(sp.diags([1.0] * 3, [-1, 0, 1], shape=(m, m)))
    eye = [sp.identity(t.shape[0]) for t in steps]
    pattern = (sp.kron(steps[0], sp.kron(eye[1], eye[2]))
               + sp.kron(eye[0], sp.kron(steps[1], eye[2]))
               + sp.kron(eye[0], sp.kron(eye[1], steps[2]))).tocsr()
    pattern.sum_duplicates()
    return pattern


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [8, 9, 16, 17])
def test_levels_are_the_hierarchy_of_the_seven_point_pattern(kind, n):
    # the finest pattern comes from the full law's assembly: every level's
    # pattern, diagonal and Galerkin map is the one the 7-point pattern gives
    dom = grid.build_domain(kind, n)
    levels = multigrid._levels(dom)
    pattern = seven_point_pattern(dom)
    assert len(levels) == len(multigrid.interpolations(dom)) + 1
    for level, p in zip(levels, multigrid.interpolations(dom) + (None,)):
        assert np.array_equal(level.pattern.indptr, pattern.indptr)
        assert np.array_equal(level.pattern.indices, pattern.indices)
        rows, cols = pattern.nonzero()
        assert np.array_equal(level.diagonal, np.flatnonzero(rows == cols))
        if p is None:
            assert level.galerkin is None
            break
        coarse, galerkin = multigrid._galerkin_map(pattern, p)
        assert level.interpolation is p
        assert (level.galerkin != galerkin).nnz == 0
        pattern = coarse


def test_galerkin_map_cache_is_bounded():
    multigrid._levels.cache_clear()
    maxsize = multigrid._levels.cache_info().maxsize
    assert maxsize is not None and maxsize <= 8
    for n in (8, 9, 10):
        for kind in KINDS:
            dom = grid.build_domain(kind, n)
            multigrid.VCycle(dom, frozen_matrix(dom, "full", eta=0.0))
            assert multigrid._levels.cache_info().currsize <= maxsize
    assert multigrid._levels.cache_info().misses == 6


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", SIZES)
def test_vcycle_is_symmetric_and_positive(kind, mode, n):
    dom = grid.build_domain(kind, n)
    matrix = frozen_matrix(dom, mode, eta=0.0)
    cycle = multigrid.VCycle(dom, matrix)
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal((2, matrix.shape[0]))
    mx, my = cycle(x), cycle(y)
    assert abs(x @ my - mx @ y) <= 1e-13 * np.linalg.norm(x) * np.linalg.norm(my)
    for z in rng.standard_normal((4, matrix.shape[0])):
        assert z @ cycle(z) > 0.0
    if n <= 9:
        dense = np.column_stack([cycle(e) for e in np.eye(matrix.shape[0])])
        assert np.allclose(dense, dense.T, rtol=0.0, atol=1e-13 * np.abs(dense).max())
        assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() > 0.0


@pytest.mark.parametrize("mode", MODES)
def test_multigrid_iterations_do_not_grow_with_contrast(mode):
    # frozen coefficients of mu = 0 solves at eta = 1e-6: their contrast grows
    # as p falls, and so does the scaled Poisson inverse's PCG count (14 to
    # 144 iterations); the Galerkin cycle's stays flat
    dom = grid.build_domain("dirichlet_box", 12)
    f = grid.apply_constraints(dom, problems.rhs_sample(dom, "smooth-trig"))
    b = solver._free(dom, f)
    eta = 1e-6
    rows = []
    for p in (1.7, 1.3):
        params = ConstitutiveParams(p=p, mu=0.0, structure=mode)
        v, _ = solver.solve(problems.ProblemSpec(dom, params, f=f),
                            solver.SolveConfig(eta=eta, outer_tol=1e-4))
        a_plus, a_minus, _ = solver.coefficient_field(dom, params, v)
        matrix = solver._frozen_matrix(dom, a_plus, a_minus, eta, mode)
        c = eta + 0.5 * (a_plus[dom.interior] + a_minus[dom.interior])
        scaled = solver._preconditioner(dom, np.tile(c.ravel() ** -0.5, 3))
        counts = [solver._pcg(dom, matrix.dot, precondition, b, np.zeros_like(b), b,
                              1e-8, 500)[1]
                  for precondition in (multigrid.VCycle(dom, matrix), scaled)]
        rows.append((c.max() / c.min(), *counts))
    (low, mg_low, _), (high, mg_high, scaled_high) = rows
    assert high > 10.0 * low
    assert mg_high <= mg_low + 2
    assert mg_high < scaled_high
