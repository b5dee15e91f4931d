"""Tests for the Galerkin multigrid preconditioner: the interpolation
hierarchy, the coarse operators and the V-cycle as an SPD preconditioner.

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
MODES = ["full", "symmetric"]
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
    cycle = multigrid.VCycle(dom, matrix, mode)
    fine = cycle.operators[0]
    if mode == "full":
        # three equal uncoupled blocks; the cycle runs on one of them
        assert (sp.kron(sp.identity(3), fine) != matrix).nnz == 0
    else:
        assert (fine != matrix).nnz == 0
    assert len(cycle.operators) == len(cycle.interpolations) + 1
    for a, p, coarse in zip(cycle.operators, cycle.interpolations, cycle.operators[1:]):
        if a.shape[0] <= 5000:
            ref = p.toarray().T @ a.toarray() @ p.toarray()
        else:
            ref = ((p.T.tocsc() @ a.tocsc()) @ p.tocsc()).toarray()
        got = coarse.toarray()
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", SIZES)
def test_vcycle_is_symmetric_and_positive(kind, mode, n):
    dom = grid.build_domain(kind, n)
    matrix = frozen_matrix(dom, mode, eta=0.0)
    cycle = multigrid.VCycle(dom, matrix, mode)
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
    # 144 iterations on the full law); the Galerkin cycle's stays flat
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
        counts = [solver._pcg(dom, matrix.dot, precondition, b, np.zeros_like(b), 1e-8, 500)[1]
                  for precondition in (multigrid.VCycle(dom, matrix, mode), scaled)]
        rows.append((c.max() / c.min(), *counts))
    (low, mg_low, _), (high, mg_high, scaled_high) = rows
    assert high > 10.0 * low
    assert mg_high <= mg_low + 2
    assert mg_high < scaled_high
