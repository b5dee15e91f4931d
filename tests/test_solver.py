"""Tests for the nonlinear solver: secant iteration, subsolver, continuation,
and the frozen-coefficient linear companion.

Numeric tolerances were frozen from independent oracle runs (dense matrix
assembly from unit vectors, scipy quadrature for the stress potential,
central differences for the energy gradient).
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from pstruct import grid, multigrid, problems, solver
from pstruct.constitutive import ConstitutiveParams
from pstruct.errors import (
    CoefficientBlowup,
    DegenerateConfig,
    IllConditioned,
    NoConvergence,
    NonFinite,
    PathStalled,
)
from pstruct.poisson import poisson_solve


def make_problem(dom, p, mu, structure="full", rhs_id="smooth-trig", seed=0):
    f = grid.apply_constraints(dom, problems.rhs_sample(dom, rhs_id, 1.0, seed=seed))
    return problems.ProblemSpec(dom, ConstitutiveParams(p=p, mu=mu, structure=structure), f=f)


# ---------------------------------------------------------------- config


def test_continuation_path_validation():
    with pytest.raises(ValueError):
        solver.ContinuationPath(eta_path=(1.0, 0.5), mu_path=(1.0,))
    with pytest.raises(ValueError):
        solver.ContinuationPath(eta_path=(), mu_path=())
    # a step with eta = mu = 0 is the degenerate operator, not a path point
    with pytest.raises(ValueError):
        solver.ContinuationPath(eta_path=(1.0, 0.0), mu_path=(0.0, 0.0))
    # NaN fails every comparison, so it used to pass a check written as x < 0
    with pytest.raises(ValueError):
        solver.ContinuationPath(eta_path=(float("nan"),), mu_path=(0.1,))
    with pytest.raises(ValueError):
        solver.ContinuationPath(eta_path=(0.1,), mu_path=(float("nan"),))
    with pytest.raises(ValueError):
        solver.ContinuationPath.geometric(ratio=1.5)


def test_solve_config_validation():
    with pytest.raises(ValueError):
        solver.SolveConfig(eta=-1e-3)
    with pytest.raises(ValueError):
        solver.SolveConfig(outer_tol=0.0)
    # eta = NaN used to be accepted, and max_outer = -1 to end solve in an
    # UnboundLocalError
    with pytest.raises(ValueError):
        solver.SolveConfig(eta=float("nan"))
    with pytest.raises(ValueError):
        solver.SolveConfig(max_outer=-1)


def test_geometric_path_reaches_floors():
    path = solver.ContinuationPath.geometric(
        eta0=1e-1, mu0=1e-2, ratio=0.5, eta_floor=1e-3, mu_floor=1e-3
    )
    assert path.eta_path[-1] == pytest.approx(1e-3, rel=1e-12)
    assert path.mu_path[-1] == pytest.approx(1e-3, rel=1e-12)
    assert all(e2 <= e1 for e1, e2 in zip(path.eta_path, path.eta_path[1:]))


def test_geometric_path_zero_component_stays_zero():
    path = solver.ContinuationPath.geometric(eta0=1e-1, mu0=0.0, ratio=0.5, eta_floor=1e-6)
    assert all(m == 0.0 for m in path.mu_path)
    assert len(path.eta_path) == len(path.mu_path)


def test_degenerate_config_rejected():
    dom = grid.build_domain("dirichlet_box", 8)
    prob = make_problem(dom, 1.5, 0.0)
    with pytest.raises(DegenerateConfig):
        solver.solve(prob, solver.SolveConfig(eta=0.0))
    with pytest.raises(DegenerateConfig):
        solver.continuation_solve(prob, solver.SolveConfig())


# ---------------------------------------------------------------- shortcuts


def test_zero_forcing_short_circuits():
    dom = grid.build_domain("cubic_periodic", 8)
    prob = problems.ProblemSpec(dom, ConstitutiveParams(p=1.5, mu=0.2), f=dom.zeros((3,)))
    v, report = solver.solve(prob, solver.SolveConfig(eta=0.0))
    assert np.all(v == 0.0)
    assert report.converged
    assert report.iterations == 0


def test_p2_cold_start_is_already_exact():
    """At p = 2 the secant coefficient is identically one, so the Poisson
    cold start solves the problem and the outer loop exits immediately."""
    dom = grid.build_domain("cubic_periodic", 16)
    prob = make_problem(dom, 2.0, 0.3)
    v, report = solver.solve(prob, solver.SolveConfig(eta=0.0, outer_tol=1e-9))
    assert report.iterations == 0
    np.testing.assert_allclose(v, poisson_solve(dom, prob.forcing()), atol=1e-14)


def test_p2_with_eta_scales_poisson():
    dom = grid.build_domain("cubic_periodic", 16)
    prob = make_problem(dom, 2.0, 0.3)
    v, report = solver.solve(prob, solver.SolveConfig(eta=0.5, outer_tol=1e-9))
    assert report.iterations <= 1
    np.testing.assert_allclose(v, poisson_solve(dom, prob.forcing()) / 1.5, atol=1e-13)


def _linear_solve(dom, a, f, mode, rtol, maxiter=solver.INNER_MAXITER):
    """solve's inner solve for one nodal coefficient a on both sides' faces,
    from zero, with the plain Poisson preconditioner; a full-grid field."""
    mp, mm = grid.face_masks(dom)
    matrix = solver._frozen_matrix(dom, a * mp, a * mm, 0.0, mode)
    b = solver._free(dom, f)
    x, _ = solver._pcg(dom, matrix.dot, solver._preconditioner(dom), b, np.zeros_like(b), b,
                       rtol, maxiter)
    return solver._field(dom, x)


def test_unit_coefficient_subsolve_matches_poisson():
    # a == 1 in full-gradient mode is exactly the 7-point Laplacian, and the
    # preconditioner inverts it, so PCG lands on the answer in one step
    dom = grid.build_domain("dirichlet_box", 16)
    f = grid.apply_constraints(dom, problems.rhs_sample(dom, "smooth-trig", 1.0))
    w = _linear_solve(dom, np.ones(dom.shape), f, "full", 1e-13)
    np.testing.assert_allclose(w, poisson_solve(dom, f), atol=1e-13)


# ---------------------------------------------------------------- linear operator


@pytest.mark.parametrize("mode", ["full", "symmetric"])
def test_dense_operator_oracle(mode):
    """Assemble the frozen operator as a dense matrix over free DOFs and
    check symmetry, positive spectrum, and agreement with the iterative
    subsolver against a direct dense solve."""
    dom = grid.build_domain("cubic_periodic", 8)
    rng = np.random.default_rng(1)
    a = rng.uniform(0.5, 2.0, dom.shape)
    mp, mm = grid.face_masks(dom)

    free = np.zeros((3,) + dom.shape, dtype=bool)
    free[(slice(None),) + dom.interior] = True
    idx = np.where(free.ravel())[0]

    cols = []
    for k in idx:
        e = np.zeros(3 * int(np.prod(dom.shape)))
        e[k] = 1.0
        w = e.reshape((3,) + dom.shape)
        cols.append(solver._apply_pm(dom, a * mp, a * mm, 0.0, mode, w).ravel()[idx])
    mat = np.array(cols).T

    scale = np.max(np.abs(mat))
    assert np.max(np.abs(mat - mat.T)) <= 1e-12 * scale
    assert np.linalg.eigvalsh(0.5 * (mat + mat.T)).min() > 0.0

    f = problems.rhs_sample(dom, "band-limited-random", 1.0, seed=5)
    x_dense = np.linalg.solve(mat, f.ravel()[idx])
    w = _linear_solve(dom, a, f, mode, 1e-13)
    assert np.max(np.abs(w.ravel()[idx] - x_dense)) < 1e-9


@pytest.mark.parametrize("mode", ["full", "symmetric"])
def test_quadratic_form_positive(mode):
    dom = grid.build_domain("dirichlet_box", 12)
    rng = np.random.default_rng(4)
    a = rng.uniform(0.2, 3.0, dom.shape)
    mp, mm = grid.face_masks(dom)
    for _ in range(5):
        w = grid.apply_constraints(dom, rng.standard_normal((3,) + dom.shape))
        q = dom.h ** 3 * np.sum(solver._apply_pm(dom, a * mp, a * mm, 0.0, mode, w) * w)
        assert q > 0.0


def test_apply_pm_rejects_bad_mode():
    dom = grid.build_domain("dirichlet_box", 8)
    with pytest.raises(ValueError):
        solver._apply_pm(dom, *grid.face_masks(dom), 0.0, "skew", dom.zeros((3,)))


def test_subsolve_raises_ill_conditioned_on_budget():
    dom = grid.build_domain("cubic_periodic", 8)
    rng = np.random.default_rng(1)
    a = rng.uniform(0.5, 2.0, dom.shape)
    f = problems.rhs_sample(dom, "smooth-trig", 1.0)
    with pytest.raises(IllConditioned) as exc:
        _linear_solve(dom, a, f, "full", 1e-14, maxiter=2)
    assert exc.value.achieved > 0.0
    assert exc.value.field.shape == (3,) + dom.shape


def test_coefficient_floor_activation():
    dom = grid.build_domain("dirichlet_box", 8)
    params = ConstitutiveParams(p=1.5, mu=0.0)
    a_plus, a_minus, active = solver.coefficient_field(dom, params, dom.zeros((3,)))
    assert active
    top = solver.COEFFICIENT_FLOOR ** (params.p - 2.0)
    assert set(np.unique(a_plus)) == {0.0, top}
    assert set(np.unique(a_minus)) == {0.0, top}

    rng = np.random.default_rng(3)
    v = grid.apply_constraints(dom, rng.standard_normal((3,) + dom.shape))
    _, _, active = solver.coefficient_field(dom, ConstitutiveParams(p=1.5, mu=0.5), v)
    assert not active


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_pcg_stops_at_once_on_non_finite():
    dom = grid.build_domain("dirichlet_box", 8)
    f = grid.apply_constraints(dom, problems.rhs_sample(dom, "smooth-trig", 1.0))
    b = solver._free(dom, f)
    precondition = solver._preconditioner(dom)
    calls = []

    def nan_apply(w):
        calls.append(1)
        return np.where(w == 0.0, 0.0, np.nan)

    # the caller's initial residual is one apply, as in solve's outer step
    x0 = np.zeros_like(b)
    with pytest.raises(NonFinite, match="p.Ap"):
        solver._pcg(dom, nan_apply, precondition, b, x0, b - nan_apply(x0), 1e-10, 50)
    assert len(calls) == 2
    calls.clear()
    x0 = np.ones_like(b)
    with pytest.raises(NonFinite, match="residual"):
        solver._pcg(dom, nan_apply, precondition, b, x0, b - nan_apply(x0), 1e-10, 50)
    assert len(calls) == 1
    a = np.ones(dom.shape)
    a[3, 3, 3] = np.inf
    with pytest.raises(NonFinite):
        _linear_solve(dom, a, f, "full", 1e-11, maxiter=50)


def test_pcg_raises_on_loss_of_definiteness():
    dom = grid.build_domain("dirichlet_box", 8)
    b = solver._free(dom, problems.rhs_sample(dom, "smooth-trig", 1.0))
    calls = []

    def negative_apply(w):
        calls.append(1)
        return -w

    x0 = np.zeros_like(b)
    with pytest.raises(IllConditioned, match="definiteness at PCG iteration 1") as exc:
        solver._pcg(dom, negative_apply, solver._preconditioner(dom), b, x0,
                    b - negative_apply(x0), 1e-10, 50)
    # used to run on to the cap path and report "inner solve cap 50 reached"
    assert len(calls) == 2
    assert exc.value.achieved == 1.0
    # the best iterate comes back as a full-grid field
    assert np.array_equal(exc.value.field, dom.zeros((3,)))


def test_pcg_raises_when_the_preconditioner_loses_definiteness():
    dom = grid.build_domain("dirichlet_box", 8)
    b = solver._free(dom, problems.rhs_sample(dom, "smooth-trig", 1.0))
    a = solver._frozen_matrix(dom, *grid.face_masks(dom), 0.0, "full")
    calls = []

    def negative(r):
        calls.append(1)
        return -r

    with pytest.raises(IllConditioned, match="preconditioner lost definiteness at PCG "
                                             "iteration 1") as exc:
        solver._pcg(dom, a.dot, negative, b, np.zeros_like(b), b, 1e-10, 50)
    assert len(calls) == 1
    assert exc.value.achieved == 1.0
    assert np.array_equal(exc.value.field, dom.zeros((3,)))

    # definite for two iterations, then not: the best iterate comes back
    def turns_indefinite(r):
        calls.append(1)
        return r if len(calls) <= 2 else -r

    calls.clear()
    with pytest.raises(IllConditioned, match="iteration 3") as exc:
        solver._pcg(dom, a.dot, turns_indefinite, b, np.zeros_like(b), b, 1e-10, 50)
    assert 0.0 < exc.value.achieved < 1.0
    assert np.linalg.norm(b - a @ solver._free(dom, exc.value.field)) == pytest.approx(
        exc.value.achieved * np.linalg.norm(b), rel=1e-12)
    with pytest.raises(NonFinite, match="r.z"):
        solver._pcg(dom, a.dot, lambda r: np.full_like(r, np.nan), b, np.zeros_like(b), b,
                    1e-10, 50)
    # a right-hand side so small that every product r_i z_i underflows, though
    # its norm does not: r.z is 0 with r and z nonzero, which used to be blamed
    # on the preconditioner ("lost definiteness ... r.z = 0.000e+00")
    tiny = 1e-162 * b
    assert solver._l2(tiny) > 0.0
    with pytest.raises(NonFinite, match=r"PCG r.z is 0.0 at iteration 1: its sum of products "
                                        r"underflowed"):
        solver._pcg(dom, a.dot, solver._preconditioner(dom), tiny, np.zeros_like(b), tiny,
                    1e-10, 50)


def test_a_solution_at_roundoff_converges_though_its_residual_squares_underflow():
    # at amplitude 1e-150 the residual's entries are about 1e-166 and their
    # squares underflow; the solve measures it scaled and converges on the
    # 1e-100 solution scaled down, instead of reading a residual of 0.0
    # (p = 2) or raising (p = 3); a wrong solution there raises NonFinite
    dom = grid.build_domain("dirichlet_box", 8)
    for p in (2.0, 3.0):
        ref = make_problem(dom, p, 0.1)
        solutions = []
        for amplitude in (1e-100, 1e-150):
            problem = problems.ProblemSpec(dom, ref.params, f=amplitude * ref.f)
            v, report = solver.solve(problem, solver.SolveConfig())
            assert report.converged and 0.0 < report.final_residual <= 1e-9
            assert type(report.final_residual) is float  # a CSV cell reads as a number
            solutions.append(v / amplitude)
        assert np.max(np.abs(solutions[1] - solutions[0])) <= 1e-12 * np.max(np.abs(solutions[0]))
    with pytest.raises(NonFinite, match="but its sum of squares underflowed at outer step 1"):
        solver.solve(problems.ProblemSpec(dom, ref.params, f=1e-158 * ref.f), solver.SolveConfig())


def test_an_ill_conditioned_inner_solve_names_its_outer_step():
    # at p = 1e6 the law's coefficients underflow to 0, so the first inner
    # solve finds p.Ap = 0; the error used to name no outer step
    dom = grid.build_domain("cubic_periodic", 8)
    with pytest.raises(IllConditioned, match=r"loss of definiteness at PCG iteration 1: .* "
                                             r"in the inner solve of outer step 0$") as exc:
        solver.solve(make_problem(dom, 1e6, 0.1), solver.SolveConfig())
    cause = exc.value.__cause__
    assert isinstance(cause, IllConditioned)
    assert exc.value.achieved == cause.achieved == 1.0
    assert exc.value.field is cause.field


def _one_sided(dom, f, axis, forward):
    """Loop reference: forward or backward difference, 0 where no face."""
    ax = f.ndim - 3 + axis
    if dom.is_periodic(axis):
        if forward:
            return (np.roll(f, -1, axis=ax) - f) / dom.h
        return (f - np.roll(f, 1, axis=ax)) / dom.h
    out = np.zeros_like(f)
    faces = [slice(None)] * f.ndim
    faces[ax] = slice(0, -1) if forward else slice(1, None)
    out[tuple(faces)] = np.diff(f, axis=ax) / dom.h
    return out


def _apply_pm_two_branches(dom, a_plus, a_minus, eta, mode, w):
    """The operator as separate full and symmetric loops over (i, j)."""
    out = np.zeros_like(w)
    if mode == "full":
        for i in range(3):
            for j in range(3):
                out[i] -= 0.5 * (
                    _one_sided(dom, a_plus * _one_sided(dom, w[i], j, True), j, False)
                    + _one_sided(dom, a_minus * _one_sided(dom, w[i], j, False), j, True)
                )
    else:
        gp = np.array([[_one_sided(dom, w[i], j, True) for j in range(3)] for i in range(3)])
        gm = np.array([[_one_sided(dom, w[i], j, False) for j in range(3)] for i in range(3)])
        tp = gp + np.swapaxes(gp, 0, 1)
        tm = gm + np.swapaxes(gm, 0, 1)
        for i in range(3):
            for j in range(3):
                out[i] -= 0.25 * (
                    _one_sided(dom, a_plus * tp[i, j], j, False)
                    + _one_sided(dom, a_minus * tm[i, j], j, True)
                )
    if eta != 0.0:
        out -= eta * grid.laplacian(dom, w)
    return grid.apply_constraints(dom, out)


@pytest.mark.parametrize("kind", ["dirichlet_box", "cubic_periodic"])
@pytest.mark.parametrize("mode", ["full", "symmetric"])
@pytest.mark.parametrize("eta", [0.0, 1e-3])
def test_apply_pm_equals_two_branch_reference_bit_for_bit(kind, mode, eta):
    # one path for both laws: T = G or (G + G^T)/2 at coefficient 1/2 is the
    # symmetric branch's (G + G^T) at 1/4 scaled by exact powers of two
    dom = grid.build_domain(kind, 10)
    rng = np.random.default_rng(12)
    v = grid.apply_constraints(dom, rng.standard_normal((3,) + dom.shape))
    w = grid.apply_constraints(dom, rng.standard_normal((3,) + dom.shape))
    params = ConstitutiveParams(p=1.6, mu=0.05, structure=mode)
    a_plus, a_minus, _ = solver.coefficient_field(dom, params, v)
    got = solver._apply_pm(dom, a_plus, a_minus, eta, mode, w)
    ref = _apply_pm_two_branches(dom, a_plus, a_minus, eta, mode, w)
    assert np.array_equal(got, ref)


def _pm_gradients_per_entry(dom, v):
    """The gradient pair as 18 separate _one_sided calls."""
    return tuple(np.array([[_one_sided(dom, v[i], j, forward) for j in range(3)]
                           for i in range(3)])
                 for forward in (True, False))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["dirichlet_box", "cubic_periodic"]), n=st.integers(8, 11),
       lead=st.sampled_from([(), (3,), (3, 3)]), axis=st.integers(0, 2),
       scale=st.sampled_from([1e-12, 1.0, 1e12]), seed=st.integers(0, 2**32 - 1))
def test_one_sided_differences_are_the_reference_bit_for_bit(kind, n, lead, axis, scale, seed):
    # the backward difference at x is the forward one at x - e_j: same
    # subtraction, same division, so the shifted copy is exact
    dom = grid.build_domain(kind, n)
    rng = np.random.default_rng(seed)
    f = scale * rng.standard_normal(lead + dom.shape)
    ref = (_one_sided(dom, f, axis, True), _one_sided(dom, f, axis, False))
    for got, want in zip(grid.one_sided_differences(dom, f, axis), ref):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    # into views [..., k] of a larger array, as the pair writes its [:, j]:
    # the kernel fills the two it is given and touches nothing else
    big = np.full(lead[:1] + (3,) + lead[1:] + dom.shape, np.nan)
    views = [big[(slice(None),) * len(lead[:1]) + (k,)] for k in range(3)]
    got = grid.one_sided_differences(dom, f, axis, views[0], views[1])
    assert got[0] is views[0] and got[1] is views[1]
    assert np.array_equal(views[0], ref[0]) and np.array_equal(views[1], ref[1])
    assert np.all(np.isnan(views[2]))
    # the pair is three kernel calls, each entry its reference difference
    v = scale * rng.standard_normal((3,) + dom.shape)
    pair = solver._pm_gradients(dom, v)
    for got, want in zip(pair, _pm_gradients_per_entry(dom, v)):
        assert got.shape == want.shape == (3, 3) + dom.shape
        assert np.array_equal(got, want)


def _apply_pm_per_entry(dom, a_plus, a_minus, eta, mode, w):
    """_apply_pm as a loop over the entries (i, j) of the per-entry pair."""
    tp, tm = (grid.gradient_mode(grad, mode) for grad in _pm_gradients_per_entry(dom, w))
    out = np.zeros_like(w)
    for i in range(3):
        for j in range(3):
            out[i] -= 0.5 * (
                _one_sided(dom, a_plus * tp[i, j], j, False)
                + _one_sided(dom, a_minus * tm[i, j], j, True)
            )
    if eta != 0.0:
        out -= eta * grid.laplacian(dom, w)
    return grid.apply_constraints(dom, out)


@pytest.mark.parametrize("kind", ["dirichlet_box", "cubic_periodic"])
@pytest.mark.parametrize("mode", ["full", "symmetric"])
@pytest.mark.parametrize("eta", [0.0, 1e-3])
def test_apply_pm_equals_the_per_entry_pair_apply_bit_for_bit(kind, mode, eta):
    dom = grid.build_domain(kind, 11)
    rng = np.random.default_rng(21)
    a_plus, a_minus = (np.exp(rng.uniform(-6.0, 6.0, dom.shape)) * m
                       for m in grid.face_masks(dom))
    w = grid.apply_constraints(dom, rng.standard_normal((3,) + dom.shape))
    got = solver._apply_pm(dom, a_plus, a_minus, eta, mode, w)
    assert np.array_equal(got, _apply_pm_per_entry(dom, a_plus, a_minus, eta, mode, w))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["dirichlet_box", "cubic_periodic"]),
       mode=st.sampled_from(["full", "symmetric"]), n=st.integers(8, 11),
       eta=st.sampled_from([0.0, 1e-8, 1e-3, 0.7]), floored=st.floats(0.0, 0.5),
       seed=st.integers(0, 2**32 - 1))
def test_assembled_operator_equals_apply_pm(kind, mode, n, eta, floored, seed):
    # random one-sided coefficients, a share of them at the p = 1.5 floor
    # value, masked like coefficient_field's
    dom = grid.build_domain(kind, n)
    rng = np.random.default_rng(seed)
    top = solver.COEFFICIENT_FLOOR ** (1.5 - 2.0)
    a_plus, a_minus = (
        np.where(rng.random(dom.shape) < floored, top, rng.uniform(0.01, 100.0, dom.shape)) * m
        for m in grid.face_masks(dom)
    )
    w = grid.apply_constraints(dom, rng.standard_normal((3,) + dom.shape))
    matrix = solver._frozen_matrix(dom, a_plus, a_minus, eta, mode)
    got = solver._field(dom, matrix @ solver._free(dom, w))
    ref = solver._apply_pm(dom, a_plus, a_minus, eta, mode, w)
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
    assert (matrix != matrix.T).nnz == 0


def _one_map_fill(dom, a_plus, a_minus, eta, mode):
    """The fill as one coefficient map over all three components, with the
    eta term added separately: the reference for the block and eta-column
    assembly, which must match it bit for bit."""
    free = np.full((3,) + dom.shape, -1, dtype=np.int64)
    sel = (slice(None),) + dom.interior
    size = free[sel].size
    free[sel] = np.arange(size).reshape(free[sel].shape)
    laws = {law: solver._element_triplets(dom, free, law) for law in dict.fromkeys((mode, "full"))}
    pattern = np.unique(np.concatenate([keys for keys, _, _ in laws.values()]))
    maps = {law: sp.csr_matrix((value, (np.searchsorted(pattern, keys), coef)),
                               shape=(pattern.size, 2 * free[0].size))
            for law, (keys, coef, value) in laws.items()}
    mp, mm = grid.face_masks(dom)
    data = maps[mode] @ np.concatenate((a_plus.ravel(), a_minus.ravel()))
    if eta != 0.0:
        data += eta * (maps["full"] @ np.concatenate((mp.ravel(), mm.ravel())))
    return data, pattern % size, np.searchsorted(pattern // size, np.arange(size + 1))


@pytest.mark.parametrize("kind", ["dirichlet_box", "cubic_periodic"])
@pytest.mark.parametrize("mode", ["full", "symmetric"])
@pytest.mark.parametrize("n", [8, 9, 12])
def test_fill_is_bit_identical_to_one_map_over_all_components(kind, mode, n):
    dom = grid.build_domain(kind, n)
    rng = np.random.default_rng(n)
    a = np.exp(rng.uniform(-6.0, 6.0, dom.shape))
    mp, mm = grid.face_masks(dom)
    for eta in (0.0, 1e-8, 1e-3, 0.7):
        matrix = solver._frozen_matrix(dom, a * mp, a * mm, eta, mode)
        data, indices, indptr = _one_map_fill(dom, a * mp, a * mm, eta, mode)
        assert np.array_equal(matrix.indptr, indptr)
        assert np.array_equal(matrix.indices, indices)
        assert np.array_equal(matrix.data, data)


@pytest.mark.parametrize("kind", ["dirichlet_box", "cubic_periodic"])
def test_full_law_matrix_is_three_bit_equal_blocks(kind):
    dom = grid.build_domain(kind, 9)
    a = np.exp(np.random.default_rng(1).uniform(-6.0, 6.0, dom.shape))
    mp, mm = grid.face_masks(dom)
    matrix = solver._frozen_matrix(dom, a * mp, a * mm, 1e-3, "full")
    nodes = matrix.shape[0] // 3
    blocks = [matrix[k * nodes:(k + 1) * nodes, k * nodes:(k + 1) * nodes] for k in range(3)]
    assert sum(block.nnz for block in blocks) == matrix.nnz  # no coupling
    for block in blocks[1:]:
        assert np.array_equal(block.indptr, blocks[0].indptr)
        assert np.array_equal(block.indices, blocks[0].indices)
        assert np.array_equal(block.data, blocks[0].data)


@pytest.mark.parametrize("kind", ["dirichlet_box", "cubic_periodic"])
@pytest.mark.parametrize("mode", ["full", "symmetric"])
def test_eta_column_is_eta_times_the_unit_face_data(kind, mode):
    # -eta Lap is the full law's operator with coefficient eta on every face
    dom = grid.build_domain(kind, 8)
    mp, mm = grid.face_masks(dom)
    unit = solver._frozen_matrix(dom, mp, mm, 0.0, "full").toarray()
    for eta in (1e-10, 1e-3, 0.7, 3.0):
        zero = np.zeros(dom.shape)
        got = solver._frozen_matrix(dom, zero, zero, eta, mode).toarray()
        assert np.array_equal(got, eta * unit)


@pytest.mark.parametrize("kind", ["dirichlet_box", "cubic_periodic"])
@pytest.mark.parametrize("n", [8, 11])
@pytest.mark.parametrize("mode", ["full", "symmetric"])
def test_law_map_is_the_coefficient_map_at_eta_zero(kind, n, mode):
    # the fills at eta = 0 skip the eta column through law_map, a view of
    # the coefficient map's leading columns
    _, _, coefficient_map, law_map = solver._assembly(grid.build_domain(kind, n), mode)
    assert np.shares_memory(law_map.data, coefficient_map.data)
    c = np.random.default_rng(n).uniform(0.1, 10.0, law_map.shape[1])
    assert (law_map @ c).tobytes() == (coefficient_map @ np.append(c, 0.0)).tobytes()


def test_assembly_cache_is_bounded():
    solver._assembly.cache_clear()
    maxsize = solver._assembly.cache_info().maxsize
    assert maxsize is not None and maxsize <= 8
    for n in (8, 9, 10):
        for kind in ("dirichlet_box", "cubic_periodic"):
            dom = grid.build_domain(kind, n)
            a = np.ones(dom.shape)
            for mode in ("full", "symmetric"):
                solver._frozen_matrix(dom, a, a, 0.0, mode)
                assert solver._assembly.cache_info().currsize <= maxsize
    assert solver._assembly.cache_info().misses == 12


def test_reference_operator_builds_no_assembly():
    # residual, apply_operator and _apply_pm stay matrix-free: they check the
    # assembled solves independently and warm no cache
    solver._assembly.cache_clear()
    dom = grid.build_domain("dirichlet_box", 8)
    prob = make_problem(dom, 1.5, 0.1, structure="symmetric")
    multigrid.interpolations.cache_clear()
    multigrid._levels.cache_clear()
    v = solver.residual(dom, prob.params, 1e-2, prob.forcing(), prob.forcing())
    solver._apply_pm(dom, *grid.face_masks(dom), 0.0, "full", v)
    assert solver._assembly.cache_info().currsize == 0
    assert multigrid.interpolations.cache_info().currsize == 0
    assert multigrid._levels.cache_info().currsize == 0


# ---------------------------------------------------------------- nonlinear solve


def test_manufactured_recovery():
    """Solve with forcing manufactured from a known smooth field and recover
    that field to well below the outer tolerance floor."""
    dom = grid.build_domain("dirichlet_box", 16)
    target = problems.smooth_test_field(dom, seed=11).values()
    params = ConstitutiveParams(p=1.5, mu=0.1)
    eta = 1e-3
    f = problems.manufactured_discrete(dom, params, eta, target)
    prob = problems.ProblemSpec(dom, params, f=f)
    v, report = solver.solve(prob, solver.SolveConfig(eta=eta, outer_tol=1e-11))
    assert report.converged
    rel = grid.norm(dom, v - target, 2, sobolev_level=1) / grid.norm(dom, target, 2, sobolev_level=1)
    assert rel < 1e-8


def test_two_starts_reach_same_solution():
    dom = grid.build_domain("dirichlet_box", 16)
    prob = make_problem(dom, 1.7, 0.2)
    cfg = solver.SolveConfig(eta=0.0, outer_tol=1e-10)
    v1, _ = solver.solve(prob, cfg)
    rng = np.random.default_rng(9)
    init = grid.apply_constraints(dom, rng.standard_normal((3,) + dom.shape))
    v2, _ = solver.solve(prob, cfg, initial=init)
    gap = grid.norm(dom, v1 - v2, 2, sobolev_level=1) / grid.norm(dom, v1, 2, sobolev_level=1)
    assert gap < 1e-9


def test_histories_track_descent():
    dom = grid.build_domain("dirichlet_box", 16)
    prob = make_problem(dom, 1.7, 0.3)
    _, report = solver.solve(prob, solver.SolveConfig(eta=0.0, outer_tol=1e-9))
    n = report.iterations + 1
    assert len(report.residual_history) == n
    assert len(report.energy_history) == n
    res = report.residual_history
    assert all(r2 <= r1 * (1.0 + 1e-12) for r1, r2 in zip(res, res[1:]))
    ene = report.energy_history
    assert all(e2 <= e1 + 1e-10 * (1.0 + abs(e1)) for e1, e2 in zip(ene, ene[1:]))


def test_report_round_trips_through_json():
    dom = grid.build_domain("dirichlet_box", 12)
    _, report = solver.solve(make_problem(dom, 1.5, 0.4), solver.SolveConfig(outer_tol=1e-8))
    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["converged"] is True
    assert blob["iterations"] == report.iterations
    assert len(blob["residual_history"]) == report.iterations + 1


def test_budget_exhaustion_raises_no_convergence():
    dom = grid.build_domain("dirichlet_box", 12)
    prob = make_problem(dom, 1.4, 0.1)
    with pytest.raises(NoConvergence) as exc:
        solver.solve(prob, solver.SolveConfig(eta=0.0, outer_tol=1e-13, max_outer=2))
    assert exc.value.report.iterations == 2
    assert exc.value.field.shape == (3,) + dom.shape


def test_stagnating_solve_stops_well_before_its_cap(monkeypatch):
    # with plain Kacanov steps, at p = 4, mu = 0, eta = 1e-8 the residual
    # reaches its best, 4.8e-6, at step 36 and then wanders up to 1.8e-5:
    # without the guard the solve ran all 300 steps of its cap
    monkeypatch.setattr(solver, "ANDERSON_DEPTH", 0)
    dom = grid.build_domain("dirichlet_box", 16)
    prob = make_problem(dom, 4.0, 0.0)
    cfg = solver.SolveConfig(eta=1e-8, outer_tol=1e-10, max_outer=300)
    with pytest.raises(NoConvergence, match="no new best residual") as exc:
        solver.solve(prob, cfg)
    history = exc.value.report.residual_history
    best = int(np.argmin(history))
    assert exc.value.report.iterations == best + solver.STALL_STEPS < 100
    assert min(history[best + 1:]) > history[best]
    # the error carries the best iterate, not the last
    f = prob.forcing()
    r = solver.residual(dom, prob.params, cfg.eta, exc.value.field, f)
    assert np.linalg.norm(r) / np.linalg.norm(f) == pytest.approx(history[best], rel=1e-6)


def test_accelerated_solve_of_the_stagnating_reproducer_converges():
    # the solve above, with the Anderson-accelerated steps
    dom = grid.build_domain("dirichlet_box", 16)
    prob = make_problem(dom, 4.0, 0.0)
    cfg = solver.SolveConfig(eta=1e-8, outer_tol=1e-10, max_outer=300)
    v, report = solver.solve(prob, cfg)
    assert report.converged and report.iterations < 50
    assert report.accelerated > 0
    f = prob.forcing()
    r = solver.residual(dom, prob.params, cfg.eta, v, f)
    assert np.linalg.norm(r) <= cfg.outer_tol * np.linalg.norm(f)


@pytest.mark.parametrize("mu, eta", [(float("nan"), 0.0), (0.1, float("nan"))])
def test_solve_raises_on_non_finite_residual_or_energy(mu, eta):
    # at p = 2 a nan mu leaves the coefficient nan**0 == 1, so only the
    # energy shows it; a nan eta poisons the residual.  SolveConfig refuses a
    # nan eta, so it is set on a built config, which a caller can still do
    dom = grid.build_domain("dirichlet_box", 8)
    config = solver.SolveConfig()
    config.eta = eta
    with pytest.raises(NonFinite):
        solver.solve(make_problem(dom, 2.0, mu), config)


@pytest.mark.parametrize("overflowed", [1, 4])
def test_an_overflowing_trial_or_candidate_energy_is_rejected(monkeypatch, recwarn, overflowed):
    # call 1 is the first step's line-search trial, call 4 an Anderson
    # candidate; each overflows to inf and then to inf - inf = nan, inside
    # the solve's own floating-point state, so no warning is issued
    dom = grid.build_domain("dirichlet_box", 8)
    prob = make_problem(dom, 1.5, 0.1)
    calls, energy = [], solver.energy

    def overflowing(*args):
        calls.append(1)
        if len(calls) - 1 in (overflowed, overflowed + 1):
            huge = np.float64(1e308) * 10.0
            return float(huge if len(calls) - 1 == overflowed else huge - huge)
        return energy(*args)

    monkeypatch.setattr(solver, "energy", overflowing)
    v, report = solver.solve(prob, solver.SolveConfig(eta=0.0, outer_tol=1e-10))
    assert report.converged
    assert report.backtracks + report.restarts >= 2
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_accepted_trial_energy_is_carried_forward(monkeypatch):
    dom = grid.build_domain("dirichlet_box", 12)
    prob = make_problem(dom, 1.5, 0.1)
    calls = {"energy": 0, "pair": 0, "magnitudes": 0}
    energy, pm_gradients, structure_mag = solver.energy, solver._pm_gradients, solver._structure_mag

    def counting_energy(*args):
        calls["energy"] += 1
        return energy(*args)

    def counting_pm_gradients(*args):
        calls["pair"] += 1
        return pm_gradients(*args)

    def counting_structure_mag(*args):
        calls["magnitudes"] += 1
        return structure_mag(*args)

    monkeypatch.setattr(solver, "energy", counting_energy)
    monkeypatch.setattr(solver, "_pm_gradients", counting_pm_gradients)
    monkeypatch.setattr(solver, "_structure_mag", counting_structure_mag)
    cfg = solver.SolveConfig(eta=1e-3, outer_tol=1e-10)
    v, report = solver.solve(prob, cfg)
    assert report.iterations > 3
    # one evaluation per accepted trial, rejected backtrack or rejected
    # Anderson candidate, plus the start; the accepted trial's gradient pair,
    # with the law magnitudes its energy took, also gives the next coefficient
    assert report.accelerated > 0
    pairs = 1 + report.iterations + report.backtracks + report.restarts
    assert calls["energy"] == calls["pair"] == pairs
    assert calls["magnitudes"] == 2 * pairs
    assert report.energy_history[-1] == energy(v, prob, cfg.eta)


@pytest.mark.parametrize("kind", ["dirichlet_box", "cubic_periodic"])
@pytest.mark.parametrize("structure", ["full", "symmetric"])
@pytest.mark.parametrize("eta", [0.0, 1e-3])
def test_a_pair_gives_the_values_of_no_pair_bit_for_bit(kind, structure, eta):
    dom = grid.build_domain(kind, 10)
    prob = make_problem(dom, 1.6, 0.05, structure=structure)
    v = grid.apply_constraints(dom, np.random.default_rng(4).standard_normal((3,) + dom.shape))
    plain_energy = solver.energy(v, prob, eta)
    plain_coefficients = solver.coefficient_field(dom, prob.params, v)
    # magnitudes taken by energy, then reused by coefficient_field ...
    pair = solver._pm_gradients(dom, v)
    assert solver.energy(v, prob, eta, pair) == plain_energy
    carried = solver.coefficient_field(dom, prob.params, v, pair)
    # ... and taken by coefficient_field, then reused by energy
    pair = solver._pm_gradients(dom, v)
    first = solver.coefficient_field(dom, prob.params, v, pair)
    assert solver.energy(v, prob, eta, pair) == plain_energy
    for got in (carried, first):
        assert got[2] == plain_coefficients[2]
        assert all(np.array_equal(a, b) for a, b in zip(got[:2], plain_coefficients[:2]))


def test_a_pair_s_magnitudes_are_never_reused_under_the_other_law(monkeypatch):
    dom = grid.build_domain("cubic_periodic", 9)
    v = grid.apply_constraints(dom, np.random.default_rng(5).standard_normal((3,) + dom.shape))
    probs = {law: make_problem(dom, 1.6, 0.05, structure=law) for law in ("full", "symmetric")}
    plain = {law: (solver.energy(v, prob, 1e-3), solver.coefficient_field(dom, prob.params, v))
             for law, prob in probs.items()}
    calls = []
    structure_mag = solver._structure_mag

    def counting_structure_mag(grad, structure):
        calls.append(structure)
        return structure_mag(grad, structure)

    monkeypatch.setattr(solver, "_structure_mag", counting_structure_mag)
    pair = solver._pm_gradients(dom, v)
    for law in ("full", "symmetric", "full", "symmetric"):
        prob = probs[law]
        got = solver.coefficient_field(dom, prob.params, v, pair)
        assert all(np.array_equal(a, b) for a, b in zip(got[:2], plain[law][1][:2]))
        assert solver.energy(v, prob, 1e-3, pair) == plain[law][0]
        assert calls[-2:] == [law, law]  # taken afresh on each switch, once per law
    assert len(calls) == 8


# (inner solves before every trial is rejected, the failing step's count of
# restarts, of accepted candidates and of trials): at step 2 a candidate
# leads the list, so its 42 trials are the rejected candidate and the 41
# Kacanov trials
@pytest.mark.parametrize("rejected_from, restarts, accelerated, last_trials",
                         [(1, 0, 0, 41), (3, 1, 1, 42)], ids=["plain", "candidate"])
def test_exhausted_line_search_raises(monkeypatch, rejected_from, restarts, accelerated,
                                      last_trials):
    # every trial from inner solve rejected_from on is rejected: after 40
    # halvings the solve stops, naming the step, both energies and p, with
    # the last iterate as its best, and takes no uphill step
    dom = grid.build_domain("dirichlet_box", 8)
    prob = make_problem(dom, 1.5, 0.1)
    energy, pcg, trials = solver.energy, solver._pcg, [[]]  # per step; [0] is the start

    def counting_pcg(*args):
        trials.append([])
        return pcg(*args)

    def rejecting_energy(v, *args):
        trials[-1].append(v)
        return energy(v, *args) + (1.0 if len(trials) > rejected_from else 0.0)

    monkeypatch.setattr(solver, "_pcg", counting_pcg)
    monkeypatch.setattr(solver, "energy", rejecting_energy)
    step = rejected_from - 1
    with pytest.raises(NoConvergence, match=rf"line search failed at outer step {step}: 40 "
                       r"halvings of the Kacanov step all raise the energy "
                       r"-?\d\.\d{6}e[+-]\d+ \(the last to -?\d\.\d{6}e[+-]\d+; p = 1.5\)") as exc:
        solver.solve(prob, solver.SolveConfig(eta=1e-3, max_outer=5))
    report = exc.value.report
    assert report.backtracks == 40 and report.iterations == step
    assert (report.restarts, report.accelerated) == (restarts, accelerated)
    assert len(trials) == 1 + rejected_from and len(trials[-1]) == last_trials
    assert exc.value.field is trials[-2][-1]


def test_solve_refuses_a_continuation_path():
    # the path is continuation_solve's to walk; solve must not drop it and
    # solve once at config.eta
    dom = grid.build_domain("dirichlet_box", 8)
    path = solver.ContinuationPath.geometric(eta0=1e-2, mu0=0.0, eta_floor=1e-4)
    for mu in (0.0, 0.1):
        with pytest.raises(DegenerateConfig, match="continuation_solve"):
            solver.solve(make_problem(dom, 1.5, mu), solver.SolveConfig(continuation=path))


def test_rejected_candidate_takes_the_kacanov_step_and_clears_the_history(monkeypatch):
    # the first Anderson candidate, on the second outer step, is penalised:
    # that step falls back to the full Kacanov step, the next step has no
    # history and so no candidate, and the one after has a candidate again.
    # The trials are built as tried: a step whose candidate passes makes no
    # field of its inner solve's answer x, which only the Kacanov trials need
    dom = grid.build_domain("dirichlet_box", 12)
    prob = make_problem(dom, 1.5, 0.1)
    pcg, energy, field = solver._pcg, solver.energy, solver._field
    # each inner solve's answer and field; each step's trials and fields of x
    answers, images, trials, fields = [], [], [], []

    def recording_pcg(*args):
        x, k = pcg(*args)
        answers.append(x)
        images.append(field(dom, x))
        trials.append([])
        fields.append(0)
        return x, k

    def counting_field(domain, x):
        if answers and x is answers[-1]:
            fields[-1] += 1
        return field(domain, x)

    def penalising_energy(v, *args):
        if trials:
            trials[-1].append(v)
        return energy(v, *args) + (1.0 if len(trials) == 2 and len(trials[1]) == 1 else 0.0)

    monkeypatch.setattr(solver, "_pcg", recording_pcg)
    monkeypatch.setattr(solver, "energy", penalising_energy)
    monkeypatch.setattr(solver, "_field", counting_field)
    v, report = solver.solve(prob, solver.SolveConfig(eta=1e-3, outer_tol=1e-10))
    assert report.converged and report.restarts == 1 and report.backtracks == 0

    def is_kacanov(step, trial):  # v + 1 * (image - v) equals the image to roundoff
        return np.max(np.abs(trial - images[step])) <= 1e-12 * np.max(np.abs(images[step]))

    assert [len(t) for t in trials[:4]] == [1, 2, 1, 1]
    assert [is_kacanov(k, t[0]) for k, t in enumerate(trials[:4])] == [True, False, True, False]
    assert is_kacanov(1, trials[1][1])
    # every later step accepts its candidate, and each step's accepted trial
    # is its last one
    assert report.accelerated == report.iterations - 3
    assert all(len(t) == 1 for t in trials[2:])
    assert fields == [1, 1, 1] + [0] * report.accelerated
    f = prob.forcing()
    r = solver.residual(dom, prob.params, 1e-3, v, f)
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(f)


@pytest.mark.parametrize("kind, p, mu, structure, eta", [
    ("dirichlet_box", 1.4, 0.0, "full", 1e-3),
    ("cubic_periodic", 1.5, 0.1, "symmetric", 0.0),
    ("dirichlet_box", 3.0, 0.1, "full", 0.0),
    ("cubic_periodic", 2.6, 0.5, "symmetric", 1e-3),
])
def test_accelerated_energy_never_rises_past_the_slack(kind, p, mu, structure, eta):
    dom = grid.build_domain(kind, 12)
    _, report = solver.solve(make_problem(dom, p, mu, structure=structure),
                             solver.SolveConfig(eta=eta, outer_tol=1e-10))
    assert report.converged and report.accelerated > 0
    ene = report.energy_history
    assert all(e2 <= e1 + 1e-12 * (1.0 + abs(e1)) for e1, e2 in zip(ene, ene[1:]))


def test_two_runs_of_an_accelerated_solve_are_bit_identical():
    dom = grid.build_domain("cubic_periodic", 12)
    prob = make_problem(dom, 1.4, 0.0, rhs_id="band-limited-random", seed=3)
    path = solver.ContinuationPath.geometric(eta0=1e-2, mu0=0.0, eta_floor=1e-4, mu_floor=0.0)
    cfg = solver.SolveConfig(outer_tol=1e-10, continuation=path)
    (v1, rep1), (v2, rep2) = (solver.continuation_solve(prob, cfg) for _ in range(2))
    assert rep1.path_totals["accelerated"] > 0
    assert np.array_equal(v1, v2)
    assert json.dumps(rep1.to_dict()) == json.dumps(rep2.to_dict())


# ---------------------------------------------------------------- energy


def test_stress_potential_closed_forms():
    t = np.linspace(0.0, 5.0, 11)
    np.testing.assert_allclose(solver.stress_potential(t, 2.0, 0.0), t ** 2 / 2.0, rtol=1e-14)
    np.testing.assert_allclose(solver.stress_potential(t, 1.5, 0.0), t ** 1.5 / 1.5, rtol=1e-14)


def test_stress_potential_matches_quadrature():
    def integrand(s, p, mu):
        if mu == 0.0 and s == 0.0:
            return 0.0
        return (mu + s) ** (p - 2.0) * s

    for p, mu in [(1.5, 0.0), (1.5, 0.7), (2.5, 0.3), (3.5, 1.0), (2.0, 0.0)]:
        for t in (0.0, 0.3, 1.7, 9.0):
            want = quad(integrand, 0.0, t, args=(p, mu), epsabs=1e-14, epsrel=1e-13)[0]
            got = float(solver.stress_potential(np.asarray(t), p, mu))
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


@pytest.mark.parametrize(
    "p,mu,eta,mode",
    [(1.5, 0.5, 0.0, "full"), (2.5, 0.2, 1e-2, "symmetric")],
)
def test_energy_gradient_is_the_operator(p, mu, eta, mode):
    """Central difference of the energy along a random direction must match
    h^3 <A(v) - f, w>; this ties the minimized functional to the operator."""
    dom = grid.build_domain("dirichlet_box", 12)
    prob = make_problem(dom, p, mu, structure=mode)
    rng = np.random.default_rng(7)
    v = grid.apply_constraints(dom, rng.standard_normal((3,) + dom.shape))
    w = grid.apply_constraints(dom, rng.standard_normal((3,) + dom.shape))
    s = 1e-6
    fd = (solver.energy(v + s * w, prob, eta) - solver.energy(v - s * w, prob, eta)) / (2 * s)
    f = prob.forcing()
    an = dom.h ** 3 * np.sum((solver.apply_operator(dom, prob.params, eta, v) - f) * w)
    assert abs(fd - an) <= 1e-5 * abs(an)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["dirichlet_box", "cubic_periodic"]),
       mode=st.sampled_from(["full", "symmetric"]), p=st.sampled_from([1.4, 1.8, 2.5, 4.0]),
       mu=st.sampled_from([0.0, 0.1, 1.0]), eta=st.sampled_from([0.0, 1e-3, 0.5]),
       scale=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
def test_energy_gradient_is_apply_pm_on_random_fields(kind, mode, p, mu, eta, scale, seed):
    # the safeguard that accepts a step on its energy rests on this identity
    dom = grid.build_domain(kind, 9)
    prob = make_problem(dom, p, mu, structure=mode)
    rng = np.random.default_rng(seed)
    v, w = (grid.apply_constraints(dom, scale * rng.standard_normal((3,) + dom.shape))
            for _ in range(2))
    s = 1e-4 * scale

    def central(k):
        return solver.energy(v + k * s * w, prob, eta) - solver.energy(v - k * s * w, prob, eta)

    fd = (8.0 * central(1) - central(2)) / (12.0 * s)  # fourth-order central difference
    a_plus, a_minus, _ = solver.coefficient_field(dom, prob.params, v)
    op = solver._apply_pm(dom, a_plus, a_minus, eta, mode, v)
    an = dom.h ** 3 * np.sum((op - prob.forcing()) * w)
    assert abs(fd - an) <= 1e-6 * abs(an)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["dirichlet_box", "cubic_periodic"]),
       mode=st.sampled_from(["full", "symmetric"]), mu=st.floats(0.0, 10.0),
       eta=st.sampled_from([0.0, 1e-3, 0.5]), seed=st.integers(0, 2**32 - 1))
def test_p2_collapses_onto_the_linear_operator_on_random_fields(kind, mode, mu, eta, seed):
    # at p = 2 every mu gives the face masks as coefficients, the operator is
    # the frozen one with unit coefficient (on the full law -(1 + eta) Lap),
    # and the energy is its quadratic form
    dom = grid.build_domain(kind, 9)
    prob = make_problem(dom, 2.0, mu, structure=mode)
    rng = np.random.default_rng(seed)
    v = grid.apply_constraints(dom, rng.standard_normal((3,) + dom.shape))
    a_plus, a_minus, _ = solver.coefficient_field(dom, prob.params, v)
    mp, mm = grid.face_masks(dom)
    assert np.array_equal(a_plus, mp) and np.array_equal(a_minus, mm)
    op = solver.apply_operator(dom, prob.params, eta, v)
    assert np.array_equal(op, solver._apply_pm(dom, mp, mm, eta, mode, v))
    if mode == "full":
        lap = -(1.0 + eta) * grid.apply_constraints(dom, grid.laplacian(dom, v))
        assert np.linalg.norm(op - lap) <= 1e-12 * np.linalg.norm(lap)
    f = prob.forcing()
    quadratic = dom.h ** 3 * (0.5 * np.sum(op * v) - np.sum(f * v))
    assert solver.energy(v, prob, eta) == pytest.approx(quadratic, rel=1e-12)


# ---------------------------------------------------------------- continuation


def test_continuation_second_derivatives_stay_bounded():
    """Degenerate p < 2, mu = 0: walking eta down four decades must keep
    ||D^2 v||_2 inside a narrow band and produce geometrically shrinking
    warm-start deltas (the Cauchy behavior the eta -> 0 limit relies on)."""
    dom = grid.build_domain("dirichlet_box", 16)
    prob = make_problem(dom, 1.5, 0.0)
    path = solver.ContinuationPath.geometric(
        eta0=1e-2, mu0=0.0, ratio=0.5, eta_floor=1e-8, mu_floor=0.0
    )
    v, report = solver.continuation_solve(
        prob, solver.SolveConfig(outer_tol=1e-10, continuation=path)
    )
    trace = report.continuation_trace
    assert len(trace) == len(path.eta_path)
    d2 = [row[2] for row in trace]
    assert max(d2) / min(d2) < 1.05
    deltas = [row[3] for row in trace[1:]]
    assert all(d2_ <= 0.8 * d1_ for d1_, d2_ in zip(deltas[1:], deltas[2:]))
    assert np.all(np.isfinite(v))


def test_continuation_at_p2_is_inert_in_mu():
    # mu does not enter the p = 2 law, so every warm start is already the
    # answer and the path must coast with zero deltas
    dom = grid.build_domain("cubic_periodic", 12)
    prob = make_problem(dom, 2.0, 0.0, seed=2)
    path = solver.ContinuationPath.geometric(
        eta0=0.0, mu0=1e-1, ratio=0.5, eta_floor=0.0, mu_floor=1e-6
    )
    v, report = solver.continuation_solve(
        prob, solver.SolveConfig(outer_tol=1e-11, continuation=path)
    )
    deltas = [row[3] for row in report.continuation_trace[1:]]
    assert max(deltas) <= 1e-14
    direct, _ = solver.solve(prob, solver.SolveConfig(outer_tol=1e-11))
    assert np.max(np.abs(v - direct)) <= 1e-15


def test_reversed_path_stalls():
    dom = grid.build_domain("dirichlet_box", 12)
    prob = make_problem(dom, 1.4, 0.0)
    bad = solver.ContinuationPath(
        eta_path=(1e-2, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0), mu_path=(0.0,) * 7
    )
    with pytest.raises(PathStalled) as exc:
        solver.continuation_solve(prob, solver.SolveConfig(outer_tol=1e-10, continuation=bad))
    assert len(exc.value.trace) >= 4


def test_continuation_propagates_no_convergence():
    dom = grid.build_domain("dirichlet_box", 16)
    prob = make_problem(dom, 1.5, 0.0)
    path = solver.ContinuationPath.geometric(
        eta0=1e-2, mu0=0.0, ratio=0.5, eta_floor=1e-4, mu_floor=0.0
    )
    with pytest.raises(NoConvergence) as exc:
        solver.continuation_solve(
            prob, solver.SolveConfig(outer_tol=1e-12, max_outer=1, continuation=path)
        )
    assert exc.value.report.iterations == 1


def test_predicted_start_ratio_rule():
    v, v_prev = np.array([3.0, -1.0]), np.array([1.0, 1.0])
    start = solver._predicted_start

    def predicted(r):
        return v + r * (v - v_prev)

    geometric = solver.ContinuationPath.geometric(eta0=1e-2, mu0=0.0, eta_floor=1e-4)
    assert np.allclose(start(geometric, 2, v, v_prev), predicted(0.5), rtol=1e-13)
    # eta floors at step 2 while mu keeps moving, by 0.75 of its last step
    # at step 4; at step 3 eta's own ratio, 0, still holds
    joint = solver.ContinuationPath((4.0, 2.0, 1.0, 1.0, 1.0), (1.0, 0.5, 0.25, 0.125, 0.03125))
    assert np.array_equal(start(joint, 3, v, v_prev), v)
    assert np.array_equal(start(joint, 4, v, v_prev), predicted(0.75))
    flat = solver.ContinuationPath((1e-3,) * 3, (0.1,) * 3)
    assert np.array_equal(start(flat, 2, v, v_prev), v)
    assert np.array_equal(start(geometric, 1, v, v_prev), v)


def test_continuation_starts_steps_from_the_secant_predictor(monkeypatch):
    # step 0 starts from the Poisson solution, step 1 from step 0's solution
    # and every later step from the predictor of the last two
    dom = grid.build_domain("dirichlet_box", 8)
    prob = make_problem(dom, 1.4, 0.0)
    path = solver.ContinuationPath.geometric(eta0=1e-2, mu0=0.0, eta_floor=2.5e-3)
    solve, starts, fields = solver.solve, [], []

    def recording_solve(problem, config, initial=None, **kwargs):
        starts.append(initial)
        v, report = solve(problem, config, initial, **kwargs)
        fields.append(v)
        return v, report

    monkeypatch.setattr(solver, "solve", recording_solve)
    solver.continuation_solve(prob, solver.SolveConfig(outer_tol=1e-10, continuation=path))
    assert len(starts) == len(path.eta_path) == 3
    assert starts[0] is None
    assert np.array_equal(starts[1], fields[0])
    assert np.array_equal(starts[2], fields[1] + 0.5 * (fields[1] - fields[0]))


def test_secant_predictor_cuts_outer_steps_on_the_degenerate_path(monkeypatch):
    """On the short p = 1.4, mu = 0 path of the 8^3 box the predicted starts
    take fewer outer steps than plain warm starts, to the same field."""
    dom = grid.build_domain("dirichlet_box", 8)
    prob = make_problem(dom, 1.4, 0.0)
    path = solver.ContinuationPath.geometric(
        eta0=1e-2, mu0=0.0, ratio=0.5, eta_floor=1e-4, mu_floor=0.0
    )
    cfg = solver.SolveConfig(outer_tol=1e-10, max_outer=300, continuation=path)
    v, predicted = solver.continuation_solve(prob, cfg)
    monkeypatch.setattr(solver, "_predicted_start", lambda path, j, v, v_prev: v)
    w, warm = solver.continuation_solve(prob, cfg)
    assert predicted.path_totals["outer"] < warm.path_totals["outer"]
    assert np.linalg.norm(v - w) <= 1e-8 * np.linalg.norm(w)


# ---------------------------------------------------------------- frozen system


def test_frozen_p2_is_one_poisson_sweep():
    dom = grid.build_domain("dirichlet_box", 16)
    f = grid.apply_constraints(dom, problems.rhs_sample(dom, "smooth-trig", 1.0))
    rng = np.random.default_rng(0)
    u_base = grid.apply_constraints(dom, rng.standard_normal((3,) + dom.shape) * 0.1)
    w, report = solver.frozen_linear_solve(dom, u_base, dom.h, 2.0, 0.5, f)
    assert report.iterations == 1
    assert report.converged
    np.testing.assert_allclose(w, poisson_solve(dom, f), atol=1e-15)


def test_frozen_solve_validation():
    dom = grid.build_domain("dirichlet_box", 8)
    f = dom.zeros((3,))
    u = dom.zeros((3,))
    with pytest.raises(CoefficientBlowup):
        solver.frozen_linear_solve(dom, u, dom.h, 1.5, 0.0, f)
    with pytest.raises(ValueError):
        solver.frozen_linear_solve(dom, u, dom.h, 2.5, 0.5, f)


def test_frozen_updates_approach_base_as_eps_shrinks():
    """w_eps is built to converge to the base field: the W^{1,2} gap must
    shrink monotonically along eps = 4h, 2h, h and the mollified-secant
    coefficient must stay below one plus a grid-scale allowance."""
    dom = grid.build_domain("dirichlet_box", 16)
    f = grid.apply_constraints(dom, problems.rhs_sample(dom, "smooth-trig", 1.0))
    prob = problems.ProblemSpec(dom, ConstitutiveParams(p=1.5, mu=0.5), f=f)
    u, _ = solver.solve(prob, solver.SolveConfig(outer_tol=1e-10))
    gaps = []
    for m in (4, 2, 1):
        w, report = solver.frozen_linear_solve(dom, u, m * dom.h, 1.5, 0.5, f)
        assert report.converged
        assert report.coef_max <= 1.0 + 5.0 * dom.h
        gaps.append(grid.norm(dom, w - u, 2, sobolev_level=1))
    assert gaps[1] < gaps[0]
    assert gaps[2] < gaps[1]


# ---------------------------------------------------------------- preconditioner


def _short_p14_path(monkeypatch, preconditioner, structure="full"):
    """(problem, eta, v, report) of each step of a short p = 1.4, mu = 0
    continuation on the 8^3 box whose inner solves use the "plain" Poisson
    inverse, the "scaled" one alone, or the solver's own choice ("switch")."""
    dom = grid.build_domain("dirichlet_box", 8)
    prob = make_problem(dom, 1.4, 0.0, structure=structure)
    path = solver.ContinuationPath.geometric(
        eta0=1e-2, mu0=0.0, ratio=0.5, eta_floor=1e-4, mu_floor=0.0
    )
    cfg = solver.SolveConfig(outer_tol=1e-10, max_outer=300, continuation=path)
    pcg, solve = solver._pcg, solver.solve
    steps = []

    def plain_pcg(domain, apply_a, precondition, b, x0, r0, rtol, maxiter):
        return pcg(domain, apply_a, solver._preconditioner(domain), b, x0, r0, rtol, maxiter)

    def recording_solve(problem, config, initial=None, **kwargs):
        v, report = solve(problem, config, initial, **kwargs)
        steps.append((problem, config.eta, v, report))
        return v, report

    with monkeypatch.context() as m:
        if preconditioner != "switch":  # no inner solve builds a V-cycle
            m.setattr(solver, "MULTIGRID_AFTER", 10**9)
        if preconditioner == "plain":
            m.setattr(solver, "_pcg", plain_pcg)
        m.setattr(solver, "solve", recording_solve)
        solver.continuation_solve(prob, cfg)
    assert len(steps) == len(path.eta_path)
    f = prob.forcing()
    for problem, eta, v, _ in steps:
        r = solver.residual(dom, problem.params, eta, v, f)
        assert np.linalg.norm(r) <= cfg.outer_tol * np.linalg.norm(f)
    return steps


def _inner_total(steps):
    return sum(rep.inner_iterations for *_, rep in steps)


def test_coefficient_scaling_cuts_pcg_iterations(monkeypatch):
    """The coefficient-scaled preconditioner by itself, with the switch to
    multigrid off, needs fewer PCG iterations than the plain Poisson inverse,
    and every step still meets the outer tolerance."""
    scaled = _short_p14_path(monkeypatch, "scaled")
    assert _inner_total(scaled) < _inner_total(_short_p14_path(monkeypatch, "plain"))


def test_multigrid_switch_cuts_pcg_iterations_further(monkeypatch):
    """On the same path the switch to multigrid needs fewer PCG iterations
    than the scaled inverse alone, and every step meets the tolerance."""
    switch = _short_p14_path(monkeypatch, "switch")
    assert _inner_total(switch) < _inner_total(_short_p14_path(monkeypatch, "scaled"))


def test_multigrid_switch_carries_along_the_path(monkeypatch):
    """Once a path step ends switched, every later step builds a V-cycle for
    its first inner solve, at outer step 0, and for every one after it."""
    record, built = _recording_pcg(monkeypatch), _counting_vcycles(monkeypatch)
    steps = _short_p14_path(monkeypatch, "switch")
    reports = [rep for *_, rep in steps]
    assert len(record) == sum(rep.iterations for rep in reports)
    assert sum(k for _, k in record) == _inner_total(steps)
    assert len(built) == sum(used for used, _ in record)
    # each step's inner solves, one per outer step short of its last
    ends = np.cumsum([rep.iterations for rep in reports])
    per_step = [record[end - rep.iterations:end] for end, rep in zip(ends, reports)]
    first = next(j for j, rep in enumerate(reports) if rep.multigrid)
    assert first < len(reports) - 1
    assert not per_step[0][0][0]  # the path starts on the scaled inverse
    assert any(per_step[first + 1:])  # a step that converges at outer step 0 runs none
    for inner, rep in zip(per_step[first + 1:], reports[first + 1:]):
        assert all(used for used, _ in inner) and rep.multigrid


def test_a_symmetric_law_continuation_builds_no_v_cycle(monkeypatch):
    built = _counting_vcycles(monkeypatch)
    steps = _short_p14_path(monkeypatch, "switch", structure="symmetric")
    assert built == []
    assert not any(rep.multigrid for *_, rep in steps)


@pytest.mark.parametrize("p, mu, structure", [(1.4, 0.0, "symmetric"), (3.0, 0.1, "full")])
def test_the_multigrid_start_is_ignored_off_the_full_law_below_2(monkeypatch, p, mu, structure):
    """solve(..., multigrid=True) starts on the V-cycle only on the full law
    with p < 2 (VCycle has no cycle for the symmetric law's pattern): here it
    gives the same field bytes and counts as multigrid=False."""
    built = _counting_vcycles(monkeypatch)
    dom = grid.build_domain("dirichlet_box", 8)
    prob = make_problem(dom, p, mu, structure=structure)
    cfg = solver.SolveConfig(eta=1e-3, outer_tol=1e-10, max_outer=300)
    (v0, rep0), (v1, rep1) = (solver.solve(prob, cfg, multigrid=flag) for flag in (False, True))
    assert rep0.converged and rep0.inner_iterations > 0
    assert v1.tobytes() == v0.tobytes()
    assert rep1 == rep0 and not rep1.multigrid
    assert built == []


# (outer, inner) iterations of criterion 5's p = 3 solve at each eta; plain
# Kacanov steps took (177, 187) at both
PINNED_P3_COUNTS = {0.0: (20, 65), 1e-3: (20, 64)}


@pytest.mark.parametrize("eta", [0.0, 1e-3])
def test_p3_manufactured_counts_unchanged(eta):
    """p >= 2 keeps the plain Poisson preconditioner: the acceptance
    criterion-5 solve at p = 3, mu = 0.1 on the 24^3 box keeps its counts."""
    dom = grid.build_domain("dirichlet_box", 24)
    target = problems.smooth_test_field(dom, seed=11).values()
    params = ConstitutiveParams(p=3.0, mu=0.1)
    f = problems.manufactured_discrete(dom, params, eta, target)
    _, report = solver.solve(
        problems.ProblemSpec(dom, params, f=f),
        solver.SolveConfig(eta=eta, outer_tol=1e-9, max_outer=300),
    )
    assert (report.iterations, report.inner_iterations) == PINNED_P3_COUNTS[eta]


def _recording_pcg(monkeypatch, forced_rtol=None):
    """Record (multigrid?, iterations) of every inner solve, each run to
    forced_rtol instead of the solver's own tolerance when one is given."""
    record, pcg = [], solver._pcg

    def recording(domain, apply_a, precondition, b, x0, r0, rtol, maxiter):
        x, k = pcg(domain, apply_a, precondition, b, x0, r0, forced_rtol or rtol, maxiter)
        record.append((isinstance(precondition, multigrid.VCycle), k))
        return x, k

    monkeypatch.setattr(solver, "_pcg", recording)
    return record


def _counting_vcycles(monkeypatch):
    built = []

    class Counting(multigrid.VCycle):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(multigrid, "VCycle", Counting)
    return built


def test_multigrid_switch_is_sticky_after_an_inner_solve_over_k(monkeypatch):
    # on this solve the first scaled inner solve needs 3 <= K iterations and
    # the second more than K; from then on every step builds a V-cycle
    record, built = _recording_pcg(monkeypatch), _counting_vcycles(monkeypatch)
    dom = grid.build_domain("dirichlet_box", 9)
    prob = make_problem(dom, 1.3, 0.0)
    cfg = solver.SolveConfig(eta=1e-2, outer_tol=1e-10, max_outer=300)
    v, report = solver.solve(prob, cfg)
    assert report.converged
    first = next(i for i, (_, k) in enumerate(record) if k > solver.MULTIGRID_AFTER)
    assert first >= 1
    assert not any(used for used, _ in record[: first + 1])
    assert all(used for used, _ in record[first + 1:])
    assert len(built) == len(record) - first - 1 > 0
    assert sum(k for _, k in record) == report.inner_iterations
    r = solver.residual(dom, prob.params, cfg.eta, v, prob.forcing())
    assert np.linalg.norm(r) <= cfg.outer_tol * np.linalg.norm(prob.forcing())


@pytest.mark.parametrize("p, structure", [(2.0, "full"), (3.0, "full"), (1.4, "symmetric")])
def test_no_hierarchy_at_p_at_least_2_or_on_the_symmetric_law(monkeypatch, p, structure):
    # the plain Poisson inverse serves p >= 2 and the scaled one the symmetric
    # law's p < 2, even when an inner solve is long: every inner solve here
    # runs to 1e-10, which the solver's own rule never asks of the first ones
    record = _recording_pcg(monkeypatch, forced_rtol=1e-10)
    built = _counting_vcycles(monkeypatch)
    multigrid.interpolations.cache_clear()
    dom = grid.build_domain("dirichlet_box", 8)
    cfg = solver.SolveConfig(eta=1e-3, outer_tol=1e-10, max_outer=300)
    mu = 0.0 if p <= 2.0 else 0.1
    _, report = solver.solve(make_problem(dom, p, mu, structure=structure), cfg)
    assert report.converged
    assert max(k for _, k in record) > (0 if p == 2.0 else solver.MULTIGRID_AFTER)
    assert built == []
    assert multigrid.interpolations.cache_info().currsize == 0


def test_periodic_joint_path_beats_the_plain_poisson_inverse(monkeypatch):
    """The joint (eta, mu) tail on the slab at odd n: the coefficient-scaled
    inverse alone took more PCG iterations here than the plain one (575
    against 542); with the switch to multigrid the path takes fewer.  The
    preconditioners are compared on plain Kacanov steps, which the
    accelerated path needs more of, from plain warm starts."""
    dom = grid.build_domain("cubic_periodic", 9)
    prob = make_problem(dom, 1.5, 0.0)
    path = solver.ContinuationPath.geometric(eta0=2e-6, mu0=2e-6, eta_floor=1e-8, mu_floor=1e-8)
    cfg = solver.SolveConfig(continuation=path)
    pcg = solver._pcg

    def plain_pcg(domain, apply_a, precondition, b, x0, r0, rtol, maxiter):
        return pcg(domain, apply_a, solver._preconditioner(domain), b, x0, r0, rtol, maxiter)

    # plain warm starts: with the secant predictor both preconditioners need
    # about as many PCG iterations on this path (288 against 293)
    monkeypatch.setattr(solver, "_predicted_start", lambda path, j, v, v_prev: v)
    _, accelerated = solver.continuation_solve(prob, cfg)
    monkeypatch.setattr(solver, "ANDERSON_DEPTH", 0)
    _, ours = solver.continuation_solve(prob, cfg)
    monkeypatch.setattr(solver, "_pcg", plain_pcg)
    _, plain = solver.continuation_solve(prob, cfg)
    assert ours.path_totals["solves"] == plain.path_totals["solves"] == len(path.eta_path)
    assert abs(ours.path_totals["outer"] - plain.path_totals["outer"]) <= 2
    assert ours.path_totals["inner"] < 0.75 * plain.path_totals["inner"]
    assert ours.path_totals["accelerated"] == plain.path_totals["accelerated"] == 0
    assert accelerated.path_totals["outer"] < ours.path_totals["outer"]
