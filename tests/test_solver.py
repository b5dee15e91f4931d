"""Tests for the nonlinear solver: secant iteration, subsolver, continuation,
and the frozen-coefficient linear companion.

Numeric tolerances were frozen from independent oracle runs (dense matrix
assembly from unit vectors, scipy quadrature for the stress potential,
central differences for the energy gradient).
"""

import json

import numpy as np
import pytest
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
    with pytest.raises(ValueError):
        solver.ContinuationPath.geometric(ratio=1.5)


def test_solve_config_validation():
    with pytest.raises(ValueError):
        solver.SolveConfig(eta=-1e-3)
    with pytest.raises(ValueError):
        solver.SolveConfig(outer_tol=0.0)


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
    v, report = solver.solve(prob, solver.SolveConfig(eta=0.5, outer_tol=1e-9, inner_tol=1e-12))
    assert report.iterations <= 1
    np.testing.assert_allclose(v, poisson_solve(dom, prob.forcing()) / 1.5, atol=1e-13)


def test_unit_coefficient_subsolve_matches_poisson():
    # a == 1 in full-gradient mode is exactly the 7-point Laplacian, and the
    # preconditioner inverts it, so PCG lands on the answer in one step
    dom = grid.build_domain("dirichlet_box", 16)
    f = grid.apply_constraints(dom, problems.rhs_sample(dom, "smooth-trig", 1.0))
    w = solver.linear_subsolve(np.ones(dom.shape), 0.0, f, dom, mode="full", rtol=1e-13)
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

    free = np.zeros((3,) + dom.shape, dtype=bool)
    free[(slice(None),) + dom.interior] = True
    idx = np.where(free.ravel())[0]

    cols = []
    for k in idx:
        e = np.zeros(3 * int(np.prod(dom.shape)))
        e[k] = 1.0
        w = e.reshape((3,) + dom.shape)
        cols.append(solver.apply_linear(dom, a, 0.0, mode, w).ravel()[idx])
    mat = np.array(cols).T

    scale = np.max(np.abs(mat))
    assert np.max(np.abs(mat - mat.T)) <= 1e-12 * scale
    assert np.linalg.eigvalsh(0.5 * (mat + mat.T)).min() > 0.0

    f = problems.rhs_sample(dom, "band-limited-random", 1.0, seed=5)
    x_dense = np.linalg.solve(mat, f.ravel()[idx])
    w = solver.linear_subsolve(a, 0.0, f, dom, mode=mode, rtol=1e-13)
    assert np.max(np.abs(w.ravel()[idx] - x_dense)) < 1e-9


@pytest.mark.parametrize("mode", ["full", "symmetric"])
def test_quadratic_form_positive(mode):
    dom = grid.build_domain("dirichlet_box", 12)
    rng = np.random.default_rng(4)
    a = rng.uniform(0.2, 3.0, dom.shape)
    for _ in range(5):
        w = grid.apply_constraints(dom, rng.standard_normal((3,) + dom.shape))
        q = dom.h ** 3 * np.sum(solver.apply_linear(dom, a, 0.0, mode, w) * w)
        assert q > 0.0


def test_apply_linear_rejects_bad_mode():
    dom = grid.build_domain("dirichlet_box", 8)
    with pytest.raises(ValueError):
        solver.apply_linear(dom, np.ones(dom.shape), 0.0, "skew", dom.zeros((3,)))


def test_subsolve_raises_ill_conditioned_on_budget():
    dom = grid.build_domain("cubic_periodic", 8)
    rng = np.random.default_rng(1)
    a = rng.uniform(0.5, 2.0, dom.shape)
    f = problems.rhs_sample(dom, "smooth-trig", 1.0)
    with pytest.raises(IllConditioned) as exc:
        solver.linear_subsolve(a, 0.0, f, dom, mode="full", rtol=1e-14, maxiter=2)
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

    with pytest.raises(NonFinite, match="p.Ap"):
        solver._pcg(dom, nan_apply, precondition, b, np.zeros_like(b), 1e-10, 50)
    assert len(calls) == 2
    calls.clear()
    with pytest.raises(NonFinite, match="residual"):
        solver._pcg(dom, nan_apply, precondition, b, np.ones_like(b), 1e-10, 50)
    assert len(calls) == 1
    a = np.ones(dom.shape)
    a[3, 3, 3] = np.inf
    with pytest.raises(NonFinite):
        solver.linear_subsolve(a, 0.0, f, dom, maxiter=50)


def test_pcg_raises_on_loss_of_definiteness():
    dom = grid.build_domain("dirichlet_box", 8)
    b = solver._free(dom, problems.rhs_sample(dom, "smooth-trig", 1.0))
    calls = []

    def negative_apply(w):
        calls.append(1)
        return -w

    with pytest.raises(IllConditioned, match="definiteness at PCG iteration 1") as exc:
        solver._pcg(dom, negative_apply, solver._preconditioner(dom), b, np.zeros_like(b),
                    1e-10, 50)
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
        solver._pcg(dom, a.dot, negative, b, np.zeros_like(b), 1e-10, 50)
    assert len(calls) == 1
    assert exc.value.achieved == 1.0
    assert np.array_equal(exc.value.field, dom.zeros((3,)))

    # definite for two iterations, then not: the best iterate comes back
    def turns_indefinite(r):
        calls.append(1)
        return r if len(calls) <= 2 else -r

    calls.clear()
    with pytest.raises(IllConditioned, match="iteration 3") as exc:
        solver._pcg(dom, a.dot, turns_indefinite, b, np.zeros_like(b), 1e-10, 50)
    assert 0.0 < exc.value.achieved < 1.0
    assert np.linalg.norm(b - a @ solver._free(dom, exc.value.field)) == pytest.approx(
        exc.value.achieved * np.linalg.norm(b), rel=1e-12)
    with pytest.raises(NonFinite, match="r.z"):
        solver._pcg(dom, a.dot, lambda r: np.full_like(r, np.nan), b, np.zeros_like(b),
                    1e-10, 50)


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
    # residual, apply_operator and apply_linear stay matrix-free: they check
    # the assembled solves independently and warm no cache
    solver._assembly.cache_clear()
    dom = grid.build_domain("dirichlet_box", 8)
    prob = make_problem(dom, 1.5, 0.1, structure="symmetric")
    multigrid.interpolations.cache_clear()
    v = solver.residual(dom, prob.params, 1e-2, prob.forcing(), prob.forcing())
    solver.apply_linear(dom, np.ones(dom.shape), 0.0, "full", v)
    assert solver._assembly.cache_info().currsize == 0
    assert multigrid.interpolations.cache_info().currsize == 0


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


@pytest.mark.parametrize("mu, eta", [(float("nan"), 0.0), (0.1, float("nan"))])
def test_solve_raises_on_non_finite_residual_or_energy(mu, eta):
    # at p = 2 a nan mu leaves the coefficient nan**0 == 1, so only the
    # energy shows it; a nan eta poisons the residual
    dom = grid.build_domain("dirichlet_box", 8)
    with pytest.raises(NonFinite):
        solver.solve(make_problem(dom, 2.0, mu), solver.SolveConfig(eta=eta))


def test_accepted_trial_energy_is_carried_forward(monkeypatch):
    dom = grid.build_domain("dirichlet_box", 12)
    prob = make_problem(dom, 1.5, 0.1)
    calls = {"energy": 0, "pair": 0}
    energy, pm_gradients = solver.energy, solver._pm_gradients

    def counting_energy(*args):
        calls["energy"] += 1
        return energy(*args)

    def counting_pm_gradients(*args):
        calls["pair"] += 1
        return pm_gradients(*args)

    monkeypatch.setattr(solver, "energy", counting_energy)
    monkeypatch.setattr(solver, "_pm_gradients", counting_pm_gradients)
    cfg = solver.SolveConfig(eta=1e-3, outer_tol=1e-10)
    v, report = solver.solve(prob, cfg)
    assert report.iterations > 3
    # one evaluation per accepted trial or rejected backtrack, plus the start;
    # the accepted trial's gradient pair also gives the next coefficient
    assert calls["energy"] == calls["pair"] == 1 + report.iterations + report.backtracks
    assert report.energy_history[-1] == energy(v, prob, cfg.eta)


def test_exhausted_line_search_takes_the_smallest_step(monkeypatch):
    # every trial is rejected: after 40 halvings the step ends on the 41st
    # trial, v + 2^-40 delta, and the next step starts from it
    dom = grid.build_domain("dirichlet_box", 8)
    prob = make_problem(dom, 1.5, 0.1)
    energy, trials = solver.energy, []

    def rejecting_energy(v, *args):
        trials.append(v)
        return energy(v, *args) + (1.0 if len(trials) > 1 else 0.0)

    monkeypatch.setattr(solver, "energy", rejecting_energy)
    with pytest.raises(NoConvergence) as exc:
        solver.solve(prob, solver.SolveConfig(eta=1e-3, max_outer=1))
    assert exc.value.report.backtracks == 40
    start, full, last = trials[0], trials[1], trials[-1]
    assert len(trials) == 1 + 41 and exc.value.field is last
    # v + 2^-40 delta keeps only a few digits of the step; a factor 2 either
    # way would be 2^-39 or 2^-41
    ratio = np.linalg.norm(last - start) / np.linalg.norm(2.0**-40 * (full - start))
    assert ratio == pytest.approx(1.0, rel=0.1)


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


def _short_p14_path(monkeypatch, preconditioner):
    """(problem, eta, v, report) of each step of a short p = 1.4, mu = 0
    continuation on the 8^3 box whose inner solves use the "plain" Poisson
    inverse, the "scaled" one alone, or the solver's own choice ("switch")."""
    dom = grid.build_domain("dirichlet_box", 8)
    prob = make_problem(dom, 1.4, 0.0)
    path = solver.ContinuationPath.geometric(
        eta0=1e-2, mu0=0.0, ratio=0.5, eta_floor=1e-4, mu_floor=0.0
    )
    cfg = solver.SolveConfig(outer_tol=1e-10, max_outer=300, continuation=path)
    pcg, solve = solver._pcg, solver.solve
    steps = []

    def plain_pcg(domain, apply_a, precondition, b, x0, rtol, maxiter):
        return pcg(domain, apply_a, solver._preconditioner(domain), b, x0, rtol, maxiter)

    def recording_solve(problem, config, initial=None):
        v, report = solve(problem, config, initial)
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
    assert (report.iterations, report.inner_iterations) == (177, 187)


def _recording_pcg(monkeypatch):
    """Record (multigrid?, iterations) of every inner solve."""
    record, pcg = [], solver._pcg

    def recording(domain, apply_a, precondition, b, x0, rtol, maxiter):
        x, k = pcg(domain, apply_a, precondition, b, x0, rtol, maxiter)
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
    # law's p < 2, even when an inner solve is long
    record, built = _recording_pcg(monkeypatch), _counting_vcycles(monkeypatch)
    multigrid.interpolations.cache_clear()
    dom = grid.build_domain("dirichlet_box", 8)
    cfg = solver.SolveConfig(eta=1e-3, outer_tol=1e-10, max_outer=300, inner_tol=1e-10)
    mu = 0.0 if p <= 2.0 else 0.1
    _, report = solver.solve(make_problem(dom, p, mu, structure=structure), cfg)
    assert report.converged
    assert max(k for _, k in record) > (0 if p == 2.0 else solver.MULTIGRID_AFTER)
    assert built == []
    assert multigrid.interpolations.cache_info().currsize == 0


def test_periodic_joint_path_beats_the_plain_poisson_inverse(monkeypatch):
    """The joint (eta, mu) tail on the slab at odd n: the coefficient-scaled
    inverse alone took more PCG iterations here than the plain one (575
    against 542); with the switch to multigrid the path takes fewer."""
    dom = grid.build_domain("cubic_periodic", 9)
    prob = make_problem(dom, 1.5, 0.0)
    path = solver.ContinuationPath.geometric(eta0=2e-6, mu0=2e-6, eta_floor=1e-8, mu_floor=1e-8)
    cfg = solver.SolveConfig(continuation=path)
    pcg = solver._pcg

    def plain_pcg(domain, apply_a, precondition, b, x0, rtol, maxiter):
        return pcg(domain, apply_a, solver._preconditioner(domain), b, x0, rtol, maxiter)

    _, ours = solver.continuation_solve(prob, cfg)
    monkeypatch.setattr(solver, "_pcg", plain_pcg)
    _, plain = solver.continuation_solve(prob, cfg)
    assert ours.path_totals["solves"] == plain.path_totals["solves"] == len(path.eta_path)
    assert abs(ours.path_totals["outer"] - plain.path_totals["outer"]) <= 2
    assert ours.path_totals["inner"] < 0.75 * plain.path_totals["inner"]
