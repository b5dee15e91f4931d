"""Tests for the per-node normal-direction elimination.

The decisive oracle feeds analytic derivatives and the exactly matching
continuous forcing into the assembler; the solved dzz must then agree with
the true analytic dzz to machine precision, because the elimination is exact
algebra on the strong-form equation.
"""

import numpy as np
import pytest

from pstruct import grid, problems, reconstruct, solver
from pstruct.constitutive import ConstitutiveParams
from pstruct.errors import BadExponent, NotConverged


def random_system(rng, count, p=2.5, mu=0.7, structure="symmetric"):
    du = rng.standard_normal((3, 3, count))
    if structure == "symmetric":
        du = 0.5 * (du + du.transpose(1, 0, 2))
    d2 = rng.standard_normal((3, 3, 3, count))
    d2 = 0.5 * (d2 + d2.transpose(0, 2, 1, 3))
    f = rng.standard_normal((3, count))
    return reconstruct.assemble_normal_system(du, d2, f, p, mu, structure)


# ---------------------------------------------------------------- validation


def test_assemble_rejects_bad_exponent_and_mu():
    rng = np.random.default_rng(0)
    du = rng.standard_normal((3, 3, 4))
    d2 = rng.standard_normal((3, 3, 3, 4))
    f = rng.standard_normal((3, 4))
    with pytest.raises(BadExponent):
        reconstruct.assemble_normal_system(du, d2, f, 2.0, 0.5)
    with pytest.raises(BadExponent):
        reconstruct.assemble_normal_system(du, d2, f, 1.5, 0.5)
    with pytest.raises(ValueError):
        reconstruct.assemble_normal_system(du, d2, f, 2.5, 0.0)
    with pytest.raises(ValueError):
        reconstruct.assemble_normal_system(du, d2, f, 2.5, 0.5, structure="skew")


# ---------------------------------------------------------------- matrix structure


@pytest.mark.parametrize("structure", ["symmetric", "full"])
def test_matrix_is_exactly_symmetric(structure):
    rng = np.random.default_rng(1)
    sys_ = random_system(rng, 500, structure=structure)
    assert np.array_equal(sys_.a, np.swapaxes(sys_.a, 0, 1))


def test_quadratic_form_matches_explicit_sum():
    rng = np.random.default_rng(2)
    sys_ = random_system(rng, 200)
    xi = rng.standard_normal((3, 200))
    want = np.einsum("j...,jl...,l...->...", xi, sys_.a, xi)
    got = sys_.quadratic_form(xi)
    np.testing.assert_allclose(got, want, rtol=1e-13)
    # and against a slow per-node loop
    for k in (0, 57, 199):
        a_k = sys_.a[:, :, k]
        assert abs(got[k] - xi[:, k] @ a_k @ xi[:, k]) <= 1e-13 * max(1.0, abs(got[k]))


@pytest.mark.parametrize("structure,p", [("symmetric", 2.5), ("symmetric", 3.5), ("full", 2.5)])
def test_rayleigh_quotient_at_least_one(structure, p):
    rng = np.random.default_rng(3)
    sys_ = random_system(rng, 1000, p=p, structure=structure)
    xi = rng.standard_normal((3, 1000))
    quot = sys_.quadratic_form(xi) / np.sum(xi * xi, axis=0)
    assert quot.min() >= 1.0 - 1e-12


def test_zero_gradient_gives_exact_limit_matrices():
    # the (p-2) correction carries du twice, so du = 0 must leave the plain
    # identity (full) or identity plus the e_z e_z^T block (symmetric)
    du = np.zeros((3, 3, 5))
    d2 = np.zeros((3, 3, 3, 5))
    f = np.zeros((3, 5))
    sym = reconstruct.assemble_normal_system(du, d2, f, 3.0, 0.5, "symmetric")
    want = np.repeat(np.diag([1.0, 1.0, 2.0])[:, :, None], 5, axis=2)
    assert np.array_equal(sym.a, want)
    full = reconstruct.assemble_normal_system(du, d2, f, 3.0, 0.5, "full")
    assert np.array_equal(full.a, np.repeat(np.eye(3)[:, :, None], 5, axis=2))


def test_p_to_two_limit_diagonal_solve():
    """As p -> 2 the coupling dies and the symmetric system decouples into
    x = (g1, g2, g3 / 2)."""
    rng = np.random.default_rng(4)
    sys_ = random_system(rng, 300, p=2.0 + 1e-12)
    x = reconstruct.solve_normal(sys_)
    want = sys_.g.copy()
    want[2] /= 2.0
    np.testing.assert_allclose(x, want, rtol=1e-9, atol=1e-11)


# ---------------------------------------------------------------- solve


def test_solve_matches_per_node_loop():
    rng = np.random.default_rng(5)
    sys_ = random_system(rng, 64)
    x = reconstruct.solve_normal(sys_)
    for k in range(64):
        want = np.linalg.solve(sys_.a[:, :, k], sys_.g[:, k])
        np.testing.assert_allclose(x[:, k], want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("structure", ["symmetric", "full"])
def test_solution_never_exceeds_load(structure):
    # eigenvalues >= 1 make the inverse a contraction
    rng = np.random.default_rng(6)
    sys_ = random_system(rng, 10000, p=3.2, mu=0.4, structure=structure)
    x = reconstruct.solve_normal(sys_)
    xn = np.sqrt(np.sum(x * x, axis=0))
    gn = np.sqrt(np.sum(sys_.g * sys_.g, axis=0))
    assert np.all(xn <= gn * (1.0 + 1e-12) + 1e-300)


def test_zero_load_gives_zero():
    du = np.random.default_rng(7).standard_normal((3, 3, 10))
    sys_ = reconstruct.assemble_normal_system(
        du, np.zeros((3, 3, 3, 10)), np.zeros((3, 10)), 2.5, 0.5, "full"
    )
    assert np.array_equal(reconstruct.solve_normal(sys_), np.zeros((3, 10)))


# ---------------------------------------------------------------- exactness


@pytest.mark.parametrize("structure", ["symmetric", "full"])
def test_elimination_is_exact_on_analytic_data(structure):
    """Analytic du, D2 u and the matching continuous forcing: the solved
    normal block must equal the true dzz to rounding error."""
    dom = grid.build_domain("cubic_periodic", 16)
    fld = problems.smooth_test_field(dom, seed=3)
    p, mu = 2.7, 0.8
    params = ConstitutiveParams(p=p, mu=mu, structure=structure)
    f = problems.manufactured_continuous(dom, params, 0.0, fld)
    du = fld.gradient_values(mode=structure)
    d2 = grid.SecondDerivField(dom, fld.second_values())
    x = reconstruct.solve_normal(
        reconstruct.assemble_normal_system(du, d2, f, p, mu, structure)
    )
    true_dzz = d2.full_tensor()[:, 2, 2]
    err = np.max(np.abs(x - true_dzz)) / np.max(np.abs(true_dzz))
    assert err < 1e-12


# ---------------------------------------------------------------- bound check


def test_bound_check_requires_converged_field():
    dom = grid.build_domain("cubic_periodic", 12)
    rng = np.random.default_rng(9)
    u = grid.apply_constraints(dom, rng.standard_normal((3,) + dom.shape))
    f = problems.rhs_sample(dom, "smooth-trig", 1.0)
    with pytest.raises(NotConverged):
        reconstruct.pointwise_bound_check(dom, u, f, 2.5, 1.0)


def test_bound_check_zero_problem():
    dom = grid.build_domain("cubic_periodic", 12)
    out = reconstruct.pointwise_bound_check(
        dom, dom.zeros((3,)), dom.zeros((3,)), 2.5, 1.0
    )
    assert out["ratio_max"] == 0.0
    assert out["ratio_mean"] == 0.0


def test_bound_check_on_converged_solve():
    """Solve, then check: bounded ratio field, zero on the walls, small
    residual, and a reconstruction gap that shrinks at second order."""
    stats = {}
    for n in (16, 24):
        dom = grid.build_domain("cubic_periodic", n)
        f = problems.rhs_sample(dom, "smooth-trig", 1.0)
        prob = problems.ProblemSpec(
            dom, ConstitutiveParams(p=2.5, mu=1.0, structure="symmetric"), f=f
        )
        u, _ = solver.solve(prob, solver.SolveConfig(eta=0.0, outer_tol=1e-10))
        out = reconstruct.pointwise_bound_check(dom, u, f, 2.5, 1.0, structure="symmetric")
        assert out["residual_rel"] < 1e-6
        assert 0.0 < out["ratio_max"] < 1.0
        assert out["ratio_mean"] < out["ratio_max"]
        assert out["ratio"][:, :, 0].max() == 0.0
        assert out["ratio"][:, :, -1].max() == 0.0
        assert out["dzz"].shape == (3,) + dom.shape
        stats[n] = out["reconstruction_rel_median"]
    assert stats[24] < 0.08
    # 16 -> 24 refines h by 1.5, so an O(h^2) gap shrinks by about 2.25
    assert stats[16] / stats[24] > 1.8


def test_ratio_mean_is_stable_under_roundoff_scaling():
    # the README reconstruct example's solution: scaling it by 1 +- 1e-13
    # moved the mean over all interior nodes by up to 1.4e-5 relative,
    # through the few nodes whose denominator is at roundoff, which the mean
    # leaves out
    dom = grid.build_domain("cubic_periodic", 16)
    f = problems.rhs_sample(dom, "smooth-trig", 1.0)
    params = ConstitutiveParams(p=2.6, mu=0.1, structure="symmetric")
    u, _ = solver.solve(problems.ProblemSpec(dom, params, f=f), solver.SolveConfig())
    checks = [reconstruct.pointwise_bound_check(dom, s * u, f, 2.6, 0.1, structure="symmetric")
              for s in (1.0, 1.0 + 1e-13, 1.0 - 1e-13)]
    base = checks[0]["ratio_mean"]
    inner = checks[0]["ratio"][dom.interior]
    assert 0 < checks[0]["mean_excluded"] < 0.01 * inner.size
    # the left-out nodes carry a visible share of the mean over all nodes
    assert abs(float(np.mean(inner)) - base) > 1e-6 * base
    for check in checks[1:]:
        assert abs(check["ratio_mean"] - base) <= 1e-11 * base
        assert check["mean_excluded"] == checks[0]["mean_excluded"]
