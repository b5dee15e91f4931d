"""Pointwise law checks: closed forms, a finite-difference jacobian oracle,
and seeded sampling of the inequality ratios with scale invariance."""

import numpy as np
import pytest

from pstruct.constitutive import (
    ConstitutiveParams,
    inequality_ratios,
    stress,
    stress_jacobian,
    tensor_norm,
    triple_product_check,
)
from pstruct.errors import DegeneratePoint

EPS = np.finfo(float).eps


def rand_tensors(rng, count, scale=1.0):
    return scale * rng.standard_normal((count, 3, 3))


def central_diff_jacobian(a, params, step_scale=1e-6):
    """dS/dA by central differences, step proportional to |A| per sample."""
    step = step_scale * tensor_norm(a)[..., None, None]
    out = np.zeros(a.shape[:-2] + (3, 3, 3, 3))
    for k in range(3):
        for l in range(3):
            e = np.zeros((3, 3))
            e[k, l] = 1.0
            plus = stress(a + step * e, params)
            minus = stress(a - step * e, params)
            out[..., :, :, k, l] = (plus - minus) / (2.0 * step)
    return out


def test_params_validation():
    with pytest.raises(ValueError):
        ConstitutiveParams(p=1.0)
    with pytest.raises(ValueError):
        ConstitutiveParams(p=2.0, mu=-0.1)
    with pytest.raises(ValueError):
        ConstitutiveParams(p=2.0, structure="skew")


def test_stress_zero_tensor_limit():
    params = ConstitutiveParams(p=1.5, mu=0.0)
    out = stress(np.zeros((3, 3)), params)
    assert np.all(out == 0.0)
    assert np.all(np.isfinite(out))


def test_stress_is_identity_at_p2():
    rng = np.random.default_rng(11)
    a = rand_tensors(rng, 64)
    for mu in (0.0, 0.7):
        out = stress(a, ConstitutiveParams(p=2.0, mu=mu))
        assert np.array_equal(out, a)


def test_stress_unit_norm_example():
    # |A| = 1, mu = 1, p = 3: prefactor (1+1)^1 = 2
    a = np.zeros((3, 3))
    a[0, 1] = 1.0
    out = stress(a, ConstitutiveParams(p=3.0, mu=1.0))
    assert np.allclose(out, 2.0 * a, rtol=0.0, atol=1e-15)


def test_stress_joint_homogeneity():
    # stress(s A; p, s mu) = s^(p-1) stress(A; p, mu) for s > 0
    rng = np.random.default_rng(12)
    a = rand_tensors(rng, 256)
    for p in (1.3, 1.5, 2.5, 3.5):
        for mu in (0.0, 0.4):
            for s in (0.25, 100.0):
                lhs = stress(s * a, ConstitutiveParams(p=p, mu=s * mu))
                rhs = s ** (p - 1.0) * stress(a, ConstitutiveParams(p=p, mu=mu))
                assert np.allclose(lhs, rhs, rtol=1e-12, atol=0.0)


def test_jacobian_identity_at_p2():
    rng = np.random.default_rng(13)
    a = rand_tensors(rng, 8)
    jac = stress_jacobian(a, ConstitutiveParams(p=2.0, mu=0.3))
    ident = np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3))
    assert np.allclose(jac, np.broadcast_to(ident, jac.shape), rtol=0.0, atol=1e-15)


def test_jacobian_at_zero_with_mu():
    jac = stress_jacobian(np.zeros((3, 3)), ConstitutiveParams(p=3.0, mu=1.0))
    ident = np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3))
    assert np.array_equal(jac, ident)


def test_jacobian_degenerate_point_raises():
    with pytest.raises(DegeneratePoint):
        stress_jacobian(np.zeros((3, 3)), ConstitutiveParams(p=1.5, mu=0.0))


def test_jacobian_pair_exchange_symmetry():
    rng = np.random.default_rng(14)
    a = rand_tensors(rng, 32)
    jac = stress_jacobian(a, ConstitutiveParams(p=2.7, mu=0.2))
    assert np.allclose(jac, np.swapaxes(np.swapaxes(jac, -4, -2), -3, -1),
                       rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("p,mu", [(1.5, 0.5), (1.2, 1.0), (2.5, 0.1), (3.5, 0.0)])
def test_jacobian_matches_central_difference(p, mu):
    rng = np.random.default_rng(15)
    a = rand_tensors(rng, 1000)
    keep = tensor_norm(a) > 0.1
    a = a[keep]
    params = ConstitutiveParams(p=p, mu=mu)
    jac = stress_jacobian(a, params)
    ref = central_diff_jacobian(a, params)
    num = np.sqrt(np.sum((jac - ref) ** 2, axis=(-4, -3, -2, -1)))
    den = np.sqrt(np.sum(ref**2, axis=(-4, -3, -2, -1)))
    assert np.max(num / den) < 1e-6


def test_ratios_all_one_at_p2():
    rng = np.random.default_rng(16)
    a = rand_tensors(rng, 512)
    b = rand_tensors(rng, 512)
    out = inequality_ratios(a, b, ConstitutiveParams(p=2.0, mu=0.6))
    for key in ("ellipticity_ratio", "monotonicity_ratio", "lipschitz_ratio"):
        assert np.allclose(out[key], 1.0, rtol=0.0, atol=1e-13), key


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 2.5, 3.5])
@pytest.mark.parametrize("mu", [0.0, 0.1, 1.0])
def test_ratio_bounds_sampled(p, mu):
    rng = np.random.default_rng(17)
    count = 10000
    a = rand_tensors(rng, count)
    b = rand_tensors(rng, count)
    out = inequality_ratios(a, b, ConstitutiveParams(p=p, mu=mu))
    assert np.min(out["ellipticity_ratio"]) >= min(1.0, p - 1.0) - 1e-9
    assert np.min(out["monotonicity_ratio"]) > 0.0
    assert np.all(np.isfinite(out["lipschitz_ratio"]))


def test_ratio_scale_invariance():
    # extrema must be unchanged when (A, B, mu) are jointly scaled by 100
    rng = np.random.default_rng(18)
    a = rand_tensors(rng, 10000)
    b = rand_tensors(rng, 10000)
    for p, mu in ((1.5, 0.1), (2.5, 1.0)):
        base = inequality_ratios(a, b, ConstitutiveParams(p=p, mu=mu))
        scaled = inequality_ratios(100 * a, 100 * b, ConstitutiveParams(p=p, mu=100 * mu))
        for key, vals in base.items():
            for reducer in (np.min, np.max):
                lo, hi = reducer(vals), reducer(scaled[key])
                assert abs(lo - hi) <= 1e-9 * max(1.0, abs(lo)), key


def test_monotonicity_near_radial_perturbation():
    # B = (1 + 1e-8) A stays in (0, 1] for p = 1.5, mu = 1
    rng = np.random.default_rng(19)
    a = rand_tensors(rng, 2000)
    b = (1.0 + 1e-8) * a
    out = inequality_ratios(a, b, ConstitutiveParams(p=1.5, mu=1.0))
    mono = out["monotonicity_ratio"]
    assert np.all(mono > 0.0)
    assert np.max(mono) <= 1.0 + 1e-6
    assert np.all(np.isfinite(out["lipschitz_ratio"]))


def test_ellipticity_matches_explicit_jacobian_contraction():
    rng = np.random.default_rng(20)
    a = rand_tensors(rng, 400)
    b = rand_tensors(rng, 400)
    params = ConstitutiveParams(p=1.7, mu=0.3)
    jac = stress_jacobian(a, params)
    contraction = np.einsum("...ijkl,...ij,...kl->...", jac, b, b)
    denom = (params.mu + tensor_norm(a)) ** (params.p - 2.0) * np.sum(b * b, axis=(-2, -1))
    out = inequality_ratios(a, b, params)
    assert np.allclose(out["ellipticity_ratio"], contraction / denom, rtol=1e-10, atol=1e-12)


def test_ratios_reject_equal_pair():
    a = np.eye(3)
    with pytest.raises(ValueError):
        inequality_ratios(a, a.copy(), ConstitutiveParams(p=1.5, mu=0.5))


def test_ratios_degenerate_raises():
    a = np.zeros((2, 3, 3))
    a[1] = np.eye(3)
    b = np.ones((2, 3, 3))
    with pytest.raises(DegeneratePoint):
        inequality_ratios(a, b, ConstitutiveParams(p=1.5, mu=0.0))


def test_triple_product_zero_cases():
    rng = np.random.default_rng(22)
    h = rng.standard_normal((3, 3, 3))
    el = rng.standard_normal(3)
    out = triple_product_check(np.zeros((3, 3)), h, el)
    assert out["lhs"] == 0.0 and out["rhs"] == 0.0
    g = rng.standard_normal((3, 3))
    out = triple_product_check(g, np.zeros((3, 3, 3)), el)
    assert out["lhs"] == 0.0


def test_triple_product_bound_sampled():
    rng = np.random.default_rng(23)
    count = 100000
    g = rng.standard_normal((count, 3, 3))
    h = rng.standard_normal((count, 3, 3, 3))
    el = rng.standard_normal((count, 3))
    out = triple_product_check(g, h, el)
    slack = out["rhs"] - out["lhs"]
    assert np.all(slack >= -8.0 * EPS * out["rhs"])
