"""Forcing catalog, analytic fields, manufactured forcings and the 1-D oracle."""

import numpy as np
import pytest

from pstruct import grid as g
from pstruct import solver
from pstruct.constitutive import ConstitutiveParams
from pstruct.errors import UnknownId
from pstruct.problems import (
    AnalyticField,
    ProblemSpec,
    RhsSpec,
    extend_profile,
    manufactured_continuous,
    manufactured_discrete,
    oned_profile_oracle,
    rhs_sample,
    smooth_test_field,
)


def test_rhs_constant():
    dom = g.build_domain(g.CUBIC_PERIODIC, 16)
    f = rhs_sample(dom, "constant", amplitude=2.0)
    assert np.all(f[0] == 2.0)
    assert np.all(f[1:] == 0.0)
    assert abs(g.norm(dom, f, q=2.0) - 2.0) < 1e-12


def test_rhs_smooth_trig_shape_and_scale():
    dom = g.build_domain(g.CUBIC_PERIODIC, 16)
    f = rhs_sample(dom, "smooth-trig", amplitude=3.0)
    x, y, z = dom.meshgrid()
    prof = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) * np.sin(np.pi * z)
    # all components carry the same profile, rescaled to L2 norm = amplitude
    assert np.array_equal(f[0], f[1]) and np.array_equal(f[0], f[2])
    scale = 3.0 / g.norm(dom, np.broadcast_to(prof, (3,) + dom.shape).copy(), q=2.0)
    assert np.allclose(f[0], scale * prof, rtol=1e-12, atol=1e-14)
    assert abs(g.norm(dom, f, q=2.0) - 3.0) < 1e-12


@pytest.mark.parametrize("rhs_id", ["smooth-trig", "band-limited-random"])
@pytest.mark.parametrize("amplitude", [0.25, 1.0, 16.0])
def test_rhs_l2_norm_equals_amplitude(rhs_id, amplitude):
    for kind in (g.CUBIC_PERIODIC, g.DIRICHLET_BOX):
        dom = g.build_domain(kind, 12)
        f = rhs_sample(dom, rhs_id, amplitude=amplitude, seed=3)
        assert abs(g.norm(dom, f, q=2.0) - amplitude) < 1e-12 * amplitude


def test_rhs_random_reproducible():
    dom = g.build_domain(g.CUBIC_PERIODIC, 12)
    a = rhs_sample(dom, "band-limited-random", seed=7)
    b = rhs_sample(dom, "band-limited-random", seed=7)
    c = rhs_sample(dom, "band-limited-random", seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("kind", [g.CUBIC_PERIODIC, g.DIRICHLET_BOX])
def test_rhs_band_limited_matches_loop_sum(kind):
    # the contraction is evaluated by an optimised einsum; this is the plain
    # sum over modes it must reproduce, drawn from the same generator
    dom = g.build_domain(kind, 12)
    f = rhs_sample(dom, "band-limited-random", amplitude=2.0, seed=5)
    bases = []
    for ax in range(3):
        t = dom.coords(ax)
        if dom.is_periodic(ax):
            cols = [np.ones_like(t)]
            for k in (1, 2, 3):
                cols += [np.cos(2 * np.pi * k * t), np.sin(2 * np.pi * k * t)]
        else:
            cols = [np.sin(np.pi * m * t) for m in (1, 2, 3, 4)]
        bases.append(cols)
    shape = (3,) + tuple(len(b) for b in bases)
    coeffs = np.random.default_rng(5).standard_normal(shape)
    ref = np.zeros((3,) + dom.shape)
    for c in range(3):
        for a, bx in enumerate(bases[0]):
            for b, by in enumerate(bases[1]):
                for m, bz in enumerate(bases[2]):
                    ref[c] += coeffs[c, a, b, m] * np.multiply.outer(np.multiply.outer(bx, by), bz)
    ref *= 2.0 / g.norm(dom, ref, q=2.0)
    assert np.max(np.abs(f - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_rhs_validation():
    dom = g.build_domain(g.CUBIC_PERIODIC, 8)
    with pytest.raises(UnknownId):
        rhs_sample(dom, "delta-spike")
    with pytest.raises(ValueError):
        rhs_sample(dom, "constant", amplitude=0.0)
    with pytest.raises(UnknownId):
        RhsSpec(id="delta-spike")
    with pytest.raises(ValueError):
        RhsSpec(amplitude=-1.0)


def test_problem_spec_forcing_cached():
    dom = g.build_domain(g.CUBIC_PERIODIC, 8)
    spec = ProblemSpec(dom, ConstitutiveParams(p=2.0), rhs=RhsSpec(id="constant"))
    f1 = spec.forcing()
    f2 = spec.forcing()
    assert f1 is f2


def test_analytic_field_matches_grid_operators():
    grad_gap, sec_gap = {}, {}
    for n in (16, 32):
        dom = g.build_domain(g.CUBIC_PERIODIC, n)
        fld = AnalyticField(dom)
        u = fld.values()
        inter = (Ellipsis,) + dom.interior
        grad_gap[n] = np.max(np.abs(g.gradient(dom, u)[inter] - fld.gradient_values()[inter]))
        sec_gap[n] = np.max(
            np.abs(g.second_derivatives(dom, u).values[inter] - fld.second_values()[inter])
        )
        assert grad_gap[n] < 300.0 * dom.h**2
        assert sec_gap[n] < 2500.0 * dom.h**2
    assert 3.5 < grad_gap[16] / grad_gap[32] < 4.5
    assert 3.5 < sec_gap[16] / sec_gap[32] < 4.5
    # trace identity is exact on the analytic side
    dom = g.build_domain(g.CUBIC_PERIODIC, 16)
    fld = AnalyticField(dom)
    sec = fld.second_values()
    assert np.array_equal(fld.laplacian_values(), sec[:, 0] + sec[:, 1] + sec[:, 2])
    sym = fld.gradient_values("symmetric")
    assert np.allclose(sym, np.swapaxes(sym, 0, 1), rtol=0.0, atol=0.0)


def test_analytic_field_satisfies_constraints():
    # wall factors are sin(pi k x) evaluated in floats, so "zero" means 1e-16
    for kind in (g.CUBIC_PERIODIC, g.DIRICHLET_BOX):
        dom = g.build_domain(kind, 12)
        u = smooth_test_field(dom, seed=4).values()
        v = u.copy()
        g.apply_constraints(dom, v)
        assert np.max(np.abs(u - v)) < 5e-15


def test_smooth_test_field_seeded_deterministic():
    dom = g.build_domain(g.CUBIC_PERIODIC, 12)
    a = smooth_test_field(dom, seed=5)
    b = smooth_test_field(dom, seed=5)
    assert a.spec == b.spec
    assert np.array_equal(a.values(), b.values())


def test_manufactured_discrete_zero():
    dom = g.build_domain(g.CUBIC_PERIODIC, 12)
    params = ConstitutiveParams(p=1.5, mu=0.1)
    f = manufactured_discrete(dom, params, 1e-3, dom.zeros())
    assert np.all(f == 0.0)


def test_manufactured_discrete_p2_is_poisson():
    dom = g.build_domain(g.CUBIC_PERIODIC, 16)
    u = smooth_test_field(dom, seed=6).values()
    f = manufactured_discrete(dom, ConstitutiveParams(p=2.0, mu=0.4), 0.0, u)
    ref = -g.laplacian(dom, u)
    g.apply_constraints(dom, ref)
    assert np.allclose(f, ref, rtol=1e-12, atol=1e-12)


def test_manufactured_discrete_residual_is_zero():
    # the forcing is defined through the same operator the residual uses
    dom = g.build_domain(g.DIRICHLET_BOX, 12)
    params = ConstitutiveParams(p=1.5, mu=0.1)
    u = smooth_test_field(dom).values()
    f = manufactured_discrete(dom, params, 1e-3, u)
    res = solver.residual(dom, params, 1e-3, u, f)
    assert np.max(np.abs(res)) <= 1e-12 * g.norm(dom, f, q=np.inf)


def test_manufactured_continuous_p2_identity():
    # S is the identity map at p = 2 for any mu (mu > 0 keeps the jacobian
    # defined at the field's isolated gradient zeros)
    dom = g.build_domain(g.CUBIC_PERIODIC, 16)
    fld = AnalyticField(dom)
    fc = manufactured_continuous(dom, ConstitutiveParams(p=2.0, mu=0.5), 0.25, fld)
    assert np.allclose(fc, -1.25 * fld.laplacian_values(), rtol=1e-12, atol=1e-12)


def test_manufactured_continuous_consistent_with_discrete():
    # relative L2 gap on a wall-free window is the scheme truncation error;
    # the analytic field has isolated gradient zeros where |.| is not smooth,
    # so the decay sits between first and second order at these resolutions
    for structure in ("full", "symmetric"):
        params = ConstitutiveParams(p=1.7, mu=0.3, structure=structure)
        gaps = {}
        for n in (16, 32):
            dom = g.build_domain(g.CUBIC_PERIODIC, n)
            fld = smooth_test_field(dom)
            fd = manufactured_discrete(dom, params, 1e-3, fld.values())
            fc = manufactured_continuous(dom, params, 1e-3, fld)
            zmask = (dom.coords(2) >= 0.25) & (dom.coords(2) <= 0.75)
            diff = fd[..., zmask] - fc[..., zmask]
            gaps[n] = np.sqrt(np.sum(diff**2) / np.sum(fc[..., zmask] ** 2))
        assert gaps[16] < 0.2
        assert gaps[32] < 0.06
        assert gaps[16] / gaps[32] > 2.5


def test_oned_profile_p2_closed_form():
    prof = oned_profile_oracle(2.0, 0.7, 3.0, 32)
    z = prof["z"]
    assert np.allclose(prof["u"], 1.5 * z * (1 - z), rtol=0.0, atol=1e-14)
    assert np.allclose(prof["du"], 3.0 * (0.5 - z), rtol=0.0, atol=1e-14)


def test_oned_profile_degenerate_closed_form():
    # p = 3/2, mu = 0, c = 1: u' = sign(1/2-z)|1/2-z|^2, u peaks at 1/24
    prof = oned_profile_oracle(1.5, 0.0, 1.0, 32)
    z = prof["z"]
    exact = ((0.5) ** 3 - np.abs(0.5 - z) ** 3) / 3.0
    assert np.allclose(prof["u"], exact, rtol=0.0, atol=1e-14)
    assert abs(prof["u"][16] - 1.0 / 24.0) < 1e-14


def test_oned_profile_first_integral_residual():
    prof = oned_profile_oracle(1.5, 1.0, 1.0, 48)
    z, du = prof["z"], prof["du"]
    resid = (1.0 + np.abs(du)) ** (-0.5) * du - (0.5 - z)
    assert np.max(np.abs(resid)) < 1e-10


def test_oned_profile_zero_forcing():
    prof = oned_profile_oracle(1.5, 0.5, 0.0, 16)
    assert np.all(prof["u"] == 0.0) and np.all(prof["du"] == 0.0)


def test_extended_profile_near_fixed_point():
    params = ConstitutiveParams(p=1.5, mu=0.5)
    rel = {}
    for n in (16, 32):
        dom = g.build_domain(g.CUBIC_PERIODIC, n)
        u = extend_profile(dom, oned_profile_oracle(1.5, 0.5, 1.0, n))
        f = rhs_sample(dom, "constant", amplitude=1.0)
        res = solver.residual(dom, params, 0.0, u, f)
        rel[n] = np.sqrt(np.sum(res**2) / np.sum(f**2))
    assert rel[32] < 1e-3
    assert rel[16] / rel[32] > 2.0


def test_extend_profile_layout():
    dom = g.build_domain(g.CUBIC_PERIODIC, 16)
    u = extend_profile(dom, oned_profile_oracle(2.0, 0.0, 1.0, 16))
    assert np.all(u[1:] == 0.0)
    assert np.all(u[0] == u[0][0:1, 0:1, :])  # constant in x and y
    # z = 1 value is the accumulated quadrature roundoff, not an exact zero
    assert np.all(u[0][..., 0] == 0.0)
    assert np.max(np.abs(u[0][..., -1])) < 1e-14
