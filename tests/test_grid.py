"""Difference operators, norms, mollifier and serialization.

Analytic fields are differentiated by hand inline; convergence checks compare
n = 16 against n = 32 and expect error ratios near 4 (second order).
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstruct import grid as g
from pstruct.errors import EpsTooLarge, TooCoarse

KINDS = (g.CUBIC_PERIODIC, g.DIRICHLET_BOX)


def smooth_field(dom):
    """Constraint-compatible smooth vector field used across operator tests."""
    x, y, z = dom.meshgrid()
    u = np.zeros((3,) + dom.shape)
    u[0] = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) * z * (1 - z)
    u[1] = np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y) * np.sin(np.pi * z)
    u[2] = np.sin(2 * np.pi * (x + y)) * z * z * (1 - z)
    return u


def inner(dom, a, b):
    return dom.h**3 * float(np.sum(a * b))


def test_build_domain():
    dom = g.build_domain(g.CUBIC_PERIODIC, 32)
    assert dom.h == 1.0 / 32.0
    assert dom.shape == (32, 32, 33)
    assert dom.is_periodic(0) and dom.is_periodic(1) and not dom.is_periodic(2)
    box = g.build_domain(g.DIRICHLET_BOX, 16)
    assert box.shape == (17, 17, 17)
    assert not any(box.is_periodic(ax) for ax in range(3))
    with pytest.raises(TooCoarse):
        g.build_domain(g.CUBIC_PERIODIC, 4)
    with pytest.raises(ValueError):
        g.build_domain("sphere", 16)


def test_apply_constraints_zeroes_walls():
    dom = g.build_domain(g.CUBIC_PERIODIC, 8)
    u = np.ones((3,) + dom.shape)
    g.apply_constraints(dom, u)
    assert np.all(u[..., 0] == 0.0) and np.all(u[..., -1] == 0.0)
    assert np.all(u[..., 1:-1] == 1.0)


def test_gradient_of_zero():
    dom = g.build_domain(g.CUBIC_PERIODIC, 8)
    assert np.all(g.gradient(dom, dom.zeros()) == 0.0)


def test_gradient_analytic_and_convergence():
    errs = {}
    for kind in KINDS:
        for n in (16, 32):
            dom = g.build_domain(kind, n)
            x, y, z = dom.meshgrid()
            u = smooth_field(dom)
            d1 = 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y) * z * (1 - z)
            errs[kind, n] = np.max(np.abs(g.gradient(dom, u)[0, 0] - d1))
        assert errs[kind, 16] < 0.1
        assert 3.5 < errs[kind, 16] / errs[kind, 32] < 4.5


def test_symmetric_mode_kills_rotation():
    # u = (y, -x, 0) has constant antisymmetric gradient; centered stencils
    # are exact on linears away from box walls
    dom = g.build_domain(g.DIRICHLET_BOX, 16)
    x, y, z = dom.meshgrid()
    u = np.stack([y, -x, np.zeros_like(x)])
    interior = (slice(None),) + dom.interior
    full = g.gradient(dom, u, mode="full")
    sym = g.gradient(dom, u, mode="symmetric")
    assert np.max(np.abs(sym[(slice(None),) + interior])) < 1e-12
    assert abs(full[0, 1][dom.interior].max() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        g.gradient(dom, u, mode="skew")


def test_divergence_of_constant_tensor():
    dom = g.build_domain(g.CUBIC_PERIODIC, 8)
    t = np.ones((3, 3) + dom.shape)
    assert np.max(np.abs(g.divergence(dom, t))) < 1e-13


def test_div_grad_matches_laplacian():
    # centered div of grad is the wide Laplacian: agrees with the 7-point
    # stencil at O(h^2).  Measured two nodes off the walls; the composition
    # through a one-sided wall stencil is only first order right next to it.
    deep = (slice(None),) + tuple(slice(2, -2) for _ in range(3))
    for kind in KINDS:
        gaps = {}
        for n in (16, 32):
            dom = g.build_domain(kind, n)
            u = smooth_field(dom)
            wide = g.divergence(dom, g.gradient(dom, u))
            lap = g.laplacian(dom, u)
            gaps[n] = np.max(np.abs(wide[deep] - lap[deep]))
            assert gaps[n] < 900.0 * dom.h**2
        assert 3.5 < gaps[16] / gaps[32] < 4.5


def test_laplacian_exact_on_quadratic():
    dom = g.build_domain(g.CUBIC_PERIODIC, 8)
    _, _, z = dom.meshgrid()
    u = np.broadcast_to(z * (1 - z), (3,) + dom.shape).copy()
    assert np.allclose(g.laplacian(dom, u), -2.0, rtol=0.0, atol=1e-11)
    assert np.all(g.laplacian(dom, dom.zeros()) == 0.0)


def test_laplacian_analytic_convergence():
    errs = []
    for n in (16, 32):
        dom = g.build_domain(g.CUBIC_PERIODIC, n)
        x, _, z = dom.meshgrid()
        u = np.zeros((3,) + dom.shape)
        u[0] = np.sin(2 * np.pi * x) * np.sin(np.pi * z)
        errs.append(np.max(np.abs(g.laplacian(dom, u)[0] + 5 * np.pi**2 * u[0])))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_second_derivatives_exact_on_quadratic():
    dom = g.build_domain(g.DIRICHLET_BOX, 8)
    x, y, z = dom.meshgrid()
    u = np.zeros((3,) + dom.shape)
    u[0] = x * x + 2 * x * y - z * z
    u[1] = y * z
    d2 = g.second_derivatives(dom, u)
    full = d2.full_tensor()
    assert np.allclose(full[0, 0, 0], 2.0, atol=1e-10)
    assert np.allclose(full[0, 0, 1], 2.0, atol=1e-10)
    assert np.allclose(full[0, 2, 2], -2.0, atol=1e-10)
    assert np.allclose(full[1, 1, 2], 1.0, atol=1e-10)
    assert np.allclose(full[1, 0, 0], 0.0, atol=1e-10)


def test_second_derivative_split_identity():
    dom = g.build_domain(g.CUBIC_PERIODIC, 16)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((3,) + dom.shape)
    d2 = g.second_derivatives(dom, u)
    dzz_sq = np.sum(d2.d_zz() ** 2, axis=0)
    assert np.allclose(d2.sq_all(), d2.sq_tangential() + dzz_sq, rtol=1e-12, atol=1e-12)


def test_second_derivative_trace_is_laplacian():
    for kind in KINDS:
        dom = g.build_domain(kind, 12)
        rng = np.random.default_rng(6)
        u = rng.standard_normal((3,) + dom.shape)
        tr = g.second_derivatives(dom, u).trace()
        lap = g.laplacian(dom, u)
        assert np.allclose(tr, lap, rtol=0.0, atol=1e-9 * np.max(np.abs(lap)))


def test_operator_linearity():
    dom = g.build_domain(g.CUBIC_PERIODIC, 12)
    rng = np.random.default_rng(7)
    u = rng.standard_normal((3,) + dom.shape)
    v = rng.standard_normal((3,) + dom.shape)
    a, b = 1.7, -0.3
    for op in (lambda w: g.gradient(dom, w), lambda w: g.laplacian(dom, w),
               lambda w: g.second_derivatives(dom, w).values):
        lhs = op(a * u + b * v)
        rhs = a * op(u) + b * op(v)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-10)


def test_summation_by_parts():
    rng = np.random.default_rng(8)
    for kind in KINDS:
        dom = g.build_domain(kind, 16)
        u = g.apply_constraints(dom, rng.standard_normal((3,) + dom.shape))
        t = g.apply_constraints(dom, rng.standard_normal((3, 3) + dom.shape))
        lhs = inner(dom, g.divergence(dom, t), u)
        rhs = -inner(dom, t, g.gradient(dom, u))
        assert abs(lhs - rhs) < 1e-13 * (1.0 + abs(rhs))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(8, 11), axis=st.integers(0, 2),
       side=st.sampled_from((1, -1)), seed=st.integers(0, 2**32 - 1))
def test_one_sided_summation_by_parts(kind, n, axis, side, seed):
    dom = g.build_domain(kind, n)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((3,) + dom.shape)
    t = rng.standard_normal((3,) + dom.shape)
    s = 0 if side > 0 else 1  # the index of this side in the kernel's pair
    mask = g.face_masks(dom)[s]
    # the mask is 1 exactly where the difference along every axis has a face
    # (a generic field's differences vanish only where there is none)
    has_faces = [g.one_sided_differences(dom, u[0], ax)[s] != 0.0 for ax in range(3)]
    assert np.array_equal(mask == 1.0, np.all(has_faces, axis=0))
    assert np.all((mask == 0.0) | (mask == 1.0))
    # on fields vanishing on the walls, D+ and D- are negative adjoints
    g.apply_constraints(dom, u)
    lhs = inner(dom, mask * t, g.one_sided_differences(dom, u, axis)[s])
    rhs = -inner(dom, u, g.one_sided_differences(dom, mask * t, axis)[1 - s])
    # every summand is at most h^3 |u| 2 max|t| / h
    assert abs(lhs - rhs) <= 1e-13 * 2.0 * dom.h**2 * np.sum(np.abs(u)) * np.max(np.abs(t))


def test_norm_constant_one():
    for kind in KINDS:
        dom = g.build_domain(kind, 16)
        ones = np.ones(dom.shape)
        for q in (1.0, 2.0, 3.0, 7.0, np.inf):
            assert abs(g.norm(dom, ones, q=q) - 1.0) < 1e-12


def test_norm_constrained_constant_near_one():
    dom = g.build_domain(g.CUBIC_PERIODIC, 32)
    u = g.apply_constraints(dom, np.zeros((3,) + dom.shape) + np.array([1.0, 0, 0])[:, None, None, None])
    val = g.norm(dom, u, q=2.0)
    assert abs(val - 1.0) < 2.0 * dom.h


def test_norm_max():
    dom = g.build_domain(g.DIRICHLET_BOX, 8)
    f = np.zeros(dom.shape)
    f[3, 4, 5] = -7.0
    assert g.norm(dom, f, q=np.inf) == 7.0


def test_norm_validation():
    dom = g.build_domain(g.DIRICHLET_BOX, 8)
    with pytest.raises(ValueError):
        g.norm(dom, np.ones(dom.shape), q=0.5)
    with pytest.raises(ValueError):
        g.norm(dom, np.ones((3,) + dom.shape), sobolev_level=3)


def test_norm_sobolev_levels():
    dom = g.build_domain(g.CUBIC_PERIODIC, 16)
    u = smooth_field(dom)
    l2 = g.norm(dom, u, q=2.0)
    w12 = g.norm(dom, u, q=2.0, sobolev_level=1)
    w22 = g.norm(dom, u, q=2.0, sobolev_level=2)
    assert l2 < w12 < w22
    gn = g.norm(dom, g.gradient(dom, u), q=2.0)
    assert abs(w12 - (l2**2 + gn**2) ** 0.5) < 1e-12
    # at q = inf the levels combine as the max of their parts' max norms
    parts = [g.norm(dom, u, q=np.inf), g.norm(dom, g.gradient(dom, u), q=np.inf),
             g.norm(dom, g.second_derivatives(dom, u), q=np.inf)]
    assert g.norm(dom, u, q=np.inf, sobolev_level=1) == max(parts[:2])
    assert g.norm(dom, u, q=np.inf, sobolev_level=2) == max(parts)


def test_norm_second_deriv_interior_only():
    dom = g.build_domain(g.DIRICHLET_BOX, 12)
    rng = np.random.default_rng(9)
    u = rng.standard_normal((3,) + dom.shape)
    d2 = g.second_derivatives(dom, u)
    manual = np.sqrt(dom.h**3 * np.sum(d2.sq_all()[dom.interior]))
    assert abs(g.norm(dom, d2, q=2.0) - manual) < 1e-12 * manual


@pytest.mark.parametrize("kind", KINDS)
def test_public_quadrature_helpers(kind):
    # the building blocks audit uses are public, and norm is made of them
    for name in ("centered_difference", "quadrature_weights", "lq_norm_from_squares"):
        assert name in g.__all__
    dom = g.build_domain(kind, 10)
    w = g.quadrature_weights(dom)
    assert abs(float(np.sum(w)) - 1.0) < 1e-14
    assert not w.flags.writeable
    x, _, z = dom.meshgrid()
    # exact on quadratics, wall nodes included
    np.testing.assert_allclose(g.centered_difference(dom, z * z, 2), 2.0 * z, atol=1e-12)
    assert np.array_equal(g.gradient(dom, np.stack([x, z, z * z]))[:, 2],
                          g.centered_difference(dom, np.stack([x, z, z * z]), 2))
    rng = np.random.default_rng(2)
    u = rng.standard_normal((3,) + dom.shape)
    sq = np.sum(u * u, axis=0)
    for q in (2.0, 5.0, np.inf):
        assert g.lq_norm_from_squares(dom, sq, q, False) == g.norm(dom, u, q=q)
    d2 = g.second_derivatives(dom, u)
    assert g.lq_norm_from_squares(dom, d2.sq_all(), 3.0, True) == g.norm(dom, d2, q=3.0)


def test_cached_grid_arrays_are_read_only_and_bounded():
    # every caller shares these arrays, so a write would change the next
    # caller's values
    dom = g.build_domain(g.DIRICHLET_BOX, 8)
    for arr in (*g.face_masks(dom), g.quadrature_weights(dom), g._interior_weights(dom)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0, 0] = 2.0
    for cached in (g.face_masks, g.quadrature_weights, g._interior_weights):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and maxsize <= 32
        cached.cache_clear()
        for n in range(8, 8 + maxsize + 4):
            cached(g.build_domain(g.CUBIC_PERIODIC, n))
        assert cached.cache_info().currsize == maxsize


def test_mollify_constant_interior():
    dom = g.build_domain(g.CUBIC_PERIODIC, 16)
    f = np.ones((1,) + dom.shape)
    out = g.mollify(dom, f, 2 * dom.h)
    # zero extension only affects nodes within the kernel radius of a wall
    assert np.allclose(out[..., 2:-2], 1.0, rtol=0.0, atol=1e-14)


def test_mollify_identity_at_h_and_monotone_approach():
    dom = g.build_domain(g.CUBIC_PERIODIC, 16)
    x, y, z = dom.meshgrid()
    f = (np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) * np.sin(np.pi * z))[None]
    errs = [np.max(np.abs(g.mollify(dom, f, m * dom.h) - f)) for m in (4, 2, 1)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] == 0.0


def test_mollify_gradient_inequality():
    # |grad J_eps u| <= J_eps(|grad u|) + O(h) pointwise
    dom = g.build_domain(g.CUBIC_PERIODIC, 24)
    u = smooth_field(dom)
    gu = g.gradient(dom, u)
    mag_gu = np.sqrt(np.sum(gu * gu, axis=(0, 1)))
    for m in (2, 4):
        ju = g.mollify(dom, u, m * dom.h)
        gj = g.gradient(dom, ju)
        mag_gj = np.sqrt(np.sum(gj * gj, axis=(0, 1)))
        slack = np.max(mag_gj - g.mollify(dom, mag_gu, m * dom.h))
        assert slack <= dom.h * np.max(mag_gu)


def test_mollify_mass_preservation():
    # nonnegative field supported away from the walls: total mass exact
    dom = g.build_domain(g.CUBIC_PERIODIC, 16)
    rng = np.random.default_rng(10)
    f = np.zeros((1,) + dom.shape)
    f[..., 5:-5] = rng.uniform(0.0, 1.0, f[..., 5:-5].shape)
    out = g.mollify(dom, f, 3 * dom.h)
    assert abs(np.sum(out) - np.sum(f)) < 1e-12 * np.sum(f)
    assert np.all(out >= -1e-15)


def test_mollify_validation():
    dom = g.build_domain(g.CUBIC_PERIODIC, 16)
    f = np.ones((1,) + dom.shape)
    with pytest.raises(EpsTooLarge):
        g.mollify(dom, f, 8 * dom.h)  # 0.5 > 1/4
    with pytest.raises(ValueError):
        g.mollify(dom, f, 1.5 * dom.h)


def test_serialization_round_trip(tmp_path):
    for kind in KINDS:
        dom = g.build_domain(kind, 8)
        rng = np.random.default_rng(11)
        u = rng.standard_normal((3,) + dom.shape)
        path = tmp_path / f"field_{kind}.bin"
        g.save_field(path, dom, u)
        dom2, u2 = g.load_field(path)
        assert dom2 == dom
        assert np.array_equal(u2, u)


# every kind of double a field file must carry: signed zeros, the smallest
# and largest subnormals, the extremes of the normal range, infinities and a
# one-ulp step above 1
SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                           2.2250738585072014e-308, np.finfo(float).max,
                           -np.finfo(float).max, np.inf, -np.inf, 1.0 + 2.0**-52])


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(8, 10),
       components=st.sampled_from([(), (3,), (3, 3)]),
       values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=64),
       seed=st.integers(0, 2**32 - 1))
def test_serialization_round_trips_every_double_bit_for_bit(kind, n, components, values,
                                                             seed):
    dom = g.build_domain(kind, n)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(components + dom.shape) * 10.0 ** rng.integers(-300, 300)
    pool = np.concatenate((SPECIAL_VALUES, values))
    u.flat[rng.choice(u.size, pool.size, replace=False)] = pool
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.bin"
        g.save_field(path, dom, u)
        dom2, u2 = g.load_field(path)
        assert dom2 == dom
        assert u2.shape == u.shape
        assert np.array_equal(u2.view(np.uint64), u.view(np.uint64))


def test_serialization_scalar_component(tmp_path):
    dom = g.build_domain(g.DIRICHLET_BOX, 8)
    f = np.linspace(0.0, 1.0, int(np.prod(dom.shape))).reshape(dom.shape)
    path = tmp_path / "scalar.bin"
    g.save_field(path, dom, f)
    _, f2 = g.load_field(path)
    assert np.array_equal(f2, f)


def test_serialization_rejects_bad_format(tmp_path):
    # a field file whose header names another format is refused, not misread
    dom = g.build_domain(g.DIRICHLET_BOX, 8)
    path = tmp_path / "field.bin"
    g.save_field(path, dom, dom.zeros())
    header, body = path.read_bytes().split(b"\n", 1)
    assert json.loads(header)["fmt"] == "bin"
    path.write_bytes(header.replace(b'"bin"', b'"csv"') + b"\n" + body)
    with pytest.raises(ValueError, match="unknown field format 'csv'"):
        g.load_field(path)


@pytest.mark.parametrize("extra", [5, -100])
def test_serialization_rejects_a_payload_of_the_wrong_size(tmp_path, extra):
    # a file with values appended or cut off is refused, not loaded in part
    dom = g.build_domain(g.DIRICHLET_BOX, 8)
    path = tmp_path / "field.bin"
    g.save_field(path, dom, dom.zeros())
    data = path.read_bytes()
    count = 3 * int(np.prod(dom.shape))
    data = data + bytes(8 * extra) if extra > 0 else data[:8 * extra]
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"holds {count + extra} values, expected {count}$"):
        g.load_field(path)
