"""Transform-based Poisson inversion: exactness, inverse pairing, symmetry."""

import numpy as np
import pytest
from scipy import fft as sfft

from pstruct import grid as g
from pstruct.poisson import poisson_solve

KINDS = (g.CUBIC_PERIODIC, g.DIRICHLET_BOX)


def interior_values(dom, field):
    return field[(Ellipsis,) + dom.interior]


def test_solve_then_apply_recovers_rhs():
    rng = np.random.default_rng(31)
    for kind in KINDS:
        dom = g.build_domain(kind, 16)
        f = rng.standard_normal((3,) + dom.shape)
        w = poisson_solve(dom, f)
        assert np.all(w[..., 0] == 0.0) and np.all(w[..., -1] == 0.0)
        resid = -g.laplacian(dom, w)
        err = np.max(np.abs(interior_values(dom, resid) - interior_values(dom, f)))
        assert err < 1e-10 * np.max(np.abs(f))


def test_apply_then_solve_recovers_field():
    rng = np.random.default_rng(32)
    for kind in KINDS:
        dom = g.build_domain(kind, 12)
        w = g.apply_constraints(dom, rng.standard_normal((3,) + dom.shape))
        back = poisson_solve(dom, -g.laplacian(dom, w))
        assert np.allclose(back, w, rtol=0.0, atol=1e-11 * np.max(np.abs(w)))


def test_discrete_eigenfunction_exact():
    # sine products are exact eigenvectors of the 7-point stencil
    dom = g.build_domain(g.DIRICHLET_BOX, 16)
    x, y, z = dom.meshgrid()
    mode = np.sin(np.pi * x) * np.sin(2 * np.pi * y) * np.sin(np.pi * z)
    lam = sum((2.0 / dom.h * np.sin(np.pi * m * dom.h / 2.0)) ** 2 for m in (1, 2, 1))
    w = poisson_solve(dom, mode[None])
    assert np.allclose(w[0], mode / lam, rtol=0.0, atol=1e-13)


def test_self_adjointness():
    rng = np.random.default_rng(33)
    dom = g.build_domain(g.CUBIC_PERIODIC, 12)
    f = rng.standard_normal((3,) + dom.shape)
    h = rng.standard_normal((3,) + dom.shape)
    lhs = float(np.sum(interior_values(dom, poisson_solve(dom, f)) * interior_values(dom, h)))
    rhs = float(np.sum(interior_values(dom, f) * interior_values(dom, poisson_solve(dom, h))))
    assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), 1.0)


def test_scalar_and_vector_shapes():
    dom = g.build_domain(g.DIRICHLET_BOX, 8)
    rng = np.random.default_rng(34)
    f = rng.standard_normal(dom.shape)
    w_scalar = poisson_solve(dom, f)
    w_vec = poisson_solve(dom, np.stack([f, 2.0 * f, np.zeros_like(f)]))
    assert w_scalar.shape == dom.shape
    assert np.allclose(w_vec[0], w_scalar, rtol=0.0, atol=1e-13)
    assert np.allclose(w_vec[1], 2.0 * w_scalar, rtol=0.0, atol=1e-13)
    assert np.all(w_vec[2] == 0.0)


def _complex_transform_solve(dom, f):
    """Reference: sine transforms on wall axes, the complex FFT on every
    periodic axis, and the full spectrum."""
    n, h = dom.n, dom.h
    per = []
    for ax in range(3):
        if dom.is_periodic(ax):
            per.append((2.0 / h * np.sin(np.pi * np.arange(n) / n)) ** 2)
        else:
            per.append((2.0 / h * np.sin(np.pi * np.arange(1, n) / (2.0 * n))) ** 2)
    lam = per[0][:, None, None] + per[1][None, :, None] + per[2][None, None, :]
    work = interior_values(dom, f)
    axes = [work.ndim - 3 + ax for ax in range(3)]
    for ax, axis in enumerate(axes):
        if not dom.is_periodic(ax):
            work = sfft.dst(work, type=1, axis=axis)
    for ax, axis in enumerate(axes):
        if dom.is_periodic(ax):
            work = sfft.fft(work, axis=axis)
    work = work / lam
    for ax, axis in enumerate(axes):
        if dom.is_periodic(ax):
            work = sfft.ifft(work, axis=axis)
    work = work.real
    for ax, axis in enumerate(axes):
        if not dom.is_periodic(ax):
            work = sfft.idst(work, type=1, axis=axis)
    out = np.zeros(f.shape)
    out[(Ellipsis,) + dom.interior] = work
    return out


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [8, 9, 16])
def test_real_transform_matches_complex_reference(kind, n):
    # the slab's real FFT over the half spectrum agrees with the complex FFT
    # to roundoff (odd n included); the box takes no FFT and is unchanged
    dom = g.build_domain(kind, n)
    f = np.random.default_rng(n).standard_normal((3,) + dom.shape)
    got, ref = poisson_solve(dom, f), _complex_transform_solve(dom, f)
    if kind == g.DIRICHLET_BOX:
        assert np.array_equal(got, ref)
    else:
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
