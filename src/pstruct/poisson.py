"""Fast direct inversion of the 7-point Laplacian via trigonometric transforms.

The discrete operator with homogeneous Dirichlet walls is diagonalised by the
type-1 sine transform along wall axes and by the discrete Fourier transform
along periodic axes, so -laplacian(w) = g is solved exactly (to roundoff) in
O(N log N).  The data are real, so the last periodic axis takes the real
transform and only its half spectrum is stored and divided.  Used as the
Krylov preconditioner, by the constant estimators and by the
frozen-coefficient fixed-point iteration.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import fft as sfft

from .grid import DomainSpec

__all__ = ["poisson_solve"]


def _periodic_axes(domain: DomainSpec) -> list:
    return [ax for ax in range(3) if domain.is_periodic(ax)]


@lru_cache(maxsize=16)
def _eigenvalues(domain: DomainSpec) -> np.ndarray:
    """Eigenvalues of -laplacian on the interior block, positive definite,
    over the half spectrum of the last periodic axis."""
    n, h = domain.n, domain.h
    half = _periodic_axes(domain)[-1:]
    per = []
    for ax in range(3):
        if domain.is_periodic(ax):
            k = np.arange(n // 2 + 1 if ax in half else n)
            per.append((2.0 / h * np.sin(np.pi * k / n)) ** 2)
        else:
            m = np.arange(1, n)
            per.append((2.0 / h * np.sin(np.pi * m / (2.0 * n))) ** 2)
    return per[0][:, None, None] + per[1][None, :, None] + per[2][None, None, :]


def poisson_solve(domain: DomainSpec, g: np.ndarray) -> np.ndarray:
    """Solve -laplacian(w) = g with the domain's boundary conditions.

    g is a full-grid field (leading component axes allowed); values on
    Dirichlet faces are ignored.  Returns a full-grid field with zero faces.
    """
    g = np.asarray(g, dtype=float)
    sel = (Ellipsis,) + domain.interior
    gi = g[sel]
    work = gi
    for ax in range(3):
        axis = work.ndim - 3 + ax
        if not domain.is_periodic(ax):
            work = sfft.dst(work, type=1, axis=axis)
    periodic = [work.ndim - 3 + ax for ax in _periodic_axes(domain)]
    if periodic:
        work = sfft.rfft(work, axis=periodic[-1])
        for axis in periodic[:-1]:
            work = sfft.fft(work, axis=axis)
    work = work / _eigenvalues(domain)
    if periodic:
        for axis in periodic[:-1]:
            work = sfft.ifft(work, axis=axis)
        work = sfft.irfft(work, n=domain.n, axis=periodic[-1])
    for ax in range(3):
        axis = work.ndim - 3 + ax
        if not domain.is_periodic(ax):
            work = sfft.idst(work, type=1, axis=axis)
    out = np.zeros(g.shape)
    out[sel] = work
    return out
