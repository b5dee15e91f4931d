"""Pointwise reconstruction of doubly-normal second derivatives.

For the symmetric-gradient law with p > 2 and mu > 0, the three unknowns
x_i = dzz(u_i) satisfy a 3x3 linear system a x = g at every node, where a
depends only on Du and g collects f and the remaining ("tangential") second
derivatives.  Solving it expresses dzz(u) through quantities controlled by
tangential translations, and |x| <= |g| because a has all eigenvalues >= 1.
The same elimination for the full-gradient law is simpler and is provided as
an extension.

Index convention: the normal direction is grid axis 2 (z); entries of second
derivative tensors are t[component, axis_a, axis_b].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as g
from . import solver
from .constitutive import ConstitutiveParams
from .errors import BadExponent, NotConverged
from .grid import DomainSpec

__all__ = [
    "NormalSystem",
    "assemble_normal_system",
    "solve_normal",
    "pointwise_bound_check",
]

_Z = 2

# the regularizer of pointwise_bound_check's denominators
DELTA = 1e-14

# ratio_mean leaves out the interior nodes whose denominator is at most this
# fraction of the interior maximum: there |dzz u| and the denominator are both
# at roundoff, and with them scaling u by 1 +- 1e-13 moved the mean by up to
# 1.4e-5 relative (3.5e-14 without them).  Any fraction from 1e-12 to 1e-4
# leaves out the same 8 of 3 840 nodes of the README reconstruct example.
MEAN_FLOOR = 1e-8


@dataclass
class NormalSystem:
    """Batched 3x3 systems a x = g, one per node.

    a has shape (3, 3, *nodes), g has (3, *nodes).
    """

    a: np.ndarray
    g: np.ndarray

    def quadratic_form(self, xi: np.ndarray) -> np.ndarray:
        """xi^T a xi for a direction field xi of shape (3, *nodes)."""
        return np.einsum("j...,jl...,l...->...", xi, self.a, xi)


def _as_d2_tensor(d2) -> np.ndarray:
    if isinstance(d2, g.SecondDerivField):
        return d2.full_tensor()
    return np.asarray(d2, dtype=float)


def assemble_normal_system(
    du: np.ndarray,
    d2: np.ndarray,
    f: np.ndarray,
    p: float,
    mu: float,
    structure: str = "symmetric",
) -> NormalSystem:
    """Build the per-node system for the dzz components.

    du is the gradient the law acts on ((3,3) leading axes, symmetric part for
    the symmetric law), d2 the full second-derivative tensor (its (z,z)
    entries are never read), f the forcing.  Any trailing node axes are
    batched over.  Where |du| = 0 the (p-2) correction terms are set to 0;
    they carry a factor du/|du| * du that vanishes with du.  The symmetric
    law's system is the full law's with its (p-2) terms and forcing doubled,
    one more on a[z, z] and the mixed divergence row added to the load.
    """
    if p <= 2.0:
        raise BadExponent(f"normal-system elimination needs p > 2, got p={p}")
    if mu <= 0.0:
        raise ValueError(f"normal-system elimination needs mu > 0, got mu={mu}")
    if structure not in ("symmetric", "full"):
        raise ValueError(f"structure must be 'symmetric' or 'full', got {structure!r}")
    du = np.asarray(du, dtype=float)
    t = _as_d2_tensor(d2)
    f = np.asarray(f, dtype=float)
    mag = np.sqrt(np.sum(du * du, axis=(0, 1)))
    base = mu + mag
    with np.errstate(divide="ignore"):
        inv = np.where(mag > 0.0, 1.0 / (base * mag), 0.0)
    nshape = du.shape[2:]
    eye = np.eye(3).reshape((3, 3) + (1,) * len(nshape))
    law = 2.0 if structure == "symmetric" else 1.0
    nvec = du[:, _Z]  # column of du against the normal, (du e_z)_j
    a = np.broadcast_to(eye, (3, 3) + nshape).copy()
    # tangential load: sum_{k<z} d_kk u_j, on the symmetric law plus the mixed
    # divergence row with its dzz(u_z) term removed, and the (p-2) coupling
    # without its (z, z) slot
    load = t[:, 0, 0] + t[:, 1, 1]
    if structure == "symmetric":
        a[_Z, _Z] += 1.0
        s2 = np.einsum("kjk...->j...", t[:, :, :])
        s2[_Z] -= t[_Z, _Z, _Z]
        load += s2
    a += law * (p - 2.0) * inv * np.einsum("j...,l...->jl...", nvec, nvec)
    w = np.einsum("lm...,lkm...->k...", du, t)
    w[_Z] -= np.einsum("l...,l...->...", nvec, t[:, _Z, _Z])
    coupling = np.einsum("jk...,k...->j...", du, w)
    gvec = -load - law * (p - 2.0) * inv * coupling - law * base ** (2.0 - p) * f
    return NormalSystem(a, gvec)


def solve_normal(system: NormalSystem) -> np.ndarray:
    """Solve every node's 3x3 system; result shape (3, *nodes).

    The matrices have eigenvalues >= 1 for p > 2, so plain elimination is
    safe and |result| <= |g| holds pointwise.
    """
    a = system.a
    gvec = system.g
    nshape = a.shape[2:]
    am = np.moveaxis(a.reshape(3, 3, -1), -1, 0)
    gm = np.moveaxis(gvec.reshape(3, -1), -1, 0)
    x = np.linalg.solve(am, gm[..., None])[..., 0]
    return np.moveaxis(x, 0, -1).reshape((3,) + nshape)


def pointwise_bound_check(
    domain: DomainSpec,
    u: np.ndarray,
    f: np.ndarray,
    p: float,
    mu: float,
    structure: str = "symmetric",
    eta: float = 0.0,
    residual_tol: float = 1e-6,
) -> dict:
    """Ratio field |dzz u| / (mu^(2-p)|f| + |tangential D2 u| + DELTA).

    u must be a converged solve for this (f, eta): the relative residual is
    gated at residual_tol (NotConverged otherwise), since the bound is a
    statement about solutions only.  Also cross-checks the reconstructed dzz
    against the direct stencil value.  All statistics are over interior nodes;
    ratio_mean leaves out those whose denominator is at most MEAN_FLOOR times
    the interior maximum, and mean_excluded counts them.
    """
    params = ConstitutiveParams(p=p, mu=mu, structure=structure)
    fnorm = float(np.sqrt(np.sum(f * f)))
    res = solver.residual(domain, params, eta, u, f)
    rel = float(np.sqrt(np.sum(res * res))) / max(fnorm, 1e-300)
    if fnorm > 0.0 and rel > residual_tol:
        raise NotConverged(
            f"field is not a converged solution: relative residual {rel:.3e} "
            f"exceeds {residual_tol:.1e}"
        )
    d2 = g.second_derivatives(domain, u)
    dzz = d2.d_zz()
    dzz_mag = np.sqrt(np.sum(dzz * dzz, axis=0))
    tang_mag = np.sqrt(np.maximum(d2.sq_tangential(), 0.0))
    fmag = np.sqrt(np.sum(f * f, axis=0))
    ratio = np.zeros(domain.shape)
    inner = domain.interior
    denom = mu ** (2.0 - p) * fmag + tang_mag + DELTA
    ratio[inner] = (dzz_mag / denom)[inner]
    kept = denom[inner] > MEAN_FLOOR * np.max(denom[inner])

    du = g.gradient(domain, u, structure)
    rec = solve_normal(assemble_normal_system(du, d2, f, p, mu, structure))
    gap = rec - dzz
    gap_sq = np.sum(gap * gap, axis=0)[inner]
    dzz_sq = np.sum(dzz * dzz, axis=0)[inner]
    rel_l2 = float(np.sqrt(np.sum(gap_sq)) / max(np.sqrt(np.sum(dzz_sq)), 1e-300))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel_point = np.sqrt(gap_sq) / (np.sqrt(dzz_sq) + DELTA)
    return {
        "ratio": ratio,
        "ratio_max": float(np.max(ratio[inner], initial=0.0)),
        "ratio_mean": float(np.mean(ratio[inner][kept])),
        "mean_excluded": int(kept.size - np.count_nonzero(kept)),
        "residual_rel": rel,
        "reconstruction_rel_l2": rel_l2,
        "reconstruction_rel_median": float(np.median(rel_point)),
        "dzz": dzz,
        "reconstructed_dzz": rec,
    }
