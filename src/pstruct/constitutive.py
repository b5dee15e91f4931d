"""Pointwise algebra of the power-law stress S(A) = (mu + |A|)^(p-2) A.

Tensors are 3x3 and live in the last two axes of an array, so every function
broadcasts over arbitrary leading sample axes.  |A| always means the Frobenius
norm.  The law is used in two flavours selected by ``structure``: the tensor
argument is either the full velocity gradient or its symmetric part; the
pointwise formulas are identical, only the solver decides what it feeds in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePoint

__all__ = [
    "FULL_GRADIENT",
    "SYMMETRIC_GRADIENT",
    "ConstitutiveParams",
    "tensor_norm",
    "stress",
    "stress_jacobian",
    "inequality_ratios",
    "triple_product_check",
]

FULL_GRADIENT = "full"
SYMMETRIC_GRADIENT = "symmetric"
_STRUCTURES = (FULL_GRADIENT, SYMMETRIC_GRADIENT)


@dataclass(frozen=True)
class ConstitutiveParams:
    """Exponent p > 1, offset mu >= 0 and gradient structure of the law."""

    p: float
    mu: float = 0.0
    structure: str = FULL_GRADIENT

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"exponent p must exceed 1, got p={self.p}")
        if self.mu < 0.0:
            raise ValueError(f"offset mu must be nonnegative, got mu={self.mu}")
        if self.structure not in _STRUCTURES:
            raise ValueError(f"structure must be one of {_STRUCTURES}, got {self.structure!r}")


def tensor_norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm over the trailing 3x3 axes."""
    return np.sqrt(np.sum(a * a, axis=(-2, -1)))


def stress(a: np.ndarray, params: ConstitutiveParams) -> np.ndarray:
    """Evaluate S(A) = (mu + |A|)^(p-2) A.

    For mu = 0 and p < 2 the prefactor diverges at A = 0 but the product
    tends to zero (|S(A)| = |A|^(p-1) with p > 1), so S(0) := 0.
    """
    a = np.asarray(a, dtype=float)
    nrm = tensor_norm(a)[..., None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        fac = (params.mu + nrm) ** (params.p - 2.0)
        out = fac * a
    if params.mu == 0.0:
        out = np.where(nrm == 0.0, 0.0, out)
    return out


def stress_jacobian(a: np.ndarray, params: ConstitutiveParams) -> np.ndarray:
    """Derivative dS_ij/dA_kl as an array with trailing axes (i, j, k, l).

    Closed form:

        (mu + |A|)^(p-2) delta_ik delta_jl
          + (p-2) (mu + |A|)^(p-3) |A|^(-1) A_ij A_kl

    where the second term is defined as zero at A = 0 when mu > 0 (the
    directional second difference vanishes there).  At mu = 0 the map is not
    differentiable at A = 0 and DegeneratePoint is raised.
    """
    a = np.asarray(a, dtype=float)
    nrm = tensor_norm(a)
    if params.mu == 0.0 and np.any(nrm == 0.0):
        raise DegeneratePoint("stress_jacobian at A = 0 with mu = 0")
    base = params.mu + nrm
    eye = np.eye(3)
    ident = np.einsum("ik,jl->ijkl", eye, eye)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = (params.p - 2.0) * base ** (params.p - 3.0) / nrm
    coef = np.where(nrm == 0.0, 0.0, coef)
    outer = np.einsum("...ij,...kl->...ijkl", a, a)
    fac = (base ** (params.p - 2.0))[..., None, None, None, None]
    return fac * ident + coef[..., None, None, None, None] * outer


def _pair_scale(a: np.ndarray, b: np.ndarray, params: ConstitutiveParams) -> np.ndarray:
    """The weight (mu + |A| + |B|)^(2-p) used by the two-point inequalities."""
    return (params.mu + tensor_norm(a) + tensor_norm(b)) ** (2.0 - params.p)


def inequality_ratios(a: np.ndarray, b: np.ndarray, params: ConstitutiveParams) -> dict:
    """Scaled two-point/directional ratios of the law, batched over samples.

    Returns a dict with keys ``ellipticity_ratio``, ``monotonicity_ratio``,
    ``lipschitz_ratio``:

    * ellipticity:  [dS/dA(A) : B otimes B] / [(mu+|A|)^(p-2) |B|^2]
    * monotonicity: (S(A)-S(B)) : (A-B) * (mu+|A|+|B|)^(2-p) / |A-B|^2
    * lipschitz:    |S(A)-S(B)| * (mu+|A|+|B|)^(2-p) / |A-B|

    All three are invariant under (A, B, mu) -> (s A, s B, s mu) for s > 0.
    The ellipticity contraction uses the closed form of the jacobian; a test
    cross-checks it against an explicit einsum with stress_jacobian.
    Requires A != B pointwise and, for the ellipticity ratio, mu + |A| > 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nrm_a = tensor_norm(a)
    if params.mu == 0.0 and np.any(nrm_a == 0.0):
        raise DegeneratePoint("ellipticity ratio at A = 0 with mu = 0")
    nrm_b2 = np.sum(b * b, axis=(-2, -1))
    dot_ab = np.sum(a * b, axis=(-2, -1))
    base = params.mu + nrm_a
    # dS/dA(A):B(x)B = base^(p-2) |B|^2 + (p-2) base^(p-3) (A:B)^2 / |A|
    with np.errstate(divide="ignore", invalid="ignore"):
        correction = (params.p - 2.0) * dot_ab**2 / (base * nrm_a * nrm_b2)
    correction = np.where(nrm_a == 0.0, 0.0, correction)
    ellipticity = 1.0 + correction

    diff = a - b
    nrm_diff = tensor_norm(diff)
    if np.any(nrm_diff == 0.0):
        raise ValueError("monotonicity/lipschitz ratios need A != B")
    ds = stress(a, params) - stress(b, params)
    scale = _pair_scale(a, b, params)
    monotonicity = np.sum(ds * diff, axis=(-2, -1)) * scale / nrm_diff**2
    lipschitz = tensor_norm(ds) * scale / nrm_diff
    return {
        "ellipticity_ratio": ellipticity,
        "monotonicity_ratio": monotonicity,
        "lipschitz_ratio": lipschitz,
    }


def triple_product_check(g: np.ndarray, h: np.ndarray, el: np.ndarray) -> dict:
    """Both sides of the contraction bound |sum G_kh H_khj b_j| <= |G|^2 |H| |L|.

    b_j = sum_i G_ij L_i.  G is (..., 3, 3), H is (..., 3, 3, 3), L is
    (..., 3).  The bound is two Cauchy-Schwarz steps and holds for arbitrary
    (not necessarily symmetric) H.  Returns {"lhs": ..., "rhs": ...}.
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    el = np.asarray(el, dtype=float)
    b = np.einsum("...ij,...i->...j", g, el)
    lhs = np.abs(np.einsum("...kh,...khj,...j->...", g, h, b))
    g_sq = np.sum(g * g, axis=(-2, -1))
    h_nrm = np.sqrt(np.sum(h * h, axis=(-3, -2, -1)))
    l_nrm = np.sqrt(np.sum(el * el, axis=-1))
    return {"lhs": lhs, "rhs": g_sq * h_nrm * l_nrm}
