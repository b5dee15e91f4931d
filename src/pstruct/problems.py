"""Problem catalog: forcing fields, manufactured solutions, 1-D oracle.

A ProblemSpec bundles a domain, constitutive parameters and a forcing term.
Forcings come from a small reproducible catalog (rhs_sample) or from
manufactured solutions: ``manufactured_discrete`` builds f by applying the
solver's own discrete operator to a chosen field (exact round-trip, no
discretisation error), ``manufactured_continuous`` differentiates an analytic
field exactly (so a solve exhibits the scheme's O(h^2) error).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .constitutive import ConstitutiveParams, stress_jacobian
from .errors import UnknownId
from .grid import D2_PAIRS, DomainSpec, norm as grid_norm

__all__ = [
    "RhsSpec",
    "ProblemSpec",
    "rhs_sample",
    "AnalyticField",
    "smooth_test_field",
    "manufactured_discrete",
    "manufactured_continuous",
    "oned_profile_oracle",
    "extend_profile",
]

RHS_IDS = ("constant", "smooth-trig", "band-limited-random")


@dataclass(frozen=True)
class RhsSpec:
    id: str = "smooth-trig"
    amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.id not in RHS_IDS:
            raise UnknownId(f"rhs id {self.id!r} not in catalog {RHS_IDS}")
        if not self.amplitude > 0.0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")


@dataclass
class ProblemSpec:
    domain: DomainSpec
    params: ConstitutiveParams
    rhs: RhsSpec = dataclass_field(default_factory=RhsSpec)
    f: Optional[np.ndarray] = None  # explicit forcing overrides the catalog
    exact: Optional[np.ndarray] = None  # reference solution when known

    def forcing(self) -> np.ndarray:
        if self.f is None:
            self.f = rhs_sample(self.domain, self.rhs.id, self.rhs.amplitude, self.rhs.seed)
        return self.f


def _axis_basis_periodic(x: np.ndarray, kmax: int = 3) -> np.ndarray:
    cols = [np.ones_like(x)]
    for k in range(1, kmax + 1):
        cols.append(np.cos(2.0 * np.pi * k * x))
        cols.append(np.sin(2.0 * np.pi * k * x))
    return np.stack(cols, axis=-1)


def _axis_basis_wall(x: np.ndarray, mmax: int = 4) -> np.ndarray:
    return np.stack([np.sin(np.pi * m * x) for m in range(1, mmax + 1)], axis=-1)


def rhs_sample(domain: DomainSpec, id: str, amplitude: float = 1.0, seed: int = 0) -> np.ndarray:
    """Reproducible forcing field from the catalog.

    * ``constant``: amplitude * e_1 at every node.
    * ``smooth-trig``: every component proportional to
      sin(2 pi x)cos(2 pi y)sin(pi z).
    * ``band-limited-random``: seeded iid normal coefficients over the lowest
      four modes of each axis (sines on wall axes).

    Non-constant fields are rescaled so their discrete L2 norm equals
    amplitude; that makes amplitude sweeps directly comparable across ids and
    seeds.  (The constant field already has unit-volume L2 norm = amplitude.)
    """
    if id not in RHS_IDS:
        raise UnknownId(f"rhs id {id!r} not in catalog {RHS_IDS}")
    if not amplitude > 0.0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    x, y, z = (domain.coords(ax) for ax in range(3))
    if id == "constant":
        f = np.zeros((3,) + domain.shape)
        f[0] = amplitude
        return f
    if id == "smooth-trig":
        prof = (
            np.sin(2.0 * np.pi * x)[:, None, None]
            * np.cos(2.0 * np.pi * y)[None, :, None]
            * np.sin(np.pi * z)[None, None, :]
        )
        f = np.broadcast_to(prof, (3,) + domain.shape).copy()
    else:
        rng = np.random.default_rng(seed)
        bases = []
        for ax, t in zip(range(3), (x, y, z)):
            bases.append(
                _axis_basis_periodic(t) if domain.is_periodic(ax) else _axis_basis_wall(t)
            )
        coeffs = rng.standard_normal((3, bases[0].shape[1], bases[1].shape[1], bases[2].shape[1]))
        f = np.einsum(
            "cabm,xa,yb,zm->cxyz", coeffs, bases[0], bases[1], bases[2], optimize=True
        )
    return f * (amplitude / grid_norm(domain, f, q=2.0))


class AnalyticField:
    """Separable trig vector field with exact derivatives.

    Component i is amp[i] * F_x(x) * F_y(y) * sin(pi kz[i] z), where on
    periodic axes F is sin or cos of 2 pi k(.) and on wall axes F is
    sin(pi k .); the z factor always vanishes at the walls so the field
    satisfies the Dirichlet constraint.  Derivative evaluation is exact
    (hand-differentiated factors), which makes the field usable as an oracle.
    """

    def __init__(self, domain: DomainSpec, spec=None):
        # spec: per component, (amplitude, (form_x, k_x), (form_y, k_y), k_z)
        if spec is None:
            spec = [
                (0.9, ("sin", 1), ("cos", 1), 1),
                (0.7, ("cos", 2), ("sin", 1), 2),
                (0.5, ("sin", 1), ("sin", 2), 1),
            ]
        self.domain = domain
        self.spec = spec

    def _factor(self, axis: int, form: str, k: int, deriv: int) -> np.ndarray:
        t = self.domain.coords(axis)
        if self.domain.is_periodic(axis):
            w = 2.0 * np.pi * k
        else:
            w = np.pi * k
        table = {"sin": (np.sin, np.cos, -1.0), "cos": (np.cos, lambda s: -np.sin(s), -1.0)}
        base, d1, sgn2 = table[form]
        if deriv == 0:
            return base(w * t)
        if deriv == 1:
            return w * d1(w * t)
        return sgn2 * w * w * base(w * t)

    def _component(self, i: int, dx: int = 0, dy: int = 0, dz: int = 0) -> np.ndarray:
        amp, (fx, kx), (fy, ky), kz = self.spec[i]
        a = self._factor(0, fx, kx, dx)
        b = self._factor(1, fy, ky, dy)
        c = self._factor(2, "sin", kz, dz)
        return amp * a[:, None, None] * b[None, :, None] * c[None, None, :]

    def values(self) -> np.ndarray:
        return np.stack([self._component(i) for i in range(3)])

    def gradient_values(self, mode: str = "full") -> np.ndarray:
        out = np.empty((3, 3) + self.domain.shape)
        for i in range(3):
            for j in range(3):
                d = [0, 0, 0]
                d[j] = 1
                out[i, j] = self._component(i, *d)
        if mode == "symmetric":
            out = 0.5 * (out + np.swapaxes(out, 0, 1))
        return out

    def second_values(self) -> np.ndarray:
        """Second partials in the grid module's pair order, shape (3,6,...)."""
        out = np.empty((3, 6) + self.domain.shape)
        for i in range(3):
            for idx, (a, b) in enumerate(D2_PAIRS):
                d = [0, 0, 0]
                d[a] += 1
                d[b] += 1
                out[i, idx] = self._component(i, *d)
        return out

    def laplacian_values(self) -> np.ndarray:
        sec = self.second_values()
        return sec[:, 0] + sec[:, 1] + sec[:, 2]


def smooth_test_field(domain: DomainSpec, seed: Optional[int] = None) -> AnalyticField:
    """A fixed (or seeded) smooth constraint-compatible test field."""
    if seed is None:
        return AnalyticField(domain)
    rng = np.random.default_rng(seed)
    spec = []
    forms = ("sin", "cos")
    for _ in range(3):
        amp = 0.4 + 0.6 * rng.random()
        fx = (forms[rng.integers(2)] if domain.is_periodic(0) else "sin", int(rng.integers(1, 3)))
        fy = (forms[rng.integers(2)] if domain.is_periodic(1) else "sin", int(rng.integers(1, 3)))
        spec.append((amp, fx, fy, int(rng.integers(1, 3))))
    return AnalyticField(domain, spec)


def manufactured_discrete(
    domain: DomainSpec, params: ConstitutiveParams, eta: float, u_star: np.ndarray
) -> np.ndarray:
    """Forcing that makes u_star the exact solution of the discrete system.

    Applies the solver's own operator, so a converged solve recovers u_star to
    iteration tolerance with no discretisation gap.  Meaningful on interior
    nodes (the returned field is zeroed on Dirichlet faces like any residual).
    """
    from . import solver  # imported lazily; solver builds problems from this module

    return solver.apply_operator(domain, params, eta, u_star)


def manufactured_continuous(
    domain: DomainSpec, params: ConstitutiveParams, eta: float, u_field: AnalyticField
) -> np.ndarray:
    """Exact continuum forcing -eta*Lap(u) - div S(G u) of an analytic field.

    Differentiates the stress by the chain rule with the exact jacobian, so
    the only error in a solve against this forcing is the scheme's own O(h^2).
    Points where the jacobian degenerates (mu = 0 with vanishing gradient)
    raise DegeneratePoint, mirroring the pointwise law.
    """
    g = u_field.gradient_values(params.structure)
    sec = u_field.second_values()
    pair_index = {}
    for idx, (a, b) in enumerate(D2_PAIRS):
        pair_index[(a, b)] = idx
        pair_index[(b, a)] = idx
    # dkg[k, l, m] = d_k (G u)_{lm}
    dkg = np.empty((3, 3, 3) + domain.shape)
    for k in range(3):
        for l in range(3):
            for m in range(3):
                if params.structure == "symmetric":
                    dkg[k, l, m] = 0.5 * (
                        sec[l, pair_index[(k, m)]] + sec[m, pair_index[(k, l)]]
                    )
                else:
                    dkg[k, l, m] = sec[l, pair_index[(k, m)]]
    gt = np.moveaxis(g, (0, 1), (-2, -1))
    jac = stress_jacobian(gt, params)  # (..., j, k, l, m)
    jac = np.moveaxis(jac, (-4, -3, -2, -1), (0, 1, 2, 3))
    div_s = np.einsum("jklm...,klm...->j...", jac, dkg)
    return -eta * u_field.laplacian_values() - div_s


def _invert_law(p: float, mu: float, gval: np.ndarray) -> np.ndarray:
    """Solve (mu + |s|)^(p-2) s = g for s, elementwise (odd, increasing map)."""
    g = np.asarray(gval, dtype=float)
    if mu == 0.0:
        return np.sign(g) * np.abs(g) ** (1.0 / (p - 1.0))
    out = np.empty_like(g)
    for idx, val in np.ndenumerate(g):
        target = abs(val)
        if target == 0.0:
            out[idx] = 0.0
            continue
        phi = lambda s: (mu + s) ** (p - 2.0) * s - target
        hi = 1.0
        while phi(hi) < 0.0:
            hi *= 2.0
        out[idx] = np.sign(val) * brentq(phi, 0.0, hi, xtol=1e-15, rtol=8.9e-16)
    return out


def oned_profile_oracle(p: float, mu: float, c_amp: float, n: int) -> dict:
    """High-accuracy wall-to-wall profile for constant forcing c_amp * e_1.

    The profile solves -( (mu+|u'|)^(p-2) u' )' = c_amp on (0,1) with
    u(0) = u(1) = 0.  The first integral (mu+|u'|)^(p-2) u' = c_amp (1/2 - z)
    is inverted pointwise (closed form for mu = 0) and integrated with
    per-cell Gauss quadrature, so the returned nodal values carry error far
    below any O(h^2) scheme.  Returns {"z", "u", "du"} on the n+1 nodes.
    """
    if c_amp == 0.0:
        z = np.linspace(0.0, 1.0, n + 1)
        return {"z": z, "u": np.zeros(n + 1), "du": np.zeros(n + 1)}
    z = np.linspace(0.0, 1.0, n + 1)
    du = _invert_law(p, mu, c_amp * (0.5 - z))
    # 5-point Gauss per cell for the antiderivative
    xg, wg = np.polynomial.legendre.leggauss(5)
    mid = 0.5 * (z[:-1] + z[1:])
    half = 0.5 * (z[1:] - z[:-1])
    pts = mid[:, None] + half[:, None] * xg[None, :]
    vals = _invert_law(p, mu, c_amp * (0.5 - pts))
    cell = np.sum(vals * wg[None, :], axis=1) * half
    u = np.concatenate([[0.0], np.cumsum(cell)])
    return {"z": z, "u": u, "du": du}


def extend_profile(domain: DomainSpec, profile: dict) -> np.ndarray:
    """Lift a wall-to-wall profile to the vector field u(z) e_1 on the grid."""
    u = np.zeros((3,) + domain.shape)
    u[0] = profile["u"][None, None, :]
    return u
