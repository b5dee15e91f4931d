"""Nonlinear solves of -eta*Lap(v) - div[(mu+|Gv|)^(p-2) Gv] = f.

Outer loop: Kacanov (frozen secant coefficient) iteration, guarded by a
backtracking line search on the discrete energy.  Inner loop: matrix-free
preconditioned conjugate gradients; the preconditioner is one exact inversion
of the constant-coefficient 7-point Laplacian per iteration (poisson module).
For p < 2 the secant coefficient is unbounded as |Gv| -> 0, and that inversion
is scaled symmetrically by it, s P^{-1}(s r) with s = c^{-1/2} and
c = eta + (a+ + a-)/2 on interior nodes (s = 1 on constrained ones).  For
p >= 2 the plain inversion is used: it is exact at p = 2, and at p > 2 the
scaled one cost more outer iterations than it saved inner ones.

The discretization is variational: the energy sums Phi(|Gv|) over nodes with
the gradient realised twice, once with forward and once with backward
differences, each at weight 1/2.  The exact gradient of that sum is a compact
divergence-form operator whose effective face coefficient is the mean of the
two one-sided coefficients adjacent to the face; the mean sits at the face
center to O(h^2), so the scheme is second order, and the frozen quadratic
form is a weighted sum of squares, hence symmetric positive definite with no
odd-even null modes.  Because operator and energy come from the same
functional, the residual zero and the energy minimum coincide exactly: the
line search can never block a genuine descent direction, and for p <= 2 the
classical Kacanov argument gives monotone energy decay outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from . import grid as g
from .constitutive import ConstitutiveParams
from .errors import (
    CoefficientBlowup,
    DegenerateConfig,
    IllConditioned,
    NoConvergence,
    NonFinite,
    PathStalled,
)
from .grid import DomainSpec, apply_constraints
from .poisson import poisson_solve
from .problems import ProblemSpec

__all__ = [
    "SolveConfig",
    "SolveReport",
    "ContinuationPath",
    "FrozenReport",
    "coefficient_field",
    "apply_linear",
    "apply_operator",
    "residual",
    "linear_subsolve",
    "solve",
    "continuation_solve",
    "energy",
    "stress_potential",
    "frozen_linear_solve",
]

COEFFICIENT_FLOOR = 1e-12


@dataclass(frozen=True)
class ContinuationPath:
    """Joint (eta, mu) schedule walked with warm starts."""

    eta_path: tuple
    mu_path: tuple

    def __post_init__(self):
        if len(self.eta_path) != len(self.mu_path) or not self.eta_path:
            raise ValueError("eta_path and mu_path must be equal-length, nonempty")
        for e, m in zip(self.eta_path, self.mu_path):
            if e < 0.0 or m < 0.0 or e + m <= 0.0:
                raise ValueError("every continuation step needs eta + mu > 0")

    @staticmethod
    def geometric(
        eta0: float = 1e-1,
        mu0: float = 1e-1,
        ratio: float = 0.5,
        eta_floor: float = 1e-8,
        mu_floor: float = 1e-8,
        max_steps: int = 60,
    ) -> "ContinuationPath":
        """eta_j = max(eta0 ratio^j, floor), mu_j likewise, until both floor.

        A path component started at 0 stays identically 0 (its floor is
        ignored); the other component must then keep a positive floor.
        """
        if not 0.0 < ratio < 1.0:
            raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
        etas, mus = [], []
        for j in range(max_steps):
            e = max(eta0 * ratio**j, eta_floor) if eta0 > 0.0 else 0.0
            m = max(mu0 * ratio**j, mu_floor) if mu0 > 0.0 else 0.0
            etas.append(e)
            mus.append(m)
            done_e = eta0 == 0.0 or e <= eta_floor
            done_m = mu0 == 0.0 or m <= mu_floor
            if done_e and done_m:
                break
        return ContinuationPath(tuple(etas), tuple(mus))


@dataclass
class SolveConfig:
    eta: float = 0.0
    outer_tol: float = 1e-9
    max_outer: int = 200
    inner_tol: float = 0.0  # 0 selects the residual-proportional forcing rule
    inner_maxiter: int = 20000
    coefficient_floor: float = COEFFICIENT_FLOOR
    continuation: Optional[ContinuationPath] = None
    line_search: bool = True
    record_norms: bool = True

    def __post_init__(self):
        if self.eta < 0.0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if not self.outer_tol > 0.0:
            raise ValueError("outer_tol must be positive")


@dataclass
class SolveReport:
    iterations: int = 0
    final_residual: float = 0.0
    converged: bool = False
    residual_history: list = dataclass_field(default_factory=list)
    energy_history: list = dataclass_field(default_factory=list)
    norm_history: dict = dataclass_field(default_factory=lambda: {"grad_p": [], "w22": []})
    continuation_trace: list = dataclass_field(default_factory=list)
    floor_active: bool = False
    inner_iterations: int = 0
    backtracks: int = 0

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "converged": self.converged,
            "residual_history": [float(r) for r in self.residual_history],
            "energy_history": [float(e) for e in self.energy_history],
            "norm_history": {k: [float(x) for x in v] for k, v in self.norm_history.items()},
            "continuation_trace": [
                {"eta": e, "mu": m, "d2_norm": d, "step_change": c}
                for (e, m, d, c) in self.continuation_trace
            ],
            "floor_active": self.floor_active,
            "inner_iterations": self.inner_iterations,
            "backtracks": self.backtracks,
        }


def _l2(arr: np.ndarray) -> float:
    return float(np.sqrt(np.sum(arr * arr)))


def _zero_walls(domain: DomainSpec, arr: np.ndarray) -> np.ndarray:
    return apply_constraints(domain, arr)


def _dplus(domain: DomainSpec, f: np.ndarray, axis: int) -> np.ndarray:
    """Forward difference; along a wall axis the last slice is 0 (no face)."""
    h = domain.h
    ax = f.ndim - 3 + axis
    if domain.is_periodic(axis):
        return (np.roll(f, -1, axis=ax) - f) / h
    out = np.zeros_like(f)
    lo = [slice(None)] * f.ndim
    lo[ax] = slice(0, -1)
    out[tuple(lo)] = np.diff(f, axis=ax) / h
    return out


def _dminus(domain: DomainSpec, f: np.ndarray, axis: int) -> np.ndarray:
    """Backward difference; along a wall axis the first slice is 0."""
    h = domain.h
    ax = f.ndim - 3 + axis
    if domain.is_periodic(axis):
        return (f - np.roll(f, 1, axis=ax)) / h
    out = np.zeros_like(f)
    hi = [slice(None)] * f.ndim
    hi[ax] = slice(1, None)
    out[tuple(hi)] = np.diff(f, axis=ax) / h
    return out


@lru_cache(maxsize=None)
def _pm_masks(domain: DomainSpec):
    """Node masks selecting where the forward / backward gradient exists."""
    mp = np.ones(domain.shape)
    mm = np.ones(domain.shape)
    for axis in range(3):
        if domain.is_periodic(axis):
            continue
        lo = [slice(None)] * 3
        lo[axis] = -1
        mp[tuple(lo)] = 0.0
        hi = [slice(None)] * 3
        hi[axis] = 0
        mm[tuple(hi)] = 0.0
    return mp, mm


def _pm_gradients(domain: DomainSpec, v: np.ndarray):
    """One-sided gradient pair; out[i, j] is the difference of v_i along j."""
    gp = np.empty((3, 3) + domain.shape)
    gm = np.empty((3, 3) + domain.shape)
    for i in range(3):
        for j in range(3):
            gp[i, j] = _dplus(domain, v[i], j)
            gm[i, j] = _dminus(domain, v[i], j)
    return gp, gm


def _structure_mag(grad: np.ndarray, structure: str) -> np.ndarray:
    if structure == "symmetric":
        grad = 0.5 * (grad + np.swapaxes(grad, 0, 1))
    return np.sqrt(np.sum(grad * grad, axis=(0, 1)))


def coefficient_field(
    domain: DomainSpec,
    params: ConstitutiveParams,
    v: np.ndarray,
    floor: float = COEFFICIENT_FLOOR,
):
    """Secant coefficients (mu + |G v|)^(p-2) on the one-sided gradient pair.

    The floor clips mu + |G v| from below before the power is taken; for
    p < 2 that caps the coefficient at floor^(p-2) on the (measure-zero)
    critical set of v.  Returns (a_plus, a_minus, floor_was_active); the two
    arrays are zero where the corresponding one-sided gradient has no face.
    """
    gp, gm = _pm_gradients(domain, v)
    mp, mm = _pm_masks(domain)
    out = []
    active = False
    for grad, mask in ((gp, mp), (gm, mm)):
        base = params.mu + _structure_mag(grad, params.structure)
        active |= bool(np.any((base < floor) & (mask > 0.0)))
        np.maximum(base, floor, out=base)
        out.append(base ** (params.p - 2.0) * mask)
    return out[0], out[1], active


def _apply_pm(
    domain: DomainSpec,
    a_plus: np.ndarray,
    a_minus: np.ndarray,
    eta: float,
    mode: str,
    w: np.ndarray,
) -> np.ndarray:
    """-eta*Lap(w) - div(a G w) as the exact gradient of the split energy.

    mode "full":      -1/2 sum_j [ D-_j(a+ D+_j w_i) + D+_j(a- D-_j w_i) ]
    mode "symmetric": -1/4 sum_j [ D-_j(a+ T+_ij)   + D+_j(a- T-_ij)   ]
    with T_ij = D_j w_i + D_i w_j.  Constrained rows are zeroed.
    """
    out = np.zeros_like(w)
    if mode == "full":
        for i in range(3):
            for j in range(3):
                out[i] -= 0.5 * (
                    _dminus(domain, a_plus * _dplus(domain, w[i], j), j)
                    + _dplus(domain, a_minus * _dminus(domain, w[i], j), j)
                )
    elif mode == "symmetric":
        gp, gm = _pm_gradients(domain, w)
        tp = gp + np.swapaxes(gp, 0, 1)
        tm = gm + np.swapaxes(gm, 0, 1)
        for i in range(3):
            for j in range(3):
                out[i] -= 0.25 * (
                    _dminus(domain, a_plus * tp[i, j], j)
                    + _dplus(domain, a_minus * tm[i, j], j)
                )
    else:
        raise ValueError(f"mode must be 'full' or 'symmetric', got {mode!r}")
    if eta != 0.0:
        out -= eta * g.laplacian(domain, w)
    return _zero_walls(domain, out)


def apply_linear(
    domain: DomainSpec, a: np.ndarray, eta: float, mode: str, w: np.ndarray
) -> np.ndarray:
    """Apply -eta*Lap(w) - div(a G w) for a single nodal coefficient field.

    SPD on constrained fields whenever a > 0 (or eta > 0); the effective
    coefficient on each face is the mean of the two adjacent node values.
    """
    mp, mm = _pm_masks(domain)
    return _apply_pm(domain, a * mp, a * mm, eta, mode, w)


def apply_operator(
    domain: DomainSpec, params: ConstitutiveParams, eta: float, v: np.ndarray
) -> np.ndarray:
    """The discrete nonlinear operator: the linearisation applied at v itself."""
    a_plus, a_minus, _ = coefficient_field(domain, params, v)
    return _apply_pm(domain, a_plus, a_minus, eta, params.structure, v)


def residual(
    domain: DomainSpec,
    params: ConstitutiveParams,
    eta: float,
    v: np.ndarray,
    f: np.ndarray,
) -> np.ndarray:
    r = -apply_operator(domain, params, eta, v)
    r += f
    return _zero_walls(domain, r)


def _fold_eta(domain: DomainSpec, a_plus, a_minus, eta: float, mode: str):
    """Move -eta*Lap into the face coefficients where the form allows it.

    In full-gradient mode -eta*Lap(w) is _apply_pm with coefficients eta on
    every face, so (a+ + eta m+, a- + eta m-) at eta 0 is the same operator
    without the separate Laplacian.  The symmetric-gradient form has no such
    identity and keeps its eta.  Returns (a_plus, a_minus, remaining eta).
    """
    if mode != "full" or eta == 0.0:
        return a_plus, a_minus, eta
    mp, mm = _pm_masks(domain)
    return a_plus + eta * mp, a_minus + eta * mm, 0.0


def _coefficient_scale(domain: DomainSpec, a_plus, a_minus, eta: float) -> np.ndarray:
    """Nodal c^(-1/2), c = eta + (a+ + a-)/2, on interior nodes; 1 elsewhere."""
    s = np.ones(domain.shape)
    c = eta + 0.5 * (a_plus[domain.interior] + a_minus[domain.interior])
    s[domain.interior] = c**-0.5
    return s


def _require_finite(value: float, what: str) -> float:
    if not np.isfinite(value):
        raise NonFinite(f"{what} is {value}")
    return value


def _pcg(domain, apply_a, b, x0, rtol, maxiter, scale=None):
    """Preconditioned CG; returns (x, iterations, relative_residual).

    The preconditioner is poisson_solve, or s * poisson_solve(s * r) for a
    nodal scale vector s, which keeps it symmetric positive definite.  A
    non-finite residual norm or p.Ap raises NonFinite at once.
    """

    def precondition(r):
        if scale is None:
            return poisson_solve(domain, r)
        return scale * poisson_solve(domain, scale * r)

    bnorm = _l2(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = x0.copy()
    r = b - apply_a(x)
    rn = _require_finite(_l2(r), "PCG residual norm")
    if rn <= rtol * bnorm:
        return x, 0, rn / bnorm
    z = precondition(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    best = (rn, x.copy())
    for k in range(1, maxiter + 1):
        ap = apply_a(p)
        denom = _require_finite(float(np.sum(p * ap)), "PCG p.Ap")
        if denom <= 0.0:
            break  # loss of definiteness: report best iterate via cap path
        alpha = rz / denom
        x += alpha * p
        r -= alpha * ap
        rn = _require_finite(_l2(r), "PCG residual norm")
        if rn < best[0]:
            best = (rn, x.copy())
        if rn <= rtol * bnorm:
            return x, k, rn / bnorm
        z = precondition(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    rn, x = best
    return x, maxiter, rn / bnorm


def _inner_solve(domain, apply_a, b, x0, rtol, maxiter, scale=None):
    """_pcg to rtol; raises IllConditioned with the best iterate if the cap
    is reached first.  Returns (x, iterations)."""
    x, iters, rel = _pcg(domain, apply_a, b, x0, rtol, maxiter, scale)
    if rel > rtol:
        raise IllConditioned(
            f"inner solve cap {maxiter} reached at relative residual {rel:.3e} "
            f"(target {rtol:.3e})",
            achieved=rel,
            field=x,
        )
    return x, iters


def linear_subsolve(
    coefficient_field: np.ndarray,
    eta: float,
    f: np.ndarray,
    domain: DomainSpec,
    mode: str = "full",
    rtol: float = 1e-11,
    maxiter: int = 20000,
    x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve the SPD system -eta*Lap(w) - div(a G w) = f to a relative l2 tol.

    Raises IllConditioned (carrying the achieved residual and iterate) when
    the iteration cap is hit first, NonFinite on a NaN or infinite residual.
    """
    if x0 is None:
        x0 = np.zeros_like(f)
    a = coefficient_field
    x, _ = _inner_solve(
        domain, lambda w: apply_linear(domain, a, eta, mode, w), f, x0, rtol, maxiter
    )
    return x


def stress_potential(t: np.ndarray, p: float, mu: float) -> np.ndarray:
    """Primitive integral_0^t (mu+s)^(p-2) s ds in closed form."""
    t = np.asarray(t, dtype=float)
    if mu == 0.0:
        return t**p / p
    b = mu + t
    return (b**p - mu**p) / p - mu * (b ** (p - 1.0) - mu ** (p - 1.0)) / (p - 1.0)


def energy(v: np.ndarray, problem: ProblemSpec, eta: float) -> float:
    """Discrete energy eta/2 ||grad v||^2 + h^3 sum Phi(|G v|) - h^3 sum f.v.

    Every gradient square is the average of its forward- and backward-
    difference realisations, which makes this the exact antiderivative of the
    solver's discrete operator: residual zeros and energy minima coincide.
    The eta term always uses the full gradient because the regularising
    operator is -eta*Lap for both structures.
    """
    domain, params = problem.domain, problem.params
    f = problem.forcing()
    gp, gm = _pm_gradients(domain, v)
    mp, mm = _pm_masks(domain)
    quad = 0.0
    if eta != 0.0:
        ep = np.sum(gp * gp, axis=(0, 1))
        em = np.sum(gm * gm, axis=(0, 1))
        quad += 0.25 * eta * (np.sum(mp * ep) + np.sum(mm * em))
    mag_p = _structure_mag(gp, params.structure)
    mag_m = _structure_mag(gm, params.structure)
    quad += 0.5 * np.sum(mp * stress_potential(mag_p, params.p, params.mu))
    quad += 0.5 * np.sum(mm * stress_potential(mag_m, params.p, params.mu))
    quad -= np.sum(f * v)
    return float(quad * domain.h**3)


def solve(
    problem: ProblemSpec, config: SolveConfig, initial: Optional[np.ndarray] = None
):
    """Kacanov iteration on the frozen-coefficient linearisation.

    Stops when the relative l2 residual of the discrete strong form drops
    below config.outer_tol.  Returns (field, SolveReport); raises
    NoConvergence with the best iterate attached if the budget runs out,
    NonFinite on a NaN or infinite residual or energy, and DegenerateConfig
    for eta = mu = 0 at p != 2 (go through continuation).
    """
    domain, params = problem.domain, problem.params
    if config.eta == 0.0 and params.mu == 0.0 and params.p != 2.0:
        raise DegenerateConfig(
            "eta = 0 and mu = 0: the degenerate problem is reachable only as a "
            "continuation limit"
        )
    f = _zero_walls(domain, problem.forcing().copy())
    report = SolveReport()
    fnorm = _l2(f)
    if fnorm == 0.0:
        report.converged = True
        return np.zeros_like(f), report
    if initial is None:
        # a cold start at v = 0 puts the whole grid on the coefficient floor
        # when p < 2, mu = 0; the Poisson solution has the right scale
        v = poisson_solve(domain, f)
    else:
        v = _zero_walls(domain, initial.copy())

    mode = params.structure
    e_next = None  # energy of the accepted line-search trial, if evaluated
    for it in range(config.max_outer + 1):
        a_plus, a_minus, hit = coefficient_field(domain, params, v, config.coefficient_floor)
        report.floor_active |= hit
        a_plus, a_minus, eta = _fold_eta(domain, a_plus, a_minus, config.eta, mode)
        res = _l2(f - _apply_pm(domain, a_plus, a_minus, eta, mode, v)) / fnorm
        _require_finite(res, "relative residual")
        e_cur = energy(v, problem, config.eta) if e_next is None else e_next
        _require_finite(e_cur, "energy")
        report.residual_history.append(res)
        report.energy_history.append(e_cur)
        if config.record_norms:
            report.norm_history["grad_p"].append(
                g.norm(domain, g.gradient(domain, v, "full"), q=params.p)
            )
            report.norm_history["w22"].append(g.norm(domain, v, q=2.0, sobolev_level=2))
        report.iterations = it
        report.final_residual = res
        if res <= config.outer_tol:
            report.converged = True
            return v, report
        if it == config.max_outer:
            break
        inner_rtol = config.inner_tol or max(min(0.2 * res, 0.1), 0.02 * config.outer_tol)
        # the unbounded p < 2 coefficient is what the plain Poisson inverse misses
        scale = _coefficient_scale(domain, a_plus, a_minus, eta) if params.p < 2.0 else None
        w, inner_it = _inner_solve(
            domain,
            lambda u: _apply_pm(domain, a_plus, a_minus, eta, mode, u),
            f,
            v,
            inner_rtol,
            config.inner_maxiter,
            scale,
        )
        report.inner_iterations += inner_it
        delta = w - v
        theta = 1.0
        e_next = None
        if config.line_search:
            # the Kacanov step is a strict descent direction of the (exactly
            # consistent) energy; the slack only absorbs float cancellation
            slack = 1e-12 * (1.0 + abs(e_cur))
            for _ in range(40):
                e_try = energy(v + theta * delta, problem, config.eta)
                if e_try <= e_cur + slack:
                    e_next = e_try
                    break
                theta *= 0.5
                report.backtracks += 1
        v = v + theta * delta
    raise NoConvergence(
        f"no convergence in {config.max_outer} outer iterations "
        f"(relative residual {report.final_residual:.3e})",
        field=v,
        report=report,
    )


def continuation_solve(problem: ProblemSpec, config: SolveConfig):
    """Walk the (eta, mu) path with warm starts.

    Records (eta, mu, ||D^2 v||_2, ||v_j - v_{j-1}||_{1,2}) per step and
    raises PathStalled when the step change grows three times in a row.
    """
    path = config.continuation
    if path is None:
        raise DegenerateConfig("continuation_solve needs config.continuation")
    f = problem.forcing()
    v = None
    trace = []
    growth = 0
    report = None
    prev_delta = None
    for eta_j, mu_j in zip(path.eta_path, path.mu_path):
        params_j = replace(problem.params, mu=mu_j)
        prob_j = ProblemSpec(problem.domain, params_j, rhs=problem.rhs, f=f)
        cfg_j = replace(config, eta=eta_j, continuation=None)
        v_new, report = solve(prob_j, cfg_j, initial=v)
        d2n = g.norm(problem.domain, g.second_derivatives(problem.domain, v_new))
        delta = float("nan")
        if v is not None:
            delta = g.norm(problem.domain, v_new - v, q=2.0, sobolev_level=1)
            # ignore growth below solver noise so roundoff-scale jitter in a
            # converged tail cannot trip the stall detector
            vnorm = g.norm(problem.domain, v_new, q=2.0, sobolev_level=1)
            significant = delta > 100.0 * config.outer_tol * max(1.0, vnorm)
            if prev_delta is not None and delta > prev_delta and significant:
                growth += 1
                if growth >= 3:
                    raise PathStalled(
                        f"step change grew 3 times in a row (last {delta:.3e})",
                        trace=trace,
                    )
            else:
                growth = 0
            prev_delta = delta
        trace.append((eta_j, mu_j, d2n, delta))
        v = v_new
    report.continuation_trace = trace
    return v, report


@dataclass
class FrozenReport:
    eps: float
    coef_max: float
    iterations: int
    converged: bool
    final_update: float

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "coef_max": self.coef_max,
            "iterations": self.iterations,
            "converged": self.converged,
            "final_update": self.final_update,
        }


def frozen_linear_solve(
    domain: DomainSpec,
    u_base: np.ndarray,
    eps: float,
    p: float,
    mu: float,
    f: np.ndarray,
    tol: float = 1e-11,
    max_iter: int = 600,
    initial: Optional[np.ndarray] = None,
):
    """Solve the linear system with coefficients frozen at a mollified u_base.

    The system is  -Lap(w) - (p-2) c^eps : D^2 w = f (mu + |grad u_base|)^(2-p)
    with c^eps built from gradients of the eps-mollified base field,

        c[i,j,h,k] = d_h J(u_i) d_k J(u_j) / [(mu + J(|grad u|)) J(|grad u|)],

    solved by a fixed-point sweep w <- Lap^{-1}[rhs + (p-2) c : D^2 w] whose
    contraction factor is (2-p) max|c| times the discrete second-derivative
    bound of the inverse Laplacian; |c| <= 1 up to O(h) boundary effects, so
    the sweep converges for the p < 2 range the system is meant for.
    Returns (w, FrozenReport with max|c| and iteration count).
    """
    if mu <= 0.0:
        raise CoefficientBlowup("frozen coefficients need mu > 0")
    if p > 2.0:
        raise ValueError(f"frozen-coefficient system is for p <= 2, got p={p}")
    grad = g.gradient(domain, u_base, "full")
    gmag = np.sqrt(np.sum(grad * grad, axis=(0, 1)))
    ju = g.mollify(domain, u_base, eps)
    gj = g.gradient(domain, ju, "full")
    jmag = g.mollify(domain, gmag, eps)
    den = (mu + jmag) * jmag
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.einsum("ih...,jk...->ijhk...", gj, gj) / den
    c = np.where(den == 0.0, 0.0, c)
    coef_max = float(np.max(np.abs(c)))
    rhs = _zero_walls(domain, f * (mu + gmag) ** (2.0 - p))
    w = poisson_solve(domain, rhs) if initial is None else initial.copy()
    cs = c.reshape(3, 3, 3, 3, -1)
    final_update = np.inf
    for it in range(1, max_iter + 1):
        d2 = g.second_derivatives(domain, w).full_tensor().reshape(3, 3, 3, -1)
        corr = np.einsum("ijhkn,jhkn->in", cs, d2).reshape((3,) + domain.shape)
        w_new = poisson_solve(domain, rhs + (p - 2.0) * corr)
        final_update = _l2(w_new - w) / max(_l2(w_new), 1e-300)
        w = w_new
        if final_update <= tol:
            return w, FrozenReport(eps, coef_max, it, True, final_update)
    return w, FrozenReport(eps, coef_max, max_iter, False, final_update)
