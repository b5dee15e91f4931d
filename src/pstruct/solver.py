"""Nonlinear solves of -eta*Lap(v) - div[(mu+|Gv|)^(p-2) Gv] = f.

Outer loop: Kacanov (frozen secant coefficient) iteration, guarded by a
backtracking line search on the discrete energy.  Each iterate's one-sided
gradient pair is built once: the line search builds it for the trial it
accepts, and the next step's coefficient is computed from that same pair.
Only the residual and energy histories are recorded per step; norms of the
solution are the caller's, on the converged field.  Inner loop: one
preconditioned conjugate gradient solve, _pcg, on flat vectors over the free
DOFs (nodes on no Dirichlet face), with the frozen operator, its eta term
included, assembled once per outer step as a CSR matrix over those DOFs.
_pcg is the only place an inner solve fails, and it fails at once: NonFinite
on a NaN, IllConditioned on r.z <= 0 or p.Ap <= 0 (the preconditioner or the
operator lost definiteness) or on reaching its iteration cap.  For p >= 2 the
preconditioner is one exact inversion of the constant-coefficient 7-point
Laplacian per iteration (poisson module): it is exact at p = 2, and at p > 2 a
coefficient-scaled one cost more outer iterations than it saved inner ones.
For p < 2 the secant coefficient is unbounded as |Gv| -> 0.  Each solve
starts with the inversion scaled symmetrically by it, s P^{-1}(s r) with
s = c^{-1/2} and c = eta + (a+ + a-)/2 per free node.  Its iteration count
still grows with the coefficient contrast, so on the full law the first inner
solve that needs more than MULTIGRID_AFTER iterations switches the solve, for
its remaining outer steps, to one Galerkin V-cycle per iteration (multigrid
module), built on each step's assembled matrix, whose count does not grow
with the contrast.  The symmetric law keeps the scaled inversion (the comment
on MULTIGRID_AFTER says why).

The discretization is variational: the energy sums Phi(|Gv|) over nodes with
the gradient realised twice, once with forward and once with backward
differences, each at weight 1/2.  The exact gradient of that sum is a compact
divergence-form operator whose effective face coefficient is the mean of the
two one-sided coefficients adjacent to the face; the mean sits at the face
center to O(h^2), so the scheme is second order, and the frozen quadratic
form is a weighted sum of squares, hence symmetric positive definite with no
odd-even null modes.  Both laws share that operator, built on
grid.one_sided_difference and grid.face_masks; they differ only in the tensor
the law acts on, grid.gradient_mode: G for the full gradient and (G + G^T)/2
for the symmetric one.  Because operator and energy come from the same
functional, the residual zero and the energy minimum coincide exactly: the
line search can never block a genuine descent direction, and for p <= 2 the
classical Kacanov argument gives monotone energy decay outright.

The frozen operator is A(a+-) = 1/2 sum_+- B+-^T diag(a+-) B+-, with B+- the
map from w to the gradient_mode of its one-sided gradient.  _apply_pm
evaluates it matrix-free and stays the reference: residual, apply_operator and
apply_linear use it, so every solution is checked by an operator independent
of the assembly.  The solves use the assembled form: per (domain, law) a
cached sparsity pattern, a sparse linear map from the nodal coefficients to
the CSR data and the data of the eta term, so each outer step fills the
matrix with one sparse product and one scaled add.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from . import grid as g
from . import multigrid
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
    "peak_memory_estimate",
]

COEFFICIENT_FLOOR = 1e-12

# A full-law p < 2 solve switches from the scaled Poisson preconditioner to
# multigrid, for its remaining outer steps, after the first inner solve that
# needs more than this many PCG iterations.  Measured at n = 16 on the full
# law's box at a coefficient contrast of 82, in units of one Poisson apply
# (0.70 ms): a scaled-Poisson PCG iteration costs 1.5 with its matrix product
# and dot products, a hierarchy set-up 2.8 and a multigrid PCG iteration 1.9.
# A multigrid inner solve there takes 2 iterations at rtol 0.1 (5 at 1e-4, 9
# at 1e-8, against 11, 29 and 55 scaled), so it costs 2.8 + 2 * 1.9 = 6.6
# units, and a scaled inner solve of more than 6.6 / 1.5 = 4.4 iterations
# costs more (4.3 on the slab).  The inner tolerance tightens with the outer
# residual, so a solve's later inner solves need more iterations than its
# earlier ones: the switch is sticky.  The p < 2 solves of perfbench's
# estimate-audit and parallel-sweep workloads need at most 4 and never switch.
#
# Symmetric-law solves never switch.  Their coupled Galerkin products make a
# set-up cost 13 (box) and 22 (slab) units at n = 16 and a multigrid
# iteration 2.5-3.0, so one inner solve breaks even only above 13 and 21
# scaled iterations.  And the rule's premise fails there: on p = 1.4 and 1.3,
# mu = 0 continuations from eta = 1e-2 on the n = 16 box, all but 4 and 6 of
# 351 and 468 inner solves take 3-4 scaled iterations (the rest up to 114),
# so a switch, after 4 or after 21, adds a set-up to steps that were cheap
# and raised the CPU time by 9-18 %.  (On the slab at p = 1.4 a switch after 21 saved
# 9 %; no benchmark workload runs a symmetric p < 2 solve.)
MULTIGRID_AFTER = 4

# Peak resident bytes per grid node of a solve: the assembly's build (sorted
# triplets of the law and of the eta term), the gradient pairs and the
# multigrid levels.  ru_maxrss over a fresh process on the box at n = 16, 24
# and 32 gave 2.4-2.9 KB on the full law and 5.8-7.1 KB on the symmetric law,
# growing slowly with n; these are rounded up.
PEAK_BYTES_PER_NODE = {"full": 4096, "symmetric": 8192}


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
    continuation: Optional[ContinuationPath] = None

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
    continuation_trace: list = dataclass_field(default_factory=list)
    floor_active: bool = False
    inner_iterations: int = 0
    backtracks: int = 0
    # a continuation's sums over its path: solves, outer, inner, backtracks
    path_totals: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "converged": self.converged,
            "residual_history": [float(r) for r in self.residual_history],
            "energy_history": [float(e) for e in self.energy_history],
            "continuation_trace": [
                {"eta": e, "mu": m, "d2_norm": d, "step_change": c}
                for (e, m, d, c) in self.continuation_trace
            ],
            "floor_active": self.floor_active,
            "inner_iterations": self.inner_iterations,
            "backtracks": self.backtracks,
        }
        if self.path_totals is not None:
            out["path_totals"] = dict(self.path_totals)
        return out


def _l2(arr: np.ndarray) -> float:
    return float(np.sqrt(np.sum(arr * arr)))


def _pm_gradients(domain: DomainSpec, v: np.ndarray):
    """One-sided gradient pair; out[i, j] is the difference of v_i along j."""
    gp = np.empty((3, 3) + domain.shape)
    gm = np.empty((3, 3) + domain.shape)
    for i in range(3):
        for j in range(3):
            gp[i, j] = g.one_sided_difference(domain, v[i], j, 1)
            gm[i, j] = g.one_sided_difference(domain, v[i], j, -1)
    return gp, gm


def _structure_mag(grad: np.ndarray, structure: str) -> np.ndarray:
    t = g.gradient_mode(grad, structure)
    return np.sqrt(np.sum(t * t, axis=(0, 1)))


def coefficient_field(
    domain: DomainSpec,
    params: ConstitutiveParams,
    v: np.ndarray,
    pair=None,
):
    """Secant coefficients (mu + |G v|)^(p-2) on the one-sided gradient pair.

    pair is v's one-sided gradient pair, _pm_gradients(domain, v), when the
    caller already holds it.  COEFFICIENT_FLOOR clips mu + |G v| from below
    before the power is taken; for p < 2 that caps the coefficient at
    COEFFICIENT_FLOOR^(p-2) on the (measure-zero) critical set of v.  Returns
    (a_plus, a_minus, floor_was_active); the two arrays are zero where the
    corresponding one-sided gradient has no face.
    """
    gp, gm = _pm_gradients(domain, v) if pair is None else pair
    mp, mm = g.face_masks(domain)
    out = []
    active = False
    for grad, mask in ((gp, mp), (gm, mm)):
        base = params.mu + _structure_mag(grad, params.structure)
        active |= bool(np.any((base < COEFFICIENT_FLOOR) & (mask > 0.0)))
        np.maximum(base, COEFFICIENT_FLOOR, out=base)
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
    """-eta*Lap(w) - div(a G w) as the exact gradient of the split energy:

        -1/2 sum_j [ D-_j(a+ T+_ij) + D+_j(a- T-_ij) ] - eta*Lap(w)_i

    with T± the gradient_mode of the one-sided gradient pair: G± for mode
    "full", (G± + G±^T)/2 for "symmetric".  Constrained rows are zeroed.
    """
    if mode != "full":
        tp, tm = (g.gradient_mode(grad, mode) for grad in _pm_gradients(domain, w))

    def flux(side, i, j):
        if mode == "full":
            # streamed per (i, j) and used at once: building the 3x3 pair, or
            # holding both sides alive, made the apply up to 2x slower at n = 32
            return g.one_sided_difference(domain, w[i], j, side)
        return (tp if side > 0 else tm)[i, j]

    out = np.zeros_like(w)
    for i in range(3):
        for j in range(3):
            out[i] -= 0.5 * (
                g.one_sided_difference(domain, a_plus * flux(1, i, j), j, -1)
                + g.one_sided_difference(domain, a_minus * flux(-1, i, j), j, 1)
            )
    if eta != 0.0:
        out -= eta * g.laplacian(domain, w)
    return apply_constraints(domain, out)


def apply_linear(
    domain: DomainSpec, a: np.ndarray, eta: float, mode: str, w: np.ndarray
) -> np.ndarray:
    """Apply -eta*Lap(w) - div(a G w) for a single nodal coefficient field.

    SPD on constrained fields whenever a > 0 (or eta > 0); the effective
    coefficient on each face is the mean of the two adjacent node values.
    """
    mp, mm = g.face_masks(domain)
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
    return apply_constraints(domain, r)


def _local_stiffness(mode: str) -> np.ndarray:
    """1/2 sum_ij b_ij b_ij^T on the 12 DOFs one one-sided gradient reads.

    Local DOF 4 i + t is component i at the base node (t = 0) or one step
    from it along axis t - 1, the step being forward or backward with the
    side; b_ij is the row of gradient_mode(G)_ij at h = 1.  The side only
    flips the sign of each row, so one matrix serves both.
    """
    grad = np.zeros((3, 3, 12))
    for i in range(3):
        for j in range(3):
            grad[i, j, 4 * i + 1 + j] = 1.0
            grad[i, j, 4 * i] = -1.0
    rows = g.gradient_mode(grad, mode).reshape(9, 12)
    return 0.5 * rows.T @ rows


def _element_triplets(domain: DomainSpec, free: np.ndarray, mode: str):
    """(row * free DOFs + column, coefficient index, value) of every local
    stiffness entry at every base node and side whose face exists and whose
    two DOFs are free.  Coefficient index s * nodes + node numbers a+ (s = 0)
    then a- (s = 1)."""
    stiffness = _local_stiffness(mode) / domain.h**2
    size = int(free.max()) + 1
    nodes = np.arange(free[0].size, dtype=np.int32)
    parts = []
    for s, (side, mask) in enumerate(zip((1, -1), g.face_masks(domain))):
        local = [(free[i] if t == 0 else np.roll(free[i], -side, axis=t - 1)).ravel()
                 for i in range(3) for t in range(4)]
        face = mask.ravel() > 0.0
        for k1, k2 in zip(*np.nonzero(stiffness)):
            ok = face & (local[k1] >= 0) & (local[k2] >= 0)
            parts.append((local[k1][ok] * size + local[k2][ok], nodes[ok] + s * nodes.size,
                          np.full(np.count_nonzero(ok), stiffness[k1, k2])))
    return [np.concatenate(column) for column in zip(*parts)]


class _Assembly(NamedTuple):
    """The frozen operator's CSR pattern over the free DOFs of one (domain,
    law), the linear map from the nodal coefficients [a+, a-] to its data,
    and the data of -Lap on the same pattern (the eta term)."""

    size: int
    indptr: np.ndarray
    indices: np.ndarray
    coefficient_map: sp.csr_matrix
    eta_data: np.ndarray


@lru_cache(maxsize=4)
def _assembly(domain: DomainSpec, mode: str) -> _Assembly:
    free = np.full((3,) + domain.shape, -1, dtype=np.int64)
    sel = (slice(None),) + domain.interior
    size = free[sel].size
    free[sel] = np.arange(size).reshape(free[sel].shape)
    # -eta*Lap is the full law's operator with coefficient eta on every face
    laws = {law: _element_triplets(domain, free, law) for law in dict.fromkeys((mode, "full"))}
    pattern = np.sort(np.concatenate([keys for keys, _, _ in laws.values()]))
    pattern = pattern[np.concatenate(([True], pattern[1:] != pattern[:-1]))]
    maps = {}
    for law, (keys, coef, value) in laws.items():
        pos = np.searchsorted(pattern, keys)
        maps[law] = sp.csr_matrix((value, (pos, coef)), shape=(pattern.size, 2 * free[0].size))
    mp, mm = g.face_masks(domain)
    # scipy's own index dtype, so filling a matrix copies no index array; the
    # filled matrices share them, so they are read-only
    indptr = np.searchsorted(pattern // size, np.arange(size + 1))
    template = sp.csr_matrix((np.zeros(pattern.size), pattern % size, indptr), shape=(size, size))
    template.indptr.flags.writeable = template.indices.flags.writeable = False
    return _Assembly(
        size=size,
        indptr=template.indptr,
        indices=template.indices,
        coefficient_map=maps[mode],
        eta_data=maps["full"] @ np.concatenate((mp.ravel(), mm.ravel())),
    )


def _frozen_matrix(
    domain: DomainSpec, a_plus: np.ndarray, a_minus: np.ndarray, eta: float, mode: str
) -> sp.csr_matrix:
    """_apply_pm(domain, a_plus, a_minus, eta, mode, .) as a CSR matrix over
    the free DOFs, numbered component-major in domain.interior order."""
    asm = _assembly(domain, mode)
    data = asm.coefficient_map @ np.concatenate((a_plus.ravel(), a_minus.ravel()))
    if eta != 0.0:
        data += eta * asm.eta_data
    return sp.csr_matrix((data, asm.indices, asm.indptr), shape=(asm.size, asm.size))


def peak_memory_estimate(n: int, structure: str) -> int:
    """Estimated peak bytes of a solve on an n-grid under the law structure
    (any other structure gets the larger figure), from (n + 1)^3 nodes."""
    per_node = PEAK_BYTES_PER_NODE.get(structure, max(PEAK_BYTES_PER_NODE.values()))
    return per_node * (n + 1) ** 3


def _free(domain: DomainSpec, w: np.ndarray) -> np.ndarray:
    """The free-DOF vector of a full-grid field, in _frozen_matrix's order."""
    return w[(slice(None),) + domain.interior].ravel()


def _field(domain: DomainSpec, x: np.ndarray) -> np.ndarray:
    """The full-grid field of a free-DOF vector, zero on constrained nodes."""
    out = np.zeros((3,) + domain.shape)
    sel = (slice(None),) + domain.interior
    out[sel] = x.reshape(out[sel].shape)
    return out


def _preconditioner(domain: DomainSpec, scale=1.0):
    """r -> s P^{-1}(s r) on free-DOF vectors, P^{-1} the exact Poisson inverse
    and s > 0 per free DOF (or 1): symmetric positive definite for every s."""

    def precondition(r):
        return scale * _free(domain, poisson_solve(domain, _field(domain, scale * r)))

    return precondition


def _require_finite(value: float, what: str) -> float:
    if not np.isfinite(value):
        raise NonFinite(f"{what} is {value}")
    return value


def _pcg(domain, apply_a, precondition, b, x0, rtol, maxiter):
    """Preconditioned CG on free-DOF vectors to relative residual rtol;
    returns (x, iterations).

    Every inner-solve failure is raised here, at once: a non-finite residual
    norm, r.z or p.Ap raises NonFinite; r.z <= 0 (the preconditioner is not
    positive definite), p.Ap <= 0 (the operator is not) and reaching maxiter
    raise IllConditioned carrying the best relative residual and the best
    iterate as a full-grid field.
    """
    bnorm = _l2(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    x = x0.copy()
    r = b - apply_a(x)
    rn = _require_finite(_l2(r), "PCG residual norm")
    if rn <= rtol * bnorm:
        return x, 0
    best = (rn, x.copy())
    failure = f"inner solve cap {maxiter} reached (target {rtol:.3e})"
    p = None
    for k in range(1, maxiter + 1):
        z = precondition(r)
        # np.sum, not a @ b: on long vectors the latter is BLAS's threaded
        # ddot, whose threads oversubscribe the CPUs of a sweep's workers
        rz_new = _require_finite(float(np.sum(r * z)), "PCG r.z")
        if rz_new <= 0.0:
            failure = f"preconditioner lost definiteness at PCG iteration {k}: r.z = {rz_new:.3e}"
            break
        p = z.copy() if p is None else z + (rz_new / rz) * p
        rz = rz_new
        ap = apply_a(p)
        denom = _require_finite(float(np.sum(p * ap)), "PCG p.Ap")
        if denom <= 0.0:
            failure = f"loss of definiteness at PCG iteration {k}: p.Ap = {denom:.3e}"
            break
        alpha = rz / denom
        x += alpha * p
        r -= alpha * ap
        rn = _require_finite(_l2(r), "PCG residual norm")
        if rn < best[0]:
            best = (rn, x.copy())
        if rn <= rtol * bnorm:
            return x, k
    rel = best[0] / bnorm
    raise IllConditioned(f"{failure}, best relative residual {rel:.3e}", achieved=rel,
                         field=_field(domain, best[1]))


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
    The values of f and x0 on constrained nodes are ignored.
    """
    mp, mm = g.face_masks(domain)
    a = coefficient_field
    matrix = _frozen_matrix(domain, a * mp, a * mm, eta, mode)
    x0 = np.zeros(matrix.shape[0]) if x0 is None else _free(domain, x0)
    x, _ = _pcg(domain, matrix.dot, _preconditioner(domain), _free(domain, f), x0, rtol, maxiter)
    return _field(domain, x)


def stress_potential(t: np.ndarray, p: float, mu: float) -> np.ndarray:
    """Primitive integral_0^t (mu+s)^(p-2) s ds in closed form."""
    t = np.asarray(t, dtype=float)
    if mu == 0.0:
        return t**p / p
    b = mu + t
    return (b**p - mu**p) / p - mu * (b ** (p - 1.0) - mu ** (p - 1.0)) / (p - 1.0)


def energy(v: np.ndarray, problem: ProblemSpec, eta: float, pair=None) -> float:
    """Discrete energy eta/2 ||grad v||^2 + h^3 sum Phi(|G v|) - h^3 sum f.v.

    Every gradient square is the average of its forward- and backward-
    difference realisations, which makes this the exact antiderivative of the
    solver's discrete operator: residual zeros and energy minima coincide.
    The eta term always uses the full gradient because the regularising
    operator is -eta*Lap for both structures.  pair is v's one-sided gradient
    pair, as in coefficient_field.
    """
    domain, params = problem.domain, problem.params
    f = problem.forcing()
    gp, gm = _pm_gradients(domain, v) if pair is None else pair
    mp, mm = g.face_masks(domain)
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
    f = apply_constraints(domain, problem.forcing().copy())
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
        v = apply_constraints(domain, initial.copy())

    b = _free(domain, f)
    pair = _pm_gradients(domain, v)
    e_cur = energy(v, problem, config.eta, pair)
    use_multigrid = False
    for it in range(config.max_outer + 1):
        a_plus, a_minus, hit = coefficient_field(domain, params, v, pair)
        report.floor_active |= hit
        matrix = _frozen_matrix(domain, a_plus, a_minus, config.eta, params.structure)
        x = _free(domain, v)
        res = _require_finite(_l2(b - matrix @ x) / fnorm, "relative residual")
        _require_finite(e_cur, "energy")
        report.residual_history.append(res)
        report.energy_history.append(e_cur)
        report.iterations = it
        report.final_residual = res
        if res <= config.outer_tol:
            report.converged = True
            return v, report
        if it == config.max_outer:
            break
        inner_rtol = config.inner_tol or max(min(0.2 * res, 0.1), 0.02 * config.outer_tol)
        if use_multigrid:
            precondition = multigrid.VCycle(domain, matrix, params.structure)
        elif params.p < 2.0:  # the unbounded coefficient the plain Poisson inverse misses
            c = config.eta + 0.5 * (a_plus[domain.interior] + a_minus[domain.interior])
            precondition = _preconditioner(domain, np.tile(c.ravel() ** -0.5, 3))
        else:
            precondition = _preconditioner(domain)
        x, inner_it = _pcg(domain, matrix.dot, precondition, b, x, inner_rtol,
                           config.inner_maxiter)
        report.inner_iterations += inner_it
        use_multigrid |= (params.p < 2.0 and params.structure == "full"
                          and inner_it > MULTIGRID_AFTER)
        delta = _field(domain, x) - v
        # the Kacanov step is a strict descent direction of the (exactly
        # consistent) energy; the slack only absorbs float cancellation.  After
        # 40 halvings the step is taken regardless.
        slack = 1e-12 * (1.0 + abs(e_cur))
        theta = 1.0
        for halvings in range(41):
            trial = v + theta * delta
            pair = _pm_gradients(domain, trial)
            e_next = energy(trial, problem, config.eta, pair)
            if e_next <= e_cur + slack or halvings == 40:
                break
            theta *= 0.5
            report.backtracks += 1
        v, e_cur = trial, e_next
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
    Returns the last step's field and SolveReport, with the trace and the
    path's summed solves, outer and inner iterations and backtracks
    (path_totals) attached.
    """
    path = config.continuation
    if path is None:
        raise DegenerateConfig("continuation_solve needs config.continuation")
    f = problem.forcing()
    v = None
    trace = []
    growth = 0
    report = None
    totals = dict.fromkeys(("solves", "outer", "inner", "backtracks"), 0)
    prev_delta = None
    for eta_j, mu_j in zip(path.eta_path, path.mu_path):
        params_j = replace(problem.params, mu=mu_j)
        prob_j = ProblemSpec(problem.domain, params_j, rhs=problem.rhs, f=f)
        cfg_j = replace(config, eta=eta_j, continuation=None)
        v_new, report = solve(prob_j, cfg_j, initial=v)
        totals["solves"] += 1
        totals["outer"] += report.iterations
        totals["inner"] += report.inner_iterations
        totals["backtracks"] += report.backtracks
        d2n = g.norm(problem.domain, g.second_derivatives(problem.domain, v_new))
        delta = None  # no step change for the path's first solve
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
    report.path_totals = totals
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
    rhs = apply_constraints(domain, f * (mu + gmag) ** (2.0 - p))
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
