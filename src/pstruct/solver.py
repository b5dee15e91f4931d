"""Nonlinear solves of -eta*Lap(v) - div[(mu+|Gv|)^(p-2) Gv] = f.

Outer loop: Kacanov (frozen secant coefficient) iteration, Anderson-
accelerated under one energy safeguard.  The Kacanov map is x -> g(x) =
K(x)^{-1} b on the free-DOF vectors; with f = g(x) - x, each step keeps the
last ANDERSON_DEPTH differences dF and dG of f and g (Walker and Ni, SIAM J.
Numer. Anal. 49, 2011) and tries the candidate g_k - dG gamma, gamma the
least-squares solution of dF gamma = f_k.  A step's direction is apart from
the test that accepts it: each step passes one list of trials, built as
tried, to one call of _safeguard, which accepts the first whose energy is at
most the current one plus a roundoff slack (the current energy is finite, so
a NaN or +inf one never passes).  The list is the candidate, while a history
exists and plain steps have not started, then the plain Kacanov step and its
40 halvings.  The accepted index gives the step's counts, and past 0 (a
rejected candidate or a shortened step) it drops the history.  Each trial's
one-sided gradient pair is built once, one grid.one_sided_differences pass
per axis, and so are its law magnitudes |T+-|: its energy takes them and
keeps them on the pair, and the next step's coefficient reuses them.
On the full law the energy's eta term and the law share the squares |G+-|^2.
Only the residual and energy histories are recorded per step; norms of the
solution are the caller's, on the converged field.  Inner loop: one
preconditioned conjugate gradient solve, _pcg, on flat vectors over the free
DOFs (nodes on no Dirichlet face), with the frozen operator, its eta term
included, assembled once per outer step as a CSR matrix over those DOFs;
it starts from the residual the outer step computed for its own test.
Each inner solve runs to the relative residual max(min(0.2 r, 0.1),
0.02 outer_tol), r the outer step's relative residual, with at most
INNER_MAXITER iterations.  _pcg is the only place an inner solve fails, and it
fails at once: NonFinite on a NaN or on an r.z or p.Ap whose products all
underflow to 0, IllConditioned on r.z <= 0 or p.Ap <= 0 (the preconditioner
or the operator lost definiteness) or on reaching that cap.  For p >= 2 the
preconditioner is one exact inversion of the constant-coefficient 7-point
Laplacian per iteration (poisson module): it is exact at p = 2, and at p > 2
a coefficient-scaled one cost more outer iterations than it saved inner ones.
For p < 2 the secant coefficient is unbounded as |Gv| -> 0.  Each solve
starts with the inversion scaled symmetrically by it, s P^{-1}(s r) with
s = c^{-1/2} and c = eta + (a+ + a-)/2 per free node.  Its iteration count
still grows with the coefficient contrast, so on the full law the first inner
solve that needs more than MULTIGRID_AFTER iterations switches the solve, for
its remaining outer steps, to one Galerkin V-cycle per iteration (multigrid
module), built on each step's assembled matrix, whose count does not grow
with the contrast.  The switch carries along a continuation path: a path
step that ends switched (report.multigrid) starts the next one on the V-cycle.
The symmetric law keeps the scaled inversion (the comment on MULTIGRID_AFTER
says why).  A solve stops at max_outer, once its best residual has not
improved for STALL_STEPS outer steps (the first time, it stops offering the
candidate instead, since on an energy flat to roundoff every candidate passes
while the residual wanders), or when the Kacanov step and all its halvings
raise the energy: each leaves the loop to the one raise of NoConvergence,
with the report and the best iterate.  An overflow of the
forcing norm, the law or the eta term raises NonFinite naming it, and so does
an underflow to 0 of the forcing's sum of squares, or of the residual's short
of convergence (a residual at roundoff is measured scaled and converges); an
inner solve's NonFinite or IllConditioned names its outer step.

The discretization is variational: the energy sums Phi(|Gv|) over nodes with
the gradient realised twice, once with forward and once with backward
differences, each at weight 1/2.  The exact gradient of that sum is a compact
divergence-form operator whose effective face coefficient is the mean of the
two one-sided coefficients adjacent to the face; the mean sits at the face
center to O(h^2), so the scheme is second order, and the frozen quadratic
form is a weighted sum of squares, hence symmetric positive definite with no
odd-even null modes.  Both laws share that operator, built on
grid.one_sided_differences and grid.face_masks; they differ only in the tensor
the law acts on, grid.gradient_mode: G for the full gradient and (G + G^T)/2
for the symmetric one.  Because operator and energy come from the same
functional, the residual zero and the energy minimum coincide exactly: the
line search can never block a genuine descent direction, and for p <= 2 the
classical Kacanov argument gives monotone energy decay outright.

The frozen operator is A(a+-) = 1/2 sum_+- B+-^T diag(a+-) B+-, with B+- the
map from w to the gradient_mode of its one-sided gradient.  The solver keeps
two forms of it, each with one path for both laws.  _apply_pm evaluates it
matrix-free, from the gradient pair and one divergence per axis, and stays
the reference, independent of the assembly: residual and apply_operator use
it, and reconstruct's residual gate, the benchmark's checks and the tests
take residual of a solution.  The solves converge on the assembled form's
residual: per (domain, law) a cached sparsity pattern and a sparse
linear map from [a+, a-, eta] to the CSR data, the eta term being its last
column, so each outer step fills the matrix with one sparse product (at
eta = 0, by the map's leading columns alone).  The full law's matrix is three
equal uncoupled blocks: the map gives the first block's data, tiled three
times.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dataclass_field, replace
from functools import lru_cache
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import grid as g
from . import multigrid as mg
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
    "apply_operator",
    "residual",
    "solve",
    "continuation_solve",
    "energy",
    "stress_potential",
    "frozen_linear_solve",
    "peak_memory_estimate",
]

COEFFICIENT_FLOOR = 1e-12

# PCG iteration cap of an inner solve: a hang guard that no solve reaches
INNER_MAXITER = 20000

# A solve stops with NoConvergence once its best relative residual has not
# improved for this many outer steps; the first time, an Anderson-accelerated
# solve goes on with plain steps instead.  Converging solves went at most 14
# steps without a new best (criterion 5's p = 3 solve at n = 24; 0-1 in the
# README examples and the perfbench workloads).  A p = 4, mu = 0, eta = 1e-8
# solve on the n = 16 box is best at step 36, then wanders until its cap.
STALL_STEPS = 50

# Anderson acceleration of the outer steps keeps this many differences of
# the Kacanov map's iterates and images; 0 makes every step a plain one
ANDERSON_DEPTH = 5

# frozen_linear_solve's fixed-point sweep: relative update target and cap
FROZEN_TOL = 1e-11
FROZEN_MAX_ITER = 600

# A full-law p < 2 solve switches from the scaled Poisson preconditioner to
# multigrid, for its remaining outer steps, after the first inner solve that
# needs more than this many PCG iterations.  Measured at n = 16 on the full
# law's box at a coefficient contrast of 82, in units of one Poisson apply
# (0.4-0.7 ms, medians of 8 runs): a scaled-Poisson PCG iteration costs 1.4
# with its matrix product and dot products, a hierarchy set-up 1.0 (2.5 when
# each set-up formed the Galerkin products; 1.5 against 3.3 on the slab) and
# a multigrid PCG iteration 1.7.  A multigrid inner solve there takes 2
# iterations at rtol 0.1 (5 at 1e-4, 9 at 1e-8, against 12, 32 and 56
# scaled), so it costs 1.0 + 2 * 1.7 = 4.4 units, and a scaled inner solve of
# more than 4.4 / 1.4 = 3.1 iterations costs more.  The inner tolerance
# tightens with the outer residual, so a solve's later inner solves need more
# iterations than its earlier ones: the switch is sticky, and it carries
# along a continuation path, whose next step has a smaller eta and so a larger
# contrast.
# The value stays 4: the p < 2 solves of perfbench's estimate-audit and
# parallel-sweep workloads need at most 4 and never switch, and at 3 the ones
# that need 4 would pay a set-up on every later outer step.
#
# Symmetric-law solves never switch, and the multigrid module has no cycle
# for their coupled matrix.  A coupled cycle was measured at n = 16: its
# set-up cost 13 (box) and 22 (slab) units, and on p = 1.4 and 1.3, mu = 0
# box continuations all but 4 and 6 of 351 and 468 inner solves took 3-4
# scaled iterations, so a switch, after 4 or after 21, raised the CPU time
# by 9-18 % (on the slab at p = 1.4 it saved 9 %).
MULTIGRID_AFTER = 4

# Peak resident bytes per grid node of a solve: the assembly's build (sorted
# triplets of the law and of the eta term), the gradient pairs, the Anderson
# history and, on the full law only, the multigrid levels with their cached
# Galerkin maps and the maps' build.  ru_maxrss over a fresh process, less its
# value before the solve, for a p = 1.4, mu = 0, eta = 1e-4 solve on the box
# at n = 16, 24 and 32 gave 2.9-3.0 KB on the full law (switched to
# multigrid) and 5.6-6.0 KB on the symmetric law, growing slowly with n;
# these are rounded up.
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
            if not (e >= 0.0 and m >= 0.0 and e + m > 0.0):
                raise ValueError("every continuation step needs eta, mu >= 0 and eta + mu > 0")

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
    """Settings of one solve.  Its inner solves have none: each runs to the
    relative residual max(min(0.2 r, 0.1), 0.02 outer_tol), r the outer
    step's, with at most INNER_MAXITER PCG iterations."""

    eta: float = 0.0
    outer_tol: float = 1e-9
    max_outer: int = 200
    continuation: Optional[ContinuationPath] = None

    def __post_init__(self):
        if not self.eta >= 0.0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if not self.outer_tol > 0.0:
            raise ValueError("outer_tol must be positive")
        if not self.max_outer >= 0:
            raise ValueError(f"max_outer must be nonnegative, got {self.max_outer}")


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
    accelerated: int = 0  # accepted Anderson candidates
    restarts: int = 0  # rejected candidates, each of which drops the history
    # the solve ended switched to the V-cycle: a next inner solve would run on it
    multigrid: bool = False
    # a continuation's sums over its path: solves, outer, inner, backtracks,
    # accelerated and restarts
    path_totals: Optional[dict] = None

    def to_dict(self) -> dict:
        out = asdict(self)
        out["continuation_trace"] = [dict(zip(("eta", "mu", "d2_norm", "step_change"), step))
                                     for step in self.continuation_trace]
        if self.path_totals is None:
            del out["path_totals"]
        return out


def _l2(arr: np.ndarray) -> float:
    return float(np.sqrt(np.sum(arr * arr)))


class _GradientPair:
    """A field's one-sided gradient pair, plus and minus the forward and
    backward differences with [i, j] the difference of v_i along j, and the
    law magnitudes of the one law they were last taken under: law_magnitudes
    takes them once per pair and law."""

    __slots__ = ("plus", "minus", "law", "magnitudes")

    def __init__(self, plus: np.ndarray, minus: np.ndarray):
        self.plus, self.minus = plus, minus
        self.law = self.magnitudes = None

    def __iter__(self):
        return iter((self.plus, self.minus))

    def law_magnitudes(self, structure: str):
        """((|T+|^2, |T+|), (|T-|^2, |T-|)), T the gradient_mode of each side
        under structure; a pair taken under the other law is taken again."""
        if self.law != structure:
            self.magnitudes = tuple(_structure_mag(grad, structure) for grad in self)
            self.law = structure
        return self.magnitudes


def _pm_gradients(domain: DomainSpec, v: np.ndarray) -> _GradientPair:
    """One-sided gradient pair: per axis j, one grid.one_sided_differences
    call takes all three components and writes [:, j] of both sides."""
    gp = np.empty((3, 3) + domain.shape)
    gm = np.empty_like(gp)
    for j in range(3):
        g.one_sided_differences(domain, v, j, gp[:, j], gm[:, j])
    return _GradientPair(gp, gm)


def _structure_mag(grad: np.ndarray, structure: str):
    """(|T|^2, |T|) per node, T = gradient_mode(grad, structure)."""
    t = g.gradient_mode(grad, structure)
    # the symmetric part is a fresh array, squared in place
    square = np.sum(np.multiply(t, t, out=None if t is grad else t), axis=(0, 1))
    return square, np.sqrt(square)


def coefficient_field(
    domain: DomainSpec,
    params: ConstitutiveParams,
    v: np.ndarray,
    pair=None,
):
    """Secant coefficients (mu + |G v|)^(p-2) on the one-sided gradient pair.

    pair is v's one-sided gradient pair, _pm_gradients(domain, v), when the
    caller already holds it; magnitudes that energy took from it under the
    same law are reused.  COEFFICIENT_FLOOR clips mu + |G v| from below
    before the power is taken; for p < 2 that caps the coefficient at
    COEFFICIENT_FLOOR^(p-2) on the (measure-zero) critical set of v.  Returns
    (a_plus, a_minus, floor_was_active); the two arrays are zero where the
    corresponding one-sided gradient has no face.
    """
    pair = _pm_gradients(domain, v) if pair is None else pair
    out = []
    active = False
    for (_, mag), mask in zip(pair.law_magnitudes(params.structure), g.face_masks(domain)):
        base = params.mu + mag
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
    "full", (G± + G±^T)/2 for "symmetric".  One divergence per axis j takes
    all three components i.  Constrained rows are zeroed.
    """
    tp, tm = (g.gradient_mode(grad, mode) for grad in _pm_gradients(domain, w))
    out = np.zeros_like(w)
    for j in range(3):
        out -= 0.5 * (
            g.one_sided_differences(domain, a_plus * tp[:, j], j)[1]
            + g.one_sided_differences(domain, a_minus * tm[:, j], j)[0]
        )
    if eta != 0.0:
        out -= eta * g.laplacian(domain, w)
    return apply_constraints(domain, out)


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
    two DOFs are free.  free numbers the DOFs of its leading axis's
    components: all three, or the full law's first alone.  Coefficient index
    s * nodes + node numbers a+ (s = 0) then a- (s = 1)."""
    components = free.shape[0]
    # the full law's stiffness couples no two components, so the leading
    # 4 x 4 block is the first component's
    stiffness = _local_stiffness(mode)[: 4 * components, : 4 * components] / domain.h**2
    size = int(free.max()) + 1
    nodes = np.arange(free[0].size, dtype=np.int32)
    parts = []
    for s, (side, mask) in enumerate(zip((1, -1), g.face_masks(domain))):
        local = [(free[i] if t == 0 else np.roll(free[i], -side, axis=t - 1)).ravel()
                 for i in range(components) for t in range(4)]
        face = mask.ravel() > 0.0
        for k1, k2 in zip(*np.nonzero(stiffness)):
            ok = face & (local[k1] >= 0) & (local[k2] >= 0)
            parts.append((local[k1][ok] * size + local[k2][ok], nodes[ok] + s * nodes.size,
                          np.full(np.count_nonzero(ok), stiffness[k1, k2])))
    return [np.concatenate(column) for column in zip(*parts)]


@lru_cache(maxsize=4)
def _assembly(domain: DomainSpec, mode: str) -> tuple:
    """(indptr, indices, coefficient_map, law_map) of the frozen operator
    over the free DOFs of one (domain, law): its CSR pattern and the linear
    map from [a+, a-, eta] to its data (on the full law, the data of the
    first of its three equal blocks).  law_map, the map of [a+, a-] alone
    that serves the fills at eta = 0, is a view of coefficient_map's leading
    columns."""
    # the full law's matrix is three equal uncoupled blocks: map the first
    free = np.full((1 if mode == "full" else 3,) + domain.shape, -1, dtype=np.int64)
    sel = (slice(None),) + domain.interior
    size = free[sel].size
    free[sel] = np.arange(size).reshape(free[sel].shape)
    # -eta*Lap is the full law's operator with coefficient eta on every face
    laws = {law: _element_triplets(domain, free, law) for law in dict.fromkeys((mode, "full"))}
    pattern = np.sort(np.concatenate([keys for keys, _, _ in laws.values()]))
    pattern = pattern[np.concatenate(([True], pattern[1:] != pattern[:-1]))]
    nodes = free[0].size
    maps = {law: sp.csc_matrix((value, (np.searchsorted(pattern, keys), coef)),
                               shape=(pattern.size, 2 * nodes))
            for law, (keys, coef, value) in laws.items()}
    del laws  # the triplets are the build's largest arrays
    mp, mm = g.face_masks(domain)
    eta_data = maps["full"] @ np.concatenate((mp.ravel(), mm.ravel()))
    # the eta column is the last: its entries follow the law's
    coefficient_map = sp.hstack((maps[mode], sp.csc_matrix(eta_data[:, None])), format="csc")
    del maps
    nnz = coefficient_map.indptr[-2]  # slicing would copy: a view over the law's columns
    law_map = sp.csc_matrix((coefficient_map.data[:nnz], coefficient_map.indices[:nnz],
                             coefficient_map.indptr[:-1]), shape=(pattern.size, 2 * nodes))
    indptr = np.searchsorted(pattern // size, np.arange(size + 1))
    indices = pattern % size
    if mode == "full":
        indptr = np.concatenate([indptr[:-1] + k * pattern.size for k in range(3)]
                                + [[3 * pattern.size]])
        indices = np.concatenate([indices + k * size for k in range(3)])
    # scipy's own index dtype, so filling a matrix copies no index array; the
    # filled matrices share them, so they are read-only
    dtype = sp.get_index_dtype((indptr, indices), check_contents=True)
    indptr, indices = indptr.astype(dtype), indices.astype(dtype)
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices, coefficient_map, law_map


def _frozen_matrix(
    domain: DomainSpec, a_plus: np.ndarray, a_minus: np.ndarray, eta: float, mode: str
) -> sp.csr_matrix:
    """_apply_pm(domain, a_plus, a_minus, eta, mode, .) as a CSR matrix over
    the free DOFs, numbered component-major in domain.interior order."""
    indptr, indices, coefficient_map, law_map = _assembly(domain, mode)
    coefficients = np.concatenate((a_plus.ravel(), a_minus.ravel(), [eta]))
    if eta == 0.0:  # skips the eta column's products, all zero
        data = law_map @ coefficients[:-1]
    else:
        data = coefficient_map @ coefficients
    if mode == "full":
        data = np.tile(data, 3)
    return sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1,) * 2)


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


def _pcg(domain, apply_a, precondition, b, x0, r0, rtol, maxiter):
    """Preconditioned CG on free-DOF vectors to relative residual rtol;
    returns (x, iterations).  r0 is the caller's b - apply_a(x0), so a caller
    that has it already (the outer step's residual) pays no extra product.
    b is nonzero and r0 misses the target, as in solve's one call.

    Every inner-solve failure is raised here, at once: a non-finite residual
    norm, r.z or p.Ap raises NonFinite, and so does r.z = 0 with z nonzero or
    p.Ap = 0 with Ap nonzero (every product underflowed); r.z <= 0 (the
    preconditioner is not positive definite), p.Ap <= 0 (the operator is not)
    and reaching maxiter raise IllConditioned carrying the best relative
    residual and the best iterate as a full-grid field.
    """
    bnorm = _l2(b)
    x = x0.copy()
    r = r0.copy()
    rn = _require_finite(_l2(r), "PCG residual norm")
    best = (rn, x.copy())
    failure = f"inner solve cap {maxiter} reached (target {rtol:.3e})"
    p = None
    for k in range(1, maxiter + 1):
        z = precondition(r)
        # np.sum, not a @ b: on long vectors the latter is BLAS's threaded
        # ddot, whose threads oversubscribe the CPUs of a sweep's workers
        rz_new = _require_finite(float(np.sum(r * z)), "PCG r.z")
        if rz_new == 0.0 and np.any(z):  # r is nonzero: rn > 0
            raise NonFinite(f"PCG r.z is 0.0 at iteration {k}: its sum of products underflowed")
        if rz_new <= 0.0:
            failure = f"preconditioner lost definiteness at PCG iteration {k}: r.z = {rz_new:.3e}"
            break
        p = z.copy() if p is None else z + (rz_new / rz) * p
        rz = rz_new
        ap = apply_a(p)
        denom = _require_finite(float(np.sum(p * ap)), "PCG p.Ap")
        if denom == 0.0 and np.any(ap):  # p is nonzero: r.z > 0
            raise NonFinite(f"PCG p.Ap is 0.0 at iteration {k}: its sum of products underflowed")
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


def stress_potential(t: np.ndarray, p: float, mu: float) -> np.ndarray:
    """Primitive integral_0^t (mu+s)^(p-2) s ds in closed form."""
    t, mu = np.asarray(t, dtype=float), np.float64(mu)  # mu**p overflows to inf, not raises
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
    operator is -eta*Lap for both structures, so on the full law its squares
    are the law's own.  pair is v's one-sided gradient pair, as in
    coefficient_field; the law magnitudes taken here stay on it.
    """
    domain, params = problem.domain, problem.params
    f = problem.forcing()
    pair = _pm_gradients(domain, v) if pair is None else pair
    mp, mm = g.face_masks(domain)
    (ep, mag_p), (em, mag_m) = pair.law_magnitudes(params.structure)
    quad = 0.0
    if eta != 0.0:
        if params.structure != "full":  # the law's squares are of (G + G^T)/2
            ep, em = (np.sum(grad * grad, axis=(0, 1)) for grad in pair)
        quad += 0.25 * eta * (np.sum(mp * ep) + np.sum(mm * em))
    quad += 0.5 * np.sum(mp * stress_potential(mag_p, params.p, params.mu))
    quad += 0.5 * np.sum(mm * stress_potential(mag_m, params.p, params.mu))
    quad -= np.sum(f * v)
    return float(quad * domain.h**3)


def _safeguard(problem: ProblemSpec, eta: float, e_cur: float, trials):
    """An outer step's one energy test: (k, trial, pair, energy, False) of the
    first of trials (full-grid fields, built as tried) whose energy is at most
    the finite e_cur plus a roundoff slack, else (k, None, None, energy,
    overflowed) of the last, overflowed whether any energy was NaN or infinite.
    solve calls it once per outer step, and k gives that step's counts."""
    slack, overflowed = 1e-12 * (1.0 + abs(e_cur)), False
    for k, trial in enumerate(trials):
        pair = _pm_gradients(problem.domain, trial)
        e_trial = energy(trial, problem, eta, pair)
        if e_trial <= e_cur + slack:
            return k, trial, pair, e_trial, False
        overflowed |= not np.isfinite(e_trial)
    return k, None, None, e_trial, overflowed


@np.errstate(over="ignore", invalid="ignore")  # each overflow is raised by name
def solve(
    problem: ProblemSpec,
    config: SolveConfig,
    initial: Optional[np.ndarray] = None,
    *,
    multigrid: bool = False,
):
    """Kacanov iteration on the frozen-coefficient linearisation.

    multigrid starts a full-law p < 2 solve on the V-cycle (continuation_solve
    passes the last path step's report.multigrid); any other solve ignores it.

    Stops when the relative l2 residual of the discrete strong form drops
    below config.outer_tol.  Returns (field, SolveReport); raises
    NoConvergence, with the report and the best iterate attached, if the
    budget runs out, the best residual has not improved for STALL_STEPS
    outer steps (twice, with Anderson on: the first time it goes on with
    plain steps) or 40 halvings of a step all raise the energy, NonFinite on
    a NaN or infinite residual or energy or a residual above outer_tol whose
    sum of squares underflows, and DegenerateConfig for a config with a
    continuation path (that is continuation_solve's) or for eta = mu = 0 at
    p != 2 (go through continuation).
    """
    domain, params = problem.domain, problem.params
    if config.continuation is not None:
        raise DegenerateConfig("solve takes no continuation path: walk it with "
                               "continuation_solve")
    if config.eta == 0.0 and params.mu == 0.0 and params.p != 2.0:
        raise DegenerateConfig(
            "eta = 0 and mu = 0: the degenerate problem is reachable only as a "
            "continuation limit"
        )
    f = apply_constraints(domain, problem.forcing().copy())
    report = SolveReport()
    fnorm = _l2(f)
    if not np.isfinite(fnorm):
        raise NonFinite(f"forcing norm is {fnorm}: its sum of squares overflowed")
    if fnorm == 0.0:
        if np.any(f):
            raise NonFinite(f"forcing norm is {fnorm}: its sum of squares underflowed")
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
    # the switch to multigrid, kept on the report for the next path step
    report.multigrid = multigrid and params.p < 2.0 and params.structure == "full"
    best = (np.inf, 0, v)  # relative residual, step and iterate
    anderson, plain_from = ANDERSON_DEPTH > 0, 0  # candidates until plain steps, from plain_from
    # Anderson differences of f and g, their Gram matrix and the last (f, g)
    dfs, dgs, gram, last = [], [], np.zeros((0, 0)), None
    for it in range(config.max_outer + 1):
        a_plus, a_minus, hit = coefficient_field(domain, params, v, pair)
        report.floor_active |= hit
        matrix = _frozen_matrix(domain, a_plus, a_minus, config.eta, params.structure)
        x_cur = _free(domain, v)
        r = b - matrix.dot(x_cur)
        res = _l2(r) / fnorm
        if res == 0.0 and np.any(r):
            # the squares underflowed: a solution at roundoff stops here with the
            # norm of r scaled by its largest entry; any other would run its
            # inner solves on norms that underflow too
            top = np.max(np.abs(r))
            res = float(_l2(r / top) * top / fnorm)
            if res > config.outer_tol:
                raise NonFinite(f"relative residual is {res:.3e}, but its sum of squares "
                                f"underflowed at outer step {it}")
        if not (np.isfinite(res) and np.isfinite(e_cur)):
            what = f"relative residual is {res}" if not np.isfinite(res) else f"energy is {e_cur}"
            # with finite data and a finite iterate, the law's powers overflowed,
            # or the eta term did where it outweighs a finite law
            if np.isfinite([params.p, params.mu, config.eta]).all() and np.isfinite(x_cur).all():
                mags = np.array([m for _, m in pair.law_magnitudes(params.structure)])
                a_max = max(np.max(a_plus), np.max(a_minus))
                phi = stress_potential(mags, params.p, params.mu)
                if a_max <= config.eta and np.isfinite(phi).all():
                    what += (f": the eta term overflowed at outer step {it} (eta = "
                             f"{config.eta:g}, largest law coefficient {a_max:.3e})")
                else:
                    what += (f": the law overflowed at outer step {it} (p = {params.p:g}, "
                             f"mu = {params.mu:g}, max |G v| = {np.max(mags):.3e})")
            raise NonFinite(what)
        report.residual_history.append(res)
        report.energy_history.append(e_cur)
        report.iterations = it
        report.final_residual = res
        if res <= config.outer_tol:
            report.converged = True
            return v, report
        if res < best[0]:
            best = (res, it, v)
        stalled = it - max(best[1], plain_from) >= STALL_STEPS
        if stalled and anderson:  # with Anderson on: go on with plain steps (module docstring)
            anderson, plain_from, stalled = False, it, False
        if it == config.max_outer or stalled:
            failure = (f"no convergence in {config.max_outer}" if it == config.max_outer
                       else f"no new best residual in {STALL_STEPS}")
            failure += (f" outer iterations (relative residual {res:.3e}, "
                        f"best {best[0]:.3e} at step {best[1]})")
            break
        inner_rtol = max(min(0.2 * res, 0.1), 0.02 * config.outer_tol)
        if report.multigrid:
            precondition = mg.VCycle(domain, matrix)
        elif params.p < 2.0:  # the unbounded coefficient the plain Poisson inverse misses
            c = config.eta + 0.5 * (a_plus[domain.interior] + a_minus[domain.interior])
            precondition = _preconditioner(domain, np.tile(c.ravel() ** -0.5, 3))
        else:
            precondition = _preconditioner(domain)
        try:
            x, inner_it = _pcg(domain, matrix.dot, precondition, b, x_cur, r, inner_rtol,
                               INNER_MAXITER)
        except (NonFinite, IllConditioned) as exc:  # the same error, with its attributes
            raise type(exc)(f"{exc} in the inner solve of outer step {it}", **vars(exc)) from exc
        report.inner_iterations += inner_it
        report.multigrid |= (params.p < 2.0 and params.structure == "full"
                             and inner_it > MULTIGRID_AFTER)
        # Anderson: the candidate g_k - dG gamma, gamma = argmin |f_k - dF gamma|
        # over the last ANDERSON_DEPTH differences of f = g - x and of g, with
        # the Gram matrix dF^T dF grown by one row and column per difference
        fk = x - x_cur
        if last is not None:
            dfs.append(fk - last[0])
            dgs.append(x - last[1])
            gram = np.pad(gram, (0, 1))
            gram[-1] = gram[:, -1] = [np.sum(d * dfs[-1]) for d in dfs]
            if len(dfs) > ANDERSON_DEPTH:
                del dfs[0], dgs[0]
                gram = gram[1:, 1:]
        last = (fk, x)
        led = anderson and bool(dfs)  # the candidate leads the step's trials

        def trials():  # built as tried, so an accepted candidate builds no Kacanov field
            if led:
                gamma = np.linalg.lstsq(gram, [np.sum(d * fk) for d in dfs], rcond=1e-12)[0]
                candidate = x.copy()
                for gj, dg in zip(gamma, dgs):
                    candidate -= gj * dg
                yield _field(domain, candidate)
            delta = _field(domain, x) - v
            for j in range(41):
                yield v + 0.5**j * delta

        # the Kacanov step descends the (exactly consistent) energy, so if it and its 40
        # halvings all raise it, the solve stops rather than go uphill
        k, trial, pair, e_next, overflowed = _safeguard(problem, config.eta, e_cur, trials())
        report.accelerated += led and k == 0
        report.restarts += led and k > 0
        report.backtracks += max(k - led, 0)  # each Kacanov trial after the first
        if trial is None:
            cause = "the law overflowed" if overflowed else "line search failed"
            failure = (f"{cause} at outer step {it}: 40 halvings of the Kacanov step all raise "
                       f"the energy {e_cur:.6e} (the last to {e_next:.6e}; p = {params.p:g})")
            break
        if k:  # a rejected candidate or a shortened step drops the history
            dfs, dgs, gram, last = [], [], np.zeros((0, 0)), None
        v, e_cur = trial, e_next
    raise NoConvergence(failure, field=best[2], report=report)


def _predicted_start(path: ContinuationPath, j: int, v, v_prev):
    """Start of path step j: the Euler-secant predictor v + r (v - v_prev)
    from the last two solutions (Allgower and Georg, Introduction to
    Numerical Continuation Methods, 2003), r the ratio of this path step to
    the last in eta, or in mu when eta did not move over the last step.
    Steps 0 and 1, and a step after one where neither moved, start from v
    itself (None at step 0: solve's Poisson start)."""
    if j >= 2:
        for comp in (path.eta_path, path.mu_path):
            last = comp[j - 1] - comp[j - 2]
            if last != 0.0:
                return v + (comp[j] - comp[j - 1]) / last * (v - v_prev)
    return v


def continuation_solve(problem: ProblemSpec, config: SolveConfig):
    """Walk the (eta, mu) path, each step started from the last two
    solutions' secant predictor (_predicted_start); the first step starts
    from the Poisson solution and the second from the first's solution.  A
    step after one that ended switched to multigrid starts on the V-cycle.

    Records (eta, mu, ||D^2 v||_2, ||v_j - v_{j-1}||_{1,2}) per step and
    raises PathStalled when the step change grows three times in a row.
    Returns the last step's field and SolveReport, with the trace and the
    path's summed solves, outer and inner iterations, backtracks, accepted
    Anderson candidates and restarts (path_totals) attached.
    """
    path = config.continuation
    if path is None:
        raise DegenerateConfig("continuation_solve needs config.continuation")
    f = problem.forcing()
    v = None
    trace = []
    growth = 0
    report = None
    # path_totals' names of the SolveReport counts it sums
    counts = {"outer": "iterations", "inner": "inner_iterations", "backtracks": "backtracks",
              "accelerated": "accelerated", "restarts": "restarts"}
    totals = dict.fromkeys(("solves", *counts), 0)
    prev_delta = v_prev = None
    for j, (eta_j, mu_j) in enumerate(zip(path.eta_path, path.mu_path)):
        params_j = replace(problem.params, mu=mu_j)
        prob_j = ProblemSpec(problem.domain, params_j, f=f)
        cfg_j = replace(config, eta=eta_j, continuation=None)
        v_new, report = solve(prob_j, cfg_j, initial=_predicted_start(path, j, v, v_prev),
                              multigrid=report is not None and report.multigrid)
        totals["solves"] += 1
        for name, count in counts.items():
            totals[name] += getattr(report, count)
        d2n = g.norm(problem.domain, g.second_derivatives(problem.domain, v_new))
        delta = None  # no step change for the path's first solve
        if v is not None:
            delta = g.norm(problem.domain, v_new - v, q=2.0, sobolev_level=1)
            grew = prev_delta is not None and delta > prev_delta
            # ignore growth below solver noise so roundoff-scale jitter in a
            # converged tail cannot trip the stall detector (v_new's norm is
            # taken only for a change that grew)
            if grew and delta > 100.0 * config.outer_tol * max(
                    1.0, g.norm(problem.domain, v_new, q=2.0, sobolev_level=1)):
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
        v, v_prev = v_new, v
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


def frozen_linear_solve(
    domain: DomainSpec,
    u_base: np.ndarray,
    eps: float,
    p: float,
    mu: float,
    f: np.ndarray,
):
    """Solve the linear system with coefficients frozen at a mollified u_base.

    The system is  -Lap(w) - (p-2) c^eps : D^2 w = f (mu + |grad u_base|)^(2-p)
    with c^eps built from gradients of the eps-mollified base field,

        c[i,j,h,k] = d_h J(u_i) d_k J(u_j) / [(mu + J(|grad u|)) J(|grad u|)],

    solved by a fixed-point sweep w <- Lap^{-1}[rhs + (p-2) c : D^2 w] from
    w = Lap^{-1} rhs, whose contraction factor is (2-p) max|c| times the
    discrete second-derivative bound of the inverse Laplacian; |c| <= 1 up to
    O(h) boundary effects, so the sweep converges for the p < 2 range the
    system is meant for.  It stops at a relative update of FROZEN_TOL or after
    FROZEN_MAX_ITER sweeps.  Returns (w, FrozenReport with max|c| and
    iteration count).
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
    w = poisson_solve(domain, rhs)
    cs = c.reshape(3, 3, 3, 3, -1)
    final_update = np.inf
    for it in range(1, FROZEN_MAX_ITER + 1):
        d2 = g.second_derivatives(domain, w).full_tensor().reshape(3, 3, 3, -1)
        corr = np.einsum("ijhkn,jhkn->in", cs, d2).reshape((3,) + domain.shape)
        w_new = poisson_solve(domain, rhs + (p - 2.0) * corr)
        final_update = _l2(w_new - w) / max(_l2(w_new), 1e-300)
        w = w_new
        if final_update <= FROZEN_TOL:
            return w, FrozenReport(eps, coef_max, it, True, final_update)
    return w, FrozenReport(eps, coef_max, FROZEN_MAX_ITER, False, final_update)
