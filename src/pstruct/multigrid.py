"""Galerkin V(2,2) multigrid on the assembled frozen operator.

A preconditioner for the inner PCG of the p < 2 solves, where the secant
coefficient's contrast makes the constant-coefficient Poisson inverse slow.
It follows the robust multigrid of Alcouffe, Brandt, Dendy and Painter
(SIAM J. Sci. Stat. Comput. 2, 1981): the coarse operators are the Galerkin
products P^T A P (Trottenberg, Oosterlee and Schueller, Multigrid, 2001), so
they carry the coefficient jumps down the hierarchy with no rediscretization.

Levels.  One coarsening rule serves every n: along each axis the coarse
nodes are every other fine node, counted from node 0, plus the walls of a
wall axis.  At odd n the last coarse cell is one fine cell wide (next to the
wall of a wall axis, across the seam of a periodic one).  P interpolates
linearly along each axis between the enclosing coarse nodes, periodically on
periodic axes and to zero at walls, and the 3D P is the Kronecker product of
the three, in _frozen_matrix's node order.  Coarsening stops at
COARSEST_NODES nodes or fewer, which are solved by a dense Cholesky factor.
interpolations(domain) depends on the domain only and is cached; it is built
on the first V-cycle's set-up, never at import or by the matrix-free
operators.

Smoother.  Two damped Jacobi sweeps before and two after the coarse
correction, x += OMEGA D^{-1} (r - A x), with D the larger of the diagonal
and half the absolute row sum of the level's A.  For the full law's fine
level that is the diagonal away from walls (the operator is a weighted
7-point graph Laplacian), so the sweep is plain omega = 0.8 Jacobi there.
Taking the row sum into D keeps every sweep an A-norm contraction, since
2D - A is diagonally dominant: the symmetric law's D^{-1}A reaches 3.2 at a
contrast of e^20, beyond the 2 / OMEGA = 2.5 that plain Jacobi tolerates.
With the same smoother before and after, exact coarse solves and R = P^T,
the cycle is symmetric positive definite.

Laws.  The full law's matrix is three equal uncoupled blocks, so the cycle
runs on the scalar block with the three components as the columns of an
(N, 3) block; the symmetric law's coupled matrix uses kron(I3, P) and one
column.  Both run the same cycle; the solver switches to it on the full law
only (see solver.MULTIGRID_AFTER).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .grid import DomainSpec

__all__ = ["OMEGA", "COARSEST_NODES", "interpolations", "VCycle"]

OMEGA = 0.8
COARSEST_NODES = 64  # nodes per component solved directly; 3^3 at n = 8 and 16


def _coarse_axis(nodes: np.ndarray, periodic: bool) -> np.ndarray:
    """Every other node, plus the last (a wall) on a wall axis."""
    coarse = nodes[::2]
    if not periodic and coarse[-1] != nodes[-1]:
        coarse = np.append(coarse, nodes[-1])
    return coarse


def _interpolation_1d(fine: np.ndarray, coarse: np.ndarray, period) -> sp.csr_matrix:
    """Linear interpolation from coarse to fine node values along one axis.

    Node positions are fine-grid indices.  A wall axis lists both walls,
    which hold no unknowns; a periodic axis lists one period and period is
    its length.
    """
    if period is None:
        free_fine, cols = fine[1:-1], coarse
    else:
        free_fine, cols = fine, np.append(coarse, coarse[0] + period)
    right = np.searchsorted(cols, free_fine)  # the first coarse node at or after
    on_node = cols[right] == free_fine
    left = np.where(on_node, right, right - 1)
    width = np.maximum(cols[right] - cols[left], 1)
    w_right = np.where(on_node, 0.0, (free_fine - cols[left]) / width)
    rows = np.arange(free_fine.size)
    data = np.concatenate((1.0 - w_right, w_right))
    r = np.concatenate((rows, rows))
    c = np.concatenate((left, right))
    if period is None:
        c = c - 1  # column 0 is the first wall
        keep = (c >= 0) & (c < coarse.size - 2) & (data != 0.0)
        ncols = coarse.size - 2
    else:
        c = c % coarse.size
        keep = data != 0.0
        ncols = coarse.size
    return sp.csr_matrix((data[keep], (r[keep], c[keep])), shape=(free_fine.size, ncols))


@lru_cache(maxsize=4)
def interpolations(domain: DomainSpec) -> tuple:
    """The scalar interpolations P_l, finest first, of domain's hierarchy."""
    axes = [np.arange(domain.shape[ax]) for ax in range(3)]
    periods = [domain.n if domain.is_periodic(ax) else None for ax in range(3)]
    out = []
    # a wall axis lists its two walls, which hold no unknowns
    while np.prod([a.size - 2 * (p is None) for a, p in zip(axes, periods)]) > COARSEST_NODES:
        coarse = [_coarse_axis(a, p is not None) for a, p in zip(axes, periods)]
        px, py, pz = (_interpolation_1d(f, c, p) for f, c, p in zip(axes, coarse, periods))
        out.append(sp.kron(px, sp.kron(py, pz, format="csr"), format="csr"))
        axes = coarse
    return tuple(out)


@lru_cache(maxsize=8)
def _transfers(domain: DomainSpec, components: int) -> tuple:
    """(P, P^T) per level for fields of 1 or 3 coupled components."""
    eye = sp.identity(components, format="csr")
    out = []
    for p in interpolations(domain):
        if components > 1:
            p = sp.kron(eye, p, format="csr")
        out.append((p, p.T.tocsr()))
    return tuple(out)


class VCycle:
    """One V(2,2) cycle of the Galerkin hierarchy of a frozen matrix, as a
    preconditioner on free-DOF vectors in _frozen_matrix's numbering.

    matrix is _frozen_matrix(domain, ..., mode); building the hierarchy costs
    one Galerkin product per level and a dense Cholesky factor.
    """

    def __init__(self, domain: DomainSpec, matrix: sp.csr_matrix, mode: str):
        full = mode == "full"
        self.columns = 3 if full else 1
        if full:
            # rows of the first component couple no other: its block is the
            # leading slice of the CSR arrays
            nodes = matrix.shape[0] // 3
            end = matrix.indptr[nodes]
            matrix = sp.csr_matrix(
                (matrix.data[:end], matrix.indices[:end], matrix.indptr[: nodes + 1]),
                shape=(nodes, nodes))
        transfers = _transfers(domain, 1 if full else 3)
        self.interpolations = tuple(p for p, _ in transfers)
        self.restrictions = tuple(r for _, r in transfers)
        self.operators = [matrix]
        self.smoothers = []
        for p, r in transfers:
            a = self.operators[-1]
            half_l1 = 0.5 * np.add.reduceat(np.abs(a.data), a.indptr[:-1])
            self.smoothers.append((OMEGA / np.maximum(a.diagonal(), half_l1))[:, None])
            self.operators.append(r @ (a @ p))
        self.factor = sla.cho_factor(self.operators[-1].toarray())

    def __call__(self, r: np.ndarray) -> np.ndarray:
        block = np.ascontiguousarray(r.reshape(self.columns, -1).T)
        return self._cycle(0, block).T.ravel()

    def _cycle(self, level: int, r: np.ndarray) -> np.ndarray:
        if level == len(self.interpolations):
            return sla.cho_solve(self.factor, r)
        a, weight = self.operators[level], self.smoothers[level]
        x = weight * r
        x += weight * (r - a @ x)
        x += self.interpolations[level] @ self._cycle(
            level + 1, self.restrictions[level] @ (r - a @ x))
        for _ in range(2):
            x += weight * (r - a @ x)
        return x
