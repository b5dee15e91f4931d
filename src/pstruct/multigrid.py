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

Set-up.  Every level's pattern is fixed by the domain, and P^T A P is linear
in A's CSR data: one sparse map per level takes a level's data to the next
coarser level's, so a set-up costs one sparse mat-vec per level, the
smoothers' diagonals and row sums, and the coarsest factor (0.4-0.7 ms on
the box and 0.6-0.9 ms on the slab at n = 16, about half of what two sparse
matrix products per level took).  The fine pattern is the first block of
the full law's solver._assembly; VCycle raises ValueError on a matrix with
another, whose data the maps would misread.  interpolations(domain) and the
maps, _levels(domain), depend on the domain only and are cached; they are
built on the first V-cycle's set-up (about 35-80 ms at n = 16, 0.4-0.7 s at
n = 32), never at import or by the matrix-free operators.

Smoother.  Two damped Jacobi sweeps before and two after the coarse
correction, x += OMEGA D^{-1} (r - A x), with D the larger of the diagonal
and half the absolute row sum of the level's A.  On the fine level, a
weighted 7-point graph Laplacian, D is the diagonal.  The Galerkin coarse
operators have positive off-diagonals, and there half the row sum exceeds
the diagonal: by up to 1.48x on the first coarse level at n = 16 and a
contrast of e^12.  The row sum makes 2D - A diagonally dominant, so every
sweep is an A-norm contraction whatever the coefficients.  With the same
smoother before and after, exact coarse solves and R = P^T, the cycle is
symmetric positive definite.

Law.  The full law's matrix is three equal uncoupled blocks: the cycle runs
on the scalar block, with one column of an (N, 3) block per component.
The symmetric law keeps the scaled Poisson inverse (see
solver.MULTIGRID_AFTER).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

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
    its length.  Column c interpolates the unit vector at coarse node c, and
    the walls hold 0.
    """
    rows, cols = (fine[1:-1], coarse[1:-1]) if period is None else (fine, coarse)
    return sp.csr_matrix(np.stack(
        [np.interp(rows, coarse, coarse == c, period=period) for c in cols], axis=1))


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


def _galerkin_map(pattern: sp.csr_matrix, p: sp.csr_matrix):
    """The CSR pattern of P^T A P for every A on pattern, and the sparse map
    from A's data to its data: coarse entry (I, J) sums P[k, I] P[l, J] a_kl
    over the entries kl of A, in the order of A's data."""
    # a pattern's data and P's are positive, so no entry of the product cancels
    coarse = (p.T @ pattern @ p).tocsr()
    coarse.sort_indices()
    width = np.int64(coarse.shape[1])
    rows, cols = coarse.nonzero()
    keys = rows * width + cols
    rows, cols = pattern.nonzero()
    counts = np.diff(p.indptr)
    row_counts, col_counts = counts[rows], counts[cols]
    # the transposed map, filled in place: its row for entry kl holds the
    # products of the s-th entry of P's row k with the t-th of its row l
    indptr = np.concatenate(([0], np.cumsum(row_counts * col_counts)))
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    for s in range(counts.max()):
        for t in range(counts.max()):
            e = np.flatnonzero((row_counts > s) & (col_counts > t))
            ki, lj = p.indptr[rows[e]] + s, p.indptr[cols[e]] + t
            at = indptr[e] + s * col_counts[e] + t
            indices[at] = np.searchsorted(keys, p.indices[ki] * width + p.indices[lj])
            data[at] = p.data[ki] * p.data[lj]
    return coarse, sp.csr_matrix((data, indices, indptr), shape=(cols.size, keys.size)).T.tocsr()


class _Level(NamedTuple):
    """One level of a domain's hierarchy: its operators' CSR pattern and the
    positions of their diagonal in its data; above the coarsest, also P, P^T
    and the Galerkin map from the level's data to the next coarser level's."""

    pattern: sp.csr_matrix
    diagonal: np.ndarray
    interpolation: Optional[sp.csr_matrix] = None
    restriction: Optional[sp.csr_matrix] = None
    galerkin: Optional[sp.csr_matrix] = None


def _diagonal(pattern: sp.csr_matrix) -> np.ndarray:
    rows, cols = pattern.nonzero()
    return np.flatnonzero(rows == cols)


@lru_cache(maxsize=4)
def _levels(domain: DomainSpec) -> tuple:
    """domain's hierarchy, finest level first, for VCycle's set-up.  The
    finest pattern is the full law assembly's first block."""
    from .solver import _assembly  # solver imports this module

    indptr, indices = _assembly(domain, "full")[:2]
    nodes = (indptr.size - 1) // 3
    pattern = sp.csr_matrix((np.ones(indptr[nodes]), indices[: indptr[nodes]],
                             indptr[: nodes + 1]), shape=(nodes, nodes))
    out = []
    for p in interpolations(domain):
        coarse, galerkin = _galerkin_map(pattern, p)
        out.append(_Level(pattern, _diagonal(pattern), p, p.T.tocsr(), galerkin))
        pattern = coarse
    out.append(_Level(pattern, _diagonal(pattern)))
    return tuple(out)


class VCycle:
    """One V(2,2) cycle of the Galerkin hierarchy of a full-law frozen matrix,
    as a preconditioner on free-DOF vectors in _frozen_matrix's numbering.

    matrix is _frozen_matrix(domain, ..., "full"); a matrix on another
    pattern (one put through eliminate_zeros, say) raises ValueError.
    Building the hierarchy costs one sparse mat-vec per level through the
    Galerkin maps cached per domain, the smoothers' diagonals and row sums,
    and a dense Cholesky factor.
    """

    def __init__(self, domain: DomainSpec, matrix: sp.csr_matrix):
        levels = _levels(domain)
        fine = levels[0].pattern
        # rows of the first component couple no other: its block is the
        # leading slice of the CSR arrays
        nodes = fine.shape[0]
        if (matrix.shape != (3 * nodes, 3 * nodes)
                or not np.array_equal(matrix.indptr[: nodes + 1], fine.indptr)):
            raise ValueError("VCycle needs a matrix with the pattern of the full law's "
                             f"frozen matrix on {domain}")
        data = matrix.data[: fine.nnz]
        self.interpolations = tuple(level.interpolation for level in levels[:-1])
        self.restrictions = tuple(level.restriction for level in levels[:-1])
        self.operators = []
        self.smoothers = []
        for level in levels:
            a = level.pattern
            self.operators.append(sp.csr_matrix((data, a.indices, a.indptr), shape=a.shape))
            if level.galerkin is None:
                break
            half_l1 = 0.5 * np.add.reduceat(np.abs(data), a.indptr[:-1])
            self.smoothers.append((OMEGA / np.maximum(data[level.diagonal], half_l1))[:, None])
            data = level.galerkin @ data
        self.factor = sla.cho_factor(self.operators[-1].toarray())

    def __call__(self, r: np.ndarray) -> np.ndarray:
        block = np.ascontiguousarray(r.reshape(3, -1).T)
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
