"""Uniform collocated grids on the unit cube and their difference operators.

Two domains are supported:

* ``cubic_periodic``: period 1 in x and y, homogeneous Dirichlet walls at
  z = 0 and z = 1.  Nodes are (i h, j h, k h) with i, j = 0..n-1 (one period,
  no duplicated seam) and k = 0..n.
* ``dirichlet_box``: homogeneous Dirichlet on all six faces, nodes
  (i h, j h, k h) with i, j, k = 0..n.

Fields are plain numpy arrays whose last three axes are the grid axes in
(x, y, z) order; leading axes hold components, e.g. a vector field is
(3, nx, ny, nz) and a gradient is (3, 3, nx, ny, nz) with [i, j] = d_j u_i.
All stencils are second order: centered in the interior and (for first and
second derivatives) one-sided second-order stencils on wall nodes, which are
exact on quadratics.  Discrete integrals use node-centered cells, i.e. weight
h per axis clipped to h/2 on wall nodes, so the constant 1 integrates to 1
exactly.  Second-derivative norms only ever sum over interior nodes to keep
one-sided boundary stencils out of W^{2,q} quantities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import ndimage

from .errors import EpsTooLarge, TooCoarse

__all__ = [
    "CUBIC_PERIODIC",
    "DIRICHLET_BOX",
    "DomainSpec",
    "build_domain",
    "apply_constraints",
    "gradient",
    "gradient_mode",
    "divergence",
    "laplacian",
    "one_sided_differences",
    "face_masks",
    "centered_difference",
    "quadrature_weights",
    "lq_norm_from_squares",
    "second_derivatives",
    "SecondDerivField",
    "norm",
    "mollify",
    "save_field",
    "load_field",
]

CUBIC_PERIODIC = "cubic_periodic"
DIRICHLET_BOX = "dirichlet_box"
_KINDS = (CUBIC_PERIODIC, DIRICHLET_BOX)

MIN_NODES = 8

# Unordered second-derivative pairs stored by second_derivatives, and the
# multiplicity each carries inside |D^2 u|^2.
D2_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
D2_MULT = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
_ZZ = 2  # index of the (z, z) pair in D2_PAIRS


@dataclass(frozen=True)
class DomainSpec:
    """Grid geometry: kind, resolution n (h = 1/n) and derived layout."""

    kind: str
    n: int

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple:
        if self.kind == CUBIC_PERIODIC:
            return (self.n, self.n, self.n + 1)
        return (self.n + 1,) * 3

    def is_periodic(self, axis: int) -> bool:
        return self.kind == CUBIC_PERIODIC and axis < 2

    @property
    def interior(self) -> tuple:
        """Slices selecting nodes that lie on no Dirichlet face."""
        return tuple(
            slice(None) if self.is_periodic(ax) else slice(1, -1) for ax in range(3)
        )

    def coords(self, axis: int) -> np.ndarray:
        return self.h * np.arange(self.shape[axis])

    def meshgrid(self) -> tuple:
        return np.meshgrid(self.coords(0), self.coords(1), self.coords(2), indexing="ij")

    def zeros(self, components: tuple = (3,)) -> np.ndarray:
        return np.zeros(tuple(components) + self.shape)


def build_domain(kind: str, n: int) -> DomainSpec:
    """Validate and construct a DomainSpec.  Raises TooCoarse for n < 8."""
    if kind not in _KINDS:
        raise ValueError(f"unknown domain kind {kind!r}, expected one of {_KINDS}")
    n = int(n)
    if n < MIN_NODES:
        raise TooCoarse(f"need n >= {MIN_NODES} nodes per axis, got n={n}")
    return DomainSpec(kind, n)


def apply_constraints(domain: DomainSpec, field: np.ndarray) -> np.ndarray:
    """Zero the Dirichlet faces of a field in place and return it."""
    for ax in range(3):
        if not domain.is_periodic(ax):
            field[_sl(field.ndim, ax, 0)] = 0.0
            field[_sl(field.ndim, ax, -1)] = 0.0
    return field


def _sl(ndim: int, grid_axis: int, s) -> tuple:
    """Index of one grid axis (a slice or an integer) of an ndim array."""
    sl = [slice(None)] * ndim
    sl[ndim - 3 + grid_axis] = s
    return tuple(sl)


def centered_difference(domain: DomainSpec, f: np.ndarray, axis: int) -> np.ndarray:
    """Centered first difference along a grid axis, second-order one-sided
    on wall nodes; gradient(), divergence() and second_derivatives() use it."""
    h = domain.h
    nd = f.ndim
    ax = nd - 3 + axis
    if domain.is_periodic(axis):
        return (np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) / (2.0 * h)
    out = np.empty_like(f)
    out[_sl(nd, axis, slice(1, -1))] = (
        f[_sl(nd, axis, slice(2, None))] - f[_sl(nd, axis, slice(None, -2))]
    ) / (2.0 * h)
    i0, i1, i2 = (_sl(nd, axis, slice(k, k + 1)) for k in range(3))
    out[_sl(nd, axis, slice(0, 1))] = (-3.0 * f[i0] + 4.0 * f[i1] - f[i2]) / (2.0 * h)
    j0, j1, j2 = (_sl(nd, axis, slice(-1 - k, None if k == 0 else -k)) for k in range(3))
    out[_sl(nd, axis, slice(-1, None))] = (3.0 * f[j0] - 4.0 * f[j1] + f[j2]) / (2.0 * h)
    return out


def one_sided_differences(domain: DomainSpec, f: np.ndarray, axis: int,
                          forward: np.ndarray = None, backward: np.ndarray = None) -> tuple:
    """(forward, backward) first differences of f along a grid axis, written
    into forward and backward when given; f may have any leading axes.

    One subtraction gives the forward differences.  The backward difference
    at x is the forward one at x - e_j, so it is a shifted copy: wrapping on
    a periodic axis, and on a wall axis the copy of the forward difference's
    last slice, which has no face and is 0, fills the first.
    """
    nd = f.ndim
    forward = np.empty(f.shape) if forward is None else forward
    backward = np.empty(f.shape) if backward is None else backward
    head, tail = _sl(nd, axis, slice(None, -1)), _sl(nd, axis, slice(1, None))
    first, last = _sl(nd, axis, slice(0, 1)), _sl(nd, axis, slice(-1, None))
    np.subtract(f[tail], f[head], out=forward[head])
    if domain.is_periodic(axis):
        np.subtract(f[first], f[last], out=forward[last])
    else:
        forward[last] = 0.0
    forward /= domain.h
    backward[tail] = forward[head]
    backward[first] = forward[last]
    return forward, backward


@lru_cache(maxsize=32)
def face_masks(domain: DomainSpec) -> tuple:
    """(forward, backward) node masks: 0 on the wall slices where that side
    of one_sided_differences has no face, 1 elsewhere.  Cached and read-only."""
    masks = (np.ones(domain.shape), np.ones(domain.shape))
    for axis in range(3):
        if not domain.is_periodic(axis):
            masks[0][_sl(3, axis, -1)] = 0.0
            masks[1][_sl(3, axis, 0)] = 0.0
    for mask in masks:
        mask.flags.writeable = False
    return masks


def _diff2(domain: DomainSpec, f: np.ndarray, axis: int) -> np.ndarray:
    """Second difference along one grid axis; 4-point one-sided on walls."""
    h2 = domain.h**2
    nd = f.ndim
    ax = nd - 3 + axis
    if domain.is_periodic(axis):
        return (np.roll(f, -1, axis=ax) - 2.0 * f + np.roll(f, 1, axis=ax)) / h2
    out = np.empty_like(f)
    out[_sl(nd, axis, slice(1, -1))] = (
        f[_sl(nd, axis, slice(2, None))]
        - 2.0 * f[_sl(nd, axis, slice(1, -1))]
        + f[_sl(nd, axis, slice(None, -2))]
    ) / h2
    i = [f[_sl(nd, axis, slice(k, k + 1))] for k in range(4)]
    out[_sl(nd, axis, slice(0, 1))] = (2.0 * i[0] - 5.0 * i[1] + 4.0 * i[2] - i[3]) / h2
    j = [f[_sl(nd, axis, slice(-1 - k, None if k == 0 else -k))] for k in range(4)]
    out[_sl(nd, axis, slice(-1, None))] = (2.0 * j[0] - 5.0 * j[1] + 4.0 * j[2] - j[3]) / h2
    return out


def gradient(domain: DomainSpec, u: np.ndarray, mode: str = "full") -> np.ndarray:
    """Nodal gradient of a vector field; out[i, j] = d_j u_i.

    mode "full" returns the raw gradient, mode "symmetric" its symmetric part.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty((u.shape[0], 3) + u.shape[1:])
    for j in range(3):
        out[:, j] = centered_difference(domain, u, j)
    return gradient_mode(out, mode)


def gradient_mode(grad: np.ndarray, mode: str) -> np.ndarray:
    """A gradient tensor (leading axes [i, j]) as the law sees it: itself for
    mode "full", its symmetric part (G + G^T)/2 for mode "symmetric"."""
    if mode == "symmetric":
        out = grad + np.swapaxes(grad, 0, 1)
        out *= 0.5
        return out
    if mode != "full":
        raise ValueError(f"mode must be 'full' or 'symmetric', got {mode!r}")
    return grad


def divergence(domain: DomainSpec, t: np.ndarray) -> np.ndarray:
    """Row-wise divergence of a tensor field: out[i] = sum_j d_j t[i, j]."""
    t = np.asarray(t, dtype=float)
    out = np.zeros((t.shape[0],) + t.shape[2:])
    for j in range(3):
        out += centered_difference(domain, t[:, j], j)
    return out


def laplacian(domain: DomainSpec, u: np.ndarray) -> np.ndarray:
    """Componentwise 7-point Laplacian (trace of second_derivatives)."""
    u = np.asarray(u, dtype=float)
    out = _diff2(domain, u, 0)
    for ax in (1, 2):
        out += _diff2(domain, u, ax)
    return out


@dataclass
class SecondDerivField:
    """All unordered second partials of a vector field.

    ``values`` has shape (3, 6, nx, ny, nz), pair order D2_PAIRS.  Off-diagonal
    pairs enter squared magnitudes with multiplicity 2 so that sq_all equals
    sum_{i,j,k} (d2_{jk} u_i)^2 over ordered (j, k).
    """

    domain: DomainSpec
    values: np.ndarray

    def sq_all(self) -> np.ndarray:
        return np.einsum("p,cp...->...", D2_MULT, self.values**2)

    def sq_tangential(self) -> np.ndarray:
        """Squared magnitude of every pair except (z, z)."""
        return self.sq_all() - np.sum(self.values[:, _ZZ] ** 2, axis=0)

    def d_zz(self) -> np.ndarray:
        """The doubly-normal second derivative, shape (3, nx, ny, nz)."""
        return self.values[:, _ZZ]

    def trace(self) -> np.ndarray:
        return self.values[:, 0] + self.values[:, 1] + self.values[:, 2]

    def full_tensor(self) -> np.ndarray:
        """Expand pair storage to the symmetric (3, 3, 3, nx, ny, nz) tensor.

        out[c, a, b] is the (a, b) second partial of component c.
        """
        out = np.empty((self.values.shape[0], 3, 3) + self.values.shape[2:])
        for idx, (a, b) in enumerate(D2_PAIRS):
            out[:, a, b] = self.values[:, idx]
            if a != b:
                out[:, b, a] = self.values[:, idx]
        return out


def second_derivatives(domain: DomainSpec, u: np.ndarray) -> SecondDerivField:
    """Second partials of each component; mixed ones as nested first diffs.

    Stencils along distinct axes commute exactly, so each unordered pair is
    stored once.  The trace reproduces laplacian() to machine epsilon because
    the diagonal entries reuse the same per-axis second difference.
    """
    u = np.asarray(u, dtype=float)
    vals = np.empty((u.shape[0], 6) + u.shape[1:])
    first = [centered_difference(domain, u, ax) for ax in range(3)]
    for idx, (a, b) in enumerate(D2_PAIRS):
        if a == b:
            vals[:, idx] = _diff2(domain, u, a)
        else:
            vals[:, idx] = centered_difference(domain, first[a], b)
    return SecondDerivField(domain, vals)


@lru_cache(maxsize=32)
def quadrature_weights(domain: DomainSpec) -> np.ndarray:
    """Node-centered cell volumes: h per axis, h/2 on wall nodes, so the
    constant 1 integrates to 1 exactly.  Cached and read-only."""
    axes = []
    for ax in range(3):
        w = np.full(domain.shape[ax], domain.h)
        if not domain.is_periodic(ax):
            w[0] *= 0.5
            w[-1] *= 0.5
        axes.append(w)
    out = axes[0][:, None, None] * axes[1][None, :, None] * axes[2][None, None, :]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _interior_weights(domain: DomainSpec) -> np.ndarray:
    w = np.zeros(domain.shape)
    w[domain.interior] = domain.h**3
    w.flags.writeable = False
    return w


def lq_norm_from_squares(domain: DomainSpec, mag_sq: np.ndarray, q: float,
                         interior_only: bool) -> float:
    """Discrete L^q norm (q >= 1 or numpy.inf) of a field given its
    pointwise squared magnitude, weighted by quadrature_weights, or by h^3 on
    interior nodes only when interior_only."""
    w = _interior_weights(domain) if interior_only else quadrature_weights(domain)
    if np.isinf(q):
        mask = w > 0.0
        return float(np.sqrt(np.max(mag_sq[..., mask], initial=0.0)))
    top = float(np.max(mag_sq, initial=0.0))
    if top == 0.0:
        return 0.0
    # scale out the max before taking the q-th power so large q cannot overflow
    return float(np.sqrt(top) * np.sum(w * (mag_sq / top) ** (q / 2.0)) ** (1.0 / q))


def _magnitude_sq(field) -> np.ndarray:
    if isinstance(field, SecondDerivField):
        return field.sq_all()
    arr = np.asarray(field, dtype=float)
    comp_axes = tuple(range(arr.ndim - 3))
    return np.sum(arr * arr, axis=comp_axes) if comp_axes else arr * arr


def norm(domain: DomainSpec, field, q: float = 2.0, sobolev_level: int = 0) -> float:
    """Discrete L^q / W^{m,q} norm of a field.

    q may be any value >= 1 or numpy.inf (max norm).  sobolev_level 0 is the
    plain L^q norm of the pointwise Euclidean magnitude; level 1 adds the
    full-gradient term, level 2 the second-derivative term, combined as
    (sum of q-th powers)^(1/q) (max of maxes for q = inf).  Levels >= 1
    require a vector field; the level-2 term sums over interior nodes only.
    """
    if q < 1.0:
        raise ValueError(f"need q >= 1, got q={q}")
    if sobolev_level not in (0, 1, 2):
        raise ValueError(f"sobolev_level must be 0, 1 or 2, got {sobolev_level}")
    if sobolev_level == 0:
        interior_only = isinstance(field, SecondDerivField)
        return lq_norm_from_squares(domain, _magnitude_sq(field), q, interior_only)
    u = np.asarray(field, dtype=float)
    terms = [lq_norm_from_squares(domain, _magnitude_sq(u), q, False)]
    terms.append(lq_norm_from_squares(domain, _magnitude_sq(gradient(domain, u)), q, False))
    if sobolev_level == 2:
        d2 = second_derivatives(domain, u)
        terms.append(lq_norm_from_squares(domain, d2.sq_all(), q, True))
    if np.isinf(q):
        return float(max(terms))
    return float(np.sum(np.asarray(terms) ** q) ** (1.0 / q))


def _mollifier_weights(m: int) -> np.ndarray:
    offs = np.arange(-m, m + 1, dtype=float) / m
    w = np.zeros_like(offs)
    inside = np.abs(offs) < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - offs[inside] ** 2))
    return w / np.sum(w)


def mollify(domain: DomainSpec, field: np.ndarray, eps: float) -> np.ndarray:
    """Separable bump-kernel smoothing with radius eps = m h, integer m >= 1.

    Periodic axes wrap; Dirichlet axes use zero extension.  The 1-D kernel is
    exp(-1/(1 - (o/m)^2)) sampled at node offsets o and renormalised to unit
    sum, so constants are preserved away from the walls and nonnegative mass
    is preserved exactly under wrapping.  At eps = h the sampled bump
    degenerates to the identity.  Raises EpsTooLarge for eps > 1/4.
    """
    h = domain.h
    m = int(round(eps / h))
    if m < 1 or abs(eps - m * h) > 1e-9 * h:
        raise ValueError(f"eps must be an integer multiple of h={h}, got eps={eps}")
    if eps > 0.25 + 1e-12:
        raise EpsTooLarge(f"mollifier radius eps={eps} exceeds 1/4")
    out = np.asarray(field, dtype=float)
    weights = _mollifier_weights(m)
    for ax in range(3):
        mode = "wrap" if domain.is_periodic(ax) else "constant"
        out = ndimage.convolve1d(out, weights, axis=out.ndim - 3 + ax, mode=mode, cval=0.0)
    return out


# --- serialization ---------------------------------------------------------
#
# A field file is a one-line JSON header {"components", "fmt": "bin", "kind",
# "n"} followed by the node data as raw little-endian float64, ordered
# component-major with x fastest; it round-trips bit-exactly.


def _x_fastest(values: np.ndarray) -> np.ndarray:
    return np.moveaxis(values, (-3, -2, -1), (-1, -2, -3))


def save_field(path, domain: DomainSpec, values: np.ndarray) -> None:
    values = np.ascontiguousarray(values, dtype=float)
    header = {
        "kind": domain.kind,
        "n": domain.n,
        "components": list(values.shape[:-3]),
        "fmt": "bin",
    }
    flat = np.ascontiguousarray(_x_fastest(values)).ravel()
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        fh.write(flat.astype("<f8").tobytes())


def load_field(path):
    """Read a field written by save_field; returns (DomainSpec, values)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        if header.get("fmt", "bin") != "bin":
            raise ValueError(f"unknown field format {header['fmt']!r}, expected 'bin'")
        domain = build_domain(header["kind"], header["n"])
        comps = tuple(header["components"])
        count = int(np.prod(comps, dtype=int)) * int(np.prod(domain.shape))
        payload = fh.read()
    if len(payload) != 8 * count:
        raise ValueError(f"field file holds {len(payload) / 8:.15g} values, expected {count}")
    flat = np.frombuffer(payload, dtype="<f8").copy()
    shape = comps + (domain.shape[2], domain.shape[1], domain.shape[0])
    values = _x_fastest(flat.reshape(shape))  # move (z, y, x) back to (x, y, z)
    return domain, np.ascontiguousarray(values)
