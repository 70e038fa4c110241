"""Uniform 1-D lattices, lattice fields, difference operators, discrete norms.

Fields live on either a periodic lattice (N nodes covering one period l,
with h = l/N) or a finite window of M+1 nodes. Window fields carry an
extension tag saying how ghost values past the ends are produced:

* ``"constant"`` - edge value repeated; the default for primitive data
  (tangents, curves, coefficient samples), mimicking data that is constant
  outside a compact perturbation.
* ``"zero"`` - exterior values are zero; the exact extension of any
  difference of constant-extended data.

Difference operators read ghosts from the operand's tag and tag their
result, so composite stencils such as D+(g D-u) reproduce the
infinite-lattice algebra at the boundary nodes. Sums of mixed-extension
fields fall back to the "constant" tag; none of the shipped computations
differentiate such a sum on a window.

Everything here is pure: fields are immutable value objects and every
operator returns a new field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class AlignmentError(ValueError):
    """Fields (or a field and a grid) do not share the same lattice."""


class CoefficientBoundError(ValueError):
    """A speed-coefficient sample violated its declared bounds."""


class RieszSolveError(RuntimeError):
    """Internal error: the dual-norm solve left a residual above tolerance."""


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform 1-D lattice, periodic or windowed.

    Periodic grids store the period ``length`` and derive h = length/N.
    Window grids store M+1 node coordinates x0 + i*h, i = 0..M.
    """

    h: float
    x0: float
    n_nodes: int
    periodic: bool
    length: float | None = None

    def __post_init__(self):
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError(f"spacing must be positive and finite, got {self.h}")
        if self.periodic:
            if self.length is None or self.n_nodes < 3:
                raise ValueError("periodic grid needs a period and at least 3 nodes")
        else:
            if self.n_nodes < 5:
                raise ValueError("window grid needs at least 5 nodes (M >= 4 intervals)")

    @staticmethod
    def make_periodic(length: float, n_nodes: int, x0: float = 0.0) -> "Grid":
        if n_nodes < 3:
            raise ValueError("periodic grid needs N >= 3")
        return Grid(h=length / n_nodes, x0=x0, n_nodes=n_nodes,
                    periodic=True, length=length)

    @staticmethod
    def make_window(x0: float, intervals: int, h: float) -> "Grid":
        return Grid(h=h, x0=x0, n_nodes=intervals + 1, periodic=False)

    def nodes(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self.n_nodes)


# --------------------------------------------------------------------------
# fields
# --------------------------------------------------------------------------

def _as_values(values) -> np.ndarray:
    # C order whatever the input's: reductions like magnitudes() sum by layout
    arr = np.array(values, dtype=np.float64, copy=True, order="C")
    if arr.ndim not in (1, 2) or (arr.ndim == 2 and arr.shape[1] != 3):
        raise ValueError(f"field values must be (n,) or (n, 3), got {arr.shape}")
    return arr


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vector product of (3, n) arrays, node axis last (faster than np.cross)."""
    return _cross_turned(a.take(_NEXT, axis=0), a.take(_PREV, axis=0), b)


def _cross_turned(a_next: np.ndarray, a_prev: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a ^ b from a's cyclic row permutations (a_y, a_z, a_x) and (a_z, a_x, a_y)."""
    return a_next * b.take(_PREV, axis=0) - a_prev * b.take(_NEXT, axis=0)


def _norm2(v: np.ndarray) -> np.ndarray:
    """|v|^2 over the component axis 0 of a (3, ...) array, summed as
    (x^2 + z^2) + y^2: the order of magnitudes()' einsum on (n, 3) rows."""
    sq = v * v
    return (sq[0] + sq[2]) + sq[1]


@dataclass(frozen=True)
class Field:
    """Values (3-vectors or scalars) aligned to a grid, one per node."""

    grid: Grid
    values: np.ndarray
    extension: str = "constant"

    def __post_init__(self):
        arr = _as_values(self.values)
        if arr.shape[0] != self.grid.n_nodes:
            raise AlignmentError(
                f"{arr.shape[0]} values for a grid of {self.grid.n_nodes} nodes")
        # NaN and Inf propagate through the sum, so one reduction finds them;
        # finite entries can overflow it, so a non-finite sum is confirmed
        if not math.isfinite(float(arr.sum())) and not np.isfinite(arr).all():
            raise ValueError("field contains non-finite entries")
        if self.extension not in ("constant", "zero"):
            raise ValueError(f"unknown extension policy {self.extension!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == 2

    def with_values(self, values, extension: str | None = None) -> "Field":
        return Field(self.grid, values, self.extension if extension is None else extension)

    # -- arithmetic (extension tags combine as documented in the module doc)

    def __add__(self, other: "Field") -> "Field":
        _check_aligned(self, other)
        ext = "zero" if (self.extension == other.extension == "zero") else "constant"
        return Field(self.grid, self.values + other.values, ext)

    def __sub__(self, other: "Field") -> "Field":
        _check_aligned(self, other)
        ext = "zero" if (self.extension == other.extension == "zero") else "constant"
        return Field(self.grid, self.values - other.values, ext)

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.values, self.extension)

    def __mul__(self, other) -> "Field":
        if isinstance(other, Field):
            _check_aligned(self, other)
            # node axis last, so scalars broadcast over vector components
            out = (self.values.T * other.values.T).T
            ext = "zero" if "zero" in (self.extension, other.extension) else "constant"
            return Field(self.grid, out, ext)
        return Field(self.grid, self.values * float(other), self.extension)

    __rmul__ = __mul__


def _check_aligned(a: Field, b: Field) -> None:
    if a.grid != b.grid:
        raise AlignmentError("fields live on different grids")


def cross(a: Field, b: Field) -> Field:
    """Pointwise vector product of two 3-vector fields."""
    _check_aligned(a, b)
    ext = "zero" if "zero" in (a.extension, b.extension) else "constant"
    return Field(a.grid, cross3(a.values.T, b.values.T).T, ext)


def dot(a: Field, b: Field) -> Field:
    """Pointwise scalar product; returns a scalar field."""
    _check_aligned(a, b)
    if a.is_vector and b.is_vector:
        out = np.einsum("ij,ij->i", a.values, b.values)
    else:
        out = a.values * b.values
    ext = "zero" if "zero" in (a.extension, b.extension) else "constant"
    return Field(a.grid, out, ext)


def magnitudes(v: Field) -> np.ndarray:
    """Euclidean magnitude per node (abs for scalar fields)."""
    if v.is_vector:
        return np.sqrt(np.einsum("ij,ij->i", v.values, v.values))
    return np.abs(v.values)


def unit_field(grid: Grid, values, tol: float = 1e-12) -> Field:
    """Build a 3-vector field after checking every entry is a unit vector."""
    f = Field(grid, values)
    drift = unit_drift(f)
    if drift > tol:
        raise ValueError(f"entries deviate from unit length by {drift:.3e} > {tol:.1e}")
    return f


def unit_drift(v: Field) -> float:
    """max_i | |v_i| - 1 |."""
    return float(np.max(np.abs(magnitudes(v) - 1.0)))


def normalized(v: Field) -> Field:
    """Rescale every node vector to unit length."""
    mags = magnitudes(v)
    if np.any(mags == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return Field(v.grid, v.values / mags[:, None], v.extension)


# --------------------------------------------------------------------------
# shift and difference operators; the private ones act along the last (node)
# axis, so (n,) scalars and (3, n) vectors share one path
# --------------------------------------------------------------------------

def _shifted(vals: np.ndarray, side: int, periodic: bool, extension: str) -> np.ndarray:
    """Node i picks up the value at node i + side (side = +1 or -1); node axis last.

    The one value read past an end comes from the periodic wrap or, on a
    window, from the extension tag: the edge value or zero.
    """
    out = np.empty_like(vals)
    constant = extension == "constant"
    if side > 0:
        out[..., :-1] = vals[..., 1:]
        out[..., -1] = vals[..., 0] if periodic else vals[..., -1] if constant else 0.0
    else:
        out[..., 1:] = vals[..., :-1]
        out[..., 0] = vals[..., -1] if periodic else vals[..., 0] if constant else 0.0
    return out


def _dplus(vals: np.ndarray, h: float, periodic: bool, extension: str) -> np.ndarray:
    """(v_{i+1} - v_i)/h along the last (node) axis."""
    out = _shifted(vals, +1, periodic, extension)
    out -= vals
    out /= h
    return out


def _dminus(vals: np.ndarray, h: float, periodic: bool, extension: str) -> np.ndarray:
    """(v_i - v_{i-1})/h along the last (node) axis."""
    out = _shifted(vals, -1, periodic, extension)
    np.subtract(vals, out, out=out)
    out /= h
    return out


def shift_plus(v: Field) -> Field:
    """tau+ v: node i picks up the value at node i+1."""
    return Field(v.grid, _shifted(v.values.T, +1, v.grid.periodic, v.extension).T, v.extension)


def shift_minus(v: Field) -> Field:
    """tau- v: node i picks up the value at node i-1."""
    return Field(v.grid, _shifted(v.values.T, -1, v.grid.periodic, v.extension).T, v.extension)


def dplus(v: Field) -> Field:
    """Right difference (v_{i+1} - v_i)/h."""
    return Field(v.grid, _dplus(v.values.T, v.grid.h, v.grid.periodic, v.extension).T, "zero")


def dminus(v: Field) -> Field:
    """Left difference (v_i - v_{i-1})/h."""
    return Field(v.grid, _dminus(v.values.T, v.grid.h, v.grid.periodic, v.extension).T, "zero")


def d2(v: Field) -> Field:
    """Second difference D+ D-."""
    return dplus(dminus(v))


# --------------------------------------------------------------------------
# inner products and norms
# --------------------------------------------------------------------------

def inner_h(u: Field, v: Field) -> float:
    """(u, v)_h = h * sum_i u_i . v_i over the stored nodes."""
    _check_aligned(u, v)
    return u.grid.h * float(np.sum(u.values * v.values))


def norm_h(v: Field) -> float:
    """Lattice L2 norm |v|_h."""
    return math.sqrt(max(inner_h(v, v), 0.0))


def norm_h1(v: Field) -> float:
    """Lattice H1 norm: |v|_h^2 + |D+ v|_h^2 under the root."""
    return math.sqrt(max(inner_h(v, v), 0.0) + max(inner_h(dplus(v), dplus(v)), 0.0))


def norm_linf(v: Field) -> float:
    """sup_i |v_i| with the Euclidean magnitude per node."""
    return float(np.max(magnitudes(v)))


# --------------------------------------------------------------------------
# conservative variable-coefficient second difference
# --------------------------------------------------------------------------

def delta_g(g: Field, v: Field) -> Field:
    """Conservative second difference D+(g D-v) with coefficient samples g.

    g_i weights D-v_i, the difference across the cell [x_{i-1}, x_i], so
    midpoint samples sit at x_i - h/2. The operator equals D-(tau+ g D+v).
    """
    _check_aligned(g, v)
    if g.is_vector:
        raise ValueError("coefficient field must be scalar")
    grid = v.grid
    return Field(grid, _delta_g(_positive(g.values), v.values.T, grid.h, grid.periodic,
                                v.extension).T, "zero")


def _positive(g: np.ndarray) -> np.ndarray:
    """The coefficient samples g, after checking that every one is positive."""
    if np.any(g <= 0.0):
        i = int(np.argmin(g))
        raise CoefficientBoundError(
            f"non-positive coefficient sample {g[i]:.6g} at node {i}")
    return g


def _delta_g(g: np.ndarray, vals: np.ndarray, h: float, periodic: bool,
             extension: str) -> np.ndarray:
    """delta_g on raw node values, node axis last; the inner difference reads
    ghosts by ``extension``, the outer one differences a zero-extended
    product."""
    return _dplus(g * _dminus(vals, h, periodic, extension), h, periodic, "zero")


# --------------------------------------------------------------------------
# dual (H^-1) norm via the Riesz representative
# --------------------------------------------------------------------------

_RIESZ_RESIDUAL_TOL = 1e-10


def _riesz_matrix_solve(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - D+D-) w = rhs columnwise; rhs has shape (n, k)."""
    # imported here: dual norms are scipy's only use, and runs that never
    # take one skip the import's cost
    from scipy.linalg import solve_banded, solveh_banded

    n = grid.n_nodes
    inv_h2 = 1.0 / grid.h ** 2
    if not grid.periodic:
        # window: I - D+D- with constant-extension ghosts is I plus the
        # Neumann second-difference matrix; symmetric positive definite.
        ab = np.zeros((2, n))
        ab[0, 1:] = -inv_h2                     # superdiagonal
        ab[1, :] = 1.0 + 2.0 * inv_h2
        ab[1, 0] = ab[1, -1] = 1.0 + inv_h2
        return solveh_banded(ab, rhs)
    # periodic: cyclic tridiagonal via the rank-one corner correction
    # (two banded solves, Sherman-Morrison).
    diag = np.full(n, 1.0 + 2.0 * inv_h2)
    off = -inv_h2
    gamma = -diag[0]
    dmod = diag.copy()
    dmod[0] -= gamma
    dmod[-1] -= off * off / gamma
    ab = np.zeros((3, n))
    ab[0, 1:] = off
    ab[1, :] = dmod
    ab[2, :-1] = off
    u = np.zeros((n, 1))
    u[0, 0] = gamma
    u[-1, 0] = off
    stacked = np.hstack([rhs, u])
    sol = solve_banded((1, 1), ab, stacked)
    y, z = sol[:, :-1], sol[:, -1]
    vy = y[0, :] + (off / gamma) * y[-1, :]
    vz = z[0] + (off / gamma) * z[-1]
    return y - np.outer(z, vy / (1.0 + vz))


def norm_h1_dual(v: Field) -> float:
    """Dual norm of the lattice H1 norm (the discrete H^-1 norm).

    Computed exactly on the finite grid as sqrt((v, w)_h) with w the Riesz
    representative, (I - D+D-) w = v. The representative lives in the test
    space, whose H1 norm reads window ghosts by constant extension, so w
    carries that policy regardless of how v extends; only v's window values
    enter. On windows this is the windowed value, no claim is made about the
    infinite-lattice norm.
    """
    rhs = v.values.reshape(v.grid.n_nodes, -1)
    w = Field(v.grid, _riesz_matrix_solve(v.grid, rhs).reshape(v.values.shape), "constant")
    worst = float(np.max(np.abs(w.values - d2(w).values - v.values)))
    if worst > _RIESZ_RESIDUAL_TOL * max(1.0, norm_linf(v)):
        raise RieszSolveError(f"residual {worst:.3e} exceeds tolerance")
    return math.sqrt(max(inner_h(v, w), 0.0))
