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

    Periodic grids store the period ``length`` and derive h = length/N;
    one whose h is not length/N raises ValueError. Window grids store M+1
    node coordinates x0 + i*h, i = 0..M.
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
            if self.h != self.length / self.n_nodes:
                raise ValueError(f"periodic spacing {self.h} is not length/nodes = "
                                 f"{self.length}/{self.n_nodes}")
        else:
            if self.n_nodes < 5:
                raise ValueError("window grid needs at least 5 nodes (M >= 4 intervals)")

    @staticmethod
    def make_periodic(length: float, n_nodes: int) -> "Grid":
        if n_nodes < 3:
            raise ValueError("periodic grid needs N >= 3")
        return Grid(h=length / n_nodes, x0=0.0, n_nodes=n_nodes,
                    periodic=True, length=length)

    @staticmethod
    def make_window(x0: float, intervals: int, h: float) -> "Grid":
        return Grid(h=h, x0=x0, n_nodes=intervals + 1, periodic=False)

    @property
    def cells(self) -> int:
        """Cells between nodes: N on a periodic grid, M = N - 1 on a window,
        whose last chord reads a ghost node and is not a cell."""
        return self.n_nodes if self.periodic else self.n_nodes - 1

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


# a ^ b = (a_y, a_z, a_x)(b_z, b_x, b_y) - (a_z, a_x, a_y)(b_y, b_z, b_x): one
# take gathers both turns of an operand's rows as a (2, 3, ...) stack
_TURNS = np.array([[1, 2, 0], [2, 0, 1]])
_TURNS_BACK = np.array([[2, 0, 1], [1, 2, 0]])


# Operators that form intermediates take ``out`` as a stack of arrays shaped
# like their result: the result is written to out[0], the intermediates to
# the rest, and nothing else is allocated. Without ``out`` every slot is None,
# so each numpy call allocates its own result, as the steppers' small rows
# want; both ways run the same float operations in one order.

def cross3(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Vector product of (3, ...) arrays, node axis last (faster than np.cross).

    ``out``: optional stack of four; out[2:] takes a's turned rows, out[:2]
    b's and then the two products.
    """
    products, turned = (None, None) if out is None else (out[:2], out[2:])
    return _cross_turned(a.take(_TURNS, axis=0, out=turned, mode="wrap"), b, products)


def _cross_turned(turned: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a ^ b from a's turned rows a.take(_TURNS, axis=0), a (2, 3, ...) stack.

    ``out``: optional (2, 3, ...) stack for b's turned rows, which the
    products then overwrite; the result is out[0]. Without it the result is
    the first half of a new stack.
    """
    # take's default mode copies through a buffer of its own when given out
    products = b.take(_TURNS_BACK, axis=0, out=out, mode="wrap")
    np.multiply(turned, products, out=products)
    return np.subtract(products[0], products[1], out=products[0])


def _norm2(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|v|^2 over the component axis 0 of a (3, ...) array, summed as
    (x^2 + z^2) + y^2: the order of magnitudes()' einsum on (n, 3) rows.

    ``out``: optional stack of three, an array shaped like v; it takes the
    squares.
    """
    sq = np.multiply(v, v, out=out)
    total = sq[0]
    total += sq[2]
    total += sq[1]
    return total


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

    def with_values(self, values) -> "Field":
        return Field(self.grid, values, self.extension)

    # -- arithmetic (extension tags combine as documented in the module doc)

    def __add__(self, other: "Field") -> "Field":
        _check_aligned(self, other)
        ext = "zero" if (self.extension == other.extension == "zero") else "constant"
        return Field(self.grid, self.values + other.values, ext)

    def __sub__(self, other: "Field") -> "Field":
        _check_aligned(self, other)
        ext = "zero" if (self.extension == other.extension == "zero") else "constant"
        return Field(self.grid, self.values - other.values, ext)

    def __mul__(self, other: "Field") -> "Field":
        _check_aligned(self, other)
        # node axis last, so scalars broadcast over vector components
        out = (self.values.T * other.values.T).T
        ext = "zero" if "zero" in (self.extension, other.extension) else "constant"
        return Field(self.grid, out, ext)


def _check_aligned(a: Field, b: Field) -> None:
    if a.grid != b.grid:
        raise AlignmentError("fields live on different grids")


def cross(a: Field, b: Field) -> Field:
    """Pointwise vector product of two 3-vector fields."""
    _check_aligned(a, b)
    ext = "zero" if "zero" in (a.extension, b.extension) else "constant"
    return Field(a.grid, cross3(a.values.T, b.values.T).T, ext)


def dot(a: Field, b: Field) -> Field:
    """Pointwise scalar product of two 3-vector fields; returns a scalar field."""
    _check_aligned(a, b)
    ext = "zero" if "zero" in (a.extension, b.extension) else "constant"
    return Field(a.grid, np.einsum("ij,ij->i", a.values, b.values), ext)


def magnitudes(v: Field) -> np.ndarray:
    """Euclidean magnitude per node (abs for scalar fields)."""
    if v.is_vector:
        return np.sqrt(np.einsum("ij,ij->i", v.values, v.values))
    return np.abs(v.values)


def unit_field(grid: Grid, values) -> Field:
    """Build a 3-vector field after checking every entry is a unit vector to 1e-12."""
    f = Field(grid, values)
    drift = unit_drift(f)
    if drift > 1e-12:
        raise ValueError(f"entries deviate from unit length by {drift:.3e} > 1.0e-12")
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

def _shifted(vals: np.ndarray, side: int, periodic: bool, extension: str,
             out: np.ndarray | None = None) -> np.ndarray:
    """Node i picks up the value at node i + side (side = +1 or -1); node axis last.

    The one value read past an end comes from the periodic wrap or, on a
    window, from the extension tag: the edge value or zero. ``out``, here and
    in the difference operators below, is an optional array for the result;
    it must not overlap ``vals``.
    """
    if out is None:
        out = np.empty_like(vals)
    constant = extension == "constant"
    if side > 0:
        out[..., :-1] = vals[..., 1:]
        out[..., -1] = vals[..., 0] if periodic else vals[..., -1] if constant else 0.0
    else:
        out[..., 1:] = vals[..., :-1]
        out[..., 0] = vals[..., -1] if periodic else vals[..., 0] if constant else 0.0
    return out


def _dplus(vals: np.ndarray, h: float, periodic: bool, extension: str,
           out: np.ndarray | None = None) -> np.ndarray:
    """(v_{i+1} - v_i)/h along the last (node) axis."""
    out = _shifted(vals, +1, periodic, extension, out)
    out -= vals
    out /= h
    return out


def _dminus(vals: np.ndarray, h: float, periodic: bool, extension: str,
            out: np.ndarray | None = None) -> np.ndarray:
    """(v_i - v_{i-1})/h along the last (node) axis."""
    out = _shifted(vals, -1, periodic, extension, out)
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
    dv = dplus(v)
    return math.sqrt(max(inner_h(v, v), 0.0) + max(inner_h(dv, dv), 0.0))


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
             extension: str, out: np.ndarray | None = None) -> np.ndarray:
    """delta_g on raw node values, node axis last; the inner difference reads
    ghosts by ``extension``, the outer one differences a zero-extended
    product. ``out``: optional stack of two; out[1] takes the product g D-v."""
    result, flux = (None, None) if out is None else out
    flux = np.multiply(g, _dminus(vals, h, periodic, extension, flux), out=flux)
    return _dplus(flux, h, periodic, "zero", result)


# --------------------------------------------------------------------------
# dual (H^-1) norm via the Riesz representative
# --------------------------------------------------------------------------

_RIESZ_RESIDUAL_TOL = 1e-10

# applying I - D+D- to w in floating point leaves about eps (1 + 4/h^2) max|v|
# even for the exact w (measured 0.01-1.13 times that, h = 0.1 to 0.0005)
_RIESZ_ROUNDING = 4.0 * np.finfo(float).eps


def _riesz_residual_bound(h: float, scale):
    """Largest residual a correct Riesz solve leaves for a right-hand side
    whose largest node magnitude is ``scale``: 1e-10 max(1, scale), or the
    operator's rounding floor 4 eps (1 + 4/h^2) max(1, scale) where that is
    larger (below h = 0.006)."""
    floor = _RIESZ_ROUNDING * (1.0 + 4.0 / h ** 2)
    return max(_RIESZ_RESIDUAL_TOL, floor) * np.maximum(1.0, scale)


# the window sweeps restart their scale once the weights grow by this factor,
# so that weights times data stay finite
_SEGMENT_GROWTH = 2.0 ** 64


def _riesz_matrix_solve(grid: Grid, rhs: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Solve (I - D+D-) w = rhs along the last (node) axis.

    ``out``: optional array for w on a window. A periodic w is always a new
    array, since numpy's rfft and irfft take no ``out`` before numpy 2.0.
    """
    n, h = grid.n_nodes, grid.h
    if grid.periodic:
        # circulant, so the Fourier modes diagonalize it
        k = np.arange(n // 2 + 1)
        eig = 1.0 + (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)) / h ** 2
        spectrum = np.fft.rfft(rhs)
        spectrum /= eig
        return np.fft.irfft(spectrum, n)
    return _neumann_solve(h, rhs, out)


def _neumann_solve(h: float, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Thomas elimination for the window's I - D+D-, in closed form.

    With constant-extension ghosts the matrix is I plus the Neumann second
    difference: 1 + 2s on the diagonal, 1 + s in the two corners, -s off it,
    s = 1/h^2. With rho + 1/rho = 2 + h^2 and 0 < rho < 1 the pivots are
    s q_{i+1}/q_i for the weights q_i = rho^-i (1 + rho^(2i+1)) / (1 + rho),
    the last one s (q_n - q_{n-1})/q_{n-1} from the corner row. Both sweeps
    are then cumulative sums scaled by q, taken in segments over which q
    grows by at most _SEGMENT_GROWTH; each segment carries its neighbor's
    end value in. ``out``: optional array for w; it must not overlap rhs.
    """
    n = rhs.shape[-1]
    rho = 1.0 / (1.0 + 0.5 * h * h + h * math.sqrt(1.0 + 0.25 * h * h))
    step = max(1, int(math.log(_SEGMENT_GROWTH) / -math.log(rho)))
    grow = rho ** -np.arange(min(step, n) + 1.0)          # rho^-k
    tail = 1.0 + rho ** np.arange(1.0, 2.0 * n + 2.0, 2.0)  # q_i (1 + rho) rho^i
    bounds = list(range(0, n, step)) + [n]
    segments = list(zip(bounds[:-1], bounds[1:]))
    ups = [grow[:e - b] * (tail[b:e] / tail[b]) for b, e in segments]   # q_i / q_b
    w = np.empty(rhs.shape) if out is None else out

    # forward: T_i = q_i y_i / q_b = T_{i-1} + (q_i / q_b) r_i on [b, e)
    for (b, e), up in zip(segments, ups):
        np.multiply(rhs[..., b:e], up, out=w[..., b:e])
        if b:
            w[..., b] += w[..., b - 1] * (tail[b - step] / (grow[step] * tail[b]))
        np.cumsum(w[..., b:e], axis=-1, out=w[..., b:e])

    # backward: V_i = q_e w_i / q_i = V_{i+1} + q_e y_i / (s q_{i+1}) on [b, e),
    # the sum running from e - 1 down to b
    for (b, e), up in zip(reversed(segments), reversed(ups)):
        down = grow[e - b - 1::-1] * (h * h * tail[e] / tail[b + 1:e + 1])
        if e == n:
            down[-1] = h * h / (1.0 - rho * tail[n - 1] / tail[n])
        seg = w[..., b:e]
        seg *= down / up
        if e < n:
            seg[..., -1] += w[..., e]
        np.cumsum(seg[..., ::-1], axis=-1, out=seg[..., ::-1])
        seg *= tail[b:e] / (grow[e - b:0:-1] * tail[e])
    return w


def norm_h1_dual(v: Field) -> float:
    """Dual norm of the lattice H1 norm (the discrete H^-1 norm).

    Computed exactly on the finite grid as sqrt((v, w)_h) with w the Riesz
    representative, (I - D+D-) w = v. The representative lives in the test
    space, whose H1 norm reads window ghosts by constant extension, so w
    carries that policy regardless of how v extends; only v's window values
    enter. On windows this is the windowed value, no claim is made about the
    infinite-lattice norm.
    """
    w = Field(v.grid, _riesz_matrix_solve(v.grid, v.values.T).T, "constant")
    worst = float(np.max(np.abs(w.values - d2(w).values - v.values)))
    if worst > _riesz_residual_bound(v.grid.h, norm_linf(v)):
        raise RieszSolveError(f"residual {worst:.3e} exceeds tolerance")
    return math.sqrt(max(inner_h(v, w), 0.0))
