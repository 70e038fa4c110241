"""Time integration of the semi-discrete flows.

Methods:

* ``rotation`` - per-node exact rotations about w_i = -Delta_g u_i,
  composed commutator-free to fourth order (four rotation-rate evaluations
  and five rotations per step: three build the stages, two the update).
  Rotations are isometries, so |u_i| = 1 holds to rounding regardless of
  dt. Tangent data only: a curve is stepped with rk4 or projected_rk4.
* ``rk4`` - classical Runge-Kutta; fourth order, O(dt^5) local norm drift.
* ``projected_rk4`` (default) - rk4 followed by a projection: each u_i
  renormalized, or each chord D+gamma rescaled to its length in the state
  the run started from (the flow keeps every chord length, not necessarily
  1), with the curve rebuilt from its base node. It steps both forms.

Step size comes either fixed or from the stiffness rule dt = c h^2 / beta,
since the right-hand side has spectral radius of order beta/h^2 (4 beta/h^2
at most). Explicit RK is only conditionally stable here: classical rk4's
stability polynomial reaches the imaginary axis out to 2 sqrt(2), so
evolve() warns (RuntimeWarning) when an rk4 or projected_rk4 step has
|dt| 4 beta / h^2 above that bound (cfl > 0.7071). The rotation update keeps
|u_i| = 1 for any dt, but that is all it guarantees: past the stability
limit its energy and its error grow without bound while the tangents stay
on the sphere (at cfl = 1 the energy of a variable-g helix blows up). Its
limit is not measured yet, so it gets no warning.

evolve() marches with a fixed step, shortens the last step to land exactly
on the horizon, and stores a snapshot (state plus the g samples the kernel
steps with) every ``snapshot_stride`` steps. Between snapshots it steps raw
arrays, tangents and curves alike as C-ordered (3, n) rows (node axis
last), transposed once on entry and once per stored snapshot. A batched
state (FlowState.batch: more tangent fields on the state's grid) marches
all its members as one C-ordered (3, B, n) stack, the layout of diagnose's
blocks, so every row operator runs on it unchanged and each member's bytes
equal those of its own march. Every in-kernel |w|^2 is summed as
(x^2 + z^2) + y^2, the order of numpy's einsum on (n, 3) rows, so no byte
depends on the layout. Fields are built only for stored snapshots.
np.errstate is entered once per march, not once per step, and each step's
finiteness test is one sum. A NaN or Inf in any member aborts with the step
index; the partial trajectory is kept and flagged.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .dynamics import TANGENT, FlowState, chord_lengths
from .lattice import _TURNS, Field, _cross_turned, _delta_g, _dminus, _dplus, _norm2, cross3
from .speed import _sample_at


# classical rk4's stability polynomial meets the imaginary axis at +-2 sqrt(2)
_RK4_IMAGINARY_BOUND = 2.0 * math.sqrt(2.0)


class DivergenceError(RuntimeError):
    """The state picked up a non-finite value."""

    def __init__(self, t: float):
        super().__init__(f"non-finite state at t = {t:.6g}")
        self.t = t


@dataclass(frozen=True)
class IntegratorSpec:
    """Method plus step-size policy plus snapshot cadence."""

    method: str = "projected_rk4"
    dt: float | None = None       # fixed step, exclusive with cfl
    cfl: float | None = None      # dt = cfl * h^2 / beta
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.method not in ("rotation", "rk4", "projected_rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if (self.dt is None) == (self.cfl is None):
            raise ValueError("give exactly one of dt or cfl")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.cfl is not None and not 0 < self.cfl <= 4:
            raise ValueError("cfl safety factor out of range")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")

    def resolve_dt(self, state: FlowState) -> float:
        if self.dt is not None:
            return self.dt
        return self.cfl * state.grid.h ** 2 / state.speed.beta


# --------------------------------------------------------------------------
# rotation kernels
# --------------------------------------------------------------------------

def rotate(vectors: np.ndarray, rotvecs: np.ndarray) -> np.ndarray:
    """Rotate each (n, 3) row by the rotation vector in the same row."""
    return np.ascontiguousarray(_rotate_rows(vectors.T, rotvecs.T).T)


def _rotate_rows(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rotate each column of v by the same column of w; (3, n) arrays.

    Rodrigues formula written with the sinc-style factors so the small-angle
    limit is exact; negative rotation vectors reverse the rotation, which is
    what makes backward steps work.
    """
    theta2 = _norm2(w)
    theta = np.sqrt(theta2)
    if theta.min() >= 1e-4:
        # no angle needs the series, so the factors need no mask
        a = np.sin(theta)
        a /= theta
        b = 1.0 - np.cos(theta)
        b /= theta2
    else:
        large = theta >= 1e-4
        a = 1.0 - theta2 / 6.0
        np.divide(np.sin(theta), theta, out=a, where=large)
        b = 0.5 - theta2 / 24.0
        np.divide(1.0 - np.cos(theta), theta2, out=b, where=large)
    turned = w.take(_TURNS, axis=0)
    first = _cross_turned(turned, v)
    second = _cross_turned(turned, first)
    out = first * a
    out += v
    second *= b
    out += second
    return out


def _rotation_rows(delta, t: float, u: np.ndarray, dt: float) -> np.ndarray:
    # commutator-free fourth-order composition of exact per-node rotations
    # about w = -Delta_g u: four rate evaluations, five rotations, |u_i| kept
    # to rounding at any dt. The rates stay d = Delta_g u; w's sign folds into
    # the scalar factors, which rounds to the same bytes since negation is exact
    d1 = delta(t, u)
    stage2 = _rotate_rows(u, (-0.5 * dt) * d1)
    d2 = delta(t + 0.5 * dt, stage2)
    d3 = delta(t + 0.5 * dt, _rotate_rows(u, (-0.5 * dt) * d2))
    stage4 = _rotate_rows(stage2, (0.5 * dt) * d1 - dt * d3)
    d4 = delta(t + dt, stage4)
    two2, two3 = 2.0 * d2, 2.0 * d3
    half_a = (-dt / 12.0) * (3.0 * d1 + two2 + two3 - d4)
    half_b = (dt / 12.0) * (d1 - two2 - two3 - 3.0 * d4)
    return _rotate_rows(_rotate_rows(u, half_a), half_b)


# --------------------------------------------------------------------------
# Runge-Kutta kernels
# --------------------------------------------------------------------------

def _rk4(deriv, project, t: float, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = deriv(t, y)
    k2 = deriv(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = deriv(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = deriv(t + dt, y + dt * k3)
    y_new = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y_new if project is None else project(y_new)


def _restore_chords(h: float, periodic: bool, ext: str, lengths: np.ndarray,
                    gamma: np.ndarray) -> np.ndarray:
    # rescale each chord to its starting length (a chord that starts at length 0
    # stays 0) and rebuild from the base node; a window's last chord reads the
    # ghost node and builds nothing
    u = _dplus(gamma, h, periodic, ext)[:, :len(lengths)]
    u *= np.divide(lengths, np.sqrt(_norm2(u)), out=np.zeros_like(lengths), where=lengths > 0)
    if periodic:
        # the exact flow conserves the mean tangent (cyclic telescoping);
        # share the rounding-level closure defect over all chords instead of
        # dumping it into the wrap chord, where it seeds a seam instability
        u = (u - u.mean(axis=1, keepdims=True))[:, :-1]
    return np.concatenate([gamma[:, :1], gamma[:, :1] + np.cumsum(h * u, axis=1)], axis=1)


# --------------------------------------------------------------------------
# stepping and evolution
# --------------------------------------------------------------------------

def _kernel(state: FlowState, spec: IntegratorSpec) -> tuple[Callable, Callable]:
    """(advance, coefficient): advance(t, y, dt) is one step of the state's
    flow on (3, n) rows y, and coefficient(t, y) the g samples it steps with.

    Resolves once what every step reuses: the ghost policy, the coefficient
    sampler and, for a curve, the state's chord_lengths (the lengths diagnose
    measures drift against), which projected_rk4 restores after every step.
    Both forms apply D+(g D-.), so g_i weights the cell left of node i; a
    midpoint offset samples at x_i - h/2. A g that is neither coupled nor
    declares beta1 > 0 is sampled once; _sample_at checks every sample when
    it is taken. Only a coupled g reads y, as a C-ordered (n, 3) copy.
    ValueError for rotation on a curve.
    """
    grid, speed = state.grid, state.speed
    h, periodic, ext = grid.h, grid.periodic, state.field.extension
    x = grid.nodes()
    if speed.coupled:
        coefficient = lambda t, y: _sample_at(speed, t, x, np.ascontiguousarray(y.T))
    elif speed.time_dependent:
        coefficient = lambda t, y: _sample_at(speed, t, x)
    else:
        g_fixed = _sample_at(speed, state.t, x)
        coefficient = lambda t, y: g_fixed

    if state.mode == TANGENT:
        def delta(t, u):
            return _delta_g(coefficient(t, u), u, h, periodic, ext)

        if spec.method == "rotation":
            return partial(_rotation_rows, delta), coefficient
        deriv = lambda t, u: cross3(u, delta(t, u))
        project = lambda u: u / np.sqrt(_norm2(u))
    else:
        if spec.method == "rotation":
            raise ValueError("rotation steps tangent data only; "
                             "step a curve with rk4 or projected_rk4")

        def deriv(t, gamma):
            # g (u ^ D-u) with u = D+gamma; the chords extend by zero
            u = _dplus(gamma, h, periodic, ext)
            return coefficient(t, gamma) * cross3(u, _dminus(u, h, periodic, "zero"))

        project = partial(_restore_chords, h, periodic, ext, chord_lengths(state.field))
    return partial(_rk4, deriv, None if spec.method == "rk4" else project), coefficient


def _checked_step(advance: Callable, t: float, y: np.ndarray, dt: float) -> np.ndarray:
    """advance(t, y, dt), or DivergenceError(t) when any value is non-finite.

    A non-finite stage flows into the step result, so one check covers it:
    NaN and Inf carry through the sum, and a sum that overflows on finite
    values is confirmed entry by entry, as Field does. The caller holds
    np.errstate with overflow and invalid ignored.
    """
    try:
        y_new = advance(t, y, dt)
    except (ValueError, FloatingPointError) as exc:
        raise DivergenceError(t) from exc
    if not math.isfinite(y_new.sum()) and not np.isfinite(y_new).all():
        raise DivergenceError(t)
    return y_new


def _march_rows(state: FlowState) -> np.ndarray:
    """The state's values as C-ordered rows: (3, n), or (3, B, n) for a batch."""
    if not state.batch:
        return np.ascontiguousarray(state.field.values.T)
    members = [f.values for f in (state.field, *state.batch)]
    return np.ascontiguousarray(np.stack(members, axis=1).T)


def _member_fields(state: FlowState, y: np.ndarray) -> tuple[Field, tuple[Field, ...]]:
    """The first member's field and the others', with values from march rows y."""
    if y.ndim == 2:
        return state.field.with_values(y.T), ()
    first, *rest = (state.field.with_values(y[:, b].T) for b in range(y.shape[1]))
    return first, tuple(rest)


def step(state: FlowState, spec: IntegratorSpec, dt: float) -> FlowState:
    """Advance one step of length dt (dt may be negative: reversed flow); a
    batched state advances every member.

    Raises DivergenceError if the update produces NaN or Inf.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        y = _checked_step(_kernel(state, spec)[0], state.t, _march_rows(state), dt)
    return state.advanced(state.t + dt, *_member_fields(state, y))


@dataclass
class EvolveResult:
    """Stored trajectory: times, fields and the coefficient samples used.

    ``fields`` holds the first member's snapshots; for a batched state,
    ``batch[k]`` holds the other members' fields at ``times[k]`` (an empty
    tuple for a lone state). A diverged run's ``steps_taken`` counts the
    step that failed.
    """

    mode: str
    times: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    g_samples: list = field(default_factory=list)
    status: str = "ok"
    steps_taken: int = 0
    batch: list = field(default_factory=list)

    @property
    def grid(self):
        return self.fields[0].grid

    def final(self) -> Field:
        return self.fields[-1]


def evolve(state: FlowState, horizon: float, spec: IntegratorSpec) -> EvolveResult:
    """Fixed-step march from state.t to the horizon, snapshots on the way.

    A snapshot's g samples are the kernel's, taken at its time and state.
    The last step is shortened to land exactly on the horizon. Marching
    backwards (horizon < t) flips the sign of the step. A batched state
    marches all its members in one stack. Divergence of any member aborts
    with a partial trajectory flagged "diverged". ValueError for a
    non-finite horizon or one equal to state.t. RuntimeWarning when an rk4
    or projected_rk4 step has |dt| 4 beta / h^2 above 2 sqrt(2).
    """
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    if horizon == state.t:
        raise ValueError("horizon coincides with the initial time")
    direction = 1.0 if horizon > state.t else -1.0
    dt = direction * abs(spec.resolve_dt(state))
    ratio = abs(dt) * 4.0 * state.speed.beta / state.grid.h ** 2
    if spec.method != "rotation" and ratio > _RK4_IMAGINARY_BOUND:
        warnings.warn(f"dt 4 beta / h^2 = {ratio:.4g} exceeds {_RK4_IMAGINARY_BOUND:.4g} "
                      "= 2 sqrt(2), the imaginary-axis stability bound of classical rk4",
                      RuntimeWarning, stacklevel=2)
    result = EvolveResult(mode=state.mode)
    advance, g = _kernel(state, spec)
    # a g that reads neither t nor the curve is one Field for every snapshot
    fixed_g = None if state.speed.time_dependent else Field(state.grid, g(state.t, None))

    def record(t: float, f: Field, others: tuple):
        result.times.append(t)
        result.fields.append(f)
        result.batch.append(others)
        result.g_samples.append(Field(f.grid, g(t, f.values.T)) if fixed_g is None else fixed_g)

    record(state.t, state.field, state.batch)
    k, t, y = 0, state.t, _march_rows(state)
    tol = 1e-14 * max(1.0, abs(horizon))
    landing = 1e-13 * max(1.0, abs(horizon))
    with np.errstate(invalid="ignore", over="ignore"):
        while direction * (horizon - t) > tol:
            step_dt = horizon - t if direction * (horizon - t) < abs(dt) else dt
            try:
                y = _checked_step(advance, t, y, step_dt)
            except DivergenceError:
                result.status = "diverged"
                result.steps_taken = k + 1
                return result
            t = t + step_dt
            k += 1
            if k % spec.snapshot_stride == 0 or abs(t - horizon) <= landing:
                record(t, *_member_fields(state, y))
    result.steps_taken = k
    return result
