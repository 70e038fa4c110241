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
since the right-hand side has spectral radius of order beta/h^2.
Explicit RK is only conditionally stable here. The rotation update keeps
|u_i| = 1 for any dt, but that is all it guarantees: past the stability
limit its energy and its error grow without bound while the tangents stay
on the sphere (at cfl = 1 the energy of a variable-g helix blows up).

evolve() marches with a fixed step, shortens the last step to land exactly
on the horizon, and stores a snapshot (state plus the g samples the kernel
steps with) every ``snapshot_stride`` steps. Between snapshots it steps raw
arrays, tangents and curves alike as C-ordered (3, n) rows (node axis
last), transposed once on entry and once per stored snapshot. Every
in-kernel |w|^2 is summed as (x^2 + z^2) + y^2, the order of numpy's einsum
on (n, 3) rows, so no byte depends on the layout. Fields are built only for
stored snapshots. A NaN or Inf aborts with the step index; the partial
trajectory is kept and flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .dynamics import TANGENT, FlowState, chord_lengths
from .lattice import _NEXT, _PREV, Field, _cross_turned, _delta_g, _dminus, _dplus, _norm2, cross3
from .speed import COUPLED, _sample_at


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
    large = theta >= 1e-4
    a = 1.0 - theta2 / 6.0
    np.divide(np.sin(theta), theta, out=a, where=large)
    b = 0.5 - theta2 / 24.0
    np.divide(1.0 - np.cos(theta), theta2, out=b, where=large)
    w_next, w_prev = w.take(_NEXT, axis=0), w.take(_PREV, axis=0)
    first = _cross_turned(w_next, w_prev, v)
    second = _cross_turned(w_next, w_prev, first)
    out = first * a
    out += v
    second *= b
    out += second
    return out


def _rotation_rows(omega, t: float, u: np.ndarray, dt: float) -> np.ndarray:
    # commutator-free fourth-order composition of exact per-node rotations:
    # four rate evaluations, five rotations, |u_i| kept to rounding at any dt
    w1 = omega(t, u)
    stage2 = _rotate_rows(u, 0.5 * dt * w1)
    w2 = omega(t + 0.5 * dt, stage2)
    w3 = omega(t + 0.5 * dt, _rotate_rows(u, 0.5 * dt * w2))
    stage4 = _rotate_rows(stage2, dt * w3 - 0.5 * dt * w1)
    w4 = omega(t + dt, stage4)
    half_a = (dt / 12.0) * (3.0 * w1 + 2.0 * w2 + 2.0 * w3 - w4)
    half_b = (dt / 12.0) * (-w1 + 2.0 * w2 + 2.0 * w3 + 3.0 * w4)
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
    midpoint offset samples at x_i - h/2. A time-independent g is sampled
    once; _sample_at checks every sample when it is taken. Only a coupled g
    reads y, as a C-ordered (n, 3) copy. ValueError for rotation on a curve.
    """
    grid, speed = state.grid, state.speed
    h, periodic, ext = grid.h, grid.periodic, state.field.extension
    x = grid.nodes()
    if speed.flavor == COUPLED:
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
            return partial(_rotation_rows, lambda t, u: -delta(t, u)), coefficient
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

    A non-finite stage flows into the step result, so one check covers it.
    """
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            y_new = advance(t, y, dt)
    except (ValueError, FloatingPointError) as exc:
        raise DivergenceError(t) from exc
    if not np.all(np.isfinite(y_new)):
        raise DivergenceError(t)
    return y_new


def step(state: FlowState, spec: IntegratorSpec, dt: float) -> FlowState:
    """Advance one step of length dt (dt may be negative: reversed flow).

    Raises DivergenceError if the update produces NaN or Inf.
    """
    y = np.ascontiguousarray(state.field.values.T)
    y = _checked_step(_kernel(state, spec)[0], state.t, y, dt)
    return state.advanced(state.t + dt, state.field.with_values(y.T))


@dataclass
class EvolveResult:
    """Stored trajectory: times, fields and the coefficient samples used.
    A diverged run's ``steps_taken`` counts the step that failed."""

    mode: str
    times: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    g_samples: list = field(default_factory=list)
    status: str = "ok"
    steps_taken: int = 0

    @property
    def grid(self):
        return self.fields[0].grid

    def final(self) -> Field:
        return self.fields[-1]


def evolve(state: FlowState, horizon: float, spec: IntegratorSpec) -> EvolveResult:
    """Fixed-step march from state.t to the horizon, snapshots on the way.

    A snapshot's g samples are the kernel's, taken at its time and state.
    The last step is shortened to land exactly on the horizon. Marching
    backwards (horizon < t) flips the sign of the step. Divergence aborts
    with a partial trajectory flagged "diverged". ValueError for a
    non-finite horizon or one equal to state.t.
    """
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    if horizon == state.t:
        raise ValueError("horizon coincides with the initial time")
    direction = 1.0 if horizon > state.t else -1.0
    dt = direction * abs(spec.resolve_dt(state))
    result = EvolveResult(mode=state.mode)
    advance, g = _kernel(state, spec)
    # a g that reads neither t nor the curve is one Field for every snapshot
    fixed_g = None if state.speed.time_dependent else Field(state.grid, g(state.t, None))

    def record(t: float, f: Field):
        result.times.append(t)
        result.fields.append(f)
        result.g_samples.append(Field(f.grid, g(t, f.values.T)) if fixed_g is None else fixed_g)

    record(state.t, state.field)
    k, t, y = 0, state.t, np.ascontiguousarray(state.field.values.T)
    tol = 1e-14 * max(1.0, abs(horizon))
    landing = 1e-13 * max(1.0, abs(horizon))
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
            record(t, state.field.with_values(y.T))
    result.steps_taken = k
    return result
