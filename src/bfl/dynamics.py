"""Right-hand sides of the semi-discrete flows and their algebraic identities.

Tangent form (line or periodic):   du/dt = u ^ D+(g D-u)
Curve form (coupled speed allowed): dgamma/dt = g (D+gamma ^ D2 gamma)

Applying D+ to the curve equation reproduces the tangent equation with the
same coefficient samples, and the two ways of writing the tangent rhs,
D+(u ^ g D-u) and u ^ D+(g D-u), agree exactly: their difference telescopes
to g_{i+1} D+u_i ^ D+u_i = 0. Both facts are exposed as testable residuals.

On windows the constant extension makes D-u vanish at the left ghost, so no
spurious torque enters at the ends; keep perturbations at least 10 h away
from the window boundary (a warning polices this, never an error).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .lattice import (
    AlignmentError,
    Field,
    Grid,
    cross,
    delta_g,
    dminus,
    dplus,
    magnitudes,
    norm_linf,
)
from .speed import SpeedField, sample

TANGENT = "tangent"
CURVE = "curve"

BOUNDARY_CLEARANCE_NODES = 10


@dataclass(frozen=True)
class FlowState:
    """Time plus the evolving field: the tangent u or the curve gamma.

    ``batch``: more initial tangent fields, each on the field's grid with its
    shape and extension, that march beside it under the same speed and step
    (AlignmentError otherwise). A curve state takes no batch: each member of
    a coupled flow would need its own coefficient samples.
    """

    t: float
    field: Field
    speed: SpeedField
    mode: str = TANGENT
    batch: tuple = ()

    def __post_init__(self):
        if self.mode not in (TANGENT, CURVE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == TANGENT and self.speed.coupled:
            raise ValueError("coupled speed requires the curve form")
        object.__setattr__(self, "batch", tuple(self.batch))
        if self.batch and self.mode == CURVE:
            raise ValueError("curve data marches one member at a time")
        f = self.field
        for member in self.batch:
            if (member.grid, member.values.shape, member.extension) != (
                    f.grid, f.values.shape, f.extension):
                raise AlignmentError("batch members must share the field's grid, "
                                     "shape and extension")

    @property
    def grid(self) -> Grid:
        return self.field.grid

    def advanced(self, t: float, field: Field, batch: tuple = ()) -> "FlowState":
        """The state at time t holding field and the given batch members."""
        return replace(self, t=t, field=field, batch=batch)


def chord_lengths(gamma: Field) -> np.ndarray:
    """|D+gamma| over the natural chords (windows drop the ghosted last one)."""
    return magnitudes(dplus(gamma))[:gamma.grid.cells]


def g_samples(state: FlowState) -> Field:
    gamma = state.field if state.mode == CURVE else None
    return sample(state.speed, state.t, state.grid, gamma=gamma)


def rhs(state: FlowState, g: Field | None = None) -> Field:
    """The state's rate at its time: u ^ D+(g D-u) for a tangent, pointwise
    orthogonal to u, or g (D+gamma ^ D2 gamma) for a curve.

    ``g`` defaults to the state's coefficient samples, which a coupled g
    reads from the curve.
    """
    if g is None:
        g = g_samples(state)
    if state.mode == TANGENT:
        u = state.field
        return cross(u, delta_g(g, u))
    u = dplus(state.field)
    return g * cross(u, dminus(u))


def form_equivalence_residual(u: Field, g: Field) -> float:
    """Max-norm gap between D+(u ^ g D-u) and u ^ D+(g D-u).

    Zero in exact arithmetic; rounding leaves a few ulps of the terms'
    magnitude, so compare against 1e-13 times the result scale.
    """
    flux = g * dminus(u)
    torque = cross(u, flux)
    conservative = dplus(torque)
    pointwise = cross(u, dplus(flux))
    # the two forms cancel term-by-term; normalize by the size of the
    # differenced terms, not by the (possibly vanishing) result
    scale = max(norm_linf(conservative), norm_linf(pointwise),
                (2.0 / u.grid.h) * norm_linf(torque), 1e-300)
    return float(np.max(np.abs(conservative.values - pointwise.values))) / scale


def tangent_of_coupled_residual(state: FlowState) -> float:
    """Max-norm gap between D+(curve rhs) and the tangent rhs at u = D+gamma.

    Uses one set of coefficient samples for both sides; the identity is
    exact algebra, so the residual is rounding only.
    """
    if state.mode != CURVE:
        raise ValueError("needs a curve state")
    g = g_samples(state)
    lifted = dplus(rhs(state, g))
    u = dplus(state.field)
    direct = cross(u, delta_g(g, u))
    scale = max(norm_linf(lifted), norm_linf(direct), 1e-300)
    return float(np.max(np.abs(lifted.values - direct.values))) / scale


def warn_if_near_boundary(u0: Field) -> None:
    """Warn when a window perturbation sits within 10 h of either end.

    Nodes that differ from the edge value on their side count as perturbed.
    """
    grid = u0.grid
    if grid.periodic:
        return
    vals = u0.values if u0.is_vector else u0.values[:, None]
    k = BOUNDARY_CLEARANCE_NODES
    lo = np.max(np.abs(vals[:k] - vals[0]))
    hi = np.max(np.abs(vals[-k:] - vals[-1]))
    tol = 1e-8 * max(1.0, float(np.max(np.abs(vals))))
    if lo > tol or hi > tol:
        warnings.warn(
            f"initial data varies within {k} nodes of the window boundary; "
            "the constant-extension ghosts will distort the flow there",
            stacklevel=2)
