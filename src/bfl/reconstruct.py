"""Rebuild the filament from a tangent trajectory.

The curve is the spatial integral of the tangent field plus a
time-dependent base-point drift:

* gamma_integral: left Riemann sum from a designated origin node. The left
  sum is the exact integral of the piecewise-constant lift of u, which is
  what makes D+ gamma = u an identity (telescoping) rather than an
  approximation.
* basepoint_drift: c(t) = integral of the local velocity g u ^ D-u at an
  anchor node, plus the change of the spatial integral up to the anchor.
  For the exact semi-discrete flow the result is anchor-independent in
  exact time integration; the trapezoid rule on stored snapshots and the
  integrator error are the only sources of anchor dispersion, so the
  dispersion shrinks under refinement and doubles as a consistency check.
  The spatial part is summed snapshot by snapshot.
* reconstruct_curve: gamma(t) = gamma_integral(u(t)) + c(t). The drift of
  every snapshot is computed up front; curve k is summed from tangent k
  only when `fields[k]` is read, so a reconstruction holds no second
  trajectory.

Snapshot spacing bounds the reconstruction accuracy at O(dt_snap^2)
(trapezoid on stored data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Field, Grid, dplus


@dataclass(frozen=True)
class TangentTrajectory:
    """Ordered tangent snapshots on one grid, with the g samples used."""

    times: tuple
    fields: tuple
    g_samples: tuple

    def __post_init__(self):
        _check_snapshots(self.times, self.fields, self.g_samples)
        grid = self.fields[0].grid
        if any(f.grid != grid for f in self.fields):
            raise ValueError("snapshots on mismatched grids")

    @property
    def grid(self) -> Grid:
        return self.fields[0].grid

    @staticmethod
    def from_result(result) -> "TangentTrajectory":
        """Adopt an EvolveResult; curve-mode results are differenced to tangents."""
        fields = result.fields
        if result.mode == "curve":
            fields = [dplus(f) for f in fields]
        return TangentTrajectory(tuple(result.times), tuple(fields),
                                 tuple(result.g_samples))


@dataclass(frozen=True)
class CurveTrajectory:
    """Ordered curve snapshots; `fields` is any sequence of Fields, one per time."""

    times: tuple
    fields: tuple

    def __post_init__(self):
        _check_snapshots(self.times, self.fields)

    def final(self) -> Field:
        return self.fields[-1]


def _check_snapshots(times, *series) -> None:
    """At least two strictly increasing times and one entry per time in each series."""
    t = np.asarray(times)
    if len(t) < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("need at least two strictly increasing snapshot times")
    if any(len(s) != len(t) for s in series):
        raise ValueError("need one snapshot per snapshot time")


class _CurvesOnAccess:
    """Read-only sequence whose item k, built each time it is read, is the
    left sum of tangent k from the origin plus drift[k]."""

    __slots__ = ("_grid", "_tangents", "_drift", "_origin")

    def __init__(self, grid: Grid, tangents: tuple, drift: np.ndarray, origin: int):
        self._grid, self._tangents, self._drift, self._origin = grid, tangents, drift, origin

    def __len__(self) -> int:
        return len(self._tangents)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[j] for j in range(*k.indices(len(self))))
        u = self._tangents[k]
        return Field(self._grid, _left_sums(self._grid.h, u.values, self._origin)
                     + self._drift[k])


def default_origin(grid: Grid) -> int:
    """Middle node for windows, node 0 for periodic grids."""
    return 0 if grid.periodic else grid.n_nodes // 2


def gamma_integral(u: Field, origin: int | None = None) -> Field:
    """Left Riemann sum of u from the origin node; exact inverse of D+.

    Gamma_i = h * sum_{j=origin}^{i-1} u_j for i > origin, the mirrored sum
    for i < origin, and Gamma_origin = 0.
    """
    return Field(u.grid, _left_sums(u.grid.h, u.values, _checked_origin(u.grid, origin)))


def _checked_origin(grid: Grid, origin: int | None) -> int:
    i0 = default_origin(grid) if origin is None else origin
    if not 0 <= i0 < grid.n_nodes:
        raise ValueError(f"origin node {i0} outside the grid")
    return i0


def _left_sums(h: float, vals: np.ndarray, i0: int) -> np.ndarray:
    """gamma_integral on (n,) or (n, 3) values."""
    prefix = np.cumsum(h * vals, axis=0)
    prefix = np.concatenate([np.zeros_like(prefix[:1]), prefix])
    return prefix[:-1] - prefix[i0:i0 + 1]


def basepoint_drift(traj: TangentTrajectory, anchor: int | None = None,
                    origin: int | None = None) -> np.ndarray:
    """Drift time series c(t_k); c(0) = 0 exactly.

    c(t_k) = h sum_{j=origin}^{anchor-1} (u_j(t_0) - u_j(t_k))
             + trapezoid over the snapshots of g_a (u_a ^ D-u_a).
    """
    grid = traj.grid
    i0 = _checked_origin(grid, origin)
    a = i0 if anchor is None else anchor
    if not 0 <= a < grid.n_nodes:
        raise ValueError(f"anchor node {a} outside the grid")

    times = np.asarray(traj.times)
    fields = traj.fields

    # velocity of the anchor point along the trajectory; D- reads the node to
    # the left, the periodic wrap (a - 1 = -1), or on a window the ghost of
    # each field's extension
    u_a = np.array([f.values[a] for f in fields])
    if a > 0 or grid.periodic:
        left = np.array([f.values[a - 1] for f in fields])
    else:
        left = np.array([f.values[0] if f.extension == "constant" else np.zeros(3)
                         for f in fields])
    g_a = np.array([g.values[a] for g in traj.g_samples])
    vel = g_a[:, None] * np.cross(u_a, (u_a - left) / grid.h)

    # trapezoid, accumulated left to right from zero
    steps = (0.5 * np.diff(times))[:, None] * (vel[:-1] + vel[1:])
    temporal = np.cumsum(np.vstack([np.zeros(3), steps]), axis=0)

    lo, hi = (i0, a) if i0 <= a else (a, i0)
    sign = 1.0 if i0 <= a else -1.0
    # one sum per snapshot; row 0 sums to zero, so c(0) = 0 exactly
    u0_vals = fields[0].values[lo:hi]
    spatial = np.array([(u0_vals - f.values[lo:hi]).sum(axis=0) for f in fields])
    return sign * grid.h * spatial + temporal


def reconstruct_curve(traj: TangentTrajectory, anchor: int | None = None,
                      origin: int | None = None) -> CurveTrajectory:
    """gamma(t_k) = gamma_integral(u(t_k)) + c(t_k), origin pinned at zero."""
    drift = basepoint_drift(traj, anchor=anchor, origin=origin)
    i0 = _checked_origin(traj.grid, origin)
    return CurveTrajectory(traj.times, _CurvesOnAccess(traj.grid, traj.fields, drift, i0))


def anchor_dispersion(traj: TangentTrajectory, anchors, origin: int | None = None) -> float:
    """Max over anchor pairs of the sup distance between drift series.

    The discrete residual of the x-independence of the drift rate; zero for
    exact time integration, so it measures snapshot quadrature plus
    integrator error and must shrink under refinement.
    """
    anchors = list(anchors)
    if len(anchors) < 2:
        raise ValueError("need at least two anchors")
    series = [basepoint_drift(traj, anchor=a, origin=origin) for a in anchors]
    worst = 0.0
    for i in range(len(series)):
        for j in range(i + 1, len(series)):
            worst = max(worst, float(np.max(np.abs(series[i] - series[j]))))
    return worst


def tangent_mismatch(gamma: Field, u: Field) -> float:
    """sup |D+gamma - u| over the natural chords (identity for reconstructions).

    Periodic curves reconstruct over one period; the wrap chord only matches
    u when the tangents sum to zero (a closed curve), so it is excluded.
    """
    return float(np.max(np.abs(dplus(gamma).values - u.values)[:-1]))
