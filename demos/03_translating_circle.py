"""Reconstructing the filament: the translating circle.

The tangent field of a great circle is an equilibrium of the lattice flow,
yet the curve it came from is not static: a circle rides its binormal at
speed equal to its curvature. The reconstruction machinery recovers that
motion from the tangent trajectory alone: the curve is the running
integral of the tangents plus a base-point drift integrated at an anchor
node, and the drift must not depend on which anchor you pick.
"""

import numpy as np

from bfl.dynamics import FlowState
from bfl.integrate import IntegratorSpec, evolve
from bfl.lattice import Grid
from bfl.probe import oracle_great_circle
from bfl.reconstruct import (
    TangentTrajectory, anchor_dispersion, basepoint_drift, reconstruct_curve,
    tangent_mismatch,
)
from bfl.speed import make_constant

grid = Grid.make_periodic(2 * np.pi, 64)
u0 = oracle_great_circle(grid)
T = 1.0

res = evolve(FlowState(0.0, u0, make_constant(1.0)), T,
             IntegratorSpec(method="projected_rk4", cfl=0.25, snapshot_stride=10))
traj = TangentTrajectory.from_result(res)

# The drift has a closed form here: the anchor velocity u ^ D-u equals
# (sin h / h) e3 at every node and every time.
drift = basepoint_drift(traj)
rate = np.sin(grid.h) / grid.h
print(f"drift after T = {T}: {drift[-1]}   (lattice rate {rate:.6f} e3, "
      f"continuum rate 1)")
print(f"anchor dispersion over nodes {{0, 16, 32}}: "
      f"{anchor_dispersion(traj, [0, 16, 32]):.2e}")

curves = reconstruct_curve(traj)
analytic = curves.fields[0].values + np.array([0.0, 0.0, 1.0]) * T
err = np.max(np.abs(curves.final().values - analytic))
bound = abs(1 - rate) * T
print(f"\nsup distance from the unit-speed rigid translation: {err:.6e}")
print(f"speed discrepancy accounts for all of it: T |1 - sin(h)/h| = {bound:.6e}")

worst = max(tangent_mismatch(c, u) for c, u in zip(curves.fields, traj.fields))
print(f"D+ gamma = u across all snapshots to {worst:.2e} (an identity of "
      "the left-sum quadrature)")
