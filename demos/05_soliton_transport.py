"""A curvature bump that travels: the constant-torsion soliton filament.

A filament with curvature profile 2 nu sech(nu x) and constant torsion
tau0 propagates its curvature peak at speed 2 tau0 under the binormal
flow. The initial curve is built by marching the Frenet frame for the
prescribed profile; the tangent field is evolved on a window and the
curve reconstructed, and the peak of |D2 gamma| is tracked by parabolic
sub-node interpolation.
"""

import numpy as np

from bfl.dynamics import FlowState
from bfl.integrate import IntegratorSpec, evolve
from bfl.lattice import Grid
from bfl.probe import frenet, oracle_soliton_curve, peak_location
from bfl.reconstruct import TangentTrajectory, reconstruct_curve
from bfl.speed import make_constant

nu, tau0, T = 1.0, 0.5, 1.0
grid = Grid.make_window(-20.0, 512, 40.0 / 512)
gamma0, u0 = oracle_soliton_curve(grid, nu, tau0)

data0 = frenet(gamma0)
print(f"initial curvature peak: {np.max(data0.kappa.values):.4f} "
      f"(prescribed 2 nu = {2 * nu})")
core = data0.tau_defined & (data0.kappa.values > 0.5)
print(f"torsion through the core: {np.mean(data0.tau.values[core]):.4f} "
      f"(prescribed tau0 = {tau0})")

res = evolve(FlowState(0.0, u0, make_constant(1.0)), T,
             IntegratorSpec(method="projected_rk4", cfl=0.25, snapshot_stride=150))
curves = reconstruct_curve(TangentTrajectory.from_result(res))

print("\npeak position along the run:")
positions = []
for t, c in zip(curves.times, curves.fields):
    pos = peak_location(frenet(c).kappa)
    positions.append((t, pos))
    print(f"  t = {t:5.3f}   peak at x = {pos:+.4f}")

speed = (positions[-1][1] - positions[0][1]) / (positions[-1][0] - positions[0][0])
print(f"\nmeasured peak speed: {speed:.4f}   predicted 2 tau0 = {2 * tau0}")
print(f"relative error: {abs(speed - 2 * tau0) / (2 * tau0):.2%}")
