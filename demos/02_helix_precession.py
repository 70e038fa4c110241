"""The precessing helix: an exact solution of the lattice flow.

Substituting helix tangents into u ^ D+(g D-u) with g = 1 shows the whole
profile rotates rigidly about the axis at the exact lattice rate
omega_h = cos(a) (2 - 2 cos kh) / h^2, which tends to the continuum rate
k^2 cos(a). That closed form makes the helix the workhorse oracle: it
pins integrator accuracy without any reference computation.
"""

import warnings

import numpy as np

from bfl.dynamics import FlowState
from bfl.integrate import IntegratorSpec, evolve
from bfl.lattice import Grid, unit_drift
from bfl.probe import oracle_helix
from bfl.speed import make_constant

alpha, k = np.pi / 4, 2
grid = Grid.make_periodic(2 * np.pi, 64)
u0, closed_form, omega = oracle_helix(grid, alpha, k)
print(f"lattice precession rate: {omega:.6f}  "
      f"(continuum k^2 cos a = {k**2 * np.cos(alpha):.6f})")

state = FlowState(0.0, u0, make_constant(1.0))

print("\nrotation method (norm-preserving), dt = 1e-3, T = 1:")
res = evolve(state, 1.0, IntegratorSpec(method="rotation", dt=1e-3,
                                        snapshot_stride=250))
for t, f in zip(res.times, res.fields):
    err = np.max(np.abs(f.values - closed_form(t)))
    print(f"  t = {t:4.2f}   sup error vs closed form {err:9.2e}   "
          f"unit drift {unit_drift(f):.2e}")

print("\ntemporal order of the two integrators (dt-halving against the "
      "closed form at T = 0.4):")
for method in ("rotation", "rk4"):
    errs = []
    for dt in (0.004, 0.002):
        r = evolve(state, 0.4, IntegratorSpec(method=method, dt=dt,
                                              snapshot_stride=10 ** 9))
        errs.append(np.max(np.abs(r.final().values - closed_form(0.4))))
    print(f"  {method:12s} errors {errs[0]:.2e} -> {errs[1]:.2e}   "
          f"measured order {np.log2(errs[0] / errs[1]):.2f}")

print("\nstep sizes are limited by the h^-2 stencil: at cfl = 4 the rk4 "
      "run blows up,")
# evolve warns that this dt is past rk4's stability limit: show the warning
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    bad = evolve(state, 1.0, IntegratorSpec(method="rk4", cfl=4.0,
                                            snapshot_stride=10 ** 9))
for w in caught:
    print(f"  {w.category.__name__}: {w.message}")
print(f"  rk4 at cfl = 4: status = {bad.status} "
      f"(failed at step {bad.steps_taken})")
good = evolve(state, 1.0, IntegratorSpec(method="rotation", cfl=0.25,
                                         snapshot_stride=10 ** 9))
print(f"  rotation at cfl = 0.25: status = {good.status}, final error "
      f"{np.max(np.abs(good.final().values - closed_form(1.0))):.2e}")
