"""Optional experiment: the self-similar family kappa = a / sqrt(t).

The binormal flow admits solutions whose curvature decays like a/sqrt(t)
with torsion x/(2t); at t = 0 they degenerate to an infinite broken line,
so the experiment starts at t0 = 1 from a Frenet-built curve with
kappa = a and tau(x) = x/2 and checks the scaling exponent of the central
curvature, qualitatively, while the window is still clean.

Truncation matters here: the profile's torsion grows linearly toward the
window ends, so end artifacts travel inward at speed ~ tau(edge) and reach
the center near t ~ 2 for any window width (widening the window speeds the
junk up by the same factor). The exponent is therefore fitted on t in
[1, 2].
"""

import numpy as np

from bfl.dynamics import FlowState
from bfl.integrate import IntegratorSpec, evolve
from bfl.lattice import Grid, dplus, magnitudes
from bfl.probe import frenet_curve
from bfl.speed import make_constant

a = 1.0
grid = Grid.make_window(-30.0, 600, 0.1)
gamma0, u0 = frenet_curve(grid, lambda x: a + 0.0 * x, lambda x: x / 2.0)

state = FlowState(1.0, u0, make_constant(1.0))
res = evolve(state, 2.0, IntegratorSpec(method="projected_rk4", cfl=0.25,
                                        snapshot_stride=100))

mid = grid.n_nodes // 2
print("central curvature along the run:")
ts, ks = [], []
for t, f in zip(res.times, res.fields):
    kappa = magnitudes(dplus(f))
    k_center = float(np.median(kappa[mid - 50:mid + 50]))
    ts.append(t)
    ks.append(k_center)
    print(f"  t = {t:5.3f}   kappa(center) = {k_center:.4f}   "
          f"a/sqrt(t) = {a / np.sqrt(t):.4f}")

slope = np.polyfit(np.log(ts), np.log(ks), 1)[0]
print(f"\nfitted scaling exponent on t in [1, 2]: {slope:.3f} "
      "(self-similar value -0.5, tolerance 0.1)")
assert abs(slope + 0.5) <= 0.1
