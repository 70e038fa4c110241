"""Semi-discrete binormal curvature flow / Schrodinger map lab.

A numpy library for the tangent form du/dt = u ^ D+(g D-u) and the curve
form dgamma/dt = g (D+gamma ^ D2 gamma) of the modified binormal curvature
flow on uniform 1-D lattices, with structure-preserving time integrators,
curve reconstruction from the tangent trajectory, and diagnostics for every
discrete identity, conservation law and a-priori bound the scheme obeys.
"""
