"""Semi-discrete binormal curvature flow / Schrodinger map lab.

A numpy library for the tangent form du/dt = u ^ D+(g D-u) and the curve
form dgamma/dt = g (D+gamma ^ D2 gamma) of the modified binormal curvature
flow on uniform 1-D lattices, with structure-preserving time integrators,
curve reconstruction from the tangent trajectory, and diagnostics for every
discrete identity, conservation law and a-priori bound the scheme obeys.
"""

from .config import ConfigError, ExperimentConfig, parse_config, serialize_config
from .convergence import convergence_study, stability_sweep
from .dynamics import (
    FlowState,
    form_equivalence_residual,
    rhs,
)
from .identities import IDENTITY_THRESHOLD, run_identity_suite
from .integrate import DivergenceError, EvolveResult, IntegratorSpec, evolve, step
from .interp import (
    SANDWICH_LOWER,
    SANDWICH_UPPER,
    SOBOLEV_EMBED_CONSTANT,
    interp_gap,
    l2_norm_linear,
    piecewise_constant,
    piecewise_linear,
    resample,
)
from .lattice import (
    AlignmentError,
    CoefficientBoundError,
    Field,
    Grid,
    RieszSolveError,
    cross,
    d2,
    delta_g,
    dminus,
    dot,
    dplus,
    inner_h,
    magnitudes,
    norm_h,
    norm_h1,
    norm_h1_dual,
    norm_linf,
    normalized,
    shift_minus,
    shift_plus,
    unit_drift,
    unit_field,
)
from .probe import (
    DiagnosticsRecord,
    FrenetData,
    diagnose,
    dual_bound_margin,
    energy,
    energy_rate_residual,
    frenet,
    frenet_curve,
    gradient_bound_margin,
    oracle_circle_curve,
    oracle_great_circle,
    oracle_helix,
    oracle_soliton_curve,
    peak_location,
    stability_probe,
)
from .reconstruct import (
    CurveTrajectory,
    TangentTrajectory,
    anchor_dispersion,
    basepoint_drift,
    gamma_integral,
    reconstruct_curve,
    tangent_mismatch,
)
from .speed import SpeedField, make_constant, sample, speed_from_name, validate_bounds

__all__ = [
    "AlignmentError", "CoefficientBoundError", "ConfigError",
    "CurveTrajectory", "DiagnosticsRecord", "DivergenceError",
    "EvolveResult", "ExperimentConfig", "Field", "FlowState", "FrenetData",
    "Grid", "IDENTITY_THRESHOLD", "IntegratorSpec",
    "RieszSolveError", "SANDWICH_LOWER", "SANDWICH_UPPER",
    "SOBOLEV_EMBED_CONSTANT", "SpeedField", "TangentTrajectory",
    "anchor_dispersion", "basepoint_drift", "convergence_study", "cross",
    "d2", "delta_g", "diagnose", "dminus", "dot", "dplus",
    "dual_bound_margin", "energy", "energy_rate_residual",
    "evolve", "form_equivalence_residual", "frenet", "frenet_curve",
    "gamma_integral", "gradient_bound_margin",
    "inner_h", "interp_gap", "l2_norm_linear", "magnitudes",
    "make_constant", "norm_h", "norm_h1", "norm_h1_dual", "norm_linf",
    "normalized", "oracle_circle_curve", "oracle_great_circle",
    "oracle_helix", "oracle_soliton_curve", "parse_config", "peak_location",
    "piecewise_constant", "piecewise_linear", "reconstruct_curve",
    "resample", "rhs", "run_identity_suite",
    "sample",
    "serialize_config", "shift_minus", "shift_plus", "stability_probe",
    "stability_sweep", "step", "tangent_mismatch",
    "unit_drift", "unit_field", "validate_bounds",
]
