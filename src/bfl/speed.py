"""Speed-coefficient models with certified bounds and grid sampling.

A SpeedField wraps one coefficient g(t, x, gamma), the paper's g(s, t, gamma).
Declared bounds alpha (positive lower bound), beta (sup of g) and beta1 (sup
of |dg/dt|) feed the a-priori bound monitors; beta_prime bounds both |dg/dx|
and |grad_gamma g|, and only ``validate_bounds`` reads it, checking both for
every g. All four are spot-validated, never inferred; ``_derivatives`` is the
one rule that differences g, for that check and for the energy law. The one
declaration beside them is ``coupled``: only a coupled g is handed the curve
gamma. What else g reads follows from the bounds: it is constant when
alpha == beta (every sample is checked against both), and time dependent
when it is coupled or beta1 > 0.

The selectors ``const:a``, ``sin:a,b,k``, ``sintime:a,b,k,w`` and
``coupled-tanh:a,c`` set those parameters of one closed-form model,
g = a + b sin(k x) cos(w t) + c tanh(|gamma|^2), and leave the rest 0; the
model's bounds are written once, in ``_model``.

Sampling offset: sample i sits at x_i + offset and weights D-u_i, the
difference across the cell [x_{i-1}, x_i], in D+(g D-u). An offset of 0
samples the nodes (first order for variable g); -h/2 samples that cell's
midpoint (second order), which is what ``offset = mid`` selects. Every
reader of the samples (the stepper, diagnostics, the energy law and the
reconstruction drift) weights them this one way. A coupled g takes no
offset, since the curve exists only at nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .lattice import CoefficientBoundError, Field, Grid

_BOUND_SLACK = 1e-9
_STEP = 1e-6  # the finite-difference step of every derivative of g


@dataclass(frozen=True)
class SpeedField:
    """Coefficient g with declared bounds.

    ``fn(t, x, gamma)`` is vectorized over the points x; gamma is the (n, 3)
    curve at the nodes when ``coupled`` and None otherwise. A g that reads t
    must declare beta1 > 0 (validate_bounds flags one that does not); a
    constant one declares alpha == beta.
    """

    fn: Callable
    alpha: float
    beta: float
    beta1: float = 0.0
    beta_prime: float = 0.0
    sampling_offset: float = 0.0
    name: str = ""
    coupled: bool = False

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError(f"speed {self.name or 'g'}: lower bound alpha = {self.alpha:g} "
                             "must be positive")
        if self.beta < self.alpha:
            raise ValueError(f"speed {self.name or 'g'}: upper bound beta must dominate alpha")
        if self.coupled and self.sampling_offset != 0:
            raise ValueError("coupled coefficients sample at nodes only")

    @property
    def constant(self) -> bool:
        return self.alpha == self.beta

    @property
    def time_dependent(self) -> bool:
        return self.coupled or self.beta1 > 0

    def with_offset(self, offset: float) -> "SpeedField":
        return replace(self, sampling_offset=offset)

    def __call__(self, t, x, gamma=None) -> np.ndarray:
        """g at the points x as a new float array shaped like x."""
        return np.broadcast_to(np.asarray(self.fn(t, x, gamma), dtype=float), np.shape(x)).copy()


def make_constant(c: float) -> SpeedField:
    return _model(f"const:{c:g}", a=c)


def sample(speed: SpeedField, t: float, grid: Grid, gamma: Field | None = None) -> Field:
    """Sample g onto the grid at time t; every value must be positive and in [alpha, beta].

    A coupled g requires gamma and samples at the nodes with the curve
    values; any other samples at x_i + sampling_offset.
    """
    return Field(grid, _sample_at(speed, t, grid.nodes(),
                                  None if gamma is None else gamma.values))


def _sample_at(speed: SpeedField, t: float, x: np.ndarray,
               gamma: np.ndarray | None = None) -> np.ndarray:
    """sample() on node coordinates x and raw curve values gamma."""
    if speed.coupled:
        if gamma is None:
            raise ValueError("coupled speed needs the current curve")
        vals = speed(t, x, gamma)
    else:
        vals = speed(t, x + speed.sampling_offset)
    slack = _BOUND_SLACK * max(1.0, abs(speed.beta))
    # written so that a NaN sample fails it; the slack never admits g <= 0
    if not np.all((0.0 < vals) & (speed.alpha - slack <= vals) & (vals <= speed.beta + slack)):
        # a non-positive (or NaN) sample is named first: the slack may admit others
        bad = int(np.argmax(np.where(vals > 0, np.maximum(speed.alpha - vals, vals - speed.beta),
                                     np.inf)))
        raise CoefficientBoundError(
            f"sample {vals[bad]:.6g} at node {bad} (x = {x[bad] + speed.sampling_offset:.6g}) "
            f"violates declared bounds [{speed.alpha:g}, {speed.beta:g}]")
    return vals


def _derivatives(speed: SpeedField, t: float, x: np.ndarray,
                 gamma: np.ndarray | None = None) -> tuple:
    """(g, dg/dt, dg/dx, grad_gamma g) where ``_sample_at`` reads g, unchecked.

    Central differences with one step, _STEP, in t, in x and along each
    axis of the curve values; grad_gamma g is (n, 3) and 0 for a g that
    does not read the curve.
    """
    if speed.coupled and gamma is None:
        raise ValueError("coupled speed needs the current curve")
    x, e = x + speed.sampling_offset, _STEP
    gamma = gamma if speed.coupled else None
    grad = np.zeros((len(x), 3))
    for j, shift in enumerate(np.eye(3) * e if speed.coupled else ()):
        grad[:, j] = (speed(t, x, gamma + shift) - speed(t, x, gamma - shift)) / (2 * e)
    g_t = (speed(t + e, x, gamma) - speed(t - e, x, gamma)) / (2 * e)
    g_x = (speed(t, x + e, gamma) - speed(t, x - e, gamma)) / (2 * e)
    return speed(t, x, gamma), g_t, g_x, grad


@dataclass
class _BoundsReport:
    """Worst margins from a dense spot check of the declared bounds."""

    ok: bool
    lower_margin: float          # min g - alpha
    upper_margin: float          # beta - max g
    dt_margin: float             # beta1 - max |finite-difference dg/dt|
    dx_margin: float             # beta_prime - max |finite-difference dg/dx|, |grad_gamma g|
    flags: list = field(default_factory=list)


def validate_bounds(speed: SpeedField, grid: Grid, t_grid=(0.0,),
                    gamma: Field | None = None) -> _BoundsReport:
    """Dense spot check of alpha <= g <= beta and the derivative bounds.

    Samples 10 points per cell at every listed time, shifted as ``sample``
    shifts them (a coupled g at the nodes, with the curve). The central
    differences of ``_derivatives`` must respect the bounds within 5%:
    |dg/dt| <= beta1, and both |dg/dx| and |grad_gamma g| <= beta_prime,
    for every g, so one that reads t but declares beta1 = 0 is flagged.
    Violations are reported, not raised: the caller decides. An empty
    ``t_grid`` samples nothing and raises ValueError.
    """
    if len(t_grid) == 0:
        raise ValueError("t_grid lists no time to sample")
    # a coupled g reads the curve, which exists at the nodes only
    xs = grid.nodes() if speed.coupled else grid.x0 + np.linspace(
        0.0, grid.cells * grid.h, grid.cells * 10, endpoint=False)
    lower = upper = np.inf
    dt_worst = dx_worst = 0.0
    for t in t_grid:
        vals, g_t, g_x, grad = _derivatives(speed, t, xs, None if gamma is None else gamma.values)
        lower = min(lower, float(np.min(vals) - speed.alpha))
        upper = min(upper, float(speed.beta - np.max(vals)))
        dt_worst = max(dt_worst, float(np.max(np.abs(g_t))))
        dx_worst = max(dx_worst, float(np.max(np.abs(g_x))),
                       float(np.max(np.sqrt(np.einsum("ij,ij->i", grad, grad)))))

    dt_margin = speed.beta1 * 1.05 - dt_worst
    dx_margin = speed.beta_prime * 1.05 - dx_worst
    flags = []
    if lower < 0:
        flags.append(f"lower bound violated by {-lower:.3g}")
    if upper < 0:
        flags.append(f"upper bound violated by {-upper:.3g}")
    if dt_margin < 0:
        flags.append(f"time-derivative bound exceeded by {-dt_margin:.3g}")
    if dx_margin < 0:
        flags.append(f"space-derivative bound exceeded by {-dx_margin:.3g}")
    return _BoundsReport(ok=not flags, lower_margin=lower, upper_margin=upper,
                         dt_margin=dt_margin, dx_margin=dx_margin, flags=flags)


# --------------------------------------------------------------------------
# named built-ins, selectable from configs
# --------------------------------------------------------------------------

def split_selector(spec: str, table: dict) -> tuple[str, list[float]]:
    """``head:a,b,...`` -> (head, finite float arguments, none empty); ``table``
    maps each head of the family to one entry per argument it takes."""
    head, _, tail = spec.partition(":")
    if head not in table:
        raise ValueError(f"unknown selector {spec!r}")
    try:
        args = [float(s) for s in tail.split(",")] if tail else []
    except ValueError as exc:
        raise ValueError(f"bad arguments in {spec!r}") from exc
    if not all(np.isfinite(args)):
        raise ValueError(f"non-finite argument in {spec!r}")
    n = len(table[head])
    if len(args) != n:
        raise ValueError(f"{head} takes {n} argument{'s' * (n != 1)}, got {len(args)}: {spec!r}")
    return head, args


# the model parameters each speed selector's arguments set, in order
_SPEEDS = {"const": ("a",), "sin": ("a", "b", "k"), "sintime": ("a", "b", "k", "w"),
           "coupled-tanh": ("a", "c")}


def _model(name: str, a: float, b: float = 0.0, k: float = 0.0, w: float = 0.0,
           c: float = 0.0) -> SpeedField:
    """g = a + b sin(k x) cos(w t) + c tanh(|gamma|^2); a zero amplitude skips
    its term, so only c != 0 reads the curve. The sup of |grad_gamma
    tanh(|gamma|^2)| = 2 sqrt(s) sech^2(s), s = |gamma|^2, is 1.113116 at
    s = 0.52181, so 1.1132 |c| dominates it."""
    def fn(t, x, gamma):
        g = a
        if b:
            g = g + b * np.sin(k * x) * np.cos(w * t)
        if c:
            g = g + c * np.tanh(np.einsum("ij,ij->i", gamma, gamma))
        return g

    return SpeedField(fn, alpha=a - abs(b) + min(0.0, c), beta=a + abs(b) + max(0.0, c),
                      beta1=abs(b * w), beta_prime=abs(b * k) + 1.1132 * abs(c),
                      name=name, coupled=c != 0)


def speed_from_name(spec: str) -> SpeedField:
    """Build a coefficient from its config selector (see the module docstring)."""
    head, args = split_selector(spec, _SPEEDS)
    return _model(spec, **dict(zip(_SPEEDS[head], args)))
