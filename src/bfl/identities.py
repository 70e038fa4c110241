"""Randomized exact-identity suite.

Every identity here is exact algebra on the lattice; what the suite
measures is rounding, normalized by the size of the cancelled terms, so a
residual threshold of 1e-11 holds for fields of any magnitude (trials draw
amplitudes across nine decades). Trials split evenly over topology and
spacing cells: periodic and window grids at h = 1, 0.1 and 0.01.

Window trials honor the hypotheses the lattice statements come with:
integration by parts gets compactly supported data, and the norm sandwich
gets fields vanishing at the two boundary nodes (the window integral has no
exterior cells to see). The sandwich is checked against its sharp constants
1/sqrt(3) and 1.
"""

from __future__ import annotations

import numpy as np

from .dynamics import form_equivalence_residual
from .interp import SANDWICH_LOWER, SANDWICH_UPPER, interp_gap, l2_norm_linear
from .lattice import (
    Field,
    Grid,
    delta_g,
    dminus,
    dot,
    dplus,
    norm_h,
    norm_linf,
    shift_minus,
    shift_plus,
    unit_field,
)

IDENTITY_THRESHOLD = 1e-11

_TINY = 1e-300

_SPACINGS = (1.0, 0.1, 0.01)


def _random_grid(rng, periodic: bool, h: float) -> Grid:
    n = int(rng.integers(8, 49))
    if periodic:
        return Grid.make_periodic(h * n, n)
    return Grid.make_window(float(rng.uniform(-3.0, 0.0)), n, h)


def _amplitude(rng) -> float:
    return 10.0 ** float(rng.uniform(-3.0, 6.0))


def _vector(rng, grid, scale=None, zero_edges=0, extension="constant") -> Field:
    vals = rng.normal(size=(grid.n_nodes, 3)) * (scale or _amplitude(rng))
    if zero_edges and not grid.periodic:
        vals[:zero_edges] = 0.0
        vals[-zero_edges:] = 0.0
    return Field(grid, vals, extension)


def _unit(rng, grid) -> Field:
    vals = rng.normal(size=(grid.n_nodes, 3))
    vals /= np.linalg.norm(vals, axis=1)[:, None]
    return unit_field(grid, vals)


def _coeff(rng, grid) -> Field:
    return Field(grid, np.exp(rng.normal(size=grid.n_nodes)))


def _residual_ipp(rng, grid) -> float:
    v = _vector(rng, grid)
    u = _vector(rng, grid, zero_edges=2,
                extension="zero" if not grid.periodic else "constant")
    du, dv = dplus(u).values, dminus(v).values
    t1 = np.einsum("ij,ij->", v.values, du)
    t2 = np.einsum("ij,ij->", u.values, dv)
    scale = np.sum(np.abs(v.values * du)) + np.sum(np.abs(u.values * dv)) + _TINY
    return abs(t1 + t2) / scale


def _residual_product_rule(rng, grid) -> float:
    u = _vector(rng, grid)
    v = _vector(rng, grid)
    worst = 0.0
    for diff, shift in ((dplus, shift_plus), (dminus, shift_minus)):
        lhs = diff(dot(u, v)).values
        a = dot(shift(u), diff(v)).values
        b = dot(diff(u), v).values
        scale = float(np.max(np.abs(lhs) + np.abs(a) + np.abs(b))) + _TINY
        worst = max(worst, float(np.max(np.abs(lhs - a - b))) / scale)
    return worst


def _residual_difference_norm_bound(rng, grid) -> float:
    v = _vector(rng, grid)
    bound = (2.0 / grid.h) * norm_h(v)
    return max(0.0, norm_h(dplus(v)) - bound) / (bound + _TINY)


def _residual_unit_dot_difference(rng, grid) -> float:
    u = _unit(rng, grid)
    worst = 0.0
    for diff, sign in ((dplus, -1.0), (dminus, +1.0)):
        du = diff(u)
        lhs = dot(u, du).values
        rhs = sign * (grid.h / 2.0) * np.einsum("ij,ij->i", du.values, du.values)
        scale = float(np.max(np.abs(lhs) + np.abs(rhs))) + _TINY
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return worst


def _residual_unit_delta(rng, grid) -> float:
    u = _unit(rng, grid)
    g = _coeff(rng, grid)
    lhs = dot(u, delta_g(g, u)).values
    dm, dp = dminus(u), dplus(u)
    rhs = -0.5 * (g.values * np.einsum("ij,ij->i", dm.values, dm.values)
                  + shift_plus(g).values * np.einsum("ij,ij->i", dp.values, dp.values))
    scale = float(np.max(np.abs(lhs) + np.abs(rhs))) + _TINY
    return float(np.max(np.abs(lhs - rhs))) / scale


def _residual_delta_factorization(rng, grid) -> float:
    v = _vector(rng, grid)
    g = _coeff(rng, grid)
    flux = g * dminus(v)
    r1 = dplus(flux)
    r2 = dminus(shift_plus(g) * dplus(v))
    scale = max(norm_linf(r1), norm_linf(r2), (2.0 / grid.h) * norm_linf(flux), _TINY)
    return float(np.max(np.abs(r1.values - r2.values))) / scale


def _residual_form_equivalence(rng, grid) -> float:
    return form_equivalence_residual(_unit(rng, grid), _coeff(rng, grid))


def _residual_pq_gap(rng, grid) -> float:
    v = _vector(rng, grid)
    dp = norm_h(dplus(v))
    if dp == 0.0:
        return 0.0
    ratio = interp_gap(v) ** 2 / (grid.h ** 2 * dp ** 2)
    return abs(ratio - 1.0 / 3.0) / (1.0 / 3.0)


def _residual_norm_sandwich(rng, grid) -> float:
    v = _vector(rng, grid, zero_edges=1)
    base = norm_h(v)
    if base == 0.0:
        return 0.0
    val = l2_norm_linear(v)
    lo, hi = SANDWICH_LOWER * base, SANDWICH_UPPER * base
    return max(0.0, lo - val, val - hi) / base


IDENTITIES = {
    "integration_by_parts": _residual_ipp,
    "product_rule": _residual_product_rule,
    "difference_norm_bound": _residual_difference_norm_bound,
    "unit_dot_difference": _residual_unit_dot_difference,
    "unit_dot_delta_g": _residual_unit_delta,
    "delta_g_factorization": _residual_delta_factorization,
    "rhs_form_equivalence": _residual_form_equivalence,
    "interp_gap_identity": _residual_pq_gap,
    "norm_sandwich_sharp": _residual_norm_sandwich,
}


def run_identity_suite(seed: int = 0, trials: int = 1000) -> dict[str, float]:
    """Worst relative residual per identity over the randomized trials.

    ValueError unless trials >= 1: with no trial every worst residual
    would read 0 and the suite would pass without checking anything.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    cells = [(periodic, h) for periodic in (True, False) for h in _SPACINGS]
    worst = {name: 0.0 for name in IDENTITIES}
    for name, fn in IDENTITIES.items():
        for k in range(trials):
            periodic, h = cells[k % len(cells)]
            grid = _random_grid(rng, periodic, h)
            worst[name] = max(worst[name], fn(rng, grid))
    return worst


def suite_passes(results: dict[str, float]) -> bool:
    return all(r <= IDENTITY_THRESHOLD for r in results.values())
