"""Refinement studies and stability sweeps.

Levels refine dyadically with dt tied to h^2 (spatial error dominates):
``config.refine`` keeps a cfl and divides a fixed dt by 4 per level.
Errors are measured at the final time against the continuum closed form
when the initial data has one (great circle, helix and, on windows, the
soliton filament, all with a constant coefficient), otherwise against the
finest level restricted to the coarser grids. The restricted reference
refuses levels whose initial data already differ by more than a tenth of
their final difference, since such a table measures the sampling, not the
flow. With node coefficient samples the scheme is first order in h for
variable g; with midpoint samples at x_i - h/2, the center of the cell
D-u_i differences, it is second order; both orders are what the tables
report.

Levels run one after another in the calling thread. The stability sweep
marches its unperturbed base run and every perturbation scale in one
batched march, the base as member 0, and measures each scale against it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .config import (ExperimentConfig, build_grid, build_initial, build_integrator,
                     build_speed, parse_initial, refine)
from .integrate import evolve
from .interp import resample
from .probe import hasimoto_soliton, helix_tangents, oracle_great_circle, stability_probe


def continuum_oracle(cfg: ExperimentConfig, grid):
    """Closed-form continuum solution t -> values, when the data has one."""
    speed = build_speed(cfg, grid)
    if not speed.constant:
        return None
    c = speed.beta
    head, args = parse_initial(cfg.initial)
    if head == "great-circle":
        vals = oracle_great_circle(grid, *args).values
        return lambda t: vals
    if head == "helix":
        alpha, k = args
        return helix_tangents(grid.nodes(), alpha, k, c * k ** 2 * math.cos(alpha))
    if head == "soliton":
        # lattice tangents are chords, which approximate gamma_s at the cell
        # midpoints; sampling at the nodes would cap the order at 1
        closed_form, rot = hasimoto_soliton(*args, grid.x0)
        mid = grid.nodes() + grid.h / 2.0
        return lambda t: closed_form(mid, c * t)[1] @ rot.T
    return None


def _set_up(cfg: ExperimentConfig):
    """Initial state, and a spec that stores only the first and last snapshots."""
    grid = build_grid(cfg)
    state, _ = build_initial(cfg, grid, build_speed(cfg, grid))
    return state, replace(build_integrator(cfg), snapshot_stride=10 ** 9)


def _restricted_gap(coarse, fine, grid) -> float:
    """Sup-norm gap between a coarse level's field and the finer one restricted."""
    return float(np.max(np.abs(coarse.values - resample(fine, grid).values)))


def convergence_study(cfg: ExperimentConfig, levels: int) -> dict:
    """Dyadic refinement study; returns the table and the reference kind.

    Table rows carry h, the resolution, the final-time sup error and the
    measured order against the previous level (None on the first row).
    Against the restricted reference, ValueError when two levels already
    differ at t = 0 by more than a tenth of their final difference.
    """
    if levels < 3:
        raise ValueError("need at least 3 refinement levels")
    results = []
    for j in range(levels):
        state, spec = _set_up(refine(cfg, 2 ** j))
        results.append(evolve(state, cfg.horizon, spec))

    diverged = [i for i, res in enumerate(results) if res.status != "ok"]
    if diverged:
        raise RuntimeError(f"level {diverged[0]} diverged")

    oracles = [continuum_oracle(cfg, res.grid) for res in results]
    errors = []
    if oracles[0] is not None:
        kind = "continuum closed form"
        for res, oracle in zip(results, oracles):
            errors.append(float(np.max(np.abs(res.final().values
                                              - oracle(cfg.horizon)))))
    else:
        # consecutive-level differences: a single finest reference biases a
        # p-th order scheme's last measured order to log2((2^p m - ...)), e.g.
        # log2(3) = 1.58 for p = 1, so the pairwise form is what converges
        kind = "next finer level (restricted)"
        for r_c, r_f in zip(results[:-1], results[1:]):
            err = _restricted_gap(r_c.final(), r_f.final(), r_c.grid)
            err0 = _restricted_gap(r_c.fields[0], r_f.fields[0], r_c.grid)
            # levels that disagree at t = 0 measure their sampling, not the flow
            if err0 > 0.1 * err:
                raise ValueError(f"levels differ by {err0:.3e} at t = 0 against "
                                 f"{err:.3e} at the horizon; the restricted "
                                 "reference cannot measure this flow")
            errors.append(err)

    rows = []
    for j, (res, err) in enumerate(zip(results, errors)):
        order = None if j == 0 else math.log2(errors[j - 1] / err)
        rows.append({"level": j, "h": res.grid.h, "n_nodes": res.grid.n_nodes,
                     "error": err, "order": order})
    return {"reference": kind, "offset": cfg.offset, "rows": rows}


def stability_sweep(cfg: ExperimentConfig, eps_list) -> dict:
    """H1 amplification ratios per perturbation scale, plus their spread."""
    eps_list = list(eps_list)
    if len(eps_list) < 2:
        raise ValueError("need at least two perturbation scales")
    state, spec = _set_up(cfg)
    if state.mode != "tangent":
        raise ValueError("the stability probe runs on tangent initial data")
    ratios = stability_probe(state.field, eps_list, state.speed, cfg.horizon, spec)
    spread = (max(ratios) - min(ratios)) / (sum(ratios) / len(ratios))
    return {"rows": [{"eps": e, "ratio": r} for e, r in zip(eps_list, ratios)],
            "spread": spread}
