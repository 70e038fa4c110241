"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the lines.
Criterion 2's norm sandwich was stated with constants 1 and sqrt(4/3);
the lift obeys 1/sqrt(3) <= ||P v||_L2 / |v|_h <= 1, both sharp. Test 2b
checks the stated upper half and the sharp constants on random fields, and
pins both witnesses on the N = 4, h = 1 periodic grid: the alternating mode
(norm value sqrt(4/3), ratio 1/sqrt(3), refuting the stated lower constant)
and a constant field (ratio 1). Test 2c checks only the sharp sandwich on
the same random fields.
"""

import math
import time
from dataclasses import replace

import numpy as np

from bfl.config import ExperimentConfig
from bfl.convergence import continuum_oracle, convergence_study, stability_sweep
from bfl.dynamics import FlowState
from bfl.identities import IDENTITY_THRESHOLD, run_identity_suite
from bfl.integrate import IntegratorSpec, evolve
from bfl.interp import SANDWICH_LOWER, SANDWICH_UPPER, interp_gap, l2_norm_linear
from bfl.lattice import Field, Grid, dminus, dplus, norm_h, unit_drift
from bfl.probe import (
    diagnose,
    frenet,
    oracle_circle_curve,
    oracle_great_circle,
    oracle_helix,
    oracle_soliton_curve,
    peak_location,
)
from bfl.reconstruct import (
    TangentTrajectory,
    anchor_dispersion,
    reconstruct_curve,
    tangent_mismatch,
)
from bfl.speed import make_constant, speed_from_name

TWO_PI = 2 * np.pi


def report(num, ok, detail):
    print(f"criterion {num:>3}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def helix_state(n, speed, alpha=np.pi / 4, k=2):
    grid = Grid.make_periodic(TWO_PI, n)
    u0, closed_form, omega = oracle_helix(grid, alpha, k)
    return grid, FlowState(0.0, u0, speed), closed_form, omega


# --------------------------------------------------------------- criterion 1

def test_criterion_01_identity_suite():
    t0 = time.time()
    results = run_identity_suite(seed=2024, trials=1000)
    elapsed = time.time() - t0
    worst = max(results.values())
    ok = worst <= IDENTITY_THRESHOLD and elapsed < 10.0
    report(1, ok, f"worst identity residual {worst:.2e} "
                  f"(<= {IDENTITY_THRESHOLD:g}), runtime {elapsed:.1f}s < 10s")
    assert worst <= IDENTITY_THRESHOLD, results
    assert elapsed < 10.0


# --------------------------------------------------------------- criterion 2

def _norm_bridge_fields(seed, trials):
    rng = np.random.default_rng(seed)
    for k in range(trials):
        if k % 2 == 0:
            n = int(rng.integers(4, 64))
            grid = Grid.make_periodic(float(rng.uniform(0.5, 8.0)), n)
            vals = rng.normal(size=(n, 3)) * 10 ** rng.uniform(-2, 4)
        else:
            grid = Grid.make_window(0.0, int(rng.integers(4, 64)),
                                    float(rng.uniform(0.02, 1.0)))
            vals = rng.normal(size=(grid.n_nodes, 3)) * 10 ** rng.uniform(-2, 4)
            vals[0] = vals[-1] = 0.0   # window integral has no exterior cells
        yield Field(grid, vals)


def test_criterion_02_interpolation_gap_identity():
    worst = 0.0
    for v in _norm_bridge_fields(99, 1000):
        dp = norm_h(dplus(v))
        if dp == 0.0:
            continue
        ratio = interp_gap(v) ** 2 / (v.grid.h ** 2 * dp ** 2)
        worst = max(worst, abs(ratio - 1.0 / 3.0) * 3.0)
    ok = worst <= 1e-10
    report("2a", ok, f"gap identity |ratio - 1/3| worst {worst:.2e} <= 1e-10 "
                     "(1000 trials)")
    assert ok


def test_criterion_02_norm_sandwich_as_stated():
    # stated constants: 1 and sqrt(4/3); the lift obeys
    # SANDWICH_LOWER = 1/sqrt(3) and SANDWICH_UPPER = 1, both sharp
    stated_upper = np.sqrt(4.0 / 3.0)
    stated_hi = 0.0
    sandwich = 0.0
    for v in _norm_bridge_fields(101, 1000):
        base = norm_h(v)
        if base == 0.0:
            continue
        val = l2_norm_linear(v)
        stated_hi = max(stated_hi, (val - stated_upper * base) / base)
        sandwich = max(sandwich, (SANDWICH_LOWER * base - val) / base,
                       (val - SANDWICH_UPPER * base) / base)
    # witnesses on the N = 4, h = 1 periodic grid
    grid = Grid.make_periodic(4.0, 4)
    e = np.array([1.0, 0.0, 0.0])
    alternating = Field(grid, np.outer([1.0, -1.0, 1.0, -1.0], e))
    constant = Field(grid, np.outer(np.ones(4), e))
    alt_val = l2_norm_linear(alternating)
    alt_ratio = alt_val / norm_h(alternating)
    const_ratio = l2_norm_linear(constant) / norm_h(constant)
    alt_err = max(abs(alt_val - stated_upper) / stated_upper,
                  abs(alt_ratio - SANDWICH_LOWER) / SANDWICH_LOWER)
    const_err = abs(const_ratio - SANDWICH_UPPER) / SANDWICH_UPPER
    ok = (stated_hi <= 1e-10 and sandwich <= 1e-10
          and alt_err <= 1e-14 and const_err <= 1e-14)
    report("2b", ok, f"stated upper sqrt(4/3) worst violation {stated_hi:.2e}, "
                     f"sandwich [1/sqrt(3), 1] worst violation {sandwich:.2e} "
                     f"(1000 trials); N=4 alternating ||Pv|| = {alt_val:.15f}, "
                     f"ratio {alt_ratio:.15f}; constant ratio {const_ratio:.15f}")
    assert ok, (
        "Cellwise (h/3)(a^2 + a.b + b^2) lies between (h/6)(a^2+b^2) and "
        "(h/2)(a^2+b^2), so ||P v||_L2/|v|_h lies in [1/sqrt(3), 1]: the "
        "alternating mode attains 1/sqrt(3) (its norm value at N=4, h=1 is "
        "sqrt(4/3), which refutes the stated lower constant 1) and constants "
        "attain 1 (so the stated upper constant sqrt(4/3) is not sharp). "
        f"Got: stated-upper violation {stated_hi:.2e}, sandwich violation "
        f"{sandwich:.2e}, alternating ||P v|| {alt_val!r} ratio {alt_ratio!r}, "
        f"constant ratio {const_ratio!r}.")


def test_criterion_02_norm_sandwich_sharp_constants():
    worst = 0.0
    for v in _norm_bridge_fields(101, 1000):
        base = norm_h(v)
        if base == 0.0:
            continue
        val = l2_norm_linear(v)
        worst = max(worst, (SANDWICH_LOWER * base - val) / base,
                    (val - SANDWICH_UPPER * base) / base)
    ok = worst <= 1e-10
    report("2c", ok, f"sharp sandwich [1/sqrt(3), 1]: worst violation "
                     f"{worst:.2e} <= 1e-10 (1000 trials)")
    assert ok


# --------------------------------------------------------------- criterion 3

def test_criterion_03_exact_semidiscrete_helix():
    t0 = time.time()
    grid, state, closed_form, omega = helix_state(64, make_constant(1.0))
    res = evolve(state, 1.0, IntegratorSpec(method="projected_rk4", dt=1e-3,
                                            snapshot_stride=10 ** 9))
    err = float(np.max(np.abs(res.final().values - closed_form(1.0))))

    rk_errors = []
    dts = (0.004, 0.002, 0.001)
    for dt in dts:
        r = evolve(state, 0.4, IntegratorSpec(method="rk4", dt=dt,
                                              snapshot_stride=10 ** 9))
        rk_errors.append(float(np.max(np.abs(r.final().values - closed_form(0.4)))))
    orders = [math.log2(rk_errors[i] / rk_errors[i + 1]) for i in range(2)]
    elapsed = time.time() - t0
    ok = err <= 1e-6 and all(3.7 <= o <= 4.3 for o in orders) and elapsed < 5.0
    report(3, ok, f"projected_rk4 L_inf error {err:.2e} <= 1e-6; rk4 temporal "
                  f"orders {[round(o, 2) for o in orders]} in [3.7, 4.3]; "
                  f"runtime {elapsed:.1f}s < 5s")
    assert err <= 1e-6
    assert all(3.7 <= o <= 4.3 for o in orders), orders
    assert elapsed < 5.0


# --------------------------------------------------------------- criterion 4

def test_criterion_04_great_circle_equilibrium():
    grid = Grid.make_periodic(TWO_PI, 64)
    u0 = oracle_great_circle(grid)
    res = evolve(FlowState(0.0, u0, make_constant(1.0)), 1.0,
                 IntegratorSpec(method="projected_rk4", cfl=0.25, snapshot_stride=100))
    drift_linf = float(np.max(np.abs(res.final().values - u0.values)))
    norm_drift = unit_drift(res.final())
    ok = drift_linf <= 1e-10 and norm_drift <= 1e-12
    report(4, ok, f"equilibrium L_inf drift {drift_linf:.2e} <= 1e-10, "
                  f"unit-norm drift {norm_drift:.2e} <= 1e-12 over T=1")
    assert drift_linf <= 1e-10
    assert norm_drift <= 1e-12


# --------------------------------------------------------------- criterion 5

def test_criterion_05_energy_conservation_space_only():
    # dt from the cfl policy at its default c = 0.25 (= h^2/4 when beta = 1);
    # the literal h^2/4 with beta = 3 sits past the explicit stability edge
    # (lambda dt = 3), where every explicit scheme saturates
    speed = speed_from_name("sin:2,1,1")
    grid, state, _, _ = helix_state(128, speed)
    res = evolve(state, 1.0, IntegratorSpec(method="projected_rk4", cfl=0.25,
                                            snapshot_stride=200))
    energies = []
    for f, g in zip(res.fields, res.g_samples):
        dm = dminus(f)
        energies.append(grid.h * float(np.sum(
            g.values * np.einsum("ij,ij->i", dm.values, dm.values))))
    energies = np.array(energies)
    rel_drift = float(np.max(np.abs(energies - energies[0])) / energies[0])
    ok = rel_drift <= 1e-7
    report(5, ok, f"relative energy drift {rel_drift:.2e} <= 1e-7 "
                  f"(N=128, g = 2+sin x, T=1)")
    assert ok


# --------------------------------------------------------------- criterion 6

def test_criterion_06_a_priori_bound_margins():
    speed = speed_from_name("sintime:2,1,1,1")   # alpha 1, beta 3, beta1 1
    grid, state, _, _ = helix_state(64, speed)
    res = evolve(state, 1.0, IntegratorSpec(method="projected_rk4", cfl=0.25,
                                            snapshot_stride=20))
    recs = diagnose(res, speed)
    worst_grad = min(r.bound_margins["gradient_bound"] for r in recs)
    worst_dual = min(r.bound_margins["dual_bound"] for r in recs)
    ok = worst_grad >= -1e-8 and worst_dual >= -1e-8
    report(6, ok, f"gradient-bound margin >= {worst_grad:.2e}, dual-bound "
                  f"margin >= {worst_dual:.2e} (both >= -1e-8, "
                  f"{len(recs)} snapshots)")
    assert worst_grad >= -1e-8
    assert worst_dual >= -1e-8


# --------------------------------------------------------------- criterion 7

def test_criterion_07_reconstruction():
    # translating circle against the analytic rigid translation
    grid = Grid.make_periodic(TWO_PI, 64)
    u0 = oracle_great_circle(grid)
    T = 1.0
    res = evolve(FlowState(0.0, u0, make_constant(1.0)), T,
                 IntegratorSpec(method="projected_rk4", cfl=0.25, snapshot_stride=10))
    traj = TangentTrajectory.from_result(res)
    curves = reconstruct_curve(traj)
    analytic = curves.fields[0].values + np.array([0.0, 0.0, 1.0]) * T
    circle_err = float(np.max(np.abs(curves.final().values - analytic)))
    circle_bound = abs(1.0 - np.sin(grid.h) / grid.h) * T + 1e-8

    mismatch = max(tangent_mismatch(c, u) for c, u in zip(curves.fields, traj.fields))

    # anchor dispersion under dyadic refinement
    disps = []
    for n in (32, 64, 128):
        g_n = Grid.make_periodic(TWO_PI, n)
        u_n, _, _ = oracle_helix(g_n, np.pi / 4, 2)
        r_n = evolve(FlowState(0.0, u_n, make_constant(1.0)), 0.5,
                     IntegratorSpec(method="projected_rk4", dt=0.25 * g_n.h ** 2,
                                    snapshot_stride=2))
        disps.append(anchor_dispersion(TangentTrajectory.from_result(r_n),
                                       [0, n // 4]))
    disp_orders = [math.log2(disps[i] / disps[i + 1]) for i in range(2)]

    ok = (circle_err <= circle_bound and mismatch <= 1e-12
          and disps[0] > disps[1] > disps[2] and min(disp_orders) >= 1.0)
    report(7, ok, f"circle reconstruction error {circle_err:.3e} <= "
                  f"{circle_bound:.3e}; D+gamma = u to {mismatch:.1e}; "
                  f"dispersion orders {[round(o, 2) for o in disp_orders]} >= 1")
    assert circle_err <= circle_bound
    assert mismatch <= 1e-12
    assert disps[0] > disps[1] > disps[2]
    assert min(disp_orders) >= 1.0


# --------------------------------------------------------------- criterion 8

def test_criterion_08_spatial_convergence_orders():
    t0 = time.time()
    helix_base = ExperimentConfig(
        topology="periodic", length=TWO_PI, nodes=32,
        initial="helix:0.7853981633974483,2", speed="const:1",
        method="projected_rk4", cfl=0.25, horizon=1.0)
    study = convergence_study(helix_base, 4)
    helix_orders = [r["order"] for r in study["rows"] if r["order"] is not None]

    vg_base = ExperimentConfig(
        topology="periodic", length=TWO_PI, nodes=64,
        initial="helix:0.7853981633974483,2", speed="sin:2,1,1",
        method="projected_rk4", cfl=0.25, horizon=0.3)
    node_study = convergence_study(vg_base, 3)
    node_orders = [r["order"] for r in node_study["rows"] if r["order"] is not None]
    mid_study = convergence_study(replace(vg_base, offset="mid"), 3)
    mid_orders = [r["order"] for r in mid_study["rows"] if r["order"] is not None]
    elapsed = time.time() - t0

    ok = (all(1.7 <= o <= 2.3 for o in helix_orders)
          and all(0.8 <= o <= 1.3 for o in node_orders)
          and all(1.7 <= o <= 2.3 for o in mid_orders)
          and elapsed < 120.0)
    report(8, ok, f"helix-vs-continuum orders {[round(o, 2) for o in helix_orders]} "
                  f"in [1.7, 2.3]; variable-g node {[round(o, 2) for o in node_orders]} "
                  f"in [0.8, 1.3]; mid {[round(o, 2) for o in mid_orders]} in "
                  f"[1.7, 2.3]; runtime {elapsed:.0f}s < 120s")
    assert all(1.7 <= o <= 2.3 for o in helix_orders), helix_orders
    assert all(0.8 <= o <= 1.3 for o in node_orders), node_orders
    assert all(1.7 <= o <= 2.3 for o in mid_orders), mid_orders
    assert elapsed < 120.0


# --------------------------------------------------------------- criterion 9

def test_criterion_09_stability_ratios_consistent():
    cfg = ExperimentConfig(
        topology="periodic", length=TWO_PI, nodes=64,
        initial="helix:0.7853981633974483,2", speed="sin:2,1,1",
        method="projected_rk4", cfl=0.25, horizon=0.5)
    sweep = stability_sweep(cfg, [1e-2, 1e-3, 1e-4])
    ratios = [row["ratio"] for row in sweep["rows"]]
    ok = sweep["spread"] < 0.2
    report(9, ok, f"H1 amplification ratios {[round(r, 3) for r in ratios]}, "
                  f"spread {sweep['spread']:.2%} < 20%")
    assert ok, ratios


# -------------------------------------------------------------- criterion 10

def test_criterion_10_coupled_flow():
    grid = Grid.make_periodic(TWO_PI, 64)
    gamma0 = oracle_circle_curve(grid)
    speed = speed_from_name("coupled-tanh:1,0.5")
    direct = evolve(FlowState(0.0, gamma0, speed, mode="curve"), 0.5,
                    IntegratorSpec(method="rk4", cfl=0.25, snapshot_stride=20))
    chords = np.linalg.norm(dplus(direct.final()).values, axis=1)
    drift = float(np.max(np.abs(chords - 1.0)))

    twin = evolve(FlowState(0.0, gamma0, speed, mode="curve"), 0.5,
                  IntegratorSpec(method="projected_rk4", cfl=0.25, snapshot_stride=20))
    discrepancy = float(np.max(np.abs(dplus(direct.final()).values
                                      - dplus(twin.final()).values)))

    traj = TangentTrajectory.from_result(direct)
    curves = reconstruct_curve(traj)
    shift = direct.fields[0].values[0] - curves.fields[0].values[0]
    recon_err = max(float(np.max(np.abs(c.values + shift - d.values)))
                    for c, d in zip(curves.fields, direct.fields))

    # frozen regression bounds: measured 5.8e-14 and 1.7e-5
    ok = drift <= 1e-8 and discrepancy <= 1e-10 and recon_err <= 1e-4
    report(10, ok, f"|D+gamma| drift {drift:.2e} <= 1e-8; rk4-vs-projected_rk4 "
                   f"discrepancy {discrepancy:.2e} <= 1e-10 (frozen); "
                   f"reconstruction cross-check {recon_err:.2e} <= 1e-4 (frozen)")
    assert drift <= 1e-8
    assert discrepancy <= 1e-10
    assert recon_err <= 1e-4


# -------------------------------------------------------------- criterion 11

def test_criterion_11_soliton_transport():
    t0 = time.time()
    nu, tau0, T = 1.0, 0.5, 1.0
    grid = Grid.make_window(-20.0, 512, 40.0 / 512)
    _, u0 = oracle_soliton_curve(grid, nu, tau0)
    res = evolve(FlowState(0.0, u0, make_constant(1.0)), T,
                 IntegratorSpec(method="projected_rk4", cfl=0.25, snapshot_stride=100))
    traj = TangentTrajectory.from_result(res)
    curves = reconstruct_curve(traj)
    peaks = [peak_location(frenet(c).kappa) for c in (curves.fields[0],
                                                      curves.final())]
    speed_measured = (peaks[1] - peaks[0]) / T
    elapsed = time.time() - t0
    rel_err = abs(speed_measured - 2 * tau0) / (2 * tau0)
    ok = rel_err <= 0.10 and elapsed < 30.0
    report(11, ok, f"curvature peak speed {speed_measured:.4f} vs 2*tau0 = "
                   f"{2 * tau0}: {rel_err:.1%} error <= 10%; "
                   f"runtime {elapsed:.1f}s < 30s")
    assert rel_err <= 0.10
    assert elapsed < 30.0


def test_criterion_11_soliton_profile():
    # the whole tangent profile against Hasimoto's closed form, not only the
    # curvature peak; measured 5.6e-3 at 512 intervals and 1.4e-3 at 1024
    # (ratio 4.0: second order)
    cfg = ExperimentConfig(topology="window", x0=-20.0, intervals=512, h=40.0 / 512,
                           initial="soliton:1.0,0.5", speed="const:1",
                           method="projected_rk4", cfl=0.25, horizon=1.0)
    grid = Grid.make_window(cfg.x0, cfg.intervals, cfg.h)
    _, u0 = oracle_soliton_curve(grid, 1.0, 0.5)
    res = evolve(FlowState(0.0, u0, make_constant(1.0)), cfg.horizon,
                 IntegratorSpec(method="projected_rk4", cfl=0.25, snapshot_stride=10 ** 9))
    err = float(np.max(np.abs(res.final().values
                              - continuum_oracle(cfg, grid)(cfg.horizon))))
    ok = res.status == "ok" and err <= 8e-3
    report("11b", ok, f"soliton tangent sup error {err:.2e} <= 8e-3 against "
                      "the closed form at T = 1 (512 intervals)")
    assert res.status == "ok"
    assert err <= 8e-3
