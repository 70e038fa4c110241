import hashlib
import math
import platform
import sys
import tracemalloc

import numpy as np
import pytest

import bfl.integrate
import bfl.probe
from bfl.config import ExperimentConfig, build_grid, build_initial, build_speed
from bfl.convergence import convergence_study, stability_sweep
from bfl.dynamics import CURVE, TANGENT, FlowState, chord_lengths, g_samples
from bfl.integrate import EvolveResult, IntegratorSpec, evolve
from bfl.lattice import (
    Field,
    Grid,
    RieszSolveError,
    cross,
    delta_g,
    dplus,
    magnitudes,
    norm_h,
    norm_h1,
    norm_h1_dual,
    unit_drift,
)
from bfl.probe import (
    DiagnosticsRecord,
    oracle_circle_curve,
    diagnose,
    dual_bound_margin,
    energy,
    energy_rate_residual,
    frenet,
    frenet_curve,
    gradient_bound_margin,
    hasimoto_soliton,
    oracle_great_circle,
    oracle_helix,
    oracle_soliton_curve,
    peak_location,
    perturbed_initial_data,
    smooth_bump,
    stability_probe,
)
from bfl.report import render_csv
from bfl.speed import make_constant, speed_from_name


# ------------------------------------------------------------- margins

def test_gradient_margin_at_time_zero():
    speed = speed_from_name("sin:2,1,1")  # alpha 1, beta 3
    grad0 = 0.7
    m = gradient_bound_margin(0.0, grad0, grad0, speed)
    assert m == pytest.approx((np.sqrt(3.0) - 1.0) * grad0)
    assert m >= 0.0


def test_dual_margin_full_bound_for_constant_field():
    grid = Grid.make_periodic(2 * np.pi, 32)
    speed = make_constant(1.0)
    # constant tangent: rhs = 0, margin equals the full bound
    m = dual_bound_margin(0.5, 0.3, 0.0, speed)
    assert m == pytest.approx(0.3)


def test_helix_margins_constant_under_rigid_precession():
    grid = Grid.make_periodic(2 * np.pi, 64)
    u0, _, _ = oracle_helix(grid, np.pi / 4, 2)
    res = evolve(FlowState(0.0, u0, make_constant(1.0)), 0.5,
                 IntegratorSpec(method="rotation", cfl=0.25, snapshot_stride=100))
    recs = diagnose(res, make_constant(1.0))
    margins = [r.bound_margins["gradient_bound"] for r in recs]
    grads = [r.grad_norm for r in recs]
    assert np.max(np.abs(np.diff(grads))) <= 1e-10  # |D+u|_h rigid
    assert min(margins) >= -1e-10
    assert max(np.abs(margins)) <= 1e-10  # beta = alpha: bound is tight


def test_margins_nonnegative_space_only_variable_speed():
    # beta1 = 0: the bound specializes to sqrt(beta/alpha) |D+u0|_h, which
    # exact energy conservation guarantees
    grid = Grid.make_periodic(2 * np.pi, 64)
    u0, _, _ = oracle_helix(grid, np.pi / 4, 2)
    speed = speed_from_name("sin:2,1,1")
    res = evolve(FlowState(0.0, u0, speed), 1.0,
                 IntegratorSpec(method="rotation", cfl=0.25, snapshot_stride=50))
    recs = diagnose(res, speed)
    assert min(r.bound_margins["gradient_bound"] for r in recs) >= -1e-10
    assert min(r.bound_margins["dual_bound"] for r in recs) >= -1e-10


def test_margins_positive_with_time_dependent_speed():
    grid = Grid.make_periodic(2 * np.pi, 64)
    u0, _, _ = oracle_helix(grid, np.pi / 4, 2)
    speed = speed_from_name("sintime:2,1,1,1")
    res = evolve(FlowState(0.0, u0, speed), 1.0,
                 IntegratorSpec(method="rotation", cfl=0.25, snapshot_stride=50))
    recs = diagnose(res, speed)
    for r in recs:
        assert r.bound_margins["gradient_bound"] >= -1e-8
        assert r.bound_margins["dual_bound"] >= -1e-8


@pytest.mark.parametrize("t0, t1", [(0.0, -1.0), (-2.0, -1.0), (2.0, 3.0)],
                         ids=["backward", "shifted-backward", "shifted-forward"])
def test_margins_read_the_time_after_the_first_snapshot(t0, t1):
    # the bounds grow with the time elapsed since u0; read at the absolute
    # time they go negative on a backward march and on one starting at -2
    # (least gradient margins -3.59 and -3.64) and gain e^3 of slack from 2
    grid = Grid.make_periodic(2 * np.pi, 64)
    u0, _, _ = oracle_helix(grid, np.pi / 4, 2)
    speed = speed_from_name("sintime:2,1,1,3")
    spec = IntegratorSpec(method="projected_rk4", cfl=0.25, snapshot_stride=50)
    forward = diagnose(evolve(FlowState(0.0, u0, speed), 1.0, spec), speed)
    recs = diagnose(evolve(FlowState(t0, u0, speed), t1, spec), speed)
    assert min(r.bound_margins["dual_bound"] for r in recs) >= 0.0
    least = min(r.bound_margins["gradient_bound"] for r in recs)
    assert least >= 0.0
    assert least == pytest.approx(min(r.bound_margins["gradient_bound"] for r in forward),
                                  rel=1e-6)


def test_diagnose_oracle_error_and_fields():
    grid = Grid.make_periodic(2 * np.pi, 64)
    u0, closed_form, _ = oracle_helix(grid, np.pi / 4, 2)
    res = evolve(FlowState(0.0, u0, make_constant(1.0)), 0.2,
                 IntegratorSpec(method="rotation", cfl=0.25, snapshot_stride=50))
    recs = diagnose(res, make_constant(1.0), oracle=closed_form)
    assert isinstance(recs[0], DiagnosticsRecord)
    assert recs[0].oracle_error == pytest.approx(0.0, abs=1e-14)
    assert recs[-1].oracle_error <= 1e-9
    for r in recs:
        assert r.unit_drift <= 1e-13
        assert r.rhs_dual_norm <= r.rhs_norm * (1 + 1e-12)


def test_diagnose_curve_mode_skips_margins():
    grid = Grid.make_periodic(2 * np.pi, 48)
    gamma0 = oracle_circle_curve(grid)
    speed = speed_from_name("coupled-tanh:1,0.5")
    res = evolve(FlowState(0.0, gamma0, speed, mode="curve"), 0.1,
                 IntegratorSpec(method="rk4", cfl=0.25, snapshot_stride=20))
    recs = diagnose(res, speed)
    assert recs[-1].bound_margins == {}
    assert recs[0].unit_drift <= 1e-13   # unit chords by construction
    assert recs[-1].unit_drift <= 1e-10


def test_diagnose_curve_drift_against_starting_chords():
    # sampled circle: chords 2 sin(h/2)/h = 0.99929, which projected_rk4 keeps
    grid = Grid.make_periodic(2 * np.pi, 48)
    x = grid.nodes()
    gamma0 = Field(grid, np.stack([np.cos(x), np.sin(x), np.zeros_like(x)], axis=1))
    speed = speed_from_name("coupled-tanh:1,0.5")
    res = evolve(FlowState(0.0, gamma0, speed, mode=CURVE), 0.5,
                 IntegratorSpec(method="projected_rk4", cfl=0.25, snapshot_stride=20))
    assert abs(chord_lengths(gamma0)[0] - 0.99929) < 1e-5
    assert len(res.times) > 2
    assert max(r.unit_drift for r in diagnose(res, speed)) <= 1e-13


# ------------------------------------------------ blocked diagnostics pins

def reference_diagnose_one(result, speed, t, f, g, grad0, margins, oracle):
    # Field-level diagnostics of one snapshot: the per-snapshot path that the
    # blocked diagnose() replaced, kept as its byte reference
    with np.errstate(over="raise", invalid="raise"):
        if result.mode == CURVE:
            u = dplus(f)
            drift_vals = magnitudes(u)
            if not f.grid.periodic:
                drift_vals = drift_vals[:-1]
            drift = float(np.max(np.abs(drift_vals - chord_lengths(result.fields[0]))))
        else:
            u = f
            drift = unit_drift(f)
        spin = spin_sum(result, f) - spin_sum(result, result.fields[0])
        delta = delta_g(g, u)
        du = cross(u, delta)
        grad = norm_h(dplus(u))
        rhs_dual = norm_h1_dual(du)
        margin_row = {}
        if margins and result.mode == TANGENT:
            base = grad if grad0 is None else grad0
            margin_row["gradient_bound"] = gradient_bound_margin(t, base, grad, speed)
            margin_row["dual_bound"] = dual_bound_margin(t, base, rhs_dual, speed)
        err = None
        if oracle is not None:
            err = float(np.max(np.abs(f.values - oracle(t))))
        return DiagnosticsRecord(
            t=t, unit_drift=drift, energy=energy(u, g), grad_norm=grad,
            rhs_norm=norm_h(du), rhs_dual_norm=rhs_dual, delta_norm=norm_h(delta),
            spin_drift=math.sqrt(float(np.sum(spin * spin))) / f.grid.cells,
            bound_margins=margin_row, oracle_error=err)


def spin_sum(result, f):
    # S / h componentwise: the node sum of a tangent, the chord sum of a curve
    u = dplus(f).values[:f.grid.cells] if result.mode == CURVE else f.values
    return np.array([np.sum(u[:, c]) for c in range(3)])


def reference_diagnose(result, speed, margins=True, oracle=None):
    records = []
    grad0 = None
    for t, f, g in zip(result.times, result.fields, result.g_samples):
        try:
            record = reference_diagnose_one(result, speed, t, f, g, grad0, margins, oracle)
        except (ValueError, FloatingPointError):
            break
        if grad0 is None:
            grad0 = record.grad_norm
        records.append(record)
    return records


def diagnose_case(name):
    """A 37-snapshot run (two full blocks of 16 and a partial one), its speed and oracle."""
    if name == "helix":
        grid = Grid.make_periodic(2 * np.pi, 64)
        u0, closed_form, _ = oracle_helix(grid, np.pi / 4, 2)
        speed = speed_from_name("sin:2,1,1")
        state, horizon = FlowState(0.0, u0, speed), 0.072
        spec = IntegratorSpec(method="rotation", dt=1e-3, snapshot_stride=2)
        oracle = closed_form
    elif name == "soliton":
        grid = Grid.make_window(-20.0, 256, 40.0 / 256)
        _, u0 = oracle_soliton_curve(grid, 1.0, 0.5)
        speed = make_constant(1.0)
        state, horizon = FlowState(0.0, u0, speed), 0.18
        spec = IntegratorSpec(method="rotation", dt=5e-3)
        oracle = None
    elif name == "window-curve":
        # the coupled soliton: a window's ghost chord is dropped from the drift
        grid = Grid.make_window(-20.0, 256, 40.0 / 256)
        gamma0, _ = oracle_soliton_curve(grid, 1.0, 0.5)
        speed = speed_from_name("coupled-tanh:1,0.5")
        state = FlowState(0.0, gamma0, speed, mode=CURVE)
        spec, horizon = IntegratorSpec(method="rk4", dt=5e-3), 0.18
        oracle = None
    else:
        grid = Grid.make_periodic(2 * np.pi, 48)
        speed = speed_from_name("coupled-tanh:1,0.5")
        state = FlowState(0.0, oracle_circle_curve(grid), speed, mode=CURVE)
        spec, horizon = IntegratorSpec(method="rk4", dt=2e-3), 0.072
        oracle = None
    res = evolve(state, horizon, spec)
    assert res.status == "ok" and len(res.times) == 37
    return res, speed, oracle


@pytest.mark.parametrize("name", ["helix", "soliton", "curve", "window-curve"])
def test_diagnose_equals_field_level_reference(name):
    res, speed, oracle = diagnose_case(name)
    got = diagnose(res, speed, oracle=oracle)
    want = reference_diagnose(res, speed, oracle=oracle)
    assert len(got) == len(want) == 37
    for g, w in zip(got, want):
        for key in ("t", "unit_drift", "energy", "grad_norm", "rhs_norm",
                    "rhs_dual_norm", "delta_norm", "spin_drift", "bound_margins",
                    "oracle_error"):
            assert getattr(g, key) == getattr(w, key), key
    assert render_csv(got) == render_csv(want)  # signed zeros and reprs too
    # every call writes its blocks into work arrays of its own
    again = diagnose(res, speed, oracle=oracle)
    assert again == got
    assert render_csv(again) == render_csv(want)


@pytest.mark.parametrize("j", [0, 16, 20])
def test_diagnose_stops_rows_at_a_non_finite_oracle_error(j):
    res, speed, closed_form = diagnose_case("helix")
    bad = res.times[j]

    def oracle(t):
        return np.full((64, 3), np.nan) if t == bad else closed_form(t)

    got = diagnose(res, speed, oracle=oracle)
    assert len(got) == j
    assert got == diagnose(res, speed, oracle=closed_form)[:j]


def test_diagnose_spin_drift_of_an_rk4_helix_stays_at_rounding():
    # rk4 keeps the lattice flow's linear invariant S = h sum_i u_i
    grid = Grid.make_periodic(2 * np.pi, 64)
    u0, _, _ = oracle_helix(grid, np.pi / 4, 2)
    speed = speed_from_name("sin:2,1,1")
    res = evolve(FlowState(0.0, u0, speed), 1.0,
                 IntegratorSpec(method="rk4", cfl=0.25, snapshot_stride=50))
    recs = diagnose(res, speed)
    assert len(recs) == len(res.times) > 10
    assert recs[0].spin_drift == 0.0
    assert max(r.spin_drift for r in recs) <= 1e-13


def soliton_trajectory():
    """The run benchmark's 513-node window soliton, 201 snapshots: 13 blocks."""
    grid = Grid.make_window(-20.0, 512, 0.078125)
    _, u0 = oracle_soliton_curve(grid, 1.0, 0.5)
    speed = make_constant(1.0)
    res = evolve(FlowState(0.0, u0, speed), 0.3, IntegratorSpec(method="rk4", dt=1.5e-3))
    assert res.status == "ok" and len(res.times) == 201
    return res, speed


def test_diagnose_memory_stays_within_one_block_workspace():
    res, speed = soliton_trajectory()
    tracemalloc.start()
    try:
        records = diagnose(res, speed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 201
    # the work array holds 1.7 MiB; blocks that each allocated their own
    # arrays peaked at 1.91 MiB on this run and 2.17 MiB on 657 snapshots
    assert peak <= 2.25 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="page-fault counts depend on glibc's allocator")
def test_diagnose_takes_few_page_faults_when_warm():
    # blocks that each allocate and free their own arrays fault those pages
    # in again: about 7,300 minor faults per call on this trajectory
    import resource

    res, speed = soliton_trajectory()
    diagnose(res, speed)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    diagnose(res, speed)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000, f"{faults} minor page faults"


@pytest.mark.parametrize("k", [0, 16, 20])
def test_diagnose_stops_before_overflowing_snapshot(k):
    res, speed, _ = diagnose_case("curve")
    fields = list(res.fields)
    fields[k] = Field(fields[k].grid, 1e200 * fields[k].values)
    broken = EvolveResult(res.mode, list(res.times), fields, list(res.g_samples))
    got = diagnose(broken, speed)
    assert len(got) == k
    assert got == reference_diagnose(broken, speed)


@pytest.mark.parametrize("k", [0, 16, 20])
def test_diagnose_stops_before_non_positive_coefficient(k):
    res, speed, _ = diagnose_case("helix")
    g = list(res.g_samples)
    vals = g[k].values.copy()
    vals[7] = 0.0
    g[k] = Field(g[k].grid, vals)
    broken = EvolveResult(res.mode, list(res.times), list(res.fields), g)
    got = diagnose(broken, speed)
    assert len(got) == k
    assert got == reference_diagnose(broken, speed)


def test_diagnose_checks_each_riesz_residual_against_its_own_scale(monkeypatch):
    grid = Grid.make_periodic(2 * np.pi, 32)
    speed = make_constant(1.0)
    helix, _, _ = oracle_helix(grid, np.pi / 4, 4)   # |du| about 8: scale 8
    circle = oracle_great_circle(grid)              # equilibrium: du = 0, scale 1
    g = g_samples(FlowState(0.0, helix, speed))
    solve = bfl.probe._riesz_matrix_solve
    # a constant offset of 3e-10 in w leaves a residual of 3e-10 in every snapshot
    monkeypatch.setattr(bfl.probe, "_riesz_matrix_solve",
                        lambda *args: solve(*args) + 3e-10)
    alone = EvolveResult(TANGENT, [0.0], [helix], [g])
    assert len(diagnose(alone, speed)) == 1        # 3e-10 <= 1e-10 * 8
    both = EvolveResult(TANGENT, [0.0, 0.1], [helix, circle], [g, g])
    with pytest.raises(RieszSolveError):
        diagnose(both, speed)                      # 3e-10 > 1e-10 * 1


def test_diagnose_stops_rows_before_checking_residuals(monkeypatch):
    # one mask decides where rows stop; only the kept residuals are checked
    grid = Grid.make_periodic(2 * np.pi, 32)
    speed = make_constant(1.0)
    helix, _, _ = oracle_helix(grid, np.pi / 4, 4)   # |du| about 8: scale 8
    circle = oracle_great_circle(grid)              # equilibrium: du = 0, scale 1
    g = g_samples(FlowState(0.0, helix, speed))
    vals = g.values.copy()
    vals[7] = 0.0
    g_zero = Field(grid, vals)
    solve = bfl.probe._riesz_matrix_solve
    monkeypatch.setattr(bfl.probe, "_riesz_matrix_solve",
                        lambda *args: solve(*args) + 3e-10)
    times = [0.0, 0.1, 0.2]
    # the circle's residual is past its bound only after the zero sample
    after = EvolveResult(TANGENT, times, [helix, helix, circle], [g, g_zero, g])
    assert len(diagnose(after, speed)) == 1
    # and before it
    before = EvolveResult(TANGENT, times, [helix, circle, helix], [g, g, g_zero])
    with pytest.raises(RieszSolveError):
        diagnose(before, speed)


def test_riesz_residual_bound_admits_the_rounding_floor(monkeypatch):
    # a correct solve leaves a residual near eps (1 + 4/h^2) max|v|, which
    # passes 1e-10 max|v| below h = 0.006; at h = 0.001 this window field
    # left 5.4e-10 and the helix's du/dt 7.2e-10, and both used to raise
    window = Grid.make_window(-2.0, 4000, 0.001)
    x = window.nodes()
    v = Field(window, np.stack([np.sin(2 * x), np.cos(3 * x), np.exp(-x ** 2)], axis=1))
    assert norm_h1_dual(v) > 0.0
    grid = Grid.make_periodic(2 * np.pi, 6283)     # h = 2 pi / 6283, about 0.001
    helix, _, _ = oracle_helix(grid, np.pi / 4, 2)  # |du| = 2
    speed = make_constant(1.0)
    g = g_samples(FlowState(0.0, helix, speed))
    result = EvolveResult(TANGENT, [0.0], [helix], [g])
    (row,) = diagnose(result, speed)
    assert row.rhs_dual_norm == norm_h1_dual(cross(helix, delta_g(g, helix)))
    # the floor is 4 eps (1 + 4/h^2) 2 = 7.1e-9: a wrong solve still raises
    solve = bfl.probe._riesz_matrix_solve
    monkeypatch.setattr(bfl.probe, "_riesz_matrix_solve",
                        lambda *args: solve(*args) + 1e-8)
    with pytest.raises(RieszSolveError):
        diagnose(result, speed)


# ------------------------------------------------------------- energy law

@pytest.mark.parametrize("offset", ["node", "mid"])
def test_energy_rate_matches_time_derivative_of_g(offset):
    # dg/dt is read where the samples sit; measured 1.1e-3 -> 2.8e-4 at both offsets
    grid = Grid.make_periodic(2 * np.pi, 64)
    u0, _, _ = oracle_helix(grid, np.pi / 4, 2)
    speed = build_speed(ExperimentConfig(speed="sintime:2,1,1,1", offset=offset), grid)
    spec10 = IntegratorSpec(method="rotation", cfl=0.25, snapshot_stride=10)
    spec5 = IntegratorSpec(method="rotation", cfl=0.25, snapshot_stride=5)
    r10 = energy_rate_residual(evolve(FlowState(0.0, u0, speed), 0.3, spec10), speed)
    r5 = energy_rate_residual(evolve(FlowState(0.0, u0, speed), 0.3, spec5), speed)
    assert r5 <= 1e-3          # measured 2.8e-4
    assert r5 < r10            # second-order in the snapshot spacing


def test_energy_rate_coupled_transport_term():
    grid = Grid.make_periodic(2 * np.pi, 48)
    x = grid.nodes()
    gamma0 = Field(grid, np.stack([np.cos(x), np.sin(x), np.zeros_like(x)], axis=1))
    speed = speed_from_name("coupled-tanh:1,0.5")
    res = evolve(FlowState(0.0, gamma0, speed, mode="curve"), 0.5,
                 IntegratorSpec(method="rk4", cfl=0.25, snapshot_stride=5))
    assert energy_rate_residual(res, speed) <= 3e-3  # measured 6.6e-4


def test_energy_rate_refuses_too_few_snapshots():
    # a three-point derivative has no interior snapshot among two: the
    # residual would read 0.0 without checking anything
    grid = Grid.make_periodic(2 * np.pi, 64)
    u0, _, _ = oracle_helix(grid, np.pi / 4, 2)
    speed = speed_from_name("sintime:2,1,1,3")
    res = evolve(FlowState(0.0, u0, speed), 0.3,
                 IntegratorSpec(method="rotation", cfl=0.25, snapshot_stride=10 ** 9))
    assert len(res.times) == 2
    with pytest.raises(ValueError, match="3 snapshots"):
        energy_rate_residual(res, speed)


# ------------------------------------------------------------- frenet

def test_frenet_straight_line():
    grid = Grid.make_window(0.0, 16, 0.25)
    gamma = Field(grid, np.outer(grid.nodes(), [1.0, 0.0, 0.0]))
    data = frenet(gamma)
    assert np.all(data.kappa.values == 0.0)
    assert not np.any(data.tau_defined)


def test_frenet_unit_circle_curvature():
    grid = Grid.make_periodic(2 * np.pi, 64)
    x = grid.nodes()
    gamma = Field(grid, np.stack([np.cos(x), np.sin(x), np.zeros_like(x)], axis=1))
    data = frenet(gamma)
    expected = (2 - 2 * np.cos(grid.h)) / grid.h ** 2
    assert expected == pytest.approx(0.99920, abs=5e-5)
    assert np.allclose(data.kappa.values, expected, atol=1e-12)
    # planar: torsion vanishes where defined
    assert np.max(np.abs(data.tau.values[data.tau_defined])) <= 1e-10


def test_frenet_warns_off_arc_length():
    grid = Grid.make_periodic(2 * np.pi, 32)
    x = grid.nodes()
    gamma = Field(grid, 2.0 * np.stack([np.cos(x), np.sin(x), np.zeros_like(x)], axis=1))
    with pytest.warns(UserWarning):
        frenet(gamma)


def test_peak_location_parabolic():
    grid = Grid.make_window(0.0, 20, 0.1)
    x = grid.nodes()
    vals = 5.0 - (x - 1.03) ** 2
    assert peak_location(Field(grid, vals)) == pytest.approx(1.03, abs=1e-12)


@pytest.mark.parametrize("x0", [0.0, -4.0])
def test_peak_location_wraps_across_the_periodic_seam(x0):
    # a peak between the last node and node 0 lands inside [x0, x0 + L)
    # from either side of the seam: the parabola through nodes 7, 0, 1
    # peaks 0.35/0.9 left of node 0, the one through 6, 7, 0 as far right
    # of node 7
    grid = Grid(h=1.0, x0=x0, n_nodes=8, periodic=True, length=8.0)
    left = Field(grid, np.array([1.0, 0.2, 0, 0, 0, 0, 0.1, 0.9]))
    right = Field(grid, np.array([0.9, 0.1, 0, 0, 0, 0, 0.2, 1.0]))
    for f, expected in ((left, x0 + 8.0 - 0.35 / 0.9), (right, x0 + 7.0 + 0.35 / 0.9)):
        x = peak_location(f)
        assert x0 <= x < x0 + 8.0
        assert x == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------- oracles

def test_helix_degenerates_to_great_circle():
    grid = Grid.make_periodic(2 * np.pi, 32)
    u0, closed_form, omega = oracle_helix(grid, np.pi / 2, 1)
    assert abs(omega) <= 1e-13
    assert np.allclose(u0.values, oracle_great_circle(grid).values, atol=1e-15)
    assert np.max(np.abs(closed_form(3.0) - u0.values)) <= 1e-12


def test_helix_rate_formula_value():
    grid = Grid.make_periodic(2 * np.pi, 64)
    _, _, omega = oracle_helix(grid, np.pi / 4, 2)
    expected = (np.sqrt(2) / 2) * (2 - 2 * np.cos(2 * grid.h)) / grid.h ** 2
    assert omega == pytest.approx(expected, rel=1e-15)


def test_helix_rejects_incompatible_wavenumber():
    grid = Grid.make_periodic(3.0, 32)
    with pytest.raises(ValueError):
        oracle_helix(grid, np.pi / 4, 1)


def test_frenet_curve_reproduces_circle():
    # constant curvature 1, zero torsion: a unit circle arc
    grid = Grid.make_window(0.0, 64, np.pi / 64)
    gamma, u = frenet_curve(grid, lambda x: 1.0 + 0 * x, lambda x: 0.0 * x)
    data = frenet(gamma)
    inner = data.stencil_valid
    # unit chords turning by h per node: discrete curvature 2 sin(h/2) / h
    assert np.allclose(data.kappa.values[inner],
                       2 * np.sin(grid.h / 2) / grid.h, atol=1e-6)


def test_soliton_curve_peak_and_torsion():
    grid = Grid.make_window(-20.0, 512, 40.0 / 512)
    gamma, u = oracle_soliton_curve(grid, nu=1.0, tau0=0.5)
    assert np.max(np.abs(np.linalg.norm(np.diff(gamma.values, axis=0), axis=1)
                         / grid.h - 1.0)) <= 1e-8
    data = frenet(gamma)
    peak = np.max(data.kappa.values)
    assert peak == pytest.approx(2.0, rel=2e-3)
    assert abs(peak_location(data.kappa)) <= grid.h
    core = data.tau_defined & (data.kappa.values > 0.5)
    assert np.mean(data.tau.values[core]) == pytest.approx(0.5, abs=0.02)


def test_soliton_closed_form_matches_frenet_march():
    # criterion 11's grid: the closed form agrees with the Frenet march it
    # replaced to the march's own error
    grid = Grid.make_window(-20.0, 512, 0.078125)
    gamma, u = oracle_soliton_curve(grid, nu=1.0, tau0=0.5)
    gamma_m, u_m = frenet_curve(grid, lambda x: 2.0 / np.cosh(x), lambda x: 0.5)
    assert np.max(np.abs(u.values - u_m.values)) <= 2e-9
    assert np.max(np.abs(gamma.values - gamma_m.values)) <= 5e-8


def test_hasimoto_soliton_off_unit_nu():
    # nu = 0.7, tau0 = 0.3: every nu and tau0 in the closed form is read
    nu, tau0 = 0.7, 0.3
    closed_form, _ = hasimoto_soliton(nu, tau0, -30.0)
    s, t = np.linspace(-10.0, 10.0, 201), 0.4
    kappa = 2 * nu / np.cosh(nu * (s - 2 * tau0 * t))
    gamma, gamma_s, normal = closed_form(s, t)
    defects = []
    for d in (1e-2, 5e-3):
        g_t = (closed_form(s, t + d)[0] - closed_form(s, t - d)[0]) / (2 * d)
        g_s = (closed_form(s + d, t)[0] - closed_form(s - d, t)[0]) / (2 * d)
        g_ss = (closed_form(s + d, t)[0] - 2 * gamma + closed_form(s - d, t)[0]) / d ** 2
        gs_s = (closed_form(s + d, t)[1] - closed_form(s - d, t)[1]) / (2 * d)
        defects.append([np.max(np.abs(g_t - np.cross(g_s, g_ss))),     # measured 4.7e-5
                        np.max(np.abs(g_t - np.cross(gamma_s, kappa[:, None] * normal))),
                        np.max(np.abs(g_s - gamma_s)),
                        np.max(np.abs(gs_s - kappa[:, None] * normal))])
    assert max(defects[0]) <= 1e-4
    # O(delta^2): each defect falls by 4 per halving of delta
    assert np.allclose(np.divide(*defects), 4.0, atol=0.2), defects
    # frenet of the sampled curve on [-30, 30] at 256, 512 and 1024 cells:
    # kappa against 2 nu sech(nu x) (measured 9.9e-3, 2.5e-3, 6.2e-4) and tau
    # against tau0 where kappa passes half its peak, first order since
    # D+D-D+ is off centre (4.2e-2, 2.1e-2, 1.1e-2)
    kappa_err, tau_err = [], []
    for cells in (256, 512, 1024):
        grid = Grid.make_window(-30.0, cells, 60.0 / cells)
        data = frenet(oracle_soliton_curve(grid, nu, tau0)[0])
        x, valid = grid.nodes(), data.stencil_valid
        kappa_err.append(np.max(np.abs(data.kappa.values[valid]
                                       - 2 * nu / np.cosh(nu * x[valid]))))
        core = data.tau_defined & (data.kappa.values > nu)
        tau_err.append(np.max(np.abs(data.tau.values[core] - tau0)))
    assert kappa_err[0] <= 1.2e-2 and tau_err[0] <= 6e-2
    assert np.allclose(np.divide(kappa_err[:-1], kappa_err[1:]), 4.0, atol=0.2), kappa_err
    assert np.allclose(np.divide(tau_err[:-1], tau_err[1:]), 2.0, atol=0.2), tau_err


def test_soliton_window_too_narrow():
    grid = Grid.make_window(-5.0, 64, 10.0 / 64)
    with pytest.raises(ValueError):
        oracle_soliton_curve(grid, nu=1.0, tau0=0.5)


def test_soliton_wide_window_stays_finite():
    # sech(nu * 400) underflows to 0: the start frame must not depend on it
    grid = Grid.make_window(-400.0, 1600, 0.5)
    gamma, u = oracle_soliton_curve(grid, nu=2.0, tau0=0.5)
    assert np.all(np.isfinite(gamma.values))
    assert np.array_equal(u.values[0], [1.0, 0.0, 0.0])


def test_soliton_window_must_contain_center():
    # [25, 65] is wide, but the soliton sits at x = 0 outside it
    grid = Grid.make_window(25.0, 128, 40.0 / 128)
    with pytest.raises(ValueError, match="misses"):
        oracle_soliton_curve(grid, nu=1.0, tau0=0.5)


def test_window_soliton_spatial_orders():
    # chords against the closed-form tangent at the cell midpoints
    cfg = ExperimentConfig(topology="window", x0=-20.0, intervals=128, h=0.3125,
                           initial="soliton:1,0.5", speed="const:1",
                           method="rotation", cfl=0.25, horizon=0.25)
    study = convergence_study(cfg, 3)
    assert study["reference"] == "continuum closed form"
    orders = [r["order"] for r in study["rows"][1:]]
    assert all(1.8 <= o <= 2.2 for o in orders), orders


# ------------------------------------------------------------- stability

def test_perturbation_is_tangent_and_small():
    grid = Grid.make_periodic(2 * np.pi, 64)
    u0, _, _ = oracle_helix(grid, np.pi / 4, 2)
    eps = 1e-3
    u_tilde = perturbed_initial_data(u0, eps)
    diff = u_tilde.values - u0.values
    assert np.max(np.linalg.norm(diff, axis=1)) <= 2 * eps
    assert norm_h(u_tilde - u0) > 0
    bump = smooth_bump(grid)
    assert bump.max() == pytest.approx(1.0, abs=1e-6)
    assert np.min(bump) == 0.0  # compact support


def test_perturbation_scale_guard():
    grid = Grid.make_periodic(2 * np.pi, 16)
    u0 = oracle_great_circle(grid)
    with pytest.raises(ValueError):
        perturbed_initial_data(u0, 0.0)
    with pytest.raises(ValueError):
        perturbed_initial_data(u0, 0.5)


def test_stability_ratio_near_equilibrium_bounded():
    grid = Grid.make_periodic(2 * np.pi, 64)
    u0 = oracle_great_circle(grid)
    spec = IntegratorSpec(method="rotation", cfl=0.25, snapshot_stride=10 ** 6)
    ratio, = stability_probe(u0, [1e-3], make_constant(1.0), 0.5, spec)
    # measured 0.902; frozen empirical growth bound for this configuration
    assert ratio <= 1.1


@pytest.mark.parametrize("method", ["rk4", "projected_rk4", "rotation"])
def test_stability_sweep_matches_per_eps_probes(method):
    # the sweep marches its base run and every scale as one batch; every
    # ratio must equal one built from the base and the perturbed run each
    # marched alone
    cfg = ExperimentConfig(
        topology="periodic", length=2 * np.pi, nodes=32,
        initial="helix:0.7853981633974483,2", speed="sin:2,1,1",
        method=method, cfl=0.25, horizon=0.1)
    eps_list = [1e-2, 1e-3, 1e-4]
    sweep = stability_sweep(cfg, eps_list)
    grid = build_grid(cfg)
    speed = build_speed(cfg, grid)
    u0 = build_initial(cfg, grid, speed)[0].field
    spec = IntegratorSpec(method=method, cfl=0.25)

    def lone_final(start):
        result = evolve(FlowState(0.0, start, speed), cfg.horizon, spec)
        assert result.status == "ok" and not result.batch[-1]
        return result.final()

    base = lone_final(u0)
    expected = []
    for eps in eps_list:
        u0_tilde = perturbed_initial_data(u0, eps)
        expected.append(norm_h1(base - lone_final(u0_tilde)) / norm_h1(u0 - u0_tilde))
    assert [row["ratio"] for row in sweep["rows"]] == expected


def test_stability_probe_stops_after_a_diverging_base_run(monkeypatch):
    # rk4 at cfl = 4 overflows before T = 1; no perturbed run can give a ratio
    cfg = ExperimentConfig(
        topology="periodic", length=2 * np.pi, nodes=64,
        initial="helix:0.7853981633974483,2", speed="const:1",
        method="rk4", cfl=4.0, horizon=1.0)
    grid = build_grid(cfg)
    speed = build_speed(cfg, grid)
    state, _ = build_initial(cfg, grid, speed)
    calls = []

    def counted(*args):
        calls.append(args)
        return evolve(*args)

    monkeypatch.setattr(bfl.probe, "evolve", counted)
    with pytest.raises(RuntimeError, match="diverged"), \
            pytest.warns(RuntimeWarning, match=r"2 sqrt\(2\)"):
        stability_probe(state.field, [1e-2, 1e-3], speed, cfg.horizon,
                        IntegratorSpec(method="rk4", cfl=4.0))
    assert len(calls) == 1


def test_studies_call_evolve_as_the_benchmark_reads_it(monkeypatch):
    # the benchmark rebinds evolve in every bfl module that binds it. Its
    # wrappers take (state, horizon, spec) positionally, digest the state's
    # field values, time, mode and speed name, and count n_nodes x steps_taken
    # node-steps per call; a batched march counts as one call
    real = bfl.integrate.evolve
    digests, counts = [], []

    def counted(state, horizon, spec, /):
        h = hashlib.blake2b(state.field.values.tobytes(), digest_size=16)
        h.update(repr((state.t, state.mode, state.speed.name, horizon, spec)).encode())
        digests.append(h.hexdigest())
        result = real(state, horizon, spec)
        counts.append(result.grid.n_nodes * result.steps_taken)
        return result

    sweep_cfg = ExperimentConfig(
        topology="periodic", length=2 * np.pi, nodes=32,
        initial="helix:0.7853981633974483,2", speed="sin:2,1,1",
        method="rk4", cfl=0.25, horizon=0.1)
    study_cfg = ExperimentConfig(
        topology="periodic", length=2 * np.pi, nodes=16,
        initial="helix:0.7853981633974483,2", speed="const:1",
        method="rotation", cfl=0.25, horizon=0.05)
    eps_list = [1e-2, 1e-3, 1e-4]
    sweep, study = stability_sweep(sweep_cfg, eps_list), convergence_study(study_cfg, 3)
    grid = build_grid(sweep_cfg)
    speed = build_speed(sweep_cfg, grid)
    steps = real(build_initial(sweep_cfg, grid, speed)[0], 0.1,
                 IntegratorSpec(method="rk4", cfl=0.25)).steps_taken

    bindings = [(mod, attr) for name, mod in list(sys.modules.items())
                if name == "bfl" or name.startswith("bfl.")
                for attr, value in vars(mod).items() if value is real]
    assert {mod.__name__ for mod, _ in bindings} >= {"bfl.integrate", "bfl.probe",
                                                     "bfl.convergence"}
    for mod, attr in bindings:
        monkeypatch.setattr(mod, attr, counted)
    assert stability_sweep(sweep_cfg, eps_list) == sweep
    # the base run and every perturbed run in one batched march
    assert counts == [32 * steps] and len(digests) == 1
    digests.clear()
    counts.clear()
    assert convergence_study(study_cfg, 3) == study
    assert len(counts) == len(set(digests)) == 3
    assert 0 < counts[0] < counts[1] < counts[2]


def test_energy_helper_matches_definition():
    grid = Grid.make_periodic(2 * np.pi, 32)
    u0 = oracle_great_circle(grid)
    ones = Field(grid, np.ones(grid.n_nodes))
    from bfl.lattice import dminus
    dm = dminus(u0)
    manual = grid.h * float(np.sum(np.einsum("ij,ij->i", dm.values, dm.values)))
    assert energy(u0, ones) == pytest.approx(manual, rel=1e-14)
