import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bfl.config import build_grid, build_initial, build_integrator, build_speed, parse_config
from bfl.dynamics import FlowState, chord_lengths
from bfl.integrate import IntegratorSpec, evolve
from bfl.lattice import Field, Grid, dminus, unit_field
from bfl.probe import oracle_soliton_curve
from bfl.reconstruct import (
    CurveTrajectory,
    TangentTrajectory,
    anchor_dispersion,
    basepoint_drift,
    default_origin,
    gamma_integral,
    reconstruct_curve,
    tangent_mismatch,
)
from bfl.speed import make_constant, speed_from_name


def circle_field(grid, k=1):
    x = grid.nodes()
    return unit_field(grid, np.stack(
        [np.cos(k * x), np.sin(k * x), np.zeros_like(x)], axis=1))


def run_tangent(u0, speed, T, stride=1, cfl=0.25, dt=None):
    state = FlowState(0.0, u0, speed)
    spec = (IntegratorSpec(method="rotation", dt=dt, snapshot_stride=stride)
            if dt is not None else
            IntegratorSpec(method="rotation", cfl=cfl, snapshot_stride=stride))
    res = evolve(state, T, spec)
    assert res.status == "ok"
    return TangentTrajectory.from_result(res)


# ------------------------------------------------------------ gamma_integral

def test_gamma_integral_constant_tangent():
    grid = Grid.make_window(0.0, 10, 0.5)
    u = unit_field(grid, np.tile([1.0, 0.0, 0.0], (grid.n_nodes, 1)))
    gamma = gamma_integral(u)
    i0 = default_origin(grid)
    expected = (grid.nodes() - grid.nodes()[i0])[:, None] * np.array([[1.0, 0.0, 0.0]])
    assert np.allclose(gamma.values, expected, atol=1e-14)


def test_gamma_integral_closes_on_circle():
    grid = Grid.make_periodic(2 * np.pi, 24)
    u = circle_field(grid)
    gamma = gamma_integral(u)
    # sampled sin/cos over a full period sums to zero, so the wrap chord
    # also matches the tangent
    wrap = (gamma.values[0] - gamma.values[-1]) / grid.h
    assert np.allclose(wrap, u.values[-1], atol=1e-13)


def test_dplus_inverts_gamma_integral():
    rng = np.random.default_rng(8)
    for grid in (Grid.make_periodic(2 * np.pi, 32), Grid.make_window(-2.0, 20, 0.2)):
        v = rng.normal(size=(grid.n_nodes, 3))
        u = unit_field(grid, v / np.linalg.norm(v, axis=1)[:, None])
        gamma = gamma_integral(u)
        assert tangent_mismatch(gamma, u) <= 1e-13
        assert np.allclose(gamma.values[default_origin(grid)], 0.0)


def test_gamma_integral_and_mismatch_accept_scalar_fields():
    # a scalar field takes the (n,) path: the same bytes as a direct prefix
    # sum and as the first column of the vector field carrying it
    rng = np.random.default_rng(12)
    for grid in (Grid.make_periodic(2 * np.pi, 32), Grid.make_window(-2.0, 20, 0.2)):
        s = rng.normal(size=grid.n_nodes)
        u = Field(grid, s)
        padded = Field(grid, np.stack([s, np.zeros_like(s), np.zeros_like(s)], axis=1))
        for origin in (0, grid.n_nodes // 3, grid.n_nodes - 1):
            prefix = np.concatenate([[0.0], np.cumsum(grid.h * s)])
            direct = prefix[:-1] - prefix[origin]
            gamma = gamma_integral(u, origin=origin)
            assert gamma.values.tobytes() == direct.tobytes()
            assert (gamma.values.tobytes()
                    == gamma_integral(padded, origin=origin).values[:, 0].tobytes())
            chords = (direct[1:] - direct[:-1]) / grid.h
            assert tangent_mismatch(gamma, u) == np.max(np.abs(chords - s[:-1]))
            assert tangent_mismatch(gamma, u) <= 1e-13


# ------------------------------------------------------------ drift

def test_drift_zero_for_stationary_constant_tangent():
    grid = Grid.make_periodic(2 * np.pi, 16)
    u = unit_field(grid, np.tile([0.0, 0.0, 1.0], (grid.n_nodes, 1)))
    ones = Field(grid, np.ones(grid.n_nodes))
    traj = TangentTrajectory((0.0, 0.5, 1.0), (u, u, u), (ones, ones, ones))
    c = basepoint_drift(traj, anchor=5)
    assert np.allclose(c, 0.0, atol=1e-15)
    assert anchor_dispersion(traj, [0, 4, 9]) <= 1e-15


def test_drift_translating_circle_closed_form():
    # stationary tangent; u_a ^ D-u_a = (sin h / h) e3 at every node, so
    # c(t) = t (sin h / h) e3 with the trapezoid rule exact in time
    grid = Grid.make_periodic(2 * np.pi, 64)
    u = circle_field(grid)
    traj = run_tangent(u, make_constant(1.0), T=1.0, stride=10)
    c = basepoint_drift(traj)
    rate = np.sin(grid.h) / grid.h
    expected = np.outer(np.asarray(traj.times), [0.0, 0.0, rate])
    assert np.max(np.abs(c - expected)) <= 1e-12
    assert c[0] @ c[0] == 0.0


def test_drift_anchor_independent_on_circle():
    grid = Grid.make_periodic(2 * np.pi, 64)
    u = circle_field(grid)
    traj = run_tangent(u, make_constant(1.0), T=1.0, stride=10)
    n = grid.n_nodes
    assert anchor_dispersion(traj, [0, n // 4, n // 2]) <= 1e-12


def test_anchor_outside_grid_rejected():
    grid = Grid.make_periodic(2 * np.pi, 16)
    u = circle_field(grid)
    ones = Field(grid, np.ones(grid.n_nodes))
    traj = TangentTrajectory((0.0, 1.0), (u, u), (ones, ones))
    with pytest.raises(ValueError):
        basepoint_drift(traj, anchor=99)


# ------------------------------------------------------------ reconstruction

def test_reconstruct_constant_tangent_static_line():
    grid = Grid.make_window(0.0, 12, 0.25)
    u = unit_field(grid, np.tile([1.0, 0.0, 0.0], (grid.n_nodes, 1)))
    ones = Field(grid, np.ones(grid.n_nodes))
    traj = TangentTrajectory((0.0, 0.7), (u, u), (ones, ones))
    curves = reconstruct_curve(traj)
    assert np.allclose(curves.fields[0].values, curves.fields[1].values, atol=1e-15)


def test_reconstruct_translating_circle_rigid_motion():
    # the motion is rigid translation along e3 at the lattice rate sin(h)/h;
    # against the analytic unit rate the error is T |1 - sin(h)/h| plus
    # integrator/quadrature noise
    grid = Grid.make_periodic(2 * np.pi, 64)
    u = circle_field(grid)
    T = 1.0
    traj = run_tangent(u, make_constant(1.0), T=T, stride=10)
    curves = reconstruct_curve(traj)
    analytic = curves.fields[0].values + np.array([0.0, 0.0, 1.0]) * T
    err = np.max(np.abs(curves.final().values - analytic))
    assert err <= abs(1 - np.sin(grid.h) / grid.h) * T + 1e-8
    # and the reconstruction is exact arc length at every snapshot
    for f, uf in zip(curves.fields, traj.fields):
        assert tangent_mismatch(f, uf) <= 1e-12
        assert np.max(np.abs(chord_lengths(f) - 1.0)) <= 1e-12


def test_reconstruction_matches_direct_curve_run():
    # evolve the curve directly and via its tangent trajectory; both
    # computations of the same flow agree to quadrature accuracy
    grid = Grid.make_periodic(2 * np.pi, 48)
    x = grid.nodes()
    gamma0 = Field(grid, np.stack([np.cos(x), np.sin(x), np.zeros_like(x)], axis=1))
    speed = speed_from_name("coupled-tanh:1,0.5")
    state = FlowState(0.0, gamma0, speed, mode="curve")
    res = evolve(state, 0.5, IntegratorSpec(method="rk4", cfl=0.25, snapshot_stride=20))
    assert res.status == "ok"
    traj = TangentTrajectory.from_result(res)
    curves = reconstruct_curve(traj)
    shift = res.fields[0].values[0] - curves.fields[0].values[0]
    worst = max(np.max(np.abs(c.values + shift - d.values))
                for c, d in zip(curves.fields, res.fields))
    # measured 5.4e-5 for this configuration; frozen with headroom
    assert worst <= 2e-4


# ------------------------------------------------- blocked reconstruction pins

def reference_basepoint_drift(traj, anchor=None, origin=None):
    # per-snapshot drift that the blocked basepoint_drift replaced, kept as its
    # byte reference
    grid = traj.grid
    i0 = default_origin(grid) if origin is None else origin
    a = i0 if anchor is None else anchor
    times = np.asarray(traj.times)
    u0_vals = traj.fields[0].values
    vel = np.empty((len(times), 3))
    for k, (f, g) in enumerate(zip(traj.fields, traj.g_samples)):
        du = dminus(f)
        vel[k] = g.values[a] * np.cross(f.values[a], du.values[a])
    lo, hi = (i0, a) if i0 <= a else (a, i0)
    sign = 1.0 if i0 <= a else -1.0
    out = np.zeros((len(times), 3))
    temporal = np.zeros(3)
    for k in range(1, len(times)):
        spatial = sign * grid.h * np.sum(u0_vals[lo:hi] - traj.fields[k].values[lo:hi],
                                         axis=0)
        temporal = temporal + 0.5 * (times[k] - times[k - 1]) * (vel[k - 1] + vel[k])
        out[k] = spatial + temporal
    return out


def reference_reconstruct_curve(traj, anchor=None, origin=None):
    i0 = default_origin(traj.grid) if origin is None else origin
    drift = reference_basepoint_drift(traj, anchor=anchor, origin=origin)
    curves = []
    for k, f in enumerate(traj.fields):
        prefix = np.vstack([np.zeros((1, 3)), np.cumsum(traj.grid.h * f.values, axis=0)])
        curves.append(prefix[:-1] - prefix[i0] + drift[k])
    return curves


def pinned_trajectory(name):
    """37 snapshots: two full blocks of 16 and a partial one."""
    if name == "periodic":
        grid = Grid.make_periodic(2 * np.pi, 64)
        x = grid.nodes()
        u0 = unit_field(grid, np.stack([0.6 * np.cos(2 * x), 0.6 * np.sin(2 * x),
                                        np.full_like(x, 0.8)], axis=1))
        state = FlowState(0.0, u0, speed_from_name("sin:2,1,1"))
        res = evolve(state, 0.072, IntegratorSpec(method="rotation", dt=1e-3, snapshot_stride=2))
    elif name == "window":
        grid = Grid.make_window(-20.0, 256, 40.0 / 256)
        _, u0 = oracle_soliton_curve(grid, 1.0, 0.5)
        res = evolve(FlowState(0.0, u0, make_constant(1.0)), 0.18,
                     IntegratorSpec(method="rotation", dt=5e-3))
    else:
        # chords of a window curve: zero-extended tangents
        grid = Grid.make_window(-1.0, 23, 0.1)
        x = grid.nodes()
        gamma0 = Field(grid, np.stack([x, np.sin(x), np.cos(2 * x)], axis=1))
        state = FlowState(0.0, gamma0, speed_from_name("sin:2,1,1"), mode="curve")
        res = evolve(state, 0.036, IntegratorSpec(method="rk4", dt=1e-3))
    assert res.status == "ok" and len(res.times) == 37
    return TangentTrajectory.from_result(res)


@pytest.mark.parametrize("name, anchor, origin", [
    ("periodic", 5, 10),     # left of the origin
    ("periodic", 10, 10),    # at the origin
    ("periodic", 20, 10),    # right of the origin
    ("periodic", 0, None),   # D- reads the periodic wrap
    ("window", None, None),  # middle node
    ("window", 0, None),     # D- reads the constant-extension ghost
    ("window", 200, 40),
    ("chords", 0, None),     # D- reads the zero-extension ghost
])
def test_reconstruction_equals_per_snapshot_reference(name, anchor, origin):
    traj = pinned_trajectory(name)
    drift = basepoint_drift(traj, anchor=anchor, origin=origin)
    assert drift.tobytes() == reference_basepoint_drift(traj, anchor, origin).tobytes()
    curves = reconstruct_curve(traj, anchor=anchor, origin=origin)
    want = reference_reconstruct_curve(traj, anchor, origin)
    assert len(curves.fields) == len(want)
    for c, w in zip(curves.fields, want):
        assert c.values.tobytes() == w.tobytes()
    # curves built on access: a negative index, a slice and final()
    assert curves.fields[-1].values.tobytes() == want[-1].tobytes()
    assert curves.final().values.tobytes() == want[-1].tobytes()
    sliced = curves.fields[3:30:9]
    assert len(sliced) == len(want[3:30:9])
    for c, w in zip(sliced, want[3:30:9]):
        assert c.values.tobytes() == w.tobytes()


def test_anchor_dispersion_shrinks_under_refinement():
    # helix run with dt tied to h^2 and a fixed snapshot stride, so the
    # snapshot interval refines too: dispersion measures quadrature plus
    # integrator error and must drop with measured order >= 1 (about 4 here)
    alpha, k = np.pi / 4, 2
    disps = []
    for n in (32, 64, 128):
        grid = Grid.make_periodic(2 * np.pi, n)
        x = grid.nodes()
        s, c = np.sin(alpha), np.cos(alpha)
        u0 = unit_field(grid, np.stack(
            [s * np.cos(k * x), s * np.sin(k * x), np.full_like(x, c)], axis=1))
        traj = run_tangent(u0, make_constant(1.0), T=0.5,
                           dt=0.25 * grid.h ** 2, stride=2)
        disps.append(anchor_dispersion(traj, [0, n // 4]))
    orders = [np.log2(disps[i] / disps[i + 1]) for i in range(2)]
    assert disps[0] > disps[1] > disps[2]
    assert min(orders) >= 1.0


def test_anchor_dispersion_shrinks_with_snapshot_spacing_at_mid_offset():
    # the drift's anchor velocity pairs each midpoint sample with the same
    # difference as the flow, so only the trapezoid error is left to shrink
    # (measured 1.7e-2 -> 6.8e-4 from stride 50 to 10)
    cfg = parse_config("topology = periodic\nlength = 6.283185307179586\nnodes = 64\n"
                       "initial = helix:0.7853981633974483,2\nspeed = sin:2,1,1\n"
                       "offset = mid\nmethod = projected_rk4\ncfl = 0.25\nT = 2.0\n")
    grid = build_grid(cfg)
    state, _ = build_initial(cfg, grid, build_speed(cfg, grid))
    disps = []
    for stride in (50, 10):
        res = evolve(state, cfg.horizon, replace(build_integrator(cfg), snapshot_stride=stride))
        disps.append(anchor_dispersion(TangentTrajectory.from_result(res), [0, 16, 32]))
    assert disps[1] <= 2e-3
    assert disps[1] < disps[0] / 10


def test_reconstruction_holds_no_second_trajectory():
    # 520 snapshots of a precessing helix on 512 nodes: 6.4 MB of tangents;
    # building every curve up front would allocate as much again
    grid = Grid.make_periodic(2 * np.pi, 512)
    x = grid.nodes()
    ones = Field(grid, np.ones(grid.n_nodes))
    times = tuple(0.01 * k for k in range(520))
    fields = tuple(unit_field(grid, np.stack(
        [0.6 * np.cos(2 * x + t), 0.6 * np.sin(2 * x + t), np.full_like(x, 0.8)], axis=1))
        for t in times)
    traj = TangentTrajectory(times, fields, (ones,) * len(times))
    nbytes = sum(f.values.nbytes for f in fields)
    tracemalloc.start()
    try:
        curves = reconstruct_curve(traj, anchor=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * nbytes, f"peak {peak} B for {nbytes} B of tangents"
    assert len(curves.fields) == len(times)
    assert tangent_mismatch(curves.final(), fields[-1]) <= 1e-12


def test_curve_trajectory_container():
    grid = Grid.make_periodic(2 * np.pi, 16)
    u = circle_field(grid)
    gamma = gamma_integral(u)
    ct = CurveTrajectory((0.0, 1.0), (gamma, gamma))
    assert ct.final() is gamma


@pytest.mark.parametrize("times, count", [
    ((0.0, 1.0, 2.0), 1),   # fewer snapshots than times
    ((0.0, 1.0), 3),        # more snapshots than times
    ((1.0, 0.0), 2),        # decreasing
    ((0.0, 0.0), 2),        # repeated
    ((0.0,), 1),            # a single snapshot
])
def test_trajectories_refuse_misaligned_snapshots(times, count):
    # one rule for both containers: aligned lengths, strictly increasing times
    grid = Grid.make_periodic(2 * np.pi, 16)
    u = circle_field(grid)
    ones = Field(grid, np.ones(grid.n_nodes))
    with pytest.raises(ValueError, match="snapshot time"):
        CurveTrajectory(times, (gamma_integral(u),) * count)
    with pytest.raises(ValueError, match="snapshot time"):
        TangentTrajectory(times, (u,) * count, (ones,) * count)
