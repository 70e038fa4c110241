import math
import warnings

import numpy as np
import pytest

from bfl.config import ExperimentConfig, build_grid, build_initial, build_integrator, build_speed
from bfl.dynamics import FlowState, chord_lengths, g_samples, rhs
from bfl.integrate import DivergenceError, IntegratorSpec, evolve, rotate, step
from bfl.lattice import (
    AlignmentError,
    CoefficientBoundError,
    Field,
    Grid,
    delta_g,
    dminus,
    dplus,
    magnitudes,
    norm_linf,
    normalized,
    unit_drift,
    unit_field,
)
from bfl.probe import diagnose, oracle_circle_curve, oracle_helix, oracle_soliton_curve
from bfl.speed import SpeedField, make_constant, speed_from_name


def helix_setup(n=64, alpha=np.pi / 4, k=2, l=2 * np.pi):
    grid = Grid.make_periodic(l, n)
    x = grid.nodes()
    s, c = np.sin(alpha), np.cos(alpha)
    u0 = unit_field(grid, np.stack(
        [s * np.cos(k * x), s * np.sin(k * x), np.full_like(x, c)], axis=1))
    omega = c * (2 - 2 * np.cos(k * grid.h)) / grid.h ** 2

    def closed_form(t):
        ph = k * x - omega * t
        return np.stack([s * np.cos(ph), s * np.sin(ph), np.full_like(x, c)], axis=1)

    return grid, u0, omega, closed_form


def window_curve():
    grid = Grid.make_window(-1.0, 23, 0.1)
    x = grid.nodes()
    return Field(grid, np.stack([x, np.sin(x), np.cos(2 * x)], axis=1))


def circle_state(n=32):
    grid = Grid.make_periodic(2 * np.pi, n)
    x = grid.nodes()
    u0 = unit_field(grid, np.stack(
        [np.cos(x), np.sin(x), np.zeros_like(x)], axis=1))
    return FlowState(0.0, u0, make_constant(1.0))


# ------------------------------------------------------------------ spec

def test_spec_validation():
    with pytest.raises(ValueError):
        IntegratorSpec(method="euler", dt=0.1)
    with pytest.raises(ValueError):
        IntegratorSpec(dt=0.1, cfl=0.5)
    with pytest.raises(ValueError):
        IntegratorSpec()
    with pytest.raises(ValueError):
        IntegratorSpec(dt=0.1, snapshot_stride=0)
    # an infinite step would cross any horizon in one step and report ok
    for dt in (math.inf, math.nan, 0.0, -0.1):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            IntegratorSpec(dt=dt)


def test_cfl_step_resolution():
    grid, u0, _, _ = helix_setup()
    state = FlowState(0.0, u0, speed_from_name("sin:2,1,1"))
    spec = IntegratorSpec(cfl=0.25)
    assert spec.resolve_dt(state) == pytest.approx(0.25 * grid.h ** 2 / 3.0)


# ------------------------------------------------------------------ kernels

def test_rotate_is_isometry():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(100, 3))
    w = rng.normal(size=(100, 3)) * 10 ** rng.uniform(-8, 1, size=(100, 1))
    out = rotate(v, w)
    assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(v, axis=1),
                       rtol=1e-13)
    back = rotate(out, -w)
    assert np.allclose(back, v, atol=1e-12)


def test_zero_rhs_state_unchanged_except_time():
    grid = Grid.make_window(0.0, 16, 0.25)
    u0 = unit_field(grid, np.tile([0.0, 1.0, 0.0], (grid.n_nodes, 1)))
    state = FlowState(0.0, u0, make_constant(1.0))
    for method in ("rotation", "rk4", "projected_rk4"):
        new = step(state, IntegratorSpec(method=method, dt=0.01), 0.01)
        assert new.t == pytest.approx(0.01)
        assert np.allclose(new.field.values, u0.values, atol=1e-15)


def test_rotation_one_step_norm_preservation():
    rng = np.random.default_rng(4)
    grid = Grid.make_periodic(2 * np.pi, 48)
    v = rng.normal(size=(48, 3))
    u0 = unit_field(grid, v / np.linalg.norm(v, axis=1)[:, None])
    state = FlowState(0.0, u0, speed_from_name("sin:2,1,1"))
    new = step(state, IntegratorSpec(method="rotation", dt=1e-3), 1e-3)
    assert unit_drift(new.field) <= 1e-14


def test_rk4_local_error_order_five_against_rotation_oracle():
    # one RK4 step vs the closed-form semi-discrete helix: slope ~ 5
    grid, u0, omega, closed_form = helix_setup()
    state = FlowState(0.0, u0, make_constant(1.0))
    errs = []
    dts = [0.02, 0.01]
    for dt in dts:
        new = step(state, IntegratorSpec(method="rk4", dt=dt), dt)
        errs.append(np.max(np.abs(new.field.values - closed_form(dt))))
    slope = np.log2(errs[0] / errs[1])
    assert 4.6 <= slope <= 5.4


def test_projected_rk4_unit_norms_exact():
    grid, u0, _, _ = helix_setup()
    state = FlowState(0.0, u0, make_constant(1.0))
    new = step(state, IntegratorSpec(method="projected_rk4", dt=5e-3), 5e-3)
    assert unit_drift(new.field) <= 2e-16 * 10


# Field-level references: each stage rebuilt as a state and evaluated with
# dynamics.rhs or delta_g, in the float-operation order of the kernels

def reference_rk4_step(state, dt):
    def deriv(t, vals):
        return rhs(state.advanced(t, state.field.with_values(vals))).values

    y, t = state.field.values, state.t
    k1 = deriv(t, y)
    k2 = deriv(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = deriv(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = deriv(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def reference_projected_curve_step(state, dt):
    # the rk4 step, each chord rescaled to its length in the starting state,
    # a closed curve's chords shifted by their mean (taken along the node
    # axis of a (3, n) copy), the curve rebuilt from its base node
    moved = state.field.with_values(reference_rk4_step(state, dt))
    lengths = chord_lengths(state.field)
    chords = dplus(moved)
    chords = chords.values[:len(lengths)] * (lengths / magnitudes(chords)[:len(lengths)])[:, None]
    if state.grid.periodic:
        chords = (chords - np.ascontiguousarray(chords.T).mean(axis=1))[:-1]
    base = moved.values[:1]
    return np.vstack([base, base + np.cumsum(state.grid.h * chords, axis=0)])


def reference_rotate(vectors, rotvecs):
    # the (n, 3) Rodrigues body the row kernel replaced: einsum for |w|^2,
    # np.where for the small-angle factors, np.cross for the products
    theta2 = np.einsum("ij,ij->i", rotvecs, rotvecs)
    theta = np.sqrt(theta2)
    small = theta < 1e-4
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - theta2 / 6.0, np.sin(theta) / np.where(theta == 0, 1.0, theta))
        b = np.where(small, 0.5 - theta2 / 24.0,
                     (1.0 - np.cos(theta)) / np.where(theta2 == 0, 1.0, theta2))
    first = np.cross(rotvecs, vectors)
    second = np.cross(rotvecs, first)
    return vectors + a[:, None] * first + b[:, None] * second


def reference_rotation_step(state, dt):
    def omega(t, vals):
        stage = state.advanced(t, state.field.with_values(vals))
        return -delta_g(g_samples(stage), stage.field).values

    u, t = state.field.values, state.t
    w1 = omega(t, u)
    stage2 = reference_rotate(u, 0.5 * dt * w1)
    w2 = omega(t + 0.5 * dt, stage2)
    w3 = omega(t + 0.5 * dt, reference_rotate(u, 0.5 * dt * w2))
    stage4 = reference_rotate(stage2, dt * w3 - 0.5 * dt * w1)
    w4 = omega(t + dt, stage4)
    half_a = (dt / 12.0) * (3.0 * w1 + 2.0 * w2 + 2.0 * w3 - w4)
    half_b = (dt / 12.0) * (-w1 + 2.0 * w2 + 2.0 * w3 + 3.0 * w4)
    return reference_rotate(reference_rotate(u, half_a), half_b)


@pytest.mark.parametrize("speed_name", ["sin:2,1,1", "sintime:2,1,1,3", "const:1"])
# g sampled at the nodes, or at the cell midpoints x_i - h/2 (offset = mid)
@pytest.mark.parametrize("samples", ["node", "cell"])
@pytest.mark.parametrize("periodic", [True, False])
def test_step_equals_field_level_reference(periodic, samples, speed_name):
    grid = Grid.make_periodic(2 * np.pi, 24) if periodic else Grid.make_window(-1.0, 23, 0.1)
    rng = np.random.default_rng(7)
    v = rng.normal(size=(grid.n_nodes, 3))
    u0 = unit_field(grid, v / np.linalg.norm(v, axis=1)[:, None])
    speed = speed_from_name(speed_name)
    if samples == "cell":
        speed = speed.with_offset(-grid.h / 2)
    state = FlowState(0.3, u0, speed)
    for dt in (2e-4, -2e-4):  # forward and reversed flow
        rk = step(state, IntegratorSpec(method="rk4", dt=abs(dt)), dt)
        rk_ref = reference_rk4_step(state, dt)
        assert np.array_equal(rk.field.values, rk_ref)
        # projected_rk4: the rk4 step, then each node renormalized
        proj = step(state, IntegratorSpec(method="projected_rk4", dt=abs(dt)), dt)
        unit_ref = rk_ref / magnitudes(state.field.with_values(rk_ref))[:, None]
        assert np.array_equal(proj.field.values, unit_ref)
        rot = step(state, IntegratorSpec(method="rotation", dt=abs(dt)), dt)
        assert np.array_equal(rot.field.values, reference_rotation_step(state, dt))
        assert rk.t == proj.t == rot.t == 0.3 + dt


def test_rotate_bytes_independent_of_layout():
    rng = np.random.default_rng(12)
    v = rng.normal(size=(400, 3))
    # angles from 1e-9 to 10 cover both branches of the sinc-style factors
    w = rng.normal(size=(400, 3)) * 10 ** rng.uniform(-9, 1, size=(400, 1))
    w[0] = 0.0
    out = rotate(v, w)
    assert out.flags["C_CONTIGUOUS"]
    assert out.tobytes() == reference_rotate(v, w).tobytes()
    for vv, ww in [(np.asfortranarray(v), np.asfortranarray(w)),
                   (v, np.asfortranarray(w)), (np.asfortranarray(v), w)]:
        assert rotate(vv, ww).tobytes() == out.tobytes()


@pytest.mark.parametrize("periodic", [True, False])
def test_curve_rk4_step_equals_field_level_reference(periodic):
    if periodic:
        gamma0 = oracle_circle_curve(Grid.make_periodic(2 * np.pi, 24))
    else:
        gamma0 = window_curve()
    for name in ("coupled-tanh:1,0.5", "sin:2,1,1", "sintime:2,1,1,3"):
        state = FlowState(0.0, gamma0, speed_from_name(name), mode="curve")
        for method, reference in (("rk4", reference_rk4_step),
                                  ("projected_rk4", reference_projected_curve_step)):
            new = step(state, IntegratorSpec(method=method, dt=1e-3), 1e-3)
            assert np.array_equal(new.field.values, reference(state, 1e-3)), (name, method)


def test_temporal_orders():
    # dt halving against an rk4 run at dt/16; the tangent form on a helix,
    # the curve form on a circle and on an open window curve, all with a
    # space-varying coefficient
    horizon = 0.05

    def orders(state, method, factor=0.5):
        dt0 = factor * state.grid.h ** 2 / state.speed.beta

        def final(m, dt):
            res = evolve(state, horizon, IntegratorSpec(method=m, dt=dt,
                                                        snapshot_stride=10 ** 9))
            assert res.status == "ok"
            return res.final().values

        ref = final("rk4", dt0 / 16)
        errs = [np.max(np.abs(final(method, dt0 / 2 ** j) - ref)) for j in range(3)]
        return [math.log2(errs[j] / errs[j + 1]) for j in range(2)]

    speed = speed_from_name("sin:2,1,1")
    _, u0, _, _ = helix_setup(n=32)
    helix = FlowState(0.0, u0, speed)
    for method in ("rotation", "rk4", "projected_rk4"):
        assert all(3.7 <= o <= 4.3 for o in orders(helix, method)), method
    circle = FlowState(0.0, oracle_circle_curve(Grid.make_periodic(2 * np.pi, 16)),
                       speed, mode="curve")
    # measured 3.98/3.97 for projected_rk4
    for method in ("rk4", "projected_rk4"):
        assert all(3.7 <= o <= 4.3 for o in orders(circle, method)), method
    # chords of length 1.43-2.35, which projected_rk4 keeps: measured
    # 4.02/3.99 (coupled-tanh) and 4.12/3.98 (sin)
    for name in ("coupled-tanh:1,0.5", "sin:2,1,1"):
        window = FlowState(0.0, window_curve(), speed_from_name(name), mode="curve")
        assert all(3.7 <= o <= 4.3 for o in orders(window, "projected_rk4", 0.125)), name
    # the soliton's chords are unit length: measured 4.01/3.93
    soliton, _ = oracle_soliton_curve(Grid.make_window(-20.0, 128, 0.3125), 1.0, 0.5)
    window = FlowState(0.0, soliton, speed, mode="curve")
    assert all(3.7 <= o <= 4.3 for o in orders(window, "projected_rk4"))


# ------------------------------------------------------------------ evolve

def test_evolve_helix_rk4_matches_closed_form():
    grid, u0, omega, closed_form = helix_setup()
    state = FlowState(0.0, u0, make_constant(1.0))
    res = evolve(state, 1.0, IntegratorSpec(method="rk4", dt=1e-3, snapshot_stride=250))
    assert res.status == "ok"
    assert np.max(np.abs(res.final().values - closed_form(1.0))) <= 1e-6


def test_evolve_great_circle_rotation_exact_equilibrium():
    state = circle_state()
    res = evolve(state, 1.0, IntegratorSpec(method="rotation", dt=1e-2, snapshot_stride=50))
    assert norm_linf(res.final() - state.field) <= 1e-10


def test_evolve_lands_exactly_on_horizon():
    state = circle_state(n=16)
    res = evolve(state, 0.05, IntegratorSpec(method="rotation", dt=0.004, snapshot_stride=3))
    assert res.times[-1] == pytest.approx(0.05, abs=1e-15)
    assert res.steps_taken == 13  # 12 full steps + a shortened one


@pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan])
def test_evolve_rejects_non_finite_horizon(horizon):
    # the landing tolerance scales with |horizon|: inf or nan would end the
    # march after 0 steps with status ok
    state = circle_state(n=16)
    with pytest.raises(ValueError, match="horizon must be finite"):
        evolve(state, horizon, IntegratorSpec(cfl=0.25))


def test_evolve_rejects_horizon_at_the_initial_time():
    state = circle_state(n=16)
    with pytest.raises(ValueError, match="coincides"):
        evolve(state, state.t, IntegratorSpec(cfl=0.25))


def test_evolve_refuses_zero_coefficient_inside_the_bound_slack():
    # alpha = 1e-12 lies inside the 1e-9 bound slack, so only the positivity
    # test in the sampler refuses g = 0
    grid, u0, _, _ = helix_setup(n=16)
    fixed = SpeedField(lambda t, x, gamma: np.where(x == 0.0, 0.0, 1.0),
                       alpha=1e-12, beta=1.0)
    with pytest.raises(CoefficientBoundError, match="at node 0"):
        evolve(FlowState(0.0, u0, fixed), 0.01, IntegratorSpec(method="rotation", cfl=0.25))
    vanishing = SpeedField(lambda t, x, gamma: np.full_like(x, float(t < 0.004)),
                           alpha=1e-12, beta=1.0, beta1=math.inf)
    for method in ("rotation", "rk4", "projected_rk4"):
        res = evolve(FlowState(0.0, u0, vanishing), 0.01, IntegratorSpec(method=method, cfl=0.25))
        assert res.status == "diverged" and res.steps_taken == 1


def test_step_raises_divergence_error():
    # a g that vanishes from t = 0.004 on is refused by the sampler, and step
    # reports that as a divergence at the step's start time
    _, u0, _, _ = helix_setup(n=16)
    vanishing = SpeedField(lambda t, x, gamma: np.full_like(x, float(t < 0.004)),
                           alpha=1e-12, beta=1.0, beta1=math.inf)
    for method in ("rotation", "rk4", "projected_rk4"):
        with pytest.raises(DivergenceError) as info:
            step(FlowState(0.004, u0, vanishing), IntegratorSpec(method=method, cfl=0.25), 1e-3)
        assert info.value.t == 0.004
        assert isinstance(info.value.__cause__, CoefficientBoundError)
    # an overflowing rk4 update is non-finite with no exception behind it
    with pytest.raises(DivergenceError) as info:
        step(FlowState(0.0, u0, make_constant(1.0)), IntegratorSpec(method="rk4", dt=1e200),
             1e200)
    assert info.value.t == 0.0 and info.value.__cause__ is None


def test_sintime_without_frequency_is_sampled_once():
    # sintime:2,1,1,0 declares beta1 = 0: like sin:2,1,1 it is not time
    # dependent, so one g Field serves every snapshot
    _, u0, _, _ = helix_setup(n=32)
    spec = IntegratorSpec(method="rotation", dt=1e-3, snapshot_stride=1)
    still = evolve(FlowState(0.0, u0, speed_from_name("sintime:2,1,1,0")), 0.019, spec)
    space = evolve(FlowState(0.0, u0, speed_from_name("sin:2,1,1")), 0.019, spec)
    assert len(still.g_samples) == 20
    assert len({id(g) for g in still.g_samples}) == 1
    assert np.array_equal(still.g_samples[0].values, space.g_samples[0].values)
    assert still.times == space.times
    assert all(np.array_equal(a.values, b.values) for a, b in zip(still.fields, space.fields))


def test_snapshot_stride_and_g_samples_recorded():
    grid, u0, _, _ = helix_setup(n=32)
    state = FlowState(0.0, u0, speed_from_name("sintime:2,1,1,1"))
    res = evolve(state, 0.02, IntegratorSpec(method="rotation", dt=1e-3, snapshot_stride=5))
    assert len(res.times) == len(res.fields) == len(res.g_samples)
    assert res.times[0] == 0.0
    assert res.times[1] == pytest.approx(5e-3)
    expected = 2.0 + np.sin(grid.nodes()) * np.cos(res.times[1])
    assert np.allclose(res.g_samples[1].values, expected)
    # every stored sample is exactly a fresh sample at its snapshot time,
    # whether g is sampled once (constant, space-only) or at every snapshot
    for state in (FlowState(0.0, u0, make_constant(1.5)),
                  FlowState(0.0, u0, speed_from_name("sin:2,1,1")),
                  FlowState(0.0, u0, speed_from_name("sintime:2,1,1,1")),
                  FlowState(0.0, oracle_circle_curve(grid), speed_from_name("coupled-tanh:1,0.5"),
                            mode="curve")):
        res = evolve(state, 0.02, IntegratorSpec(method="rk4", dt=1e-3, snapshot_stride=5))
        assert len(res.g_samples) == len(res.times) == 5
        for t, f, g in zip(res.times, res.fields, res.g_samples):
            assert np.array_equal(g.values, g_samples(state.advanced(t, f)).values)


def random_tangents(grid, seed):
    v = np.random.default_rng(seed).normal(size=(grid.n_nodes, 3))
    return unit_field(grid, v / np.linalg.norm(v, axis=1)[:, None])


@pytest.mark.parametrize("stride", [1, 10 ** 9])
@pytest.mark.parametrize("speed_name", ["const:1", "sin:2,1,1 mid", "sintime:2,1,1,3"])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("method", ["rk4", "projected_rk4", "rotation"])
def test_batched_evolve_equals_each_members_own_evolve(method, periodic, speed_name, stride):
    grid = Grid.make_periodic(2 * np.pi, 24) if periodic else Grid.make_window(-1.0, 23, 0.1)
    name, _, offset = speed_name.partition(" ")
    speed = speed_from_name(name)
    if offset == "mid":
        speed = speed.with_offset(-grid.h / 2)
    members = [random_tangents(grid, seed) for seed in (1, 2, 3)]
    spec = IntegratorSpec(method=method, cfl=0.25, snapshot_stride=stride)
    horizon = 0.3 + 7.5 * spec.resolve_dt(FlowState(0.3, members[0], speed))  # 8 steps
    batched = evolve(FlowState(0.3, members[0], speed, batch=members[1:]), horizon, spec)
    assert batched.status == "ok" and batched.steps_taken == 8
    assert len(batched.batch) == len(batched.times) == (9 if stride == 1 else 2)
    for b, member in enumerate(members):
        alone = evolve(FlowState(0.3, member, speed), horizon, spec)
        assert alone.times == batched.times and alone.steps_taken == batched.steps_taken
        fields = [snap[b - 1] for snap in batched.batch] if b else batched.fields
        assert [f.values.tobytes() for f in fields] == [f.values.tobytes() for f in alone.fields]
        assert all(a.values.tobytes() == g.values.tobytes()
                   for a, g in zip(alone.g_samples, batched.g_samples))
        assert alone.batch == [()] * len(alone.times)


def test_batch_stops_at_its_first_diverging_member():
    # a constant field has Delta_g u = 0 and never moves; the helix blows up
    # at cfl = 4, and the batch stops at the step where it does
    grid, helix, _, _ = helix_setup()
    still = unit_field(grid, np.tile([0.0, 0.0, 1.0], (grid.n_nodes, 1)))
    speed = make_constant(1.0)
    spec = IntegratorSpec(method="rk4", cfl=4.0, snapshot_stride=3)
    with pytest.warns(RuntimeWarning, match="2 sqrt"):
        alone = evolve(FlowState(0.0, helix, speed), 1.0, spec)
        assert evolve(FlowState(0.0, still, speed), 1.0, spec).status == "ok"
        batched = evolve(FlowState(0.0, still, speed, batch=[helix]), 1.0, spec)
    assert alone.status == batched.status == "diverged"
    assert batched.steps_taken == alone.steps_taken > 1
    assert [snap[0].values.tobytes() for snap in batched.batch] == [
        f.values.tobytes() for f in alone.fields]


def test_batch_members_must_share_the_grid_and_the_tangent_form():
    grid, u0, _, _ = helix_setup(n=32)
    _, other, _, _ = helix_setup(n=33)
    speed = make_constant(1.0)
    with pytest.raises(AlignmentError):
        FlowState(0.0, u0, speed, batch=[u0, other])
    with pytest.raises(AlignmentError):
        FlowState(0.0, u0, speed, batch=[Field(grid, u0.values, "zero")])
    curve = oracle_circle_curve(grid)
    with pytest.raises(ValueError, match="one member at a time"):
        FlowState(0.0, curve, speed_from_name("coupled-tanh:1,0.5"), mode="curve",
                  batch=[curve])


@pytest.mark.parametrize("method", ["rk4", "projected_rk4", "rotation"])
def test_step_advances_every_batch_member(method):
    grid, u0, _, _ = helix_setup(n=32)
    speed = speed_from_name("sin:2,1,1")
    members = [u0, random_tangents(grid, 5), random_tangents(grid, 6)]
    spec = IntegratorSpec(method=method, dt=1e-3)
    new = step(FlowState(0.0, members[0], speed, batch=members[1:]), spec, 1e-3)
    assert len(new.batch) == 2
    for got, member in zip((new.field, *new.batch), members):
        alone = step(FlowState(0.0, member, speed), spec, 1e-3)
        assert got.values.tobytes() == alone.field.values.tobytes()


@pytest.mark.parametrize("method", ["rk4", "projected_rk4", "rotation"])
def test_rk4_warns_past_the_imaginary_axis_bound(method):
    # cfl 0.72 puts dt 4 beta / h^2 at 2.88, past 2 sqrt(2) = 2.828; cfl 0.70 at 2.80
    _, u0, _, _ = helix_setup(n=32)
    state = FlowState(0.0, u0, speed_from_name("sin:2,1,1"))
    unit = state.grid.h ** 2 / state.speed.beta
    for spec in (IntegratorSpec(method=method, cfl=0.72), IntegratorSpec(method=method, dt=0.72 * unit)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evolve(state, 0.01, spec)
        if method == "rotation":  # its limit is not measured, so it never warns
            assert not caught
        else:
            assert [str(w.message) for w in caught if w.category is RuntimeWarning] == [
                "dt 4 beta / h^2 = 2.88 exceeds 2.828 = 2 sqrt(2), "
                "the imaginary-axis stability bound of classical rk4"]
    for spec in (IntegratorSpec(method=method, cfl=0.70), IntegratorSpec(method=method, dt=0.70 * unit)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evolve(state, 0.01, spec)


def test_time_reversal_smoke():
    grid, u0, omega, closed_form = helix_setup()
    state = FlowState(0.0, u0, make_constant(1.0))
    spec = IntegratorSpec(method="rotation", dt=1e-3, snapshot_stride=10 ** 6)
    fwd = evolve(state, 0.5, spec)
    one_way = max(np.max(np.abs(fwd.final().values - closed_form(0.5))), 1e-13)
    back = evolve(FlowState(0.5, fwd.final(), state.speed), 0.0, spec)
    assert back.times[-1] == pytest.approx(0.0, abs=1e-14)
    assert np.max(np.abs(back.final().values - u0.values)) <= 10 * one_way


@pytest.mark.parametrize("name", ["const:1", "sin:2,1,1", "sintime:2,1,1,1"])
@pytest.mark.parametrize("method", ["rk4", "projected_rk4", "rotation"])
def test_time_reversal_is_exact(method, name):
    # the rate is even in u and g is even in t, so Phi_T(-u0) = -Phi_{-T}(u0);
    # every step flips signs exactly, so the two finals agree byte for byte
    grid, u0, _, _ = helix_setup()
    speed, spec = speed_from_name(name), IntegratorSpec(method=method, cfl=0.25)
    fwd = evolve(FlowState(0.0, Field(grid, -u0.values), speed), 0.5, spec)
    back = evolve(FlowState(0.0, u0, speed), -0.5, spec)
    assert fwd.status == back.status == "ok"
    assert fwd.times[-1] == -back.times[-1] == 0.5
    assert np.array_equal(fwd.final().values, -back.final().values)


@pytest.mark.parametrize("method", ["rk4", "projected_rk4", "rotation"])
def test_scalings_of_the_lattice_flow_are_exact(method):
    # h -> 2h with g(t, x) -> g(t/4, x/2) and t -> 4t, or g -> 2g with t -> t/2,
    # multiplies every h, h^2, dt, x and t by a power of 2: the marches agree
    # byte for byte, and a curve gamma -> 2 gamma. With const g on a periodic
    # grid a roll by whole nodes and the reflection u_i -> u_-i commute with the
    # march byte for byte, and a rotation of R^3 to rounding
    spec = IntegratorSpec(method=method, cfl=0.25, snapshot_stride=10 ** 6)

    def march(horizon, **cfg):
        cfg = ExperimentConfig(method=method, cfl=0.25, horizon=horizon,
                               snapshot_stride=10 ** 6, **cfg)
        grid = build_grid(cfg)
        speed = build_speed(cfg, grid)
        res = evolve(build_initial(cfg, grid, speed)[0], horizon, build_integrator(cfg))
        assert res.status == "ok"
        return res, speed

    def same(res, other, factor=1.0):
        return res.steps_taken == other.steps_taken and np.array_equal(
            res.final().values, factor * other.final().values)

    def periodic(length, k, **cfg):
        return dict(topology="periodic", length=length, nodes=64,
                    initial=f"helix:{math.pi / 4!r},{k}", **cfg)

    def window(x0, h, initial, **cfg):
        return dict(topology="window", x0=x0, intervals=256, h=h, initial=initial, **cfg)

    (base, speed), (half, half_speed) = (march(0.3, **periodic(2 * math.pi, 2, speed="sin:2,1,1")),
                                         march(1.2, **periodic(4 * math.pi, 1, speed="sin:2,1,0.5")))
    assert same(half, base)
    assert same(march(0.15, **periodic(2 * math.pi, 2, speed="sin:4,2,1"))[0], base)
    # h -> 2h halves the energy exactly; the norms scale to rounding (the dual norm does not)
    for row, half_row in zip(diagnose(base, speed), diagnose(half, half_speed)):
        assert half_row.energy == row.energy / 2
        assert half_row.grad_norm == pytest.approx(row.grad_norm / math.sqrt(2), rel=1e-14)
        assert half_row.rhs_norm == pytest.approx(row.rhs_norm / (2 * math.sqrt(2)), rel=1e-14)
    assert same(march(1.2, **window(-40.0, 0.3125, "soliton:0.5,0.25"))[0],
                march(0.3, **window(-20.0, 0.15625, "soliton:1,0.5"))[0])
    if method != "rotation":
        for g, half_g in (("const:1", "const:1"), ("sin:2,1,1", "sin:2,1,0.5")):
            assert same(march(0.4, **window(-40.0, 0.3125, "coupled-soliton:0.5,0.25", speed=half_g))[0],
                        march(0.1, **window(-20.0, 0.15625, "coupled-soliton:1,0.5", speed=g))[0], 2.0)

    grid = Grid.make_periodic(2 * math.pi, 64)
    x = grid.nodes()
    u0, _, _ = oracle_helix(grid, math.pi / 4, 2)
    u0 = normalized(Field(grid, u0.values + 0.3 * np.stack(
        [np.cos(x), 0.5 * np.sin(3 * x), np.cos(2 * x + 0.3)], axis=1)))

    def final(f, speed):
        res = evolve(FlowState(0.0, f, speed, "curve" if speed.coupled else "tangent"), 0.3, spec)
        assert res.status == "ok"
        return res.final().values

    const = make_constant(1.5)
    ref = final(u0, const)
    roll = lambda v: np.roll(v, 5, axis=0)                         # noqa: E731
    mirror = lambda v: np.roll(v[::-1], 1, axis=0)                 # noqa: E731
    for move in (roll, mirror):
        assert np.array_equal(final(Field(grid, move(u0.values)), const), move(ref))
    turn = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))[0]
    sin = speed_from_name("sin:2,1,1")
    turned = final(Field(grid, u0.values @ turn.T), sin) - final(u0, sin) @ turn.T
    assert np.max(np.abs(turned)) <= 1e-13                         # measured <= 4.7e-15
    if method != "rotation":
        # g reads |gamma|^2, so only rotations about the origin commute
        circle, coupled = oracle_circle_curve(grid), speed_from_name("coupled-tanh:1,0.5")
        turned = (final(Field(grid, circle.values @ turn.T), coupled)
                  - final(circle, coupled) @ turn.T)
        assert np.max(np.abs(turned)) <= 1e-12                     # measured <= 2.6e-14


def test_rk4_diverges_at_cfl_four():
    # documented stiffness of the h^-2 stencil inside the cross product
    grid, u0, _, _ = helix_setup()
    state = FlowState(0.0, u0, make_constant(1.0))
    with pytest.warns(RuntimeWarning, match=r"2 sqrt\(2\)"):
        res = evolve(state, 1.0, IntegratorSpec(method="rk4", cfl=4.0, snapshot_stride=100))
    assert res.status == "diverged"
    assert res.steps_taken >= 1
    assert len(res.fields) >= 1  # partial trajectory kept


def test_no_divergence_at_cfl_quarter():
    grid, u0, _, _ = helix_setup(n=32)
    for method in ("rotation", "rk4", "projected_rk4"):
        state = FlowState(0.0, u0, speed_from_name("sin:2,1,1"))
        res = evolve(state, 0.2, IntegratorSpec(method=method, cfl=0.25,
                                                snapshot_stride=10 ** 6))
        assert res.status == "ok"


@pytest.mark.parametrize("offset", ["node", "mid"])
def test_energy_conservation_space_only_g(offset):
    grid, u0, _, _ = helix_setup(n=64)
    speed = build_speed(ExperimentConfig(speed="sin:2,1,1", offset=offset), grid)
    res = evolve(FlowState(0.0, u0, speed), 0.3,
                 IntegratorSpec(method="rotation", cfl=0.25, snapshot_stride=200))
    energies = []
    for f, gs in zip(res.fields, res.g_samples):
        dm = dminus(f)
        energies.append(grid.h * float(
            np.sum(gs.values * np.einsum("ij,ij->i", dm.values, dm.values))))
    energies = np.array(energies)
    assert np.max(np.abs(energies - energies[0])) / energies[0] <= 1e-9
    # diagnose pairs each sample with the same difference (measured 1.3e-11)
    diagnosed = np.array([r.energy for r in diagnose(res, speed, margins=False)])
    assert np.max(np.abs(diagnosed - diagnosed[0])) / diagnosed[0] <= 1e-9


# ------------------------------------------------------------------ curve mode

def test_coupled_circle_rk4_keeps_chords():
    grid = Grid.make_periodic(2 * np.pi, 64)
    x = grid.nodes()
    gamma0 = Field(grid, np.stack([np.cos(x), np.sin(x), np.zeros_like(x)], axis=1))
    state = FlowState(0.0, gamma0, speed_from_name("coupled-tanh:1,0.5"), mode="curve")
    res = evolve(state, 0.5, IntegratorSpec(method="rk4", cfl=0.25, snapshot_stride=50))
    assert res.status == "ok"
    start = chord_lengths(gamma0)
    end = chord_lengths(res.final())
    assert np.max(np.abs(end - start)) <= 1e-10
    # the circle rides its binormal: x, y components frozen
    assert np.max(np.abs(res.final().values[:, :2] - gamma0.values[:, :2])) <= 1e-10


def test_curve_projected_rk4_keeps_starting_chords():
    # the circle's chords are 2 sin(h/2) / h = 0.99929, not 1; the projection
    # keeps them (measured drift 1.7e-15)
    grid = Grid.make_periodic(2 * np.pi, 48)
    x = grid.nodes()
    gamma0 = Field(grid, np.stack([np.cos(x), np.sin(x), np.zeros_like(x)], axis=1))
    state = FlowState(0.0, gamma0, speed_from_name("coupled-tanh:1,0.5"), mode="curve")
    res = evolve(state, 0.2, IntegratorSpec(method="projected_rk4", cfl=0.25,
                                            snapshot_stride=100))
    assert np.max(np.abs(chord_lengths(res.final()) - chord_lengths(gamma0))) <= 1e-13


def test_curve_projected_rk4_stays_on_chords_with_variable_speed():
    # a space-varying g deforms the circle; an explicit midpoint rotation
    # (|R(iy)|^2 = 1 + y^4/4) drifted 0.75 off its chords here by t = 2
    grid = Grid.make_periodic(2 * np.pi, 32)
    gamma0 = oracle_circle_curve(grid)
    state = FlowState(0.0, gamma0, speed_from_name("sin:2,1,1"), mode="curve")
    dt = 0.25 * grid.h ** 2 / state.speed.beta

    def final(method, step):
        res = evolve(state, 2.0, IntegratorSpec(method=method, dt=step,
                                                snapshot_stride=10 ** 9))
        assert res.status == "ok"
        return res.final()

    ref = final("rk4", dt / 16).values
    # measured against rk4 at dt/16: 5.8e-12, with chord drift 1.6e-15
    moved = final("projected_rk4", dt)
    assert np.max(np.abs(chord_lengths(moved) - chord_lengths(gamma0))) <= 1e-10
    assert np.max(np.abs(moved.values - ref)) <= 1e-8


def test_projected_rk4_keeps_curve_chords_off_unit_length():
    # chords of length 1.43-2.35: renormalizing them to 1 moved this curve by
    # 1.10 in one step; restoring their own lengths moves it as rk4 does. A
    # repeated node is a chord of length 0, which stays 0.
    curve = window_curve()
    repeated = Field(curve.grid, np.vstack([curve.values[:5], curve.values[4:-1]]))
    for gamma in (curve, repeated):
        state = FlowState(0.0, gamma, speed_from_name("sin:2,1,1"), mode="curve")
        dt = 0.125 * state.grid.h ** 2 / state.speed.beta
        rk = step(state, IntegratorSpec(method="rk4", dt=dt), dt).field
        proj = step(state, IntegratorSpec(method="projected_rk4", dt=dt), dt).field
        assert np.max(np.abs(rk.values - gamma.values)) <= 1e-2
        # the projection moves the rk4 step by its O(dt^5) chord drift: measured
        # 1.9e-8 and 2.0e-8
        assert np.max(np.abs(proj.values - rk.values)) <= 1e-7
        assert np.max(np.abs(chord_lengths(proj) - chord_lengths(gamma))) <= 1e-13


def test_rotation_refuses_curve_data():
    state = FlowState(0.0, window_curve(), speed_from_name("sin:2,1,1"), mode="curve")
    spec = IntegratorSpec(method="rotation", cfl=0.125)
    with pytest.raises(ValueError, match="tangent data only"):
        step(state, spec, 1e-4)
    with pytest.raises(ValueError, match="tangent data only"):
        evolve(state, 0.1, spec)
