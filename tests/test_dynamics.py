import numpy as np
import pytest

from bfl.dynamics import (
    FlowState,
    chord_lengths,
    form_equivalence_residual,
    g_samples,
    rhs,
    tangent_of_coupled_residual,
    warn_if_near_boundary,
)
from bfl.integrate import IntegratorSpec, evolve
from bfl.lattice import Field, Grid, cross, delta_g, dminus, dot, dplus, norm_linf, unit_field
from bfl.probe import diagnose, oracle_soliton_curve
from bfl.speed import make_constant, speed_from_name


def circle_tangents(grid, k=1):
    x = grid.nodes()
    return unit_field(grid, np.stack(
        [np.cos(k * x), np.sin(k * x), np.zeros_like(x)], axis=1))


def helix_tangents(grid, alpha, k):
    x = grid.nodes()
    s, c = np.sin(alpha), np.cos(alpha)
    return unit_field(grid, np.stack(
        [s * np.cos(k * x), s * np.sin(k * x), np.full_like(x, c)], axis=1))


def random_unit(grid, rng):
    v = rng.normal(size=(grid.n_nodes, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return unit_field(grid, v)


def test_constant_tangent_is_equilibrium():
    g = Grid.make_window(0.0, 12, 0.3)
    u = unit_field(g, np.tile([0.0, 0.0, 1.0], (g.n_nodes, 1)))
    state = FlowState(0.0, u, make_constant(1.0))
    assert norm_linf(rhs(state)) == 0.0


def test_great_circle_is_equilibrium():
    # Delta u is exactly parallel to u on the lattice; what is left is the
    # rounding of the stencil, a few ulps amplified by 1/h^2
    g = Grid.make_periodic(2 * np.pi, 32)
    state = FlowState(0.0, circle_tangents(g), make_constant(1.0))
    assert norm_linf(rhs(state)) <= 1e-13


def test_helix_rhs_closed_form():
    # substitution gives rhs = omega_h (u ^ e3), omega_h = cos a (2-2cos kh)/h^2
    g = Grid.make_periodic(2 * np.pi, 64)
    alpha, k = np.pi / 4, 2
    u = helix_tangents(g, alpha, k)
    state = FlowState(0.0, u, make_constant(1.0))
    out = rhs(state)
    omega = np.cos(alpha) * (2 - 2 * np.cos(k * g.h)) / g.h ** 2
    e3 = np.tile([0.0, 0.0, 1.0], (g.n_nodes, 1))
    expected = omega * np.cross(u.values, e3)
    assert np.max(np.abs(out.values - expected)) <= 1e-12


def test_rhs_orthogonal_to_u_and_delta():
    rng = np.random.default_rng(3)
    g = Grid.make_periodic(2 * np.pi, 48)
    u = random_unit(g, rng)
    speed = speed_from_name("sin:2,1,1")
    state = FlowState(0.0, u, speed)
    out = rhs(state)
    coeff = g_samples(state)
    delta = delta_g(coeff, u)
    assert np.max(np.abs(dot(out, u).values)) <= 1e-13 * max(1.0, norm_linf(out))
    assert np.max(np.abs(dot(out, delta).values)) <= 1e-12 * max(1.0, norm_linf(out) * norm_linf(delta))


# --------------------------------------------------------------- total spin

@pytest.mark.parametrize("h", [1.0, 0.1, 0.01])
def test_rhs_sums_to_zero_over_the_nodes(h):
    # u ^ D+(g D-u) = D+(u ^ g D-u) telescopes: periodic sums wrap, and a
    # window's flux is zero at both ends (constant ghost, zero-extended product)
    rng = np.random.default_rng(5)
    for g in (Grid.make_periodic(64 * h, 64), Grid.make_window(-1.0, 64, h)):
        for _ in range(100):
            u = random_unit(g, rng)
            coeff = Field(g, 0.5 + rng.random(g.n_nodes))
            out = rhs(FlowState(0.0, u, make_constant(1.0)), coeff).values
            total = np.linalg.norm(out.sum(axis=0))
            # measured <= 7.5e-17 of the scale
            assert total <= 1e-13 * np.sum(np.linalg.norm(out, axis=1))


@pytest.mark.parametrize("case", ["const:1", "sin:2,1,1", "sintime:2,1,1,1", "window"])
def test_rk4_keeps_total_spin(case):
    # S = h sum_i u_i: rk4 combines stages that each sum to zero
    if case == "window":
        g = Grid.make_window(-20.0, 512, 0.078125)
        _, u0 = oracle_soliton_curve(g, 1.0, 0.5)
        speed = speed_from_name("sin:2,1,1")
    else:
        g = Grid.make_periodic(2 * np.pi, 64)
        u0 = helix_tangents(g, np.pi / 4, 2)
        speed = speed_from_name(case)
    res = evolve(FlowState(0.0, u0, speed), 1.0, IntegratorSpec(method="rk4", cfl=0.25))
    assert res.status == "ok"
    length = g.h * (g.n_nodes if g.periodic else g.n_nodes - 1)
    spin = np.array([g.h * f.values.sum(axis=0) for f in res.fields])
    # measured <= 2.7e-15 L
    assert np.max(np.linalg.norm(spin - spin[0], axis=1)) <= 1e-13 * length


def test_spin_drift_is_an_order_4_readout():
    # rk4 keeps the linear invariant S; projection and rotation break it by
    # their 4th-order temporal error, so halving dt divides the drift by 16
    g = Grid.make_periodic(2 * np.pi, 64)
    state = FlowState(0.0, helix_tangents(g, np.pi / 4, 2), speed_from_name("sin:2,1,1"))
    for method in ("rk4", "projected_rk4", "rotation"):
        drifts = []
        for cfl in (0.6, 0.3, 0.15):
            res = evolve(state, 1.0, IntegratorSpec(method=method, cfl=cfl))
            spin = g.h * (res.final().values.sum(axis=0) - res.fields[0].values.sum(axis=0))
            drifts.append(np.linalg.norm(spin) / (2 * np.pi))
        if method == "rk4":
            assert max(drifts) <= 1e-13  # measured <= 8.9e-16
        else:
            # measured 15.98, 15.98 (projected_rk4) and 16.45, 16.17 (rotation)
            assert np.all(np.abs(np.divide(drifts[:-1], drifts[1:]) - 16) <= 2), drifts


# --------------------------------------------------------------- curve form

def test_straight_line_curve_is_static():
    g = Grid.make_window(0.0, 16, 0.25)
    gamma = Field(g, np.outer(g.nodes(), [1.0, 0.0, 0.0]))
    state = FlowState(0.0, gamma, make_constant(1.0), mode="curve")
    assert norm_linf(rhs(state)) == 0.0


def test_unit_circle_translates_along_binormal():
    g = Grid.make_periodic(2 * np.pi, 64)
    x = g.nodes()
    gamma = Field(g, np.stack([np.cos(x), np.sin(x), np.zeros_like(x)], axis=1))
    state = FlowState(0.0, gamma, make_constant(1.0), mode="curve")
    out = rhs(state).values
    # direction e3 at every node; the stencil magnitude is the discrete
    # curvature (2-2cos h)/h^2 times the chord factor sin(h)/h, -> 1 as h -> 0
    speed_mag = (2 - 2 * np.cos(g.h)) / g.h ** 2 * np.sin(g.h) / g.h
    assert np.max(np.abs(out[:, :2])) <= 1e-13
    assert np.allclose(out[:, 2], speed_mag, atol=1e-12)
    assert speed_mag == pytest.approx(1.0, abs=4e-3)


def test_curve_rhs_lifts_to_tangent_rhs():
    rng = np.random.default_rng(7)
    g = Grid.make_periodic(2 * np.pi, 48)
    # closed curve with unit chords: cumulative sum of mean-zero unit tangents
    u = circle_tangents(g, k=1)
    gamma_vals = np.cumsum(np.vstack([[0.0, 0.0, 0.0], g.h * u.values[:-1]]), axis=0)
    gamma_vals += rng.normal(scale=1e-9, size=3)  # harmless rigid shift
    gamma = Field(g, gamma_vals)
    speed = speed_from_name("coupled-tanh:1,0.5")
    state = FlowState(0.0, gamma, speed, mode="curve")
    assert tangent_of_coupled_residual(state) <= 1e-13


def test_chord_drift_reported():
    g = Grid.make_periodic(2 * np.pi, 32)
    x = g.nodes()
    gamma = Field(g, np.stack([np.cos(x), np.sin(x), np.zeros_like(x)], axis=1))
    state = FlowState(0.0, gamma, make_constant(1.0), mode="curve")
    chords = chord_lengths(gamma)
    # the drift column measures against these starting lengths, not against 1
    res = evolve(state, 0.05, IntegratorSpec(method="projected_rk4", cfl=0.25))
    assert max(r.unit_drift for r in diagnose(res, state.speed)) <= 1e-13
    # sampled circle chords are 2 sin(h/2)/h, short of 1 by O(h^2)
    assert np.allclose(chords, 2 * np.sin(g.h / 2) / g.h, atol=1e-14)


# --------------------------------------------------- form equivalence

def test_form_equivalence_random_fields():
    rng = np.random.default_rng(11)
    for make in (lambda: Grid.make_periodic(2 * np.pi, 40),
                 lambda: Grid.make_window(-1.0, 24, 0.17)):
        g = make()
        u = random_unit(g, rng)
        coeff = Field(g, 0.5 + rng.random(g.n_nodes))
        assert form_equivalence_residual(u, coeff) <= 1e-13


def test_form_equivalence_trivial_cases():
    g = Grid.make_periodic(2 * np.pi, 32)
    ones = Field(g, np.ones(g.n_nodes))
    const = unit_field(g, np.tile([1.0, 0.0, 0.0], (g.n_nodes, 1)))
    assert form_equivalence_residual(const, ones) == 0.0
    assert form_equivalence_residual(circle_tangents(g), ones) <= 1e-14


# --------------------------------------------------- guards

def test_tangent_mode_rejects_coupled_speed():
    g = Grid.make_periodic(2 * np.pi, 16)
    with pytest.raises(ValueError):
        FlowState(0.0, circle_tangents(g), speed_from_name("coupled-tanh:1,1"))


def test_boundary_proximity_warning():
    g = Grid.make_window(0.0, 40, 0.25)
    vals = np.tile([0.0, 0.0, 1.0], (g.n_nodes, 1))
    u = unit_field(g, vals)
    warn_if_near_boundary(u)  # constant: no warning
    vals2 = vals.copy()
    vals2[2] = [1.0, 0.0, 0.0]
    with pytest.warns(UserWarning):
        warn_if_near_boundary(unit_field(g, vals2))


def test_rhs_dispatch():
    # rhs applies the written formula of the state's form, to the byte
    g = Grid.make_periodic(2 * np.pi, 16)
    u = circle_tangents(g)
    state = FlowState(0.0, u, make_constant(1.0))
    coeff = g_samples(state)
    assert np.array_equal(rhs(state).values, cross(u, delta_g(coeff, u)).values)
    x = g.nodes()
    gamma = Field(g, np.stack([np.cos(x), np.sin(x), 0.3 * np.sin(2 * x)], axis=1))
    state = FlowState(0.0, gamma, speed_from_name("coupled-tanh:1,0.5"), mode="curve")
    coeff = g_samples(state)
    u = dplus(gamma)
    expected = coeff * cross(u, dminus(u))
    assert np.array_equal(rhs(state).values, expected.values)
