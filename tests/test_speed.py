import numpy as np
import pytest

from bfl.lattice import CoefficientBoundError, Field, Grid
from bfl.speed import (
    SpeedField,
    make_constant,
    sample,
    speed_from_name,
    validate_bounds,
)


def test_constant_sample_is_all_ones():
    g = Grid.make_periodic(2.0, 8)
    out = sample(make_constant(1.0), 0.0, g)
    assert np.all(out.values == 1.0)


def test_space_only_sample_at_origin():
    g = Grid.make_window(0.0, 4, 0.5)
    s = speed_from_name("sin:2,1,1")
    out = sample(s, 0.0, g)
    assert out.values[0] == pytest.approx(2.0)


def test_coupled_sample_at_zero_curve():
    g = Grid.make_periodic(2.0, 8)
    s = speed_from_name("coupled-tanh:1,1")
    gamma = Field(g, np.zeros((8, 3)))
    out = sample(s, 0.0, g, gamma=gamma)
    assert np.allclose(out.values, 1.0)


def test_coupled_requires_curve():
    g = Grid.make_periodic(2.0, 8)
    s = speed_from_name("coupled-tanh:1,0.5")
    with pytest.raises(ValueError):
        sample(s, 0.0, g)


def test_sample_rejects_bound_violation():
    g = Grid.make_periodic(2 * np.pi, 16)
    bad = SpeedField(lambda t, x, gamma: 2.0 + np.sin(x), alpha=1.5, beta=3.0)
    with pytest.raises(CoefficientBoundError):
        sample(bad, 0.0, g)
    # a NaN sample compares false with both bounds and must still be refused
    nan_at_0 = SpeedField(lambda t, x, gamma: np.where(x == 0.0, np.nan, 2.0),
                          alpha=1.0, beta=3.0)
    with pytest.raises(CoefficientBoundError, match="nan at node 0"):
        sample(nan_at_0, 0.0, g)
    # alpha = 1e-12 lies inside the 1e-9 bound slack; g = 0 must still be refused,
    # and named rather than the sample at node 5, above beta but inside the slack
    values = np.full(16, 0.5)
    values[0], values[5] = 0.0, 1.0 + 5e-10
    zero_at_0 = SpeedField(lambda t, x, gamma: values, alpha=1e-12, beta=1.0)
    with pytest.raises(CoefficientBoundError, match="sample 0 at node 0 "):
        sample(zero_at_0, 0.0, g)


def test_bound_violation_names_the_sampled_point():
    # under offset = mid node 0 samples g at x = -h/2, not at the node
    g = Grid.make_periodic(2 * np.pi, 8)
    zero_left_of_0 = SpeedField(lambda t, x, gamma: np.where(np.isclose(x, -g.h / 2), 0.0, 1.0),
                                alpha=0.5, beta=1.0).with_offset(-g.h / 2)
    with pytest.raises(CoefficientBoundError, match=r"sample 0 at node 0 \(x = -0\.392699\)"):
        sample(zero_left_of_0, 0.0, g)


def test_offset_matters_only_for_varying_g():
    g = Grid.make_periodic(2 * np.pi, 16)
    c0 = make_constant(1.0)
    assert np.allclose(sample(c0, 0.0, g).values,
                       sample(c0.with_offset(-g.h / 2), 0.0, g).values)
    s = speed_from_name("sin:2,1,1")
    assert not np.allclose(sample(s, 0.0, g).values,
                           sample(s.with_offset(-g.h / 2), 0.0, g).values)
    assert np.allclose(sample(s.with_offset(-g.h / 2), 0.0, g).values,
                       2.0 + np.sin(g.nodes() - g.h / 2))


def test_sample_determinism():
    g = Grid.make_periodic(2 * np.pi, 32)
    s = speed_from_name("sintime:2,1,1,1")
    a = sample(s, 0.37, g).values
    b = sample(s, 0.37, g).values
    assert np.array_equal(a, b)


# ------------------------------------------------------------ validation

def test_validate_constant_margins():
    g = Grid.make_periodic(2.0, 8)
    s = SpeedField(lambda t, x, gamma: 1.0, alpha=0.5, beta=2.0)
    rep = validate_bounds(s, g)
    assert rep.ok
    assert rep.lower_margin == pytest.approx(0.5)
    assert rep.upper_margin == pytest.approx(1.0)


def test_validate_sine_with_tight_bounds_passes():
    g = Grid.make_periodic(2 * np.pi, 64)
    s = speed_from_name("sin:2,1,1")
    rep = validate_bounds(s, g)
    assert rep.ok
    assert rep.lower_margin >= -1e-9
    assert rep.upper_margin >= -1e-9


def test_validate_sine_with_wrong_alpha_fails():
    g = Grid.make_periodic(2 * np.pi, 64)
    s = SpeedField(lambda t, x, gamma: 2.0 + np.sin(x), alpha=1.5, beta=3.0,
                   beta_prime=1.0)
    rep = validate_bounds(s, g)
    assert not rep.ok
    assert any("lower bound" in f for f in rep.flags)


def test_validate_time_derivative_bound():
    g = Grid.make_periodic(2 * np.pi, 32)
    s = speed_from_name("sintime:2,1,1,1")
    rep = validate_bounds(s, g, t_grid=np.linspace(0, np.pi, 7))
    assert rep.ok
    assert rep.dt_margin is not None and rep.dt_margin >= 0
    # no time to sample would pass vacuously, with both margins infinite
    with pytest.raises(ValueError, match="t_grid"):
        validate_bounds(s, g, t_grid=())


def test_validate_flags_time_dependence_declared_as_beta1_zero():
    # |d/dt (2 + sin x cos t)| reaches 1 at t = pi/2, x = pi/2
    g = Grid.make_periodic(2 * np.pi, 32)
    s = SpeedField(lambda t, x, gamma: 2.0 + np.sin(x) * np.cos(t), alpha=1.0, beta=3.0,
                   beta_prime=1.0)
    assert not s.time_dependent
    rep = validate_bounds(s, g, t_grid=np.linspace(0, np.pi, 7))
    assert not rep.ok
    assert any("time-derivative bound exceeded" in f for f in rep.flags)
    assert rep.dt_margin == pytest.approx(-1.0, abs=1e-4)


# ------------------------------------------------------------ selectors

def test_constancy_and_time_dependence_follow_from_the_bounds():
    assert make_constant(2.0).constant and not make_constant(2.0).time_dependent
    for spec, constant, time_dependent in [("sin:2,1,1", False, False),
                                           ("sin:1,0,1", True, False),
                                           ("sintime:2,1,1,1", False, True),
                                           ("sintime:2,1,1,0", False, False),
                                           ("sintime:1,0,1,1", True, False),
                                           ("coupled-tanh:1,0.5", False, True),
                                           ("coupled-tanh:1,0", True, False)]:
        s = speed_from_name(spec)
        assert (s.constant, s.time_dependent) == (constant, time_dependent), spec


def test_coupled_speed_refuses_an_offset():
    with pytest.raises(ValueError, match="nodes only"):
        speed_from_name("coupled-tanh:1,0.5").with_offset(-0.1)


def test_selector_bounds_are_certified():
    s = speed_from_name("sintime:2,1,1,1")
    assert s.alpha == pytest.approx(1.0)
    assert s.beta == pytest.approx(3.0)
    assert s.beta1 == pytest.approx(1.0)


def test_coupled_tanh_gradient_bound_pinned_by_dense_scan():
    # |grad_gamma (a + b tanh |gamma|^2)| = |b| 2 sqrt(s) sech^2(s), s = |gamma|^2
    s = np.linspace(0.0, 10.0, 1_000_001)
    sup = float(np.max(2.0 * np.sqrt(s) / np.cosh(s) ** 2))
    assert sup == pytest.approx(1.113116, abs=1e-6)
    for b in (0.5, -0.25, 2.0):
        declared = speed_from_name(f"coupled-tanh:3,{b}").beta_prime / abs(b)
        assert sup <= declared <= sup * (1 + 1e-4)


def test_validate_coupled_curve_gradient_bound():
    # on a circle of radius sqrt(0.52), |gamma|^2 = 0.52 sits at the sup:
    # |grad_gamma g| = 1.11312 |b| at every node
    grid = Grid.make_periodic(2 * np.pi, 64)
    x = grid.nodes()
    circle = Field(grid, np.sqrt(0.52) * np.stack([np.cos(x), np.sin(x), 0 * x], axis=1))
    tanh = speed_from_name("coupled-tanh:1,0.5")
    rep = validate_bounds(tanh, grid, gamma=circle)
    assert rep.ok
    assert rep.dx_margin == pytest.approx(1.05 * 1.1132 * 0.5 - 1.11312 * 0.5, abs=1e-5)
    low = SpeedField(tanh.fn, alpha=1.0, beta=1.5, beta_prime=0.9 * 0.5, coupled=True)
    rep = validate_bounds(low, grid, gamma=circle)
    assert not rep.ok
    assert rep.dx_margin == pytest.approx(1.05 * 0.45 - 1.11312 * 0.5, abs=1e-5)
    assert any("space-derivative" in f for f in rep.flags)


def test_validate_checks_a_coupled_g_in_x_and_in_gamma():
    # g = 2 + 0.5 sin(10 x) + 0.5 tanh|gamma|^2 on the unit circle: |grad_gamma g|
    # = sech^2(1) = 0.42 sits under beta' = 1.2, but |dg/dx| = 5 at node 0 does not
    grid = Grid.make_periodic(2 * np.pi, 64)
    x = grid.nodes()
    circle = Field(grid, np.stack([np.cos(x), np.sin(x), 0 * x], axis=1))
    s = SpeedField(lambda t, x, gamma: 2.0 + 0.5 * np.sin(10 * x)
                   + 0.5 * np.tanh(np.einsum("ij,ij->i", gamma, gamma)),
                   alpha=1.5, beta=3.0, beta_prime=1.2, coupled=True)
    rep = validate_bounds(s, grid, gamma=circle)
    assert rep.flags == ["space-derivative bound exceeded by 3.74"]
    assert rep.dx_margin == pytest.approx(1.05 * 1.2 - 5.0, abs=1e-6)
    assert rep.dt_margin == 0.0
    with pytest.raises(ValueError, match="needs the current curve"):
        validate_bounds(s, grid)


def test_validate_samples_where_the_speed_is_sampled():
    # g = 2 + tanh(x) is least at the window's left end x0 = 0, and a mid offset
    # samples h/2 further left; a span read from x0 - span would flag g near 1
    grid = Grid.make_window(0.0, 100, 0.1)
    s = SpeedField(lambda t, x, gamma: 2.0 + np.tanh(x), alpha=1.9, beta=3.0, beta_prime=1.0)
    rep = validate_bounds(s, grid)
    assert rep.ok and rep.lower_margin == pytest.approx(0.1, abs=1e-12)
    rep = validate_bounds(s.with_offset(-grid.h / 2), grid)
    assert rep.ok and rep.lower_margin == pytest.approx(0.1 + np.tanh(-0.05), abs=1e-12)


def test_selector_rejects_nonpositive():
    with pytest.raises(ValueError, match="speed sin:1,2,1: lower bound alpha = -1 must be"):
        speed_from_name("sin:1,2,1")
    with pytest.raises(ValueError, match="speed const:0: lower bound alpha = 0"):
        speed_from_name("const:0")
    with pytest.raises(ValueError, match="speed coupled-tanh:1,-1: lower bound alpha = 0"):
        speed_from_name("coupled-tanh:1,-1")
    with pytest.raises(ValueError, match="unknown selector 'nope:1'"):
        speed_from_name("nope:1")


# the four selectors as closed forms of their own, each with its own bounds:
# (g(t, x, gamma), alpha, beta, beta1, beta_prime, coupled) of the arguments
SEPARATE_FORMS = {
    "const": lambda c: (lambda t, x, gamma: c, c, c, 0.0, 0.0, False),
    "sin": lambda a, b, k: (lambda t, x, gamma: a + b * np.sin(k * x),
                            a - abs(b), a + abs(b), 0.0, abs(b * k), False),
    "sintime": lambda a, b, k, w: (
        lambda t, x, gamma: a + b * np.sin(k * x) * np.cos(w * t),
        a - abs(b), a + abs(b), abs(b * w), abs(b * k), False),
    "coupled-tanh": lambda a, b: (
        lambda t, x, gamma: a + b * np.tanh(np.einsum("ij,ij->i", gamma, gamma)),
        min(a, a + b), max(a, a + b), 0.0, 1.1132 * abs(b), True),
}


@pytest.mark.parametrize("spec", [
    "const:1", "const:2.5", "const:0.3",
    "sin:2,1,1", "sin:2,-1,3", "sin:1.5,0.25,-2", "sin:1,0,1",
    "sintime:2,1,1,1", "sintime:2,-1,1,3", "sintime:3,0.5,2,0", "sintime:1.2,-0.7,-1,-2.5",
    "coupled-tanh:1,0.5", "coupled-tanh:1,-0.5", "coupled-tanh:3,2", "coupled-tanh:2.5,-0.25"])
def test_one_model_matches_the_separate_closed_forms_bit_for_bit(spec):
    head, _, tail = spec.partition(":")
    fn, *bounds, coupled = SEPARATE_FORMS[head](*map(float, tail.split(",")))
    s = speed_from_name(spec)
    assert s.name == spec and s.coupled is coupled
    for got, want in zip((s.alpha, s.beta, s.beta1, s.beta_prime), bounds):
        assert float(got).hex() == float(want).hex()
    x = np.linspace(-4.0, 7.0, 23)
    gamma = np.random.default_rng(5).normal(size=(23, 3))
    for t in (0.0, 0.37, -1.3, 2.0):
        want = np.broadcast_to(np.asarray(fn(t, x, gamma), dtype=float), x.shape)
        assert s(t, x, gamma if coupled else None).tobytes() == want.tobytes()
