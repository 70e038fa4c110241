import numpy as np
import pytest

from bfl.lattice import CoefficientBoundError, Field, Grid
from bfl.speed import (
    COUPLED,
    SpeedField,
    SPACE_ONLY,
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
    bad = SpeedField(SPACE_ONLY, lambda t, x, gamma: 2.0 + np.sin(x), alpha=1.5, beta=3.0)
    with pytest.raises(CoefficientBoundError):
        sample(bad, 0.0, g)
    # a NaN sample compares false with both bounds and must still be refused
    nan_at_0 = SpeedField(SPACE_ONLY, lambda t, x, gamma: np.where(x == 0.0, np.nan, 2.0),
                          alpha=1.0, beta=3.0)
    with pytest.raises(CoefficientBoundError, match="nan at node 0"):
        sample(nan_at_0, 0.0, g)
    # alpha = 1e-12 lies inside the 1e-9 bound slack; g = 0 must still be refused,
    # and named rather than the sample at node 5, above beta but inside the slack
    values = np.full(16, 0.5)
    values[0], values[5] = 0.0, 1.0 + 5e-10
    zero_at_0 = SpeedField(SPACE_ONLY, lambda t, x, gamma: values, alpha=1e-12, beta=1.0)
    with pytest.raises(CoefficientBoundError, match="sample 0 at node 0 "):
        sample(zero_at_0, 0.0, g)


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
    s = SpeedField("constant", lambda t, x, gamma: 1.0, alpha=0.5, beta=2.0)
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
    s = SpeedField(SPACE_ONLY, lambda t, x, gamma: 2.0 + np.sin(x), alpha=1.5, beta=3.0,
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


# ------------------------------------------------------------ selectors

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
    low = SpeedField(COUPLED, tanh.fn, alpha=1.0, beta=1.5, beta_prime=0.9 * 0.5)
    rep = validate_bounds(low, grid, gamma=circle)
    assert not rep.ok
    assert rep.dx_margin == pytest.approx(1.05 * 0.45 - 1.11312 * 0.5, abs=1e-5)
    assert any("space-derivative" in f for f in rep.flags)


def test_selector_rejects_nonpositive():
    with pytest.raises(ValueError):
        speed_from_name("sin:1,2,1")
    with pytest.raises(ValueError):
        speed_from_name("const:0")
    with pytest.raises(ValueError):
        speed_from_name("nope:1")
