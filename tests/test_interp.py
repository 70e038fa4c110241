import numpy as np
import pytest

from bfl.interp import (
    DomainError,
    SANDWICH_LOWER,
    SANDWICH_UPPER,
    interp_gap,
    l2_norm_linear,
    piecewise_constant,
    piecewise_linear,
    quadrature_cellwise,
    resample,
)
from bfl.lattice import AlignmentError, Field, Grid, dplus, norm_h, norm_h1, norm_linf


def test_eval_linear_midpoint():
    g = Grid.make_window(0.0, 4, 1.0)
    f = Field(g, np.array([0.0, 1.0, 1.0, 1.0, 1.0]))
    assert piecewise_linear(f)(0.5) == pytest.approx(0.5)
    assert piecewise_constant(f)(0.5) == pytest.approx(0.0)


def test_eval_returns_node_values():
    rng = np.random.default_rng(1)
    g = Grid.make_periodic(2 * np.pi, 12)
    f = Field(g, rng.normal(size=(12, 3)))
    for view in (piecewise_linear(f), piecewise_constant(f)):
        out = view(g.nodes())
        assert np.allclose(out, f.values, atol=1e-12)


def test_eval_periodic_wrap():
    g = Grid.make_periodic(2.0, 8)
    f = Field(g, np.arange(8.0))
    v = piecewise_linear(f)
    assert v(0.1) == pytest.approx(v(2.1), abs=1e-12)


def test_eval_outside_window_raises():
    g = Grid.make_window(0.0, 4, 1.0)
    f = Field(g, np.zeros(5))
    with pytest.raises(DomainError):
        piecewise_linear(f)(4.5)
    with pytest.raises(DomainError):
        piecewise_linear(f)(-0.5)


# ------------------------------------------------------------- L2 norms

def test_l2_norm_linear_constant_attains_upper():
    g = Grid.make_periodic(2.0, 8)
    f = Field(g, np.tile([1.0, 0.0, 0.0], (8, 1)))
    assert l2_norm_linear(f) == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert l2_norm_linear(f) == pytest.approx(SANDWICH_UPPER * norm_h(f), rel=1e-14)


def test_l2_norm_linear_alternating_attains_lower():
    # closed form per cell: (1/3)(1 + (-1) + 1) = 1/3; four cells -> 4/3
    g = Grid.make_periodic(4.0, 4)
    f = Field(g, (-1.0) ** np.arange(4))
    assert l2_norm_linear(f) == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-14)
    assert l2_norm_linear(f) == pytest.approx(SANDWICH_LOWER * norm_h(f), rel=1e-14)


@pytest.mark.parametrize("ones", [np.ones(8), np.ones((8, 3))])
def test_l2_norm_linear_sandwich_witnesses_of_either_shape(ones):
    # values off +-1, so a cell term that squares nothing cannot pass
    g = Grid.make_periodic(8.0, 8)
    constant = Field(g, 3.0 * ones)
    alternating = Field(g, 2.0 * ((-1.0) ** np.arange(8) * ones.T).T)
    assert l2_norm_linear(constant) == pytest.approx(SANDWICH_UPPER * norm_h(constant), rel=1e-14)
    assert l2_norm_linear(alternating) == pytest.approx(SANDWICH_LOWER * norm_h(alternating),
                                                        rel=1e-14)


def test_sharp_sandwich_random_fields():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(4, 50))
        g = Grid.make_periodic(float(rng.uniform(0.5, 10.0)), n)
        f = Field(g, rng.normal(size=(n, 3)))
        val = l2_norm_linear(f)
        base = norm_h(f)
        assert SANDWICH_LOWER * base * (1 - 1e-12) <= val <= SANDWICH_UPPER * base * (1 + 1e-12)


def test_l2_norm_linear_matches_quadrature():
    rng = np.random.default_rng(9)
    g = Grid.make_periodic(3.0, 10)
    f = Field(g, rng.normal(size=(10, 3)))
    view = piecewise_linear(f)

    def sq(x):
        vals = view(x)
        return np.einsum("ij,ij->i", vals, vals)

    quad = np.sqrt(quadrature_cellwise(sq, g))
    assert l2_norm_linear(f) == pytest.approx(quad, rel=1e-12)


# ------------------------------------------------------------- gap

def test_gap_zero_for_constant():
    g = Grid.make_periodic(1.0, 8)
    f = Field(g, np.tile([0.3, -0.1, 2.0], (8, 1)))
    assert interp_gap(f) == pytest.approx(0.0, abs=1e-15)


def test_gap_two_node_ramp():
    # integral of x^2 over [0, 1] is 1/3
    g = Grid.make_window(0.0, 4, 1.0)
    f = Field(g, np.array([0.0, 1.0, 1.0, 1.0, 1.0]))
    view_l, view_c = piecewise_linear(f), piecewise_constant(f)

    def sq(x):
        d = view_l(x) - view_c(x)
        return d * d

    quad = np.sqrt(quadrature_cellwise(sq, g))
    assert interp_gap(f) == pytest.approx(quad, rel=1e-12)
    assert interp_gap(f) == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)


@pytest.mark.parametrize("periodic", [True, False])
def test_gap_identity_ratio(periodic):
    rng = np.random.default_rng(13)
    for _ in range(100):
        if periodic:
            n = int(rng.integers(4, 40))
            g = Grid.make_periodic(float(rng.uniform(0.5, 8.0)), n)
        else:
            g = Grid.make_window(0.0, int(rng.integers(4, 40)), float(rng.uniform(0.05, 1.0)))
        f = Field(g, rng.normal(size=(g.n_nodes, 3)))
        dp = norm_h(dplus(f))
        if dp == 0.0:
            continue
        ratio = interp_gap(f) ** 2 / (g.h ** 2 * dp ** 2)
        assert ratio == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_gap_quadrature_cross_check_window():
    rng = np.random.default_rng(21)
    g = Grid.make_window(-1.0, 9, 0.31)
    f = Field(g, rng.normal(size=(g.n_nodes,)))
    view_l, view_c = piecewise_linear(f), piecewise_constant(f)

    def sq(x):
        d = view_l(x) - view_c(x)
        return d * d

    quad = np.sqrt(quadrature_cellwise(sq, g))
    assert interp_gap(f) == pytest.approx(quad, abs=1e-10)


# ------------------------------------------------------------- sup norm

def test_sobolev_embedding_regression_constant():
    # sup|v| <= C |v|_H1h with C frozen from a 1e4-field calibration search;
    # re-search with a fresh seed and stay under the frozen value
    from bfl.interp import SOBOLEV_EMBED_CONSTANT

    rng = np.random.default_rng(777)
    worst = 0.0
    for trial in range(2000):
        if trial % 2 == 0:
            n = int(rng.integers(4, 257))
            g = Grid.make_periodic(float(rng.uniform(1.0, 4 * np.pi)), n)
        else:
            g = Grid.make_window(float(rng.uniform(-5.0, 0.0)),
                                 int(rng.integers(4, 257)),
                                 float(rng.uniform(0.01, 1.0)))
        kind = trial % 4
        if kind < 2:
            vals = rng.normal(size=(g.n_nodes, 3))
        elif kind == 2:
            x = g.nodes()
            vals = np.outer(np.sin(x + rng.uniform(0, 6)), rng.normal(size=3))
        else:
            x = g.nodes()
            vals = np.outer(np.exp(-np.abs(x - x[g.n_nodes // 2])),
                            rng.normal(size=3))
        f = Field(g, vals)
        worst = max(worst, norm_linf(f) / norm_h1(f))
    assert worst <= SOBOLEV_EMBED_CONSTANT


def test_sup_norm_linear_is_node_max():
    # the linear lift, evaluated at the nodes and 50 points inside every
    # cell, never exceeds its largest node magnitude and attains it
    rng = np.random.default_rng(33)
    for g in (Grid.make_periodic(5.0, 20), Grid.make_window(-1.0, 19, 0.25)):
        n_cells = g.n_nodes if g.periodic else g.n_nodes - 1
        x = g.x0 + g.h * np.linspace(0.0, n_cells, 51 * n_cells + 1)
        for vals in (rng.normal(size=(g.n_nodes, 3)), rng.normal(size=g.n_nodes)):
            f = Field(g, vals)
            lifted = piecewise_linear(f)(x)
            mags = np.linalg.norm(lifted, axis=1) if f.is_vector else np.abs(lifted)
            assert np.max(mags) == pytest.approx(norm_linf(f), rel=1e-14)


# ------------------------------------------------------------- resample

def test_resample_periodic_every_other():
    g_f = Grid.make_periodic(2.0, 8)
    g_c = Grid.make_periodic(2.0, 4)
    f = Field(g_f, np.arange(8.0))
    out = resample(f, g_c)
    assert np.allclose(out.values, [0.0, 2.0, 4.0, 6.0])


def test_resample_window_ramp_stays_ramp():
    g_f = Grid.make_window(0.0, 16, 0.25)
    g_c = Grid.make_window(0.0, 8, 0.5)
    f = Field(g_f, 3.0 * g_f.nodes())
    out = resample(f, g_c)
    assert np.allclose(out.values, 3.0 * g_c.nodes())


def test_resample_shares_node_values():
    rng = np.random.default_rng(6)
    g_f = Grid.make_periodic(2 * np.pi, 16)
    g_c = Grid.make_periodic(2 * np.pi, 8)
    f = Field(g_f, rng.normal(size=(16, 3)))
    out = resample(f, g_c)
    view = piecewise_linear(out)
    for i in range(8):
        assert np.allclose(view(g_c.nodes()[i]), f.values[2 * i])


def test_resample_rejects_non_nested():
    g_f = Grid.make_periodic(2.0, 9)
    g_c = Grid.make_periodic(2.0, 4)
    f = Field(g_f, np.zeros(9))
    with pytest.raises(AlignmentError):
        resample(f, g_c)
