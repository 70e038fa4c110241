import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import bfl

from bfl.lattice import (
    AlignmentError,
    CoefficientBoundError,
    Field,
    Grid,
    cross,
    d2,
    delta_g,
    dminus,
    dot,
    dplus,
    inner_h,
    magnitudes,
    norm_h,
    norm_h1,
    norm_h1_dual,
    norm_linf,
    shift_minus,
    shift_plus,
    unit_drift,
    unit_field,
)


def periodic(l=2 * np.pi, n=16):
    return Grid.make_periodic(l, n)


def window(x0=0.0, m=12, h=0.25):
    return Grid.make_window(x0, m, h)


def random_vector_field(grid, rng, scale=1.0, extension="constant"):
    return Field(grid, scale * rng.normal(size=(grid.n_nodes, 3)), extension)


def random_unit_field(grid, rng):
    v = rng.normal(size=(grid.n_nodes, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return unit_field(grid, v)


# ---------------------------------------------------------------- grids

def test_periodic_grid_derives_spacing():
    g = Grid.make_periodic(2.0, 8)
    assert g.h * g.n_nodes == 2.0
    assert np.allclose(g.nodes(), 0.25 * np.arange(8))


def test_grid_counts_its_cells():
    # a window's last chord reads a ghost node, so it is not a cell
    assert Grid.make_periodic(2.0, 8).cells == 8
    assert Grid.make_window(-1.0, 12, 0.25).cells == 12


def test_grid_invariants_rejected():
    with pytest.raises(ValueError):
        Grid.make_periodic(1.0, 2)
    with pytest.raises(ValueError):
        Grid.make_window(0.0, 3, 0.5)
    with pytest.raises(ValueError):
        Grid(h=-1.0, x0=0.0, n_nodes=8, periodic=False)
    # nodes would end at 0.9 while the period reads 5.0
    with pytest.raises(ValueError, match="length/nodes"):
        Grid(h=0.1, x0=0.0, n_nodes=10, periodic=True, length=5.0)


def test_field_alignment_and_finiteness():
    g = periodic(n=8)
    with pytest.raises(AlignmentError):
        Field(g, np.ones((7, 3)))
    with pytest.raises(ValueError):
        Field(g, np.full((8, 3), np.nan))


# the one-sum check overflows on these entries; numpy warns about the sum,
# and the field stands unless an entry is non-finite
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_field_accepts_finite_entries_whose_sum_overflows():
    g = periodic(n=4)
    big = np.full((4, 3), 1e308)
    assert np.array_equal(Field(g, big).values, big)
    assert np.array_equal(Field(g, -big).values, -big)
    for bad in (np.inf, -np.inf, np.nan):
        vals = big.copy()
        vals[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Field(g, vals)


def test_field_values_are_c_ordered_whatever_the_input():
    # reductions over node values sum in a layout-dependent order, so a
    # field's diagnostics must not depend on how its input was laid out
    g = periodic(n=200)
    v = np.random.default_rng(11).normal(size=(200, 3))
    f = Field(g, np.asfortranarray(v))
    assert f.values.flags["C_CONTIGUOUS"]
    assert magnitudes(f).tobytes() == magnitudes(Field(g, v)).tobytes()


def test_fields_are_immutable():
    g = periodic(n=8)
    f = Field(g, np.ones(8))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_unit_field_tolerance():
    g = periodic(n=8)
    vals = np.tile([1.0, 0.0, 0.0], (8, 1))
    u = unit_field(g, vals)
    assert unit_drift(u) == 0.0
    vals2 = vals.copy()
    vals2[3] *= 1.0 + 1e-6
    with pytest.raises(ValueError):
        unit_field(g, vals2)


# ---------------------------------------------------------------- operators

def test_dplus_of_constant_is_zero():
    for g in (periodic(), window()):
        f = Field(g, np.tile([2.0, -1.0, 0.5], (g.n_nodes, 1)))
        assert np.all(dplus(f).values == 0.0)
        assert np.all(dminus(f).values == 0.0)


def test_d2_exact_on_quadratic_interior():
    # second difference is exact on x^2 away from the window ends
    g = window(x0=0.0, m=12, h=0.5)
    x = g.nodes()
    f = Field(g, x ** 2)
    interior = d2(f).values[1:-1]
    assert np.allclose(interior, 2.0, atol=1e-12)


def test_hand_worked_integration_by_parts_spikes():
    # scalar u = (...,0,2,0,...), v = (...,0,1,0,...) at the same node, h = 1
    g = window(x0=0.0, m=10, h=1.0)
    u_vals = np.zeros(g.n_nodes)
    v_vals = np.zeros(g.n_nodes)
    u_vals[5] = 2.0
    v_vals[5] = 1.0
    u, v = Field(g, u_vals, "zero"), Field(g, v_vals)
    assert np.sum(v.values * dplus(u).values) == -2.0
    assert -np.sum(u.values * dminus(v).values) == -2.0


def test_shift_composition_matches_indexing():
    rng = np.random.default_rng(3)
    g = periodic(n=9)
    f = random_vector_field(g, rng)
    assert np.allclose(shift_plus(f).values, np.roll(f.values, -1, axis=0))
    assert np.allclose(shift_minus(f).values, np.roll(f.values, 1, axis=0))


@pytest.mark.parametrize("make_grid", [periodic, window])
def test_product_rule_exact(make_grid):
    rng = np.random.default_rng(11)
    g = make_grid()
    u = random_vector_field(g, rng)
    v = random_vector_field(g, rng)
    for diff, shift in ((dplus, shift_plus), (dminus, shift_minus)):
        lhs = diff(dot(u, v))
        rhs = dot(shift(u), diff(v)) + dot(diff(u), v)
        scale = max(norm_linf(lhs), 1.0)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-13 * scale


@pytest.mark.parametrize("make_grid", [periodic, window])
def test_integration_by_parts(make_grid):
    # compact support in the window case, anything periodic otherwise
    rng = np.random.default_rng(5)
    g = make_grid()
    v = random_vector_field(g, rng)
    u_vals = rng.normal(size=(g.n_nodes, 3))
    if not g.periodic:
        u_vals[:2] = 0.0
        u_vals[-2:] = 0.0
    u = Field(g, u_vals, "zero" if not g.periodic else "constant")
    s1 = np.sum(v.values * dplus(u).values)
    s2 = np.sum(u.values * dminus(v).values)
    scale = np.sum(np.abs(v.values * dplus(u).values)) + 1.0
    assert abs(s1 + s2) <= 1e-12 * scale


# ---------------------------------------------------------------- norms

def test_norm_h_constant_periodic():
    g = Grid.make_periodic(2.0, 8)
    v = Field(g, np.tile([1.0, 0.0, 0.0], (8, 1)))
    assert norm_h(v) == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_norm_linf_spike():
    g = window()
    vals = np.zeros(g.n_nodes)
    vals[4] = 5.0
    assert norm_linf(Field(g, vals)) == 5.0


@pytest.mark.parametrize("make_grid", [periodic, window])
def test_difference_norm_bound(make_grid):
    rng = np.random.default_rng(17)
    g = make_grid()
    for _ in range(50):
        v = random_vector_field(g, rng, scale=10 ** rng.uniform(-2, 3))
        assert norm_h(dplus(v)) <= (2.0 / g.h) * norm_h(v) * (1 + 1e-12)


def test_norm_h1_definition():
    rng = np.random.default_rng(23)
    g = periodic()
    v = random_vector_field(g, rng)
    assert norm_h1(v) == pytest.approx(
        np.sqrt(norm_h(v) ** 2 + norm_h(dplus(v)) ** 2), rel=1e-14)


# ---------------------------------------------------------------- dual norm

def test_dual_norm_constant_periodic():
    g = Grid.make_periodic(1.0, 12)
    v = Field(g, np.tile([0.0, -2.5, 0.0], (12, 1)))
    assert norm_h1_dual(v) == pytest.approx(2.5, rel=1e-12)


def test_dual_norm_alternating_closed_form():
    # D+D- acts on (-1)^i as -(4/h^2), so w = v/(1 + 4/h^2)
    g = Grid.make_periodic(3.0, 10)
    v = Field(g, (-1.0) ** np.arange(10))
    expected = norm_h(v) / np.sqrt(1.0 + 4.0 / g.h ** 2)
    assert norm_h1_dual(v) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("make_grid", [periodic, window])
def test_dual_norm_dominates_sampled_duality_quotients(make_grid):
    rng = np.random.default_rng(29)
    g = make_grid()
    v = random_vector_field(g, rng)
    dual = norm_h1_dual(v)
    assert dual <= norm_h(v) * (1 + 1e-12)
    for _ in range(100):
        u = random_vector_field(g, rng)
        assert inner_h(v, u) / norm_h1(u) <= dual * (1 + 1e-10)


def test_dual_norms_never_load_scipy(tmp_path):
    # neither importing bfl and its CLI, nor `bfl run` with margins on a
    # periodic and a window config, nor a dual norm imports scipy; each dual
    # norm agrees with a dense solve of (I - D+D-) w = v, on a periodic grid
    # of odd and of even n, a window, and a window long and coarse enough
    # that its sweeps run in several segments
    script = textwrap.dedent("""
        import sys
        import bfl, bfl.cli
        assert "scipy" not in sys.modules, "scipy imported with bfl"
        out = sys.argv[1]
        grids = ("topology = periodic\\nlength = 6.283185307179586\\nnodes = 64\\n"
                 "initial = helix:0.7853981633974483,2\\nspeed = sin:2,1,1\\n",
                 "topology = window\\nx0 = -20.0\\nintervals = 512\\nh = 0.078125\\n"
                 "initial = soliton:1.0,0.5\\nspeed = const:1\\n")
        for i, grid in enumerate(grids):
            path = f"{out}/{i}.bfl"
            with open(path, "w") as fh:
                fh.write(grid + "method = rotation\\ncfl = 0.25\\nT = 0.05\\n"
                         "snapshot_stride = 10\\nprobes = margins\\n")
            assert bfl.cli.main(["run", "-c", path, "-o", out]) == 0
        assert "scipy" not in sys.modules, "bfl run imported scipy"
        import numpy as np
        from bfl.lattice import Field, Grid, norm_h1_dual
        rng = np.random.default_rng(3)
        for g in (Grid.make_periodic(2.0, 9), Grid.make_periodic(2.0, 10),
                  Grid.make_periodic(7.0, 33), Grid.make_window(-1.0, 24, 0.17),
                  Grid.make_window(0.0, 799, 2.0)):
            n = g.n_nodes
            lap = (np.eye(n, k=1) - 2.0 * np.eye(n) + np.eye(n, k=-1)) / g.h ** 2
            if g.periodic:
                lap[0, -1] = lap[-1, 0] = 1.0 / g.h ** 2
            else:
                lap[0, 0] = lap[-1, -1] = -1.0 / g.h ** 2
            v = rng.normal(size=(n, 3))
            w = np.linalg.solve(np.eye(n) - lap, v)
            dense = np.sqrt(g.h * np.sum(v * w))
            dual = norm_h1_dual(Field(g, v))
            assert abs(dual - dense) <= 1e-12 * dense, (n, dual, dense)
        assert "scipy" not in sys.modules, "a dual norm imported scipy"
    """)
    src = str(Path(bfl.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("intervals, h, segments", [(200, 1.0, 5), (2000, 0.05, 3)])
def test_window_riesz_solve_carries_across_segments(intervals, h, segments):
    # the window sweeps restart every `step` nodes, where the weights rho^-i
    # grow by _SEGMENT_GROWTH, and carry each segment's end value into the
    # next; these windows span several segments in both sweeps
    g = Grid.make_window(-0.5 * intervals * h, intervals, h)
    n = g.n_nodes
    rho = (2.0 + h * h - np.sqrt((2.0 + h * h) ** 2 - 4.0)) / 2.0
    step = int(np.log(bfl.lattice._SEGMENT_GROWTH) / -np.log(rho))
    assert -(-n // step) == segments
    lap = (np.eye(n, k=1) - 2.0 * np.eye(n) + np.eye(n, k=-1)) / h ** 2
    lap[0, 0] = lap[-1, -1] = -1.0 / h ** 2
    rhs = np.random.default_rng(41).normal(size=(3, n))
    w = bfl.lattice._riesz_matrix_solve(g, rhs)
    dense = np.linalg.solve(np.eye(n) - lap, rhs.T).T
    assert np.max(np.abs(w - dense)) <= 1e-12 * np.max(np.abs(dense))
    residual = np.max(np.abs(w - w @ lap.T - rhs))
    assert residual <= bfl.lattice._riesz_residual_bound(h, np.max(np.sqrt(np.sum(rhs ** 2, 0))))
    v = Field(g, rhs.T)
    expected = np.sqrt(h * np.sum(rhs * dense))
    assert norm_h1_dual(v) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- delta_g

def test_delta_g_unit_spike():
    g = window(x0=0.0, m=10, h=1.0)
    ones = Field(g, np.ones(g.n_nodes))
    vals = np.zeros((g.n_nodes, 3))
    vals[5, 0] = 1.0
    out = delta_g(ones, Field(g, vals, "zero")).values[:, 0]
    expected = np.zeros(g.n_nodes)
    expected[4:7] = [1.0, -2.0, 1.0]
    assert np.allclose(out, expected, atol=1e-14)


def test_delta_g_parallel_on_sampled_circle():
    g = Grid.make_periodic(2 * np.pi, 24)
    x = g.nodes()
    u = unit_field(g, np.stack([np.cos(x), np.sin(x), np.zeros_like(x)], axis=1))
    ones = Field(g, np.ones(g.n_nodes))
    out = delta_g(ones, u)
    factor = (2 * np.cos(g.h) - 2) / g.h ** 2
    assert np.allclose(out.values, factor * u.values, atol=1e-13)


@pytest.mark.parametrize("make_grid", [periodic, window])
def test_delta_g_factorizations_agree(make_grid):
    rng = np.random.default_rng(31)
    g = make_grid()
    coeff = Field(g, 0.5 + rng.random(g.n_nodes))
    v = random_vector_field(g, rng)
    r1 = dplus(coeff * dminus(v))
    r2 = dminus(shift_plus(coeff) * dplus(v))
    scale = max(norm_linf(r1), 1.0)
    assert np.max(np.abs(r1.values - r2.values)) <= 1e-14 * scale
    assert np.allclose(delta_g(coeff, v).values, r1.values)


def test_delta_g_cell_pairing_factorizations_agree():
    # D-(g D+v) = D+((tau- g) D-v): a sample weighting the cell right of
    # node i is delta_g's sample for node i + 1
    rng = np.random.default_rng(37)
    g = periodic()
    coeff = Field(g, 0.5 + rng.random(g.n_nodes))
    v = random_vector_field(g, rng)
    r1 = dminus(coeff * dplus(v))
    r2 = delta_g(shift_minus(coeff), v)
    scale = max(norm_linf(r1), 1.0)
    assert np.max(np.abs(r1.values - r2.values)) <= 1e-14 * scale


def test_delta_g_rejects_nonpositive_coefficient():
    g = periodic(n=8)
    coeff_vals = np.ones(8)
    coeff_vals[3] = -0.1
    with pytest.raises(CoefficientBoundError):
        delta_g(Field(g, coeff_vals), Field(g, np.ones((8, 3))))


# ------------------------------------------------- unit-field identities

@pytest.mark.parametrize("make_grid", [periodic, window])
def test_unit_field_dot_difference_identity(make_grid):
    # u . D+-u = -+ (h/2) |D+-u|^2 for unit fields
    rng = np.random.default_rng(41)
    g = make_grid()
    u = random_unit_field(g, rng)
    h = g.h
    for diff, sign in ((dplus, -1.0), (dminus, +1.0)):
        du = diff(u)
        lhs = dot(u, du).values
        rhs = sign * (h / 2.0) * np.einsum("ij,ij->i", du.values, du.values)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("make_grid", [periodic, window])
def test_unit_field_delta_g_identity(make_grid):
    # u . delta_g u = -(1/2)(g |D-u|^2 + tau+ g |D+u|^2)
    rng = np.random.default_rng(43)
    g = make_grid()
    u = random_unit_field(g, rng)
    coeff = Field(g, 0.5 + rng.random(g.n_nodes))
    lhs = dot(u, delta_g(coeff, u)).values
    dm, dp = dminus(u), dplus(u)
    rhs = -0.5 * (coeff.values * np.einsum("ij,ij->i", dm.values, dm.values)
                  + shift_plus(coeff).values * np.einsum("ij,ij->i", dp.values, dp.values))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_cross_dot_alignment_errors():
    g1, g2 = periodic(n=8), periodic(n=10)
    a = Field(g1, np.ones((8, 3)))
    b = Field(g2, np.ones((10, 3)))
    with pytest.raises(AlignmentError):
        cross(a, b)
    with pytest.raises(AlignmentError):
        inner_h(a, b)
