"""Diagnostics, bound monitors, discrete Frenet geometry and exact oracles.

Monitored quantities per snapshot: the unit drift (for a curve, the chord
lengths' drift from the first snapshot's), the weighted gradient energy
h sum g |D-u|^2, |D+u|_h, |du/dt|_h and its dual norm, |Delta_g u|_h, the
spin drift |S(t) - S(0)| / L of S = h sum_i u_i (L = h x cells), and
the signed margins of the two a-priori bounds

    |D+u(t)|_h   <= sqrt(beta/alpha) |D+u0|_h exp(beta1 t / (2 alpha))
    |du/dt|_dual <= beta sqrt(beta/alpha) |D+u0|_h exp(beta1 t / (2 alpha))

with u0 the first snapshot and t the time after it, |t - t0| (negative
margin = violation). Oracles: the sampled great circle and the
precessing helix are exact solutions of the lattice flow (the helix rotates
at omega_h = cos(a) (2 - 2cos kh)/h^2, the k = 1, a = pi/2 case is
stationary); the soliton filament with kappa = 2 nu sech(nu x), tau = tau0
comes from Hasimoto's closed form of the continuum flow at g = 1
(Hasimoto, J. Fluid Mech. 51, 1972), with A = 2 nu/(nu^2 + tau0^2),
eta = s - 2 tau0 t and phi = tau0 s + (nu^2 - tau0^2) t:

    gamma(s, t) = (s - A tanh nu eta,  A sech nu eta cos phi,  A sech nu eta sin phi)

Curves for profiles without a closed form are built by marching the
Frenet frame for the prescribed curvature and torsion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import CURVE, TANGENT, FlowState, chord_lengths
from .integrate import EvolveResult, IntegratorSpec, _rk4, evolve
from .lattice import (
    Field,
    Grid,
    RieszSolveError,
    _delta_g,
    _dminus,
    _dplus,
    _norm2,
    _riesz_matrix_solve,
    _riesz_residual_bound,
    cross,
    cross3,
    d2,
    dminus,
    dplus,
    magnitudes,
    norm_h1,
    normalized,
    unit_field,
)
from .reconstruct import gamma_integral
from .speed import SpeedField, _curve_gradient, _sample_at

KAPPA_MIN = 1e-8

# snapshots stacked per diagnostics block
_BLOCK = 16

# slots of diagnose's (_SLOTS, 3, W, n) work array, each one (3, W, n) stack
# for W = min(_BLOCK, snapshots); a block of B snapshots takes [:, :, :B]. An
# operator's out stack is a run of slots: _delta_g's _DELTA and _DU, cross3's
# _DU, _A, _B and the last slot. At n = 513 the array holds 1.7 MiB,
# allocated once per diagnose call.
_G, _U, _DU_ROWS, _ROWS, _DELTA, _DU, _A, _B = range(8)
_SLOTS = 9


# --------------------------------------------------------------------------
# per-snapshot diagnostics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    unit_drift: float
    energy: float
    grad_norm: float
    rhs_norm: float
    rhs_dual_norm: float
    delta_norm: float
    spin_drift: float
    bound_margins: dict = field(default_factory=dict)
    oracle_error: float | None = None


def energy(u: Field, g: Field) -> float:
    """Weighted gradient energy h sum_i g_i |D-u_i|^2."""
    dm = dminus(u).values
    return u.grid.h * float(np.sum(g.values * np.einsum("ij,ij->i", dm, dm)))


def _bound(factor: float, t: float, grad0: float, speed: SpeedField) -> float:
    """factor sqrt(beta/alpha) |D+u0|_h exp(beta1 t/(2 alpha)), t after the first snapshot."""
    return factor * math.sqrt(speed.beta / speed.alpha) * grad0 * math.exp(
        speed.beta1 * t / (2.0 * speed.alpha))


def gradient_bound_margin(t: float, grad0: float, grad_now: float,
                          speed: SpeedField) -> float:
    """Slack of the gradient a-priori bound at t after the first snapshot (negative = violated)."""
    return _bound(1.0, t, grad0, speed) - grad_now


def dual_bound_margin(t: float, grad0: float, rhs_dual_now: float,
                      speed: SpeedField) -> float:
    """Slack of the dual-norm bound on du/dt at t after the first snapshot."""
    return _bound(speed.beta, t, grad0, speed) - rhs_dual_now


def diagnose(result: EvolveResult, speed: SpeedField,
             margins: bool = True, oracle=None) -> list[DiagnosticsRecord]:
    """Diagnostics rows for every stored snapshot.

    ``oracle``: optional callable t -> node values; the record then carries
    the sup-norm error against it. Margins are tangent-mode monitors; for
    curve snapshots the tangent u = D+gamma is diagnosed and margins are
    skipped (the coupled bound bookkeeping tracks the energy rate instead).

    Rows stop only at ``_diagnose_block``'s mask, before a non-positive g
    sample or a non-finite column, the oracle error included (the snapshot
    just before a divergence can overflow). A Riesz residual above the
    bound norm_h1_dual also applies raises RieszSolveError.
    """
    records = []
    if not result.fields:
        return records
    # a curve flow keeps each chord's starting length, not length 1; its spin sums the chords
    first, curve = result.fields[0], result.mode == CURVE
    lengths = chord_lengths(first) if curve else 1.0
    u0 = (dplus(first).values[:first.grid.cells] if curve else first.values).T
    spin0 = np.sum(np.ascontiguousarray(u0), axis=1)  # pairwise, as the blocks sum
    # one work array serves every block, so no block allocates or frees a stack
    work = np.empty((_SLOTS, 3, min(_BLOCK, len(result.times)), result.grid.n_nodes))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(result.times), _BLOCK):
            part = slice(start, start + _BLOCK)
            times = result.times[part]
            rows = _diagnose_block(result.mode, times, result.fields[part], result.g_samples[part],
                                   lengths, spin0, oracle, work)
            for t, row in zip(times, rows):
                margin_row = {}
                if margins and result.mode == TANGENT:
                    grad, rhs_dual = row["grad_norm"], row["rhs_dual_norm"]
                    base = records[0].grad_norm if records else grad
                    after = abs(t - result.times[0])
                    margin_row["gradient_bound"] = gradient_bound_margin(after, base, grad, speed)
                    margin_row["dual_bound"] = dual_bound_margin(after, base, rhs_dual, speed)
                records.append(DiagnosticsRecord(t=t, bound_margins=margin_row, **row))
            if len(rows) < len(times):
                break
    return records


def _diagnose_block(mode: str, times, fields, g_fields, lengths, spin0, oracle,
                    work: np.ndarray) -> list[dict]:
    """DiagnosticsRecord columns, a dict per kept snapshot of the block.

    Drift is max_i | |u_i| - lengths_i |, with u = D+gamma for a curve over
    the grid's cells (a window drops its ghost chord); the spin drift
    |sum_i u_i - spin0| / cells sums those cells of a curve, every node of a
    tangent. The block is stacked component-major as (3, B, n), so the
    lattice's row operators run on it unchanged, and each snapshot is
    reduced in the order the Field-level code takes on its (n, 3) values:
    |v_i|^2 by the lattice's row norm, the h-norms over C-ordered (B, n, 3)
    copies, S pairwise along each component. One Riesz solve serves every
    dual norm. Every stack is a slot of ``work`` (diagnose's work array),
    written through the operators' ``out``; a block of B < W snapshots
    slices the block axis. Only a periodic Riesz solve allocates. One mask
    is the only rule that stops rows, since every operator acts along each
    snapshot's node axis: before the first snapshot whose g has a
    non-positive sample or whose columns (the oracle error too) and residual
    are not all finite. Each kept residual is checked against its own scale.
    """
    grid, ext = fields[0].grid, fields[0].extension
    h, periodic, n = grid.h, grid.periodic, grid.n_nodes
    count = len(fields)
    block = work[:, :, :count]
    g = np.stack([s.values for s in g_fields], out=block[_G, 0])
    u = np.stack([f.values.T for f in fields], axis=1, out=block[_A if mode == CURVE else _U])
    columns = {}
    if oracle is not None:
        want = np.stack([oracle(t).T for t in times], axis=1, out=block[_B])
        want -= u
        columns["oracle_error"] = np.max(np.abs(want, out=want), axis=(0, 2))
    if mode == CURVE:
        u, ext = _dplus(u, h, periodic, ext, block[_U]), "zero"
    mags = _norm2(u, block[_A])
    mags = np.sqrt(mags, out=mags)
    if mode == CURVE:
        mags = mags[:, :grid.cells]
    columns["unit_drift"] = np.max(np.abs(np.subtract(mags, lengths, out=mags), out=mags), axis=1)
    squares = _norm2(_dminus(u, h, periodic, ext, block[_A]), block[_B])
    columns["energy"] = h * np.sum(np.multiply(g, squares, out=squares), axis=1)
    delta = _delta_g(g, u, h, periodic, ext, block[_DELTA:_DELTA + 2])
    du = cross3(u, delta, block[_DU:_DU + 4])
    du_rows = _rows(du, work[_DU_ROWS].reshape(-1, n, 3)[:count])
    rows = _rows(_dplus(u, h, periodic, ext, block[_A]),
                 work[_ROWS].reshape(-1, n, 3)[:count])
    columns["grad_norm"] = _root(h * _sums(np.multiply(rows, rows, out=rows)))
    columns["rhs_norm"] = _root(h * _sums(np.multiply(du_rows, du_rows, out=rows)))
    rows = _rows(delta, rows)
    columns["delta_norm"] = _root(h * _sums(np.multiply(rows, rows, out=rows)))
    spin = np.sum(u[..., :grid.cells if mode == CURVE else n], axis=2) - spin0[:, None]
    columns["spin_drift"] = np.sqrt(np.sum(spin * spin, axis=0)) / grid.cells
    # u is spent, so w takes its slot
    w = _riesz_matrix_solve(grid, du, block[_U])
    resid = _dplus(_dminus(w, h, periodic, "constant", block[_A]), h, periodic, "zero", block[_B])
    resid = np.subtract(w, resid, out=resid)
    resid -= du
    worst = np.max(np.abs(resid, out=resid), axis=(0, 2))
    scale = _norm2(du, block[_A])
    bound = _riesz_residual_bound(h, np.max(np.sqrt(scale, out=scale), axis=1))
    rows = _rows(w, rows)
    columns["rhs_dual_norm"] = _root(h * _sums(np.multiply(du_rows, rows, out=rows)))
    good = np.all(g > 0.0, axis=1) & np.isfinite(sum(columns.values()) + worst)
    k = count if good.all() else int(np.argmin(good))
    failed = np.flatnonzero(worst[:k] > bound[:k])
    if failed.size:
        raise RieszSolveError(f"residual {worst[failed[0]]:.3e} exceeds tolerance")
    return [dict(zip(columns, row)) for row in zip(*(c[:k].tolist() for c in columns.values()))]


def _rows(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(3, B, n) -> C-ordered (B, n, 3) in out: each snapshot laid out as its Field values."""
    np.copyto(out, np.moveaxis(v, 0, -1))
    return out


def _sums(rows: np.ndarray) -> np.ndarray:
    """np.sum over each snapshot's (n, 3) rows, in the order it takes on one Field."""
    return np.sum(rows.reshape(len(rows), -1), axis=1)


def _root(x: np.ndarray) -> np.ndarray:
    """math.sqrt(max(x, 0.0)) elementwise, signed zeros and NaN included."""
    return np.sqrt(np.where(x < 0.0, 0.0, x))


def energy_rate_residual(result: EvolveResult, speed: SpeedField) -> float:
    """Worst defect of the energy evolution law over interior snapshots.

    A g that is not time dependent conserves the energy exactly; others
    satisfy dE/dt = h sum dg/dt |D-u|^2, and coupled ones pick up the
    curve-transport term h sum (dgamma/dt . grad_gamma g) |D-u|^2 as well.
    Central differences on the snapshots approximate dE/dt; the coefficient
    derivatives are numerically differentiated, so the residual carries the
    snapshot quadrature error, not just the integrator's. Fewer than 3
    snapshots leave no interior one to check and raise ValueError.
    """
    if len(result.times) < 3:
        raise ValueError(f"energy rate needs >= 3 snapshots, got {len(result.times)}")
    times = np.asarray(result.times)
    grid = result.fields[0].grid
    x = grid.nodes()
    energies = []
    rates = []
    eps_t = 1e-6
    for t, f, g in zip(result.times, result.fields, result.g_samples):
        u = dplus(f) if result.mode == CURVE else f
        dm = dminus(u)
        sq = np.einsum("ij,ij->i", dm.values, dm.values)
        energies.append(grid.h * float(np.sum(g.values * sq)))
        rate = 0.0
        # derivatives of g where its samples sit: the offset points, or the
        # nodes with the curve for a coupled g
        gamma_vals = f.values if result.mode == CURVE else None
        if speed.time_dependent:
            gp = _sample_at(speed, t + eps_t, x, gamma_vals)
            gm = _sample_at(speed, t - eps_t, x, gamma_vals)
            rate += grid.h * float(np.sum((gp - gm) / (2 * eps_t) * sq))
        if speed.coupled:
            vel = g * cross(u, dm)
            grad_g = _curve_gradient(speed, t, x, gamma_vals, eps_t)
            rate += grid.h * float(np.sum(
                np.einsum("ij,ij->i", vel.values, grad_g) * sq))
        rates.append(rate)

    worst = 0.0
    for k in range(1, len(times) - 1):
        # three-point derivative, exact on quadratics even when the last
        # snapshot interval is shortened
        d1 = times[k] - times[k - 1]
        d0 = times[k + 1] - times[k]
        dedt = (energies[k + 1] * d1 ** 2 - energies[k - 1] * d0 ** 2
                + energies[k] * (d0 ** 2 - d1 ** 2)) / (d0 * d1 * (d0 + d1))
        worst = max(worst, abs(dedt - rates[k]))
    return worst


# --------------------------------------------------------------------------
# discrete Frenet geometry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FrenetData:
    """Curvature and torsion fields with validity masks.

    ``stencil_valid`` marks nodes whose difference stencils stay inside the
    window (everything on periodic grids); ``tau_defined`` additionally
    excludes near-inflection nodes where torsion has no value.
    """

    kappa: Field
    tau: Field
    tau_defined: np.ndarray
    stencil_valid: np.ndarray


def frenet(gamma: Field) -> FrenetData:
    """kappa_i = |D2 gamma_i| and tau_i = det(D+g, D2g, D3g)_i / kappa_i^2,
    with D2 = D+D- and D3 = D+D-D+.

    Torsion entries with kappa below ``KAPPA_MIN`` are flagged undefined and
    set to zero rather than clamped: torsion has no value at inflections.
    Window nodes whose stencils would read ghost values are zeroed and
    excluded from the masks. Warns when the input is visibly not arc-length
    parametrized.
    """
    if np.max(np.abs(chord_lengths(gamma) - 1.0)) > 1e-3:
        warnings.warn("curve is not arc-length parametrized; curvature and "
                      "torsion values will be distorted", stacklevel=2)
    n = gamma.grid.n_nodes
    valid = np.ones(n, dtype=bool)
    tau_stencil = np.ones(n, dtype=bool)
    if not gamma.grid.periodic:
        valid[0] = valid[-1] = False              # D2 needs both neighbors
        tau_stencil[:] = valid
        tau_stencil[-2] = False                   # D3 reaches two nodes right
    first = dplus(gamma)
    second = d2(gamma)
    third = dplus(dminus(first))
    kappa = np.where(valid, magnitudes(second), 0.0)
    det = np.einsum("ij,ij->i", np.cross(first.values, second.values), third.values)
    defined = tau_stencil & (kappa >= KAPPA_MIN)
    tau = np.zeros_like(kappa)
    tau[defined] = det[defined] / kappa[defined] ** 2
    return FrenetData(
        kappa=Field(gamma.grid, kappa, "zero"),
        tau=Field(gamma.grid, tau, "zero"),
        tau_defined=defined,
        stencil_valid=valid,
    )


def peak_location(values: Field) -> float:
    """Sub-node location of the max by parabolic interpolation, wrapped into the period."""
    grid = values.grid
    mags = magnitudes(values)
    j = int(np.argmax(mags))
    if grid.periodic:
        lo, hi = mags[(j - 1) % grid.n_nodes], mags[(j + 1) % grid.n_nodes]
    else:
        if j == 0 or j == grid.n_nodes - 1:
            return float(grid.nodes()[j])
        lo, hi = mags[j - 1], mags[j + 1]
    denom = lo - 2 * mags[j] + hi
    shift = 0.0 if denom == 0 else 0.5 * (lo - hi) / denom
    x = float(grid.nodes()[j] + shift * grid.h)
    # |shift| <= 1/2, so only a peak at node 0 leaning across the seam leaves the period
    return x + grid.length if grid.periodic and x < grid.x0 else x


# --------------------------------------------------------------------------
# exact and constructed oracles
# --------------------------------------------------------------------------

def oracle_great_circle(grid: Grid, k: int = 1) -> Field:
    """Unit tangent of a k-times wound circle; a lattice equilibrium."""
    x = grid.nodes()
    return unit_field(grid, np.stack(
        [np.cos(k * x), np.sin(k * x), np.zeros_like(x)], axis=1))


def oracle_circle_curve(grid: Grid, k: int = 1) -> Field:
    """Closed polygon with exactly unit chords, centered at the origin.

    The curve integral of the great-circle tangents: a regular polygon whose
    vertices sit at the circumradius h / (2 sin(h k / 2)) per winding; every
    chord has length h to rounding, which is the curve-mode invariant.
    """
    if not grid.periodic:
        raise ValueError("a closed circle curve needs a periodic grid")
    gamma = gamma_integral(oracle_great_circle(grid, k), origin=0)
    centered = gamma.values - gamma.values.mean(axis=0)
    return Field(grid, centered)


def oracle_helix(grid: Grid, alpha: float, k: int):
    """Helix tangents u0, the closed-form evolution t -> values, and the
    exact lattice precession rate omega_h = cos(a) (2 - 2 cos kh) / h^2."""
    if grid.periodic:
        windings = k * grid.length / (2 * math.pi)
        if abs(windings - round(windings)) > 1e-9:
            raise ValueError("helix wavenumber incompatible with the period")
    omega = math.cos(alpha) * (2.0 - 2.0 * math.cos(k * grid.h)) / grid.h ** 2
    closed_form = helix_tangents(grid.nodes(), alpha, k, omega)
    return unit_field(grid, closed_form(0.0)), closed_form, omega


def helix_tangents(x: np.ndarray, alpha: float, k: int, omega: float):
    """t -> helix tangents at the points x, precessing at the rate omega."""
    s, c = math.sin(alpha), math.cos(alpha)

    def closed_form(t: float) -> np.ndarray:
        phase = k * x - omega * t
        return np.stack([s * np.cos(phase), s * np.sin(phase),
                         np.full_like(x, c)], axis=1)

    return closed_form


def frenet_curve(grid: Grid, kappa_fn, tau_fn):
    """March the Frenet frame for prescribed curvature and torsion profiles.

    The steppers' classical rk4 on the stacked rows (gamma, T, N, B) with
    substep h/10, frame re-orthonormalized at every node. Returns the node
    curve rebuilt from unit chords (so |D+gamma| = 1 to rounding) and the
    matching unit tangent field.
    """
    if grid.periodic:
        raise ValueError("Frenet construction runs on window grids")
    n = grid.n_nodes
    substeps = 10
    sub = grid.h / substeps

    def deriv(x, state):
        t_vec, n_vec, b_vec = state[1:]
        kap, tor = kappa_fn(x), tau_fn(x)
        return np.stack([t_vec,
                         kap * n_vec,
                         -kap * t_vec + tor * b_vec,
                         -tor * n_vec])

    def renormalize(state):
        t_vec = state[1] / np.linalg.norm(state[1])
        n_vec = state[2] - (state[2] @ t_vec) * t_vec
        n_vec = n_vec / np.linalg.norm(n_vec)
        return np.stack([state[0], t_vec, n_vec, np.cross(t_vec, n_vec)])

    # rows gamma, T, N, B
    state = np.vstack([np.zeros(3), np.eye(3)])
    # one extra node so every grid node gets a forward chord
    points = np.empty((n + 1, 3))
    points[0] = state[0]
    x = grid.x0
    for i in range(n):
        for _ in range(substeps):
            state = _rk4(deriv, None, x, state, sub)
            x += sub
        state = renormalize(state)
        points[i + 1] = state[0]

    return _unit_chord_curve(grid, np.diff(points, axis=0))


def _unit_chord_curve(grid: Grid, chords: np.ndarray, rot: np.ndarray | None = None):
    """The curve from h times the normalized chords (turned as v @ rot.T), and
    those unit tangents; |D+gamma| = 1 to rounding."""
    tangents = chords / np.linalg.norm(chords, axis=1)[:, None]
    if rot is not None:
        tangents = tangents @ rot.T
    u = unit_field(grid, tangents)
    return gamma_integral(u, origin=0), u


def _sech(z):
    """sech z without overflow for large |z|."""
    e = np.exp(-np.abs(z))
    return 2.0 * e / (1.0 + e * e)


def hasimoto_soliton(nu: float, tau0: float, x0: float):
    """Hasimoto's soliton filament and the rotation onto the Frenet march's frame.

    At g = 1, with A = 2 nu / (nu^2 + tau0^2), eta = s - 2 tau0 t and
    phi = tau0 s + (nu^2 - tau0^2) t (Hasimoto, J. Fluid Mech. 51, 1972),

        gamma(s, t) = (s - A tanh nu eta,  A sech nu eta cos phi,  A sech nu eta sin phi)

    is an arc-length curve with kappa = 2 nu sech(nu eta) and torsion tau0
    that solves gamma_t = gamma_s x gamma_ss. Returns ``closed_form``,
    (s, t) -> (gamma, gamma_s, N = gamma_ss / kappa) with one row per point
    s, and the rigid rotation R taking the Frenet frame (T, N, B) at s = x0,
    t = 0 to (e1, e2, e3), the start frame of ``frenet_curve``; rows v turn
    as v @ R.T.
    """
    amp = 2.0 * nu / (nu * nu + tau0 * tau0)

    def closed_form(s, t):
        s = np.asarray(s, dtype=float)
        eta = nu * (s - 2.0 * tau0 * t)
        phi = tau0 * s + (nu * nu - tau0 * tau0) * t
        sech, tanh, c, sn = _sech(eta), np.tanh(eta), np.cos(phi), np.sin(phi)
        gamma = np.stack([s - amp * tanh, amp * sech * c, amp * sech * sn], axis=-1)
        gamma_s = np.stack([1.0 - amp * nu * sech ** 2,
                            -amp * sech * (nu * tanh * c + tau0 * sn),
                            amp * sech * (tau0 * c - nu * tanh * sn)], axis=-1)
        # gamma_ss / kappa with the common factor sech cancelled, so the
        # normal stays defined where sech underflows far from the center
        bend = nu * nu * (2.0 * sech ** 2 - 1.0) + tau0 * tau0
        normal = (amp / (2.0 * nu)) * np.stack(
            [2.0 * nu * nu * sech * tanh,
             -(bend * c - 2.0 * nu * tau0 * tanh * sn),
             -(bend * sn + 2.0 * nu * tau0 * tanh * c)], axis=-1)
        return gamma, gamma_s, normal

    _, t_vec, n_vec = closed_form(x0, 0.0)
    n_vec = n_vec / np.linalg.norm(n_vec)
    return closed_form, np.stack([t_vec, n_vec, np.cross(t_vec, n_vec)])


def oracle_soliton_curve(grid: Grid, nu: float, tau0: float):
    """Filament with kappa = 2 nu sech(nu x), constant torsion tau0.

    Hasimoto's closed form (``hasimoto_soliton``) at t = 0, sampled at the
    n + 1 points x0 + i h; its normalized chords are turned so that the
    Frenet frame at x0 is (e1, e2, e3), the march's start frame, and the
    curve is rebuilt from h times them as ``frenet_curve`` does, so
    |D+gamma| = 1 to rounding. The curvature peak travels at speed 2 tau0.
    Requires a window that contains x = 0 and is wide enough that the
    profile has decayed at both ends.
    """
    if grid.periodic:
        raise ValueError("the soliton filament lives on a window grid")
    x_end = grid.x0 + grid.h * grid.cells
    if not grid.x0 < 0.0 < x_end:
        raise ValueError(f"window [{grid.x0:g}, {x_end:g}] misses the soliton "
                         f"centered at x = 0")
    edge_sech = float(_sech(nu * min(-grid.x0, x_end)))
    if edge_sech >= 1e-8:
        raise ValueError(f"window too narrow for nu = {nu:g}: "
                         f"sech(nu*edge) = {edge_sech:.2e}")
    closed_form, rot = hasimoto_soliton(nu, tau0, grid.x0)
    points = closed_form(grid.x0 + grid.h * np.arange(grid.n_nodes + 1), 0.0)[0]
    return _unit_chord_curve(grid, np.diff(points, axis=0), rot)


# --------------------------------------------------------------------------
# empirical stability probe
# --------------------------------------------------------------------------

def smooth_bump(grid: Grid) -> np.ndarray:
    """Smooth bump exp(1 - 1/(1 - s^2)) on |s| < 1, centered on the grid's span
    with half-width a quarter of it."""
    x = grid.nodes()
    span = grid.length if grid.periodic else grid.h * grid.cells
    s = (x - (grid.x0 + span / 2.0)) / (span / 4.0)
    out = np.zeros_like(x)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def perturbed_initial_data(u0: Field, eps: float) -> Field:
    """normalize(u0 + eps v): v a fixed smooth bump projected tangent to u0."""
    if not 0.0 < eps <= 0.1:
        raise ValueError("perturbation scale must lie in (0, 0.1]")
    bump = smooth_bump(u0.grid)
    direction = np.array([0.3, -0.5, 0.8])
    direction /= np.linalg.norm(direction)
    raw = bump[:, None] * direction
    tangent = raw - np.einsum("ij,ij->i", raw, u0.values)[:, None] * u0.values
    return normalized(Field(u0.grid, u0.values + eps * tangent))


def stability_probe(u0: Field, eps_list, speed: SpeedField, horizon: float,
                    spec: IntegratorSpec) -> list[float]:
    """H1 amplification |u(T) - u~(T)|_H1 / |u0 - u~0|_H1 of a bump of size eps,
    one ratio per eps in eps_list, every one measured against one base run.

    The base run and the perturbed runs march as one batch, in one evolve
    call, with the base as member 0; each member's bytes equal those of its
    own march. RuntimeError if any member diverges, which stops the batch
    at that member's failing step.
    """
    perturbed = [perturbed_initial_data(u0, eps) for eps in eps_list]
    result = evolve(FlowState(0.0, u0, speed, batch=perturbed), horizon, spec)
    if result.status != "ok":
        raise RuntimeError("stability probe run diverged")
    base = result.final()
    return [norm_h1(base - final) / norm_h1(u0 - u0_tilde)
            for final, u0_tilde in zip(result.batch[-1], perturbed)]
