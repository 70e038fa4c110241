"""Experiment configs: a flat key = value text format and its builders.

One experiment per file. Lines are ``key = value``; blank lines and
``#`` comments are ignored; no includes. The grammar:

    topology = periodic | window
    length = <float>             period (periodic)
    nodes = <int>                node count (periodic)
    x0 = <float>                 left end (window)
    intervals = <int>            interval count, nodes = intervals + 1 (window)
    h = <float>                  spacing (window)
    initial = great-circle:<k> | helix:<alpha>,<k> | soliton:<nu>,<tau0>
              | coupled-circle[:<k>] | coupled-soliton:<nu>,<tau0> | file:<path>
              (k an integer; a bare coupled-circle means coupled-circle:1)
    speed = const:<c> | sin:<a>,<b>,<k> | sintime:<a>,<b>,<k>,<w>
            | coupled-tanh:<a>,<b>
    offset = node | mid          g sampled at x_i, or at x_i - h/2 (default node)
    method = rotation | rk4 | projected_rk4
    dt = <float>  OR  cfl = <float>    (exactly one)
    T = <float>                  horizon
    snapshot_stride = <int>
    probes = <comma list>        extras: margins, oracle (default margins)
    out = <path>                 output directory (optional)
    seed = <int>

A selector head takes no spaces and no argument may be empty; parse_config
rejects a malformed selector (``bfl`` exits 4), and any number, in a value
or a selector argument, that is not finite. Configs round-trip:
parse(serialize(cfg)) == cfg, with floats written in shortest round-trip form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import FlowState, warn_if_near_boundary
from .integrate import IntegratorSpec
from .lattice import Grid, unit_field
from .probe import oracle_circle_curve, oracle_great_circle, oracle_helix, oracle_soliton_curve
from .speed import CONSTANT, COUPLED, SpeedField, speed_from_name, split_selector


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    topology: str = "periodic"
    length: float | None = None
    nodes: int | None = None
    x0: float | None = None
    intervals: int | None = None
    h: float | None = None
    initial: str = "great-circle:1"
    speed: str = "const:1"
    offset: str = "node"
    method: str = "rotation"
    dt: float | None = None
    cfl: float | None = None
    horizon: float = 1.0
    snapshot_stride: int = 1
    probes: tuple = ("margins",)
    out: str | None = None
    seed: int = 0


_FLOAT_KEYS = {"length", "x0", "h", "dt", "cfl", "T"}
_INT_KEYS = {"nodes", "intervals", "snapshot_stride", "seed"}
_STR_KEYS = {"topology", "initial", "speed", "offset", "method", "out"}
_KEY_TO_FIELD = {"T": "horizon"}


def parse_config(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in _FLOAT_KEYS:
                parsed = float(val)
                if not math.isfinite(parsed):
                    raise ValueError("not finite")
            elif key in _INT_KEYS:
                parsed = int(val)
            elif key in _STR_KEYS:
                parsed = val
            elif key == "probes":
                parsed = tuple(p.strip() for p in val.split(",") if p.strip())
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {val!r}") from exc
        values[_KEY_TO_FIELD.get(key, key)] = parsed
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = ["topology = " + cfg.topology]
    if cfg.topology == "periodic":
        lines += [f"length = {cfg.length!r}", f"nodes = {cfg.nodes}"]
    else:
        lines += [f"x0 = {cfg.x0!r}", f"intervals = {cfg.intervals}",
                  f"h = {cfg.h!r}"]
    lines += [f"initial = {cfg.initial}", f"speed = {cfg.speed}",
              f"offset = {cfg.offset}", f"method = {cfg.method}"]
    if cfg.dt is not None:
        lines.append(f"dt = {cfg.dt!r}")
    if cfg.cfl is not None:
        lines.append(f"cfl = {cfg.cfl!r}")
    lines += [f"T = {cfg.horizon!r}",
              f"snapshot_stride = {cfg.snapshot_stride}",
              "probes = " + ",".join(cfg.probes)]
    if cfg.out is not None:
        lines.append(f"out = {cfg.out}")
    lines.append(f"seed = {cfg.seed}")
    return "\n".join(lines) + "\n"


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.topology == "periodic":
        if cfg.length is None or cfg.nodes is None:
            raise ConfigError("periodic topology needs length and nodes")
    elif cfg.topology == "window":
        if cfg.x0 is None or cfg.intervals is None or cfg.h is None:
            raise ConfigError("window topology needs x0, intervals and h")
    else:
        raise ConfigError(f"unknown topology {cfg.topology!r}")
    if (cfg.dt is None) == (cfg.cfl is None):
        raise ConfigError("give exactly one of dt or cfl")
    if cfg.offset not in ("node", "mid"):
        raise ConfigError(f"unknown offset {cfg.offset!r}")
    if cfg.horizon <= 0:
        raise ConfigError("horizon T must be positive")
    for p in cfg.probes:
        if p not in ("margins", "oracle"):
            raise ConfigError(f"unknown probe {p!r}")
    try:
        parse_initial(cfg.initial)
        speed_from_name(cfg.speed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# argument types per initial-data head; int marks a wavenumber
_INITIAL_ARGS = {"great-circle": (int,), "helix": (float, int),
                 "soliton": (float, float), "coupled-circle": (int,),
                 "coupled-soliton": (float, float)}


def parse_initial(selector: str) -> tuple[str, tuple]:
    """Head and typed arguments of an ``initial`` selector; ValueError if malformed."""
    if selector.startswith("file:"):
        return "file", (selector[len("file:"):],)
    head, args = split_selector("coupled-circle:1" if selector == "coupled-circle" else selector)
    kinds = _INITIAL_ARGS.get(head)
    if kinds is None:
        raise ValueError(f"unknown initial data selector {selector!r}")
    if len(args) != len(kinds):
        raise ValueError(f"{head} takes {len(kinds)} arguments, got {len(args)}")
    if any(kind is int and not a.is_integer() for kind, a in zip(kinds, args)):
        raise ValueError(f"wavenumbers must be integers in {selector!r}")
    return head, tuple(kind(a) for kind, a in zip(kinds, args))


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------

def build_grid(cfg: ExperimentConfig) -> Grid:
    try:
        if cfg.topology == "periodic":
            return Grid.make_periodic(cfg.length, cfg.nodes)
        return Grid.make_window(cfg.x0, cfg.intervals, cfg.h)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_speed(cfg: ExperimentConfig, grid: Grid) -> SpeedField:
    try:
        speed = speed_from_name(cfg.speed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.offset == "mid":
        if speed.flavor == COUPLED:
            raise ConfigError("coupled coefficients sample at nodes only")
        speed = speed.with_offset(-grid.h / 2.0)
    return speed


def build_initial(cfg: ExperimentConfig, grid: Grid, speed: SpeedField):
    """Initial FlowState plus the closed-form oracle t -> values, if any."""
    # the closed forms solve the flow for a constant coefficient c, at rate c
    c = speed.beta if speed.flavor == CONSTANT else None
    try:
        head, args = parse_initial(cfg.initial)
        if head == "great-circle":
            # an equilibrium: Delta u stays parallel to u
            u0 = oracle_great_circle(grid, *args)
            vals0 = u0.values.copy()
            return FlowState(0.0, u0, speed), None if c is None else (lambda t: vals0)
        if head == "helix":
            u0, closed_form, _ = oracle_helix(grid, *args)
            oracle = None if c is None else (lambda t: closed_form(c * t))
            return FlowState(0.0, u0, speed), oracle
        if head == "soliton":
            _, u0 = oracle_soliton_curve(grid, *args)
            return FlowState(0.0, u0, speed), None
        if head == "coupled-circle":
            gamma0 = oracle_circle_curve(grid, *args)
            return FlowState(0.0, gamma0, speed, mode="curve"), None
        if head == "coupled-soliton":
            gamma0, _ = oracle_soliton_curve(grid, *args)
            return FlowState(0.0, gamma0, speed, mode="curve"), None
        (path,) = args  # file:<path>
        vals = np.loadtxt(path, delimiter=",", dtype=float)
        if vals.ndim != 2 or vals.shape[1] != 3:
            raise ConfigError(f"{path}: expected rows of ux,uy,uz")
        norms = np.linalg.norm(vals, axis=1)
        if np.any(norms == 0.0):
            raise ConfigError(f"{path}: zero tangent row")
        u0 = unit_field(grid, vals / norms[:, None])
        warn_if_near_boundary(u0)  # window data must sit 10 h off the ends
        return FlowState(0.0, u0, speed), None
    except (ValueError, OSError) as exc:
        raise ConfigError(f"initial data {cfg.initial!r}: {exc}") from exc


def build_integrator(cfg: ExperimentConfig) -> IntegratorSpec:
    try:
        return IntegratorSpec(method=cfg.method, dt=cfg.dt, cfl=cfg.cfl,
                              snapshot_stride=cfg.snapshot_stride)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def refine(cfg: ExperimentConfig, factor: int) -> ExperimentConfig:
    """Dyadic-style refinement keeping dt proportional to h^2.

    Fixed-dt configs are converted to the equivalent cfl policy at the base
    resolution so every level satisfies dt = c h^2 / beta.
    """
    out = cfg
    if cfg.dt is not None:
        grid = build_grid(cfg)
        speed = speed_from_name(cfg.speed)
        c = cfg.dt * speed.beta / grid.h ** 2
        out = replace(out, dt=None, cfl=c)
    if cfg.topology == "periodic":
        return replace(out, nodes=cfg.nodes * factor)
    return replace(out, intervals=cfg.intervals * factor,
                   h=cfg.h / factor)
