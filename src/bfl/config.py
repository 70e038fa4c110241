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
    speed = const:<a> | sin:<a>,<b>,<k> | sintime:<a>,<b>,<k>,<w>
            | coupled-tanh:<a>,<c>
              each sets those parameters of g = a + b sin(kx) cos(wt)
              + c tanh(|gamma|^2); the parameters it leaves out are 0
    offset = node | mid          g sampled at x_i, or at x_i - h/2 (default node)
    method = projected_rk4 | rk4 | rotation
                                 default projected_rk4; rotation steps
                                 tangent data only
    dt = <float>  OR  cfl = <float>    (exactly one)
    T = <float>                  horizon
    snapshot_stride = <int>
    probes = <comma list>        extras: margins, oracle (default margins)
    out = <path>                 output directory (optional)
    seed = <int>                 recorded in the report; feeds no computation

A selector head takes no spaces and no argument may be empty; a head takes
exactly as many arguments as its grammar lists. parse_config
raises ConfigError (``bfl`` exits 4) on an unknown or duplicate key, a value
of the wrong type, any number that is not finite (in a value or a selector
argument), T <= 0, an unknown probe, curve data (``_CURVE_HEADS``) with
method = rotation, and anything the builders refuse: _validate_config runs
build_grid, build_speed and build_integrator and parses the initial
selector, so each rule is stated once, by its builder. Only ``file:`` data
is read later, by build_initial. Configs round-trip for every key,
including one the topology ignores: parse(serialize(cfg)) == cfg, with
floats written in shortest round-trip form. serialize_config refuses a
string value that holds ``#`` or a line break or has outer whitespace,
which the parser would cut or strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .dynamics import CURVE, TANGENT, FlowState, warn_if_near_boundary
from .integrate import IntegratorSpec
from .lattice import Grid, unit_field
from .probe import oracle_circle_curve, oracle_great_circle, oracle_helix, oracle_soliton_curve
from .speed import SpeedField, speed_from_name, split_selector


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
    method: str = IntegratorSpec.method
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
        if key not in _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | {"probes"}:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        name = "horizon" if key == "T" else key
        if name in values:
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
            else:
                parsed = tuple(p.strip() for p in val.split(",") if p.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {val!r}") from exc
        values[name] = parsed
    cfg = ExperimentConfig(**values)
    _validate_config(cfg)
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Every field that is not None, in declaration order; floats in shortest round-trip form.

    ConfigError for a string value or probe name that parse_config would
    read back as something else: one holding ``#`` or a line break, or one
    with leading or trailing whitespace.
    """
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        for text in value if f.name == "probes" else (value,):
            if isinstance(text, str) and ("#" in text or text != text.strip()
                                          or len(text.splitlines()) > 1):
                raise ConfigError(f"{f.name} value {text!r} would not parse back: "
                                  "it holds '#', a line break or outer whitespace")
        text = ",".join(value) if f.name == "probes" else value
        lines.append(f"{'T' if f.name == 'horizon' else f.name} = {text}")
    return "\n".join(lines) + "\n"


def _validate_config(cfg: ExperimentConfig) -> None:
    """ConfigError unless the builders accept cfg; the initial data is parsed, not built."""
    if cfg.horizon <= 0:
        raise ConfigError("horizon T must be positive")
    for p in cfg.probes:
        if p not in ("margins", "oracle"):
            raise ConfigError(f"unknown probe {p!r}")
    build_speed(cfg, build_grid(cfg))
    build_integrator(cfg)
    try:
        head, _ = parse_initial(cfg.initial)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if head in _CURVE_HEADS and cfg.method == "rotation":
        raise ConfigError(f"{head} data is a curve, which method = rotation cannot step; "
                          "use rk4 or projected_rk4")


# argument types per initial-data head; int marks a wavenumber
_INITIAL_ARGS = {"great-circle": (int,), "helix": (float, int),
                 "soliton": (float, float), "coupled-circle": (int,),
                 "coupled-soliton": (float, float)}
# heads whose data is a curve gamma, marched in the curve form; the rest are tangents u
_CURVE_HEADS = {"coupled-circle", "coupled-soliton"}


def parse_initial(selector: str) -> tuple[str, tuple]:
    """Head and typed arguments of an ``initial`` selector; ValueError if malformed."""
    if selector.startswith("file:"):
        return "file", (selector[len("file:"):],)
    head, args = split_selector("coupled-circle:1" if selector == "coupled-circle" else selector,
                                _INITIAL_ARGS)
    kinds = _INITIAL_ARGS[head]
    if any(kind is int and not a.is_integer() for kind, a in zip(kinds, args)):
        raise ValueError(f"wavenumbers must be integers in {selector!r}")
    return head, tuple(kind(a) for kind, a in zip(kinds, args))


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------

_TOPOLOGIES = {"periodic": (Grid.make_periodic, ("length", "nodes")),
               "window": (Grid.make_window, ("x0", "intervals", "h"))}


def build_grid(cfg: ExperimentConfig) -> Grid:
    if cfg.topology not in _TOPOLOGIES:
        raise ConfigError(f"unknown topology {cfg.topology!r}")
    make, keys = _TOPOLOGIES[cfg.topology]
    args = [getattr(cfg, k) for k in keys]
    if None in args:
        raise ConfigError(f"{cfg.topology} topology needs {', '.join(keys)}")
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_speed(cfg: ExperimentConfig, grid: Grid) -> SpeedField:
    if cfg.offset not in ("node", "mid"):
        raise ConfigError(f"unknown offset {cfg.offset!r}")
    try:
        speed = speed_from_name(cfg.speed)
        return speed.with_offset(-grid.h / 2.0) if cfg.offset == "mid" else speed
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_initial(cfg: ExperimentConfig, grid: Grid, speed: SpeedField):
    """Initial FlowState plus the closed-form oracle t -> values, if any."""
    # the closed forms solve the flow for a constant coefficient c, at rate c
    c = speed.beta if speed.constant else None
    oracle = None
    try:
        head, args = parse_initial(cfg.initial)
        if head == "great-circle":
            # an equilibrium: Delta u stays parallel to u
            field = oracle_great_circle(grid, *args)
            vals0 = field.values.copy()
            oracle = lambda t: vals0
        elif head == "helix":
            field, closed_form, _ = oracle_helix(grid, *args)
            oracle = lambda t: closed_form(c * t)
        elif head == "soliton":
            _, field = oracle_soliton_curve(grid, *args)
        elif head == "coupled-circle":
            field = oracle_circle_curve(grid, *args)
        elif head == "coupled-soliton":
            field, _ = oracle_soliton_curve(grid, *args)
        else:
            (path,) = args  # file:<path>
            vals = np.loadtxt(path, delimiter=",", dtype=float)
            if vals.ndim != 2 or vals.shape[1] != 3:
                raise ConfigError(f"{path}: expected rows of ux,uy,uz")
            norms = np.linalg.norm(vals, axis=1)
            if np.any(norms == 0.0):
                raise ConfigError(f"{path}: zero tangent row")
            field = unit_field(grid, vals / norms[:, None])
            warn_if_near_boundary(field)  # window data must sit 10 h off the ends
        state = FlowState(0.0, field, speed, mode=CURVE if head in _CURVE_HEADS else TANGENT)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"initial data {cfg.initial!r}: {exc}") from exc
    return state, None if c is None else oracle


def build_integrator(cfg: ExperimentConfig) -> IntegratorSpec:
    try:
        return IntegratorSpec(method=cfg.method, dt=cfg.dt, cfl=cfg.cfl,
                              snapshot_stride=cfg.snapshot_stride)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def refine(cfg: ExperimentConfig, factor: int) -> ExperimentConfig:
    """The config on a grid ``factor`` times finer, with dt proportional to h^2.

    A cfl config keeps its cfl; a fixed dt is divided by factor^2, which is
    exact in binary for the dyadic factors a refinement study takes.
    """
    dt = None if cfg.dt is None else cfg.dt / factor ** 2
    if cfg.topology == "periodic":
        return replace(cfg, nodes=cfg.nodes * factor, dt=dt)
    return replace(cfg, intervals=cfg.intervals * factor, h=cfg.h / factor, dt=dt)
