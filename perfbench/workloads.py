"""The four benchmark workloads: configs, set-up, one pass, and output checks.

Each workload is a closed loop driven by one client: a pass is one study,
sweep, pipeline run or suite after another, and the next pass starts when
the previous one has returned. A pass is a list of operations. Each
operation has a timed part that calls bfl through its public functions and
an untimed check of what came back; a check that fails, an exception, a
divergence or a nonzero status marks the operation failed.

Why these four (each stresses a layer the others bypass):

* converge - integrator-bound stepping over growing n with dt ~ h^2, the
  finest level dominating; rotation kernels, delta_g, speed sampling, the
  thread pool and restriction. No diagnostics, initial-data cost or I/O.
* sweep - many short rk4 trajectories on one small grid through
  dynamics.rhs, with the base trajectory recomputed for every eps; per-call
  overhead dominates. No rotate calls, so a rotate-only change leaves it
  unmoved.
* run - the `bfl run` pipeline on a window soliton (Frenet-built initial
  data, dual-norm diagnostics per snapshot, report I/O, reconstruction) and
  on a coupled curve-form circle; the only workload where set-up,
  diagnostics and the write side carry weight.
* identities - thousands of operator calls on tiny fresh grids, no time
  stepping; the only workload where Field/Grid construction dominates.
"""

from __future__ import annotations

import math
from pathlib import Path

import bfl.config
import bfl.convergence
import bfl.identities
import bfl.integrate
import bfl.probe
import bfl.reconstruct
import bfl.report

HELIX = "helix:0.7853981633974483,2"
TWO_PI = repr(2 * math.pi)

# acceptance criterion 8: helix against the continuum closed form, and the
# variable-g study with midpoint samples against the next finer level
CONVERGE_CONFIGS = {
    "helix": f"""
topology = periodic
length = {TWO_PI}
nodes = 32
initial = {HELIX}
speed = const:1
method = rotation
cfl = 0.25
T = 1.0
""",
    "variable-g": f"""
topology = periodic
length = {TWO_PI}
nodes = 64
initial = {HELIX}
speed = sin:2,1,1
offset = mid
method = rotation
cfl = 0.25
T = 0.3
""",
}
CONVERGE_LEVELS = 3
ORDER_BAND = (1.7, 2.3)

# acceptance criterion 9's periodic helix, stepped with rk4
SWEEP_CONFIG = f"""
topology = periodic
length = {TWO_PI}
nodes = 64
initial = {HELIX}
speed = sin:2,1,1
method = rk4
cfl = 0.25
T = 0.5
"""
SWEEP_EPS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5)
SWEEP_MAX_SPREAD = 0.2

# acceptance criterion 11's window soliton and criterion 10's coupled circle
RUN_CONFIGS = {
    "soliton": """
topology = window
x0 = -20.0
intervals = 512
h = 0.078125
initial = soliton:1.0,0.5
speed = const:1
method = rotation
cfl = 0.25
T = 1.0
snapshot_stride = 1
probes = margins
""",
    "curve": f"""
topology = periodic
length = {TWO_PI}
nodes = 64
initial = coupled-circle:1
speed = coupled-tanh:1,0.5
method = rk4
cfl = 0.25
T = 0.5
snapshot_stride = 20
probes = margins
""",
}
SOLITON_TAU0 = 0.5
UNIT_DRIFT_MAX = 1e-12
CHORD_DRIFT_MAX = 1e-8
MARGIN_MIN = -1e-8
PEAK_SPEED_REL_ERR = 0.10


def parse(text: str, seed: int):
    return bfl.config.parse_config(text + f"seed = {seed}\n")


def build(cfg):
    """Grid, speed, initial state (with its oracle) and integrator of a config."""
    grid = bfl.config.build_grid(cfg)
    speed = bfl.config.build_speed(cfg, grid)
    state, oracle = bfl.config.build_initial(cfg, grid, speed)
    return speed, state, oracle, bfl.config.build_integrator(cfg)


class Failed(Exception):
    """An operation's output check failed."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Failed(what)


class Operation:
    """One unit of work: ``call`` is timed, ``check`` of its result is not."""

    def __init__(self, name, call, check):
        self.name, self.call, self.check = name, call, check


# --------------------------------------------------------------------------

class Workload:
    """Set-up parses and builds every config; operations() lists one pass."""

    def __init__(self, seed: int, out_dir: Path):
        self.seed, self.out_dir = seed, out_dir

    def setup(self) -> None:
        pass


class Converge(Workload):
    def setup(self):
        self.configs = {name: parse(text, self.seed)
                        for name, text in CONVERGE_CONFIGS.items()}
        for cfg in self.configs.values():
            build(cfg)

    def operations(self):
        helix, varg = self.configs["helix"], self.configs["variable-g"]
        return [
            Operation("helix", lambda: bfl.convergence.convergence_study(
                helix, CONVERGE_LEVELS), self._check(True)),
            Operation("variable-g", lambda: bfl.convergence.convergence_study(
                varg, CONVERGE_LEVELS), self._check(False)),
        ]

    @staticmethod
    def _check(continuum: bool):
        def check(study):
            require((study["reference"] == "continuum closed form") == continuum,
                    f"reference {study['reference']!r}")
            orders = [r["order"] for r in study["rows"] if r["order"] is not None]
            require(len(orders) >= 1 and all(
                ORDER_BAND[0] <= o <= ORDER_BAND[1] for o in orders),
                f"orders {orders} outside {ORDER_BAND}")
        return check


class Sweep(Workload):
    def setup(self):
        self.cfg = parse(SWEEP_CONFIG, self.seed)
        build(self.cfg)

    def operations(self):
        return [Operation("sweep", lambda: bfl.convergence.stability_sweep(
            self.cfg, SWEEP_EPS), self._check)]

    @staticmethod
    def _check(sweep):
        ratios = [row["ratio"] for row in sweep["rows"]]
        require(len(ratios) == len(SWEEP_EPS) and all(map(math.isfinite, ratios)),
                f"ratios {ratios}")
        require(sweep["spread"] < SWEEP_MAX_SPREAD, f"spread {sweep['spread']}")


class Run(Workload):
    """`bfl run`'s stages, then reconstruction and Frenet peak tracking.

    The soliton CSV of every pass must match the first pass byte for byte.
    """

    first_csv = None

    def setup(self):
        self.built = {}
        for name, text in RUN_CONFIGS.items():
            cfg = parse(text, self.seed)
            self.built[name] = (cfg, *build(cfg))

    def operations(self):
        return [Operation(name, lambda name=name: self._pipeline(name),
                          getattr(self, "_check_" + name)) for name in self.built]

    def _pipeline(self, name):
        cfg, speed, state, oracle, spec = self.built[name]
        result = bfl.integrate.evolve(state, cfg.horizon, spec)
        records = bfl.probe.diagnose(
            result, speed, margins="margins" in cfg.probes,
            oracle=oracle if "oracle" in cfg.probes else None)
        code = bfl.report.EXIT_OK if result.status == "ok" else bfl.report.EXIT_DIVERGED
        csv_path = self.out_dir / f"{name}.csv"
        bfl.report.write_csv(csv_path, records)
        bfl.report.write_json(self.out_dir / f"{name}.json", bfl.report.build_report(
            cfg, records, result.status, code, extras={"steps": result.steps_taken}))
        traj = bfl.reconstruct.TangentTrajectory.from_result(result)
        curves = bfl.reconstruct.reconstruct_curve(traj)
        peaks = None
        if result.mode == "tangent":
            peaks = [bfl.probe.peak_location(bfl.probe.frenet(c).kappa)
                     for c in (curves.fields[0], curves.final())]
        return cfg, result, code, records, csv_path, peaks

    @staticmethod
    def _check_common(out, drift_max):
        cfg, result, code, records, _, _ = out
        require(result.status == "ok" and code == bfl.report.EXIT_OK,
                f"status {result.status}, exit code {code}")
        require(len(records) == len(result.times), "diagnostics stopped early")
        drift = max(r.unit_drift for r in records)
        require(drift <= drift_max, f"drift {drift:.3e} > {drift_max:g}")

    def _check_soliton(self, out):
        self._check_common(out, UNIT_DRIFT_MAX)
        cfg, result, code, records, csv_path, peaks = out
        worst = min(min(r.bound_margins.values()) for r in records)
        require(worst >= MARGIN_MIN, f"bound margin {worst:.3e}")
        speed = (peaks[1] - peaks[0]) / cfg.horizon
        rel = abs(speed - 2 * SOLITON_TAU0) / (2 * SOLITON_TAU0)
        require(rel <= PEAK_SPEED_REL_ERR, f"peak speed {speed:.4f}")
        data = csv_path.read_bytes()
        if self.first_csv is None:
            self.first_csv = data
        require(data == self.first_csv, "soliton CSV bytes differ between passes")

    def _check_curve(self, out):
        self._check_common(out, CHORD_DRIFT_MAX)


class Identities(Workload):
    def operations(self):
        return [Operation("suite", lambda: bfl.identities.run_identity_suite(
            seed=self.seed), self._check)]

    @staticmethod
    def _check(results):
        require(len(results) == len(bfl.identities.IDENTITIES), "missing identities")
        worst = max(results.values())
        require(bfl.identities.suite_passes(results),
                f"worst residual {worst:.3e} > {bfl.identities.IDENTITY_THRESHOLD:g}")


WORKLOADS = {"converge": Converge, "sweep": Sweep, "run": Run,
             "identities": Identities}
