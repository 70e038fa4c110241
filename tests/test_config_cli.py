import csv
import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bfl
from bfl.cli import main
from bfl.config import (
    ConfigError,
    ExperimentConfig,
    build_grid,
    build_initial,
    build_integrator,
    build_speed,
    parse_config,
    parse_initial,
    refine,
    serialize_config,
)
from bfl.convergence import continuum_oracle, convergence_study
from bfl.dynamics import CURVE, TANGENT
from bfl.identities import run_identity_suite
from bfl.integrate import EvolveResult
from bfl.report import render_csv, verdict, write_json
from bfl.probe import DiagnosticsRecord, diagnose
from bfl.speed import speed_from_name


HELIX_CFG = """\
# comment line
topology = periodic
length = 6.283185307179586
nodes = 32
initial = helix:0.7853981633974483,2
speed = const:1
method = rotation
cfl = 0.25
T = 0.05
snapshot_stride = 5
probes = margins,oracle
seed = 3
"""


def test_config_round_trip():
    cfg = parse_config(HELIX_CFG)
    assert parse_config(serialize_config(cfg)) == cfg
    assert cfg.horizon == 0.05
    assert cfg.probes == ("margins", "oracle")
    # x0 means nothing on a periodic grid, but the config still carries it
    cfg = parse_config(HELIX_CFG + "x0 = 1.5\n")
    assert cfg.x0 == 1.5
    assert parse_config(serialize_config(cfg)) == cfg
    full = ExperimentConfig(length=1.25, nodes=8, x0=-0.1, intervals=16, h=0.3,
                            initial="great-circle:2", speed="sin:2,1,1", offset="mid",
                            method="rk4", dt=1e-3, horizon=0.3, snapshot_stride=4,
                            probes=("oracle",), out="results", seed=11)
    assert parse_config(serialize_config(full)) == full


def test_config_errors():
    with pytest.raises(ConfigError, match="periodic topology needs length, nodes"):
        parse_config("topology = periodic\nnodes = 8\n")
    for missing in ("x0", "intervals", "h"):
        text = "".join(line + "\n" for line in WINDOW_CFG.splitlines()
                       if not line.startswith(missing + " "))
        with pytest.raises(ConfigError, match="window topology needs x0, intervals, h"):
            parse_config(text)
    with pytest.raises(ConfigError, match="exactly one of dt or cfl"):
        parse_config(HELIX_CFG + "dt = 0.1\n")
    with pytest.raises(ConfigError, match="line 8: unknown key 'wibble'"):
        parse_config(HELIX_CFG.replace("cfl = 0.25", "wibble = 3"))
    with pytest.raises(ConfigError, match="line 1: unknown key 'frob'"):
        parse_config("frob = 1\n")
    with pytest.raises(ConfigError, match="line 13: duplicate key 'nodes'"):
        parse_config(HELIX_CFG + "nodes = 9\n")
    # T is stored as the horizon field, and a second T must not overwrite it
    with pytest.raises(ConfigError, match="line 13: duplicate key 'T'"):
        parse_config(HELIX_CFG + "T = 1.0\n")
    with pytest.raises(ConfigError, match="unknown probe 'plots'"):
        parse_config(HELIX_CFG.replace("probes = margins,oracle",
                                       "probes = plots"))


@pytest.mark.parametrize("old, new, message", [
    ("method = rotation", "method = euler", "unknown method 'euler'"),
    ("cfl = 0.25", "cfl = 5", "cfl safety factor out of range"),
    ("cfl = 0.25", "dt = 0", "dt must be positive"),
    ("snapshot_stride = 5", "snapshot_stride = 0", "snapshot_stride must be >= 1"),
    ("nodes = 32", "nodes = 2", "N >= 3"),
    ("T = 0.05", "T = 0", "horizon T must be positive"),
    ("T = 0.05", "T = -1", "horizon T must be positive"),
    ("seed = 3", "offset = left", "unknown offset 'left'"),
    ("speed = const:1", "speed = coupled-tanh:1,0.5\noffset = mid",
     "coupled coefficients sample at nodes only"),
], ids=["method", "cfl", "dt", "stride", "nodes", "T-zero", "T-negative", "offset",
        "coupled-mid"])
def test_builder_rules_apply_at_parse_time(old, new, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(HELIX_CFG.replace(old, new))


@pytest.mark.parametrize("rows, message", [
    (np.ones((32, 2)), "expected rows of ux,uy,uz"),
    (np.vstack([np.zeros((1, 3)), np.ones((31, 3))]), "zero tangent row"),
], ids=["two-columns", "zero-row"])
def test_initial_file_rejects_bad_rows(tmp_path, rows, message):
    path = tmp_path / "u0.csv"
    np.savetxt(path, rows, delimiter=",")
    cfg = parse_config(HELIX_CFG.replace("initial = helix:0.7853981633974483,2",
                                         f"initial = file:{path}"))
    grid = build_grid(cfg)
    with pytest.raises(ConfigError, match=message):
        build_initial(cfg, grid, build_speed(cfg, grid))


def test_builders_produce_runnable_state():
    cfg = parse_config(HELIX_CFG)
    grid = build_grid(cfg)
    speed = build_speed(cfg, grid)
    state, oracle = build_initial(cfg, grid, speed)
    spec = build_integrator(cfg)
    assert grid.n_nodes == 32
    assert state.mode == "tangent"
    assert oracle is not None
    assert spec.method == "rotation"


def test_offset_mid_moves_samples():
    cfg = parse_config(HELIX_CFG.replace("speed = const:1", "speed = sin:2,1,1")
                       .replace("offset_placeholder", ""))
    cfg2 = parse_config(serialize_config(cfg).replace("offset = node",
                                                      "offset = mid"))
    grid = build_grid(cfg2)
    speed = build_speed(cfg2, grid)
    assert speed.sampling_offset == -grid.h / 2  # midpoint of the cell left of each node


def test_initial_selectors():
    base = parse_config(HELIX_CFG.replace("method = rotation", "method = projected_rk4"))
    for sel, mode in [("great-circle:1", "tangent"),
                      ("coupled-circle", "curve"),
                      ("coupled-circle:2", "curve")]:
        cfg = parse_config(serialize_config(base).replace(
            "initial = helix:0.7853981633974483,2", f"initial = {sel}"))
        grid = build_grid(cfg)
        state, _ = build_initial(cfg, grid, build_speed(cfg, grid))
        assert state.mode == mode
    with pytest.raises(ConfigError):
        cfg = parse_config(serialize_config(base).replace(
            "initial = helix:0.7853981633974483,2", "initial = wobble:1"))
        build_initial(cfg, build_grid(cfg), build_speed(cfg, build_grid(cfg)))


def test_helix_oracle_scales_with_constant_speed():
    from bfl.integrate import evolve

    cfg = parse_config(HELIX_CFG.replace("speed = const:1", "speed = const:2"))
    grid = build_grid(cfg)
    speed = build_speed(cfg, grid)
    state, oracle = build_initial(cfg, grid, speed)
    res = evolve(state, cfg.horizon, build_integrator(cfg))
    err = np.max(np.abs(res.final().values - oracle(cfg.horizon)))
    assert err <= 1e-9


def test_helix_oracle_absent_for_variable_speed():
    cfg = parse_config(HELIX_CFG.replace("speed = const:1", "speed = sin:2,1,1"))
    grid = build_grid(cfg)
    _, oracle = build_initial(cfg, grid, build_speed(cfg, grid))
    assert oracle is None


@pytest.mark.parametrize("name", ["sin:1,0,1", "sintime:1,0,1,1"])
def test_constant_valued_selectors_get_the_closed_form(name):
    # alpha == beta makes these g = 1 exactly, so they take const:1's oracles
    base = parse_config(HELIX_CFG.replace("nodes = 32", "nodes = 16")
                        .replace("T = 0.05", "T = 0.2"))
    cfg = replace(base, speed=name)
    grid = build_grid(cfg)
    assert build_initial(cfg, grid, build_speed(cfg, grid))[1] is not None
    study = convergence_study(cfg, 3)
    assert study["reference"] == "continuum closed form"
    assert study["rows"] == convergence_study(base, 3)["rows"]


def test_great_circle_oracle_needs_constant_speed():
    from bfl.integrate import evolve

    # with variable g the great circle is no equilibrium: it leaves its
    # plane (final sup deviation 0.47 at n = 32, T = 0.5 for sin:2,1,1)
    for speed_name, has_oracle in [("const:1.5", True), ("sin:2,1,1", False)]:
        cfg = parse_config(HELIX_CFG.replace(
            "initial = helix:0.7853981633974483,2", "initial = great-circle:1").replace(
            "speed = const:1", f"speed = {speed_name}"))
        grid = build_grid(cfg)
        speed = build_speed(cfg, grid)
        state, oracle = build_initial(cfg, grid, speed)
        assert (oracle is not None) == has_oracle
        assert (continuum_oracle(cfg, grid) is not None) == has_oracle
        if has_oracle:
            res = evolve(state, cfg.horizon, build_integrator(cfg))
            assert np.max(np.abs(res.final().values - oracle(cfg.horizon))) <= 1e-12


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(topology="periodic", length=2 * np.pi, nodes=32,
                     initial="helix:0.7853981633974483,2", speed="const:2",
                     method="rotation", cfl=0.25, horizon=0.2),
    ExperimentConfig(topology="window", x0=-20.0, intervals=128, h=40.0 / 128,
                     initial="soliton:1,0.5", speed="const:2",
                     method="rotation", cfl=0.25, horizon=0.25),
], ids=["helix", "soliton"])
def test_continuum_oracle_scales_with_constant_speed(cfg):
    # measured orders 1.99, 2.00 (helix) and 2.03, 1.99 (soliton); an
    # oracle that ignores c measures about 0
    study = convergence_study(cfg, 3)
    assert study["reference"] == "continuum closed form"
    orders = [r["order"] for r in study["rows"] if r["order"] is not None]
    assert all(1.8 <= o <= 2.2 for o in orders), orders


@pytest.mark.parametrize("selector, message", [
    ("sin:2,1", "sin takes 3 arguments, got 2: 'sin:2,1'"),
    ("const", "const takes 1 argument, got 0: 'const'"),
    ("const:1,2", "const takes 1 argument, got 2: 'const:1,2'"),
    ("sintime:2,1,1", "sintime takes 4 arguments, got 3: 'sintime:2,1,1'"),
    ("coupled-tanh:1", "coupled-tanh takes 2 arguments, got 1: 'coupled-tanh:1'"),
], ids=["sin", "const-bare", "const-two", "sintime", "coupled-tanh"])
def test_speed_arity_errors_name_the_selector(selector, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        speed_from_name(selector)
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(HELIX_CFG.replace("speed = const:1", f"speed = {selector}"))


def test_initial_arity_errors_name_the_selector():
    # one rule serves both selector families
    with pytest.raises(ConfigError, match=re.escape("helix takes 2 arguments, got 1: 'helix:0.5")):
        parse_config(HELIX_CFG.replace("initial = helix:0.7853981633974483,2",
                                       "initial = helix:0.5"))
    with pytest.raises(ConfigError, match="unknown selector 'spiral:1'"):
        parse_config(HELIX_CFG.replace("initial = helix:0.7853981633974483,2",
                                       "initial = spiral:1"))


def test_coupled_tanh_without_amplitude_parses_as_a_constant_with_offset_mid():
    # c = 0 leaves g = a, which reads no curve: tangent data, an offset and
    # the closed-form oracle all apply
    cfg = parse_config(HELIX_CFG.replace("speed = const:1", "speed = coupled-tanh:1,0")
                       + "offset = mid\n")
    grid = build_grid(cfg)
    speed = build_speed(cfg, grid)
    assert speed.constant and not speed.coupled and speed.sampling_offset == -grid.h / 2
    assert (speed.alpha, speed.beta, speed.beta_prime) == (1.0, 1.0, 0.0)
    state, oracle = build_initial(cfg, grid, speed)
    assert state.mode == "tangent" and oracle is not None


def test_parse_initial_types_its_arguments():
    assert parse_initial("helix:0.5,2.0") == ("helix", (0.5, 2))
    assert type(parse_initial("helix:0.5,2.0")[1][1]) is int
    assert parse_initial("coupled-circle") == ("coupled-circle", (1,))
    assert parse_initial("file:a:b.csv") == ("file", ("a:b.csv",))


@pytest.mark.parametrize("initial", [
    "great-circle:1.5", "helix:0.7853981633974483,2.5", "coupled-circle:1.5"])
def test_non_integer_wavenumbers_rejected(initial):
    with pytest.raises(ConfigError, match="integer"):
        parse_config(HELIX_CFG.replace(
            "initial = helix:0.7853981633974483,2", f"initial = {initial}"))


def test_speed_head_with_space_rejected(tmp_path, capsys):
    bad = HELIX_CFG.replace("speed = const:1", "speed = const :1")
    with pytest.raises(ConfigError):
        parse_config(bad)
    cfg_path = tmp_path / "bad.bfl"
    cfg_path.write_text(bad)
    assert run_cli("converge", "-c", str(cfg_path), "--levels", "3") == 4


def readme_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config format", 1)[1]
    return parse_config(re.search(r"^```\n(.*?)^```", section, re.S | re.M).group(1))


def test_readme_config_block_builds():
    cfg = readme_config()
    grid = build_grid(cfg)
    speed = build_speed(cfg, grid)
    state, _ = build_initial(cfg, grid, speed)
    spec = build_integrator(cfg)
    assert state.field.grid == grid
    assert spec.method == cfg.method


def test_initial_from_file(tmp_path):
    rows = np.tile([0.0, 0.0, 2.0], (32, 1))  # normalized on load
    path = tmp_path / "u0.csv"
    np.savetxt(path, rows, delimiter=",")
    cfg = parse_config(serialize_config(parse_config(HELIX_CFG)).replace(
        "initial = helix:0.7853981633974483,2", f"initial = file:{path}"))
    state, oracle = build_initial(cfg, build_grid(cfg),
                                  build_speed(cfg, build_grid(cfg)))
    assert oracle is None
    assert np.allclose(state.field.values, [0.0, 0.0, 1.0])


def test_refine_periodic_and_window():
    cfg = parse_config(HELIX_CFG)
    fine = refine(cfg, 2)
    assert fine.nodes == 64
    assert fine.cfl == cfg.cfl
    wcfg = ExperimentConfig(topology="window", x0=-1.0, intervals=8, h=0.25,
                            initial="soliton:1,0.5", speed="const:1",
                            dt=1e-3, horizon=0.1)
    wfine = refine(wcfg, 4)
    assert wfine.intervals == 32
    assert wfine.h == pytest.approx(0.0625)
    assert wfine.dt is None and wfine.cfl is not None


# ------------------------------------------------------------- reports

def test_csv_rendering_deterministic():
    cfg = parse_config(HELIX_CFG)
    grid = build_grid(cfg)
    speed = build_speed(cfg, grid)

    def render_once():
        from bfl.integrate import evolve
        state, oracle = build_initial(cfg, grid, speed)
        res = evolve(state, cfg.horizon, build_integrator(cfg))
        return render_csv(diagnose(res, speed, oracle=oracle))

    text1, text2 = render_once(), render_once()
    assert text1 == text2
    header = text1.splitlines()[0].split(",")
    assert header[:3] == ["t", "unit_drift", "energy"]
    assert "margin_gradient_bound" in header
    assert "\r" not in text1


def test_write_json_streams_the_report_text(tmp_path):
    # a report the size of a long run's: 2,000 rows of full-precision floats
    rng = np.random.default_rng(18)
    report = {"schema": "bfl-run-json-1", "status": "ok", "exit_code": 0,
              "rows": [dict(zip("abcdefgh", map(float, row)))
                       for row in rng.normal(size=(2000, 8))]}
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        write_json(path, report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data = path.read_bytes()
    assert data == (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    # encoding the whole text before writing it peaks above the output size
    assert peak < len(data), f"peak {peak} B for {len(data)} B of JSON"


def test_write_json_keeps_the_earlier_report_when_encoding_fails(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"status": "ok", "rows": [{"t": 0.0}]})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, {"status": "ok", "rows": [{"t": 0.0}], "extra": object()})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_write_json_writes_through_a_symlink_and_keeps_the_mode(tmp_path):
    path, link = tmp_path / "report.json", tmp_path / "latest.json"
    write_json(path, {"status": "ok"})
    os.chmod(path, 0o640)
    link.symlink_to(path.name)
    write_json(link, {"status": "diverged"})
    assert link.is_symlink()
    assert json.loads(path.read_text()) == {"status": "diverged"}
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert sorted(tmp_path.iterdir()) == [link, path]


# ------------------------------------------------------------- CLI

def run_cli(*argv):
    return main(list(argv))


def test_cli_identities_quick(capsys):
    assert run_cli("identities", "--trials", "30") == 0
    out = capsys.readouterr().out
    assert "integration_by_parts" in out
    assert "pass" in out


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "helix.bfl"
    cfg_path.write_text(HELIX_CFG)
    assert run_cli("run", "-c", str(cfg_path), "-o", str(tmp_path)) == 0
    csv_path = tmp_path / "helix.csv"
    json_path = tmp_path / "helix.json"
    assert csv_path.exists() and json_path.exists()
    report = json.loads(json_path.read_text())
    assert report["schema"] == "bfl-run-json-2"
    assert report["csv_schema"] == "bfl-run-csv-2"
    assert report["status"] == "ok"
    assert parse_config(report["config"]) == parse_config(HELIX_CFG)
    # byte-identical on a rerun
    first = csv_path.read_bytes()
    assert run_cli("run", "-c", str(cfg_path), "-o", str(tmp_path)) == 0
    assert csv_path.read_bytes() == first


def test_cli_run_divergence_exit_code(tmp_path, capsys):
    # enough steps at cfl = 4 for the h^-2 instability to reach overflow
    bad = HELIX_CFG.replace("method = rotation", "method = rk4").replace(
        "cfl = 0.25", "cfl = 4.0").replace("T = 0.05", "T = 1.0").replace(
        "nodes = 32", "nodes = 64")
    cfg_path = tmp_path / "bad.bfl"
    cfg_path.write_text(bad)
    past_bound = r"2 sqrt\(2\)"
    with pytest.warns(RuntimeWarning, match=past_bound):
        assert run_cli("run", "-c", str(cfg_path), "-o", str(tmp_path)) == 2
    capsys.readouterr()
    with pytest.warns(RuntimeWarning, match=past_bound):
        assert run_cli("converge", "-c", str(cfg_path), "--levels", "3") == 2
    assert "divergence during study" in capsys.readouterr().err
    with pytest.warns(RuntimeWarning, match=past_bound):
        assert run_cli("stability", "-c", str(cfg_path), "--eps", "1e-2,1e-3") == 2
    assert "divergence during sweep" in capsys.readouterr().err


def test_cli_run_exits_3_when_the_total_spin_drifts(tmp_path, capsys):
    # past cfl = 0.7071 the README helix blows up (energy 25 -> 1000) on the
    # sphere; the lattice flow keeps S = h sum_i u_i, the steppers at cfl 1 do not
    def run(method, cfl):
        path = tmp_path / f"{method}-{cfl}.bfl"
        path.write_text(serialize_config(replace(readme_config(), method=method, cfl=cfl)))
        code = run_cli("run", "-c", str(path), "-o", str(tmp_path))
        report = json.loads(path.with_suffix(".json").read_text())
        assert report["exit_code"] == code
        return code, capsys.readouterr().err

    def breach(err):
        drift, t = re.fullmatch(r"total spin drifts (\S+) L by t = (\S+)\n", err).groups()
        return float(drift), float(t)

    past_bound = r"2 sqrt\(2\)"
    with pytest.warns(RuntimeWarning, match=past_bound):
        code, err = run("projected_rk4", 1.0)
    # measured 5.0e-3 L and 4.3e-3 L, 20 steps in: the third snapshot
    assert code == 3 and breach(err) == (pytest.approx(5.0e-3, rel=0.1), 0.0642552)
    code, err = run("rotation", 1.0)
    assert code == 3 and breach(err) == (pytest.approx(4.3e-3, rel=0.1), 0.0642552)
    for method in ("projected_rk4", "rotation"):
        assert run(method, 0.25) == (0, "")
    with pytest.warns(RuntimeWarning, match=past_bound):
        assert run("rk4", 4.0) == (2, "")


def test_cli_run_spin_drift_column_holds_the_reported_breach(tmp_path, capsys):
    # the stderr line quotes the first CSV row past 1e-3 L
    def first_breach(method):
        path = tmp_path / f"{method}.bfl"
        path.write_text(serialize_config(replace(readme_config(), method=method, cfl=1.0)))
        assert run_cli("run", "-c", str(path), "-o", str(tmp_path)) == 3
        with open(path.with_suffix(".csv"), newline="") as fh:
            row = next(r for r in csv.DictReader(fh) if float(r["spin_drift"]) > 1e-3)
        drift, t = float(row["spin_drift"]), float(row["t"])
        assert capsys.readouterr().err == f"total spin drifts {drift:.3e} L by t = {t:g}\n"
        return f"{drift:.3e}", f"{t:g}"

    with pytest.warns(RuntimeWarning, match=r"2 sqrt\(2\)"):
        assert first_breach("projected_rk4") == ("5.046e-03", "0.0642552")
    assert first_breach("rotation") == ("4.282e-03", "0.0642552")


def spin_rows(*drifts):
    return [DiagnosticsRecord(t=0.1 * k, unit_drift=0.0, energy=1.0, grad_norm=1.0,
                              rhs_norm=1.0, rhs_dual_norm=1.0, delta_norm=1.0, spin_drift=d)
            for k, d in enumerate(drifts)]


def test_verdict_maps_a_run_to_its_exit_code():
    rows = spin_rows(0.0, 1e-3, 2e-3, 5e-3)
    assert verdict(EvolveResult(TANGENT, status="diverged"), rows) == (2, None)
    # the first tangent row past 1e-3 L is named; 1e-3 itself passes
    assert verdict(EvolveResult(TANGENT), rows) == (3, "total spin drifts 2.000e-03 L by t = 0.2")
    assert verdict(EvolveResult(TANGENT), rows[:2]) == (0, None)
    # curve rows carry their chord-sum drift but never gate
    assert verdict(EvolveResult(CURVE), rows) == (0, None)
    assert verdict(EvolveResult(CURVE, status="diverged"), rows) == (2, None)


def test_cli_identities_threshold_exit_code(monkeypatch, capsys):
    monkeypatch.setattr("bfl.cli.run_identity_suite",
                        lambda seed, trials: {"integration_by_parts": 1e-3})
    assert run_cli("identities", "--trials", "1") == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "exceeded" in captured.err


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "broken.bfl"
    cfg_path.write_text("topology = moebius\n")
    assert run_cli("run", "-c", str(cfg_path)) == 4
    assert run_cli("run", "-c", str(tmp_path / "missing.bfl")) == 4


WINDOW_CFG = """\
topology = window
x0 = -20.0
intervals = 128
h = 0.3125
initial = soliton:1,0.5
speed = const:1
method = rotation
cfl = 0.25
T = 0.05
"""


@pytest.mark.parametrize("command", [
    ("run",), ("converge", "--levels", "3"), ("stability", "--eps", "1e-2,1e-3")],
    ids=["run", "converge", "stability"])
@pytest.mark.parametrize("text", [
    HELIX_CFG.replace("nodes = 32", "nodes = 2"),
    HELIX_CFG.replace("nodes = 32", "nodes = 0"),
    WINDOW_CFG.replace("h = 0.3125", "h = -0.1")], ids=["nodes-2", "nodes-0", "h-negative"])
def test_cli_invalid_grid_exit_code(tmp_path, capsys, command, text):
    cfg_path = tmp_path / "bad.bfl"
    cfg_path.write_text(text)
    name, *rest = command
    assert run_cli(name, "-c", str(cfg_path), *rest) == 4
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key, selector", [
    ("initial", "great-circle"), ("initial", "helix:0.7,,2"),
    ("initial", "helix :0.7,2"), ("initial", "wobble:1"), ("speed", "const:1,"),
    ("speed", "const:inf"), ("speed", "sin:2,1,inf"), ("speed", "sintime:2,1,1,nan")])
def test_cli_malformed_selector_exit_code(tmp_path, capsys, key, selector):
    old = {"initial": "initial = helix:0.7853981633974483,2",
           "speed": "speed = const:1"}[key]
    cfg_path = tmp_path / "bad.bfl"
    cfg_path.write_text(HELIX_CFG.replace(old, f"{key} = {selector}"))
    assert run_cli("run", "-c", str(cfg_path), "-o", str(tmp_path)) == 4
    assert run_cli("converge", "-c", str(cfg_path), "--levels", "3") == 4
    assert run_cli("stability", "-c", str(cfg_path), "--eps", "1e-2,1e-3") == 4
    assert "config error" in capsys.readouterr().err


def test_cli_non_finite_horizon_exit_code(tmp_path, capsys):
    # T = inf or nan made the landing tolerance inf or nan: 0 steps, status ok
    for value in ("inf", "nan"):
        text = HELIX_CFG.replace("T = 0.05", f"T = {value}")
        with pytest.raises(ConfigError, match="'T'"):
            parse_config(text)
        cfg_path = tmp_path / "bad.bfl"
        cfg_path.write_text(text)
        assert run_cli("run", "-c", str(cfg_path), "-o", str(tmp_path)) == 4
    assert "config error" in capsys.readouterr().err


def test_cli_usage_errors_exit_code(tmp_path, capsys):
    # argparse exits 2 on a usage error, which bfl reserves for divergence
    cfg_path = tmp_path / "helix.bfl"
    cfg_path.write_text(HELIX_CFG)
    assert run_cli("converge", "-c", str(cfg_path)) == 4
    assert run_cli("converge", "-c", str(cfg_path), "--levels", "3", "--offset", "mid") == 4
    assert run_cli("run") == 4
    assert run_cli("transmogrify") == 4
    capsys.readouterr()
    assert run_cli("converge", "--help") == 0
    out = capsys.readouterr().out
    assert "--levels" in out and "--offset" not in out


def test_cli_stability_rejects_zero_eps(tmp_path, capsys):
    cfg_path = tmp_path / "helix.bfl"
    cfg_path.write_text(HELIX_CFG.replace("speed = const:1", "speed = sin:2,1,1"))
    assert run_cli("stability", "-c", str(cfg_path), "--eps", "0,1e-3") == 4
    assert run_cli("stability", "-c", str(cfg_path), "--eps", "1e-3,-1e-4") == 4
    assert run_cli("stability", "-c", str(cfg_path), "--eps", "1e-2,1e-3") == 0
    out = capsys.readouterr().out
    assert "spread" in out


@pytest.mark.parametrize("eps, message", [
    ("1e-2,abc", "bad eps list"), ("1e-2", "at least two perturbation scales")])
def test_cli_stability_refuses_bad_eps_lists(tmp_path, capsys, eps, message):
    cfg_path = tmp_path / "helix.bfl"
    cfg_path.write_text(HELIX_CFG)
    assert run_cli("stability", "-c", str(cfg_path), "--eps", eps) == 4
    assert message in capsys.readouterr().err


def test_cli_refuses_config_line_without_equals(tmp_path, capsys):
    cfg_path = tmp_path / "helix.bfl"
    cfg_path.write_text(HELIX_CFG + "nodes 32\n")
    assert run_cli("run", "-c", str(cfg_path), "-o", str(tmp_path)) == 4
    assert "line 13: expected 'key = value'" in capsys.readouterr().err


def test_cli_converge_rejects_too_few_levels(tmp_path, capsys):
    cfg_path = tmp_path / "helix.bfl"
    cfg_path.write_text(HELIX_CFG)
    assert run_cli("converge", "-c", str(cfg_path), "--levels", "2") == 4
    assert "config error" in capsys.readouterr().err


def test_cli_converge_refuses_levels_that_differ_at_t0(tmp_path, capsys):
    # each level's polygon puts its vertices at other angles, so restricted
    # levels differ at t = 0 by 4.909e-2 and 2.454e-2, as much as at T: the
    # table would print order 1.000 for the sampling, not the flow
    cfg = ExperimentConfig(topology="periodic", length=2 * np.pi, nodes=32,
                           initial="coupled-circle:1", speed="coupled-tanh:1,0.5",
                           method="rk4", cfl=0.25, horizon=0.5)
    with pytest.raises(ValueError, match="at t = 0"):
        convergence_study(cfg, 3)
    cfg_path = tmp_path / "circle.bfl"
    cfg_path.write_text(serialize_config(cfg))
    assert run_cli("converge", "-c", str(cfg_path), "--levels", "3") == 4
    assert "4.909e-02 at t = 0" in capsys.readouterr().err


def test_cli_converge_prints_table(tmp_path, capsys):
    cfg_path = tmp_path / "helix.bfl"
    cfg_path.write_text(HELIX_CFG)
    assert run_cli("converge", "-c", str(cfg_path), "--levels", "3") == 0
    out = capsys.readouterr().out
    assert "reference: continuum closed form" in out
    assert "order" in out


WINDOW_CFG = """\
topology = window
x0 = -20.0
intervals = 256
h = 0.15625
initial = soliton:1,0.5
speed = const:1
method = rotation
cfl = 0.25
T = 0.05
snapshot_stride = 20
probes = margins
seed = 0
"""


def test_cli_run_window_soliton(tmp_path, capsys):
    cfg_path = tmp_path / "soliton.bfl"
    cfg_path.write_text(WINDOW_CFG)
    assert run_cli("run", "-c", str(cfg_path), "-o", str(tmp_path)) == 0
    report = json.loads((tmp_path / "soliton.json").read_text())
    assert report["status"] == "ok"
    assert report["rows"][-1]["unit_drift"] <= 1e-12


def test_cli_run_coupled_soliton_window(tmp_path, capsys):
    cfg = WINDOW_CFG.replace("initial = soliton:1,0.5",
                             "initial = coupled-soliton:1,0.5").replace(
        "speed = const:1", "speed = coupled-tanh:1,0.5").replace(
        "method = rotation", "method = rk4")
    cfg_path = tmp_path / "csol.bfl"
    cfg_path.write_text(cfg)
    assert run_cli("run", "-c", str(cfg_path), "-o", str(tmp_path)) == 0
    report = json.loads((tmp_path / "csol.json").read_text())
    assert report["status"] == "ok"


def test_mid_offset_rejected_for_coupled_speed(tmp_path):
    cfg = WINDOW_CFG.replace("initial = soliton:1,0.5",
                             "initial = coupled-soliton:1,0.5").replace(
        "speed = const:1", "speed = coupled-tanh:1,0.5").replace(
        "method = rotation", "method = projected_rk4")
    parsed = parse_config(cfg)
    with pytest.raises(ConfigError):
        build_speed(replace(parsed, offset="mid"), build_grid(parsed))


COUPLED_ROTATION_CFG = """\
topology = periodic
length = 6.283185307179586
nodes = 32
initial = coupled-circle:1
speed = coupled-tanh:1,0.5
method = rotation
cfl = 0.25
T = 0.05
"""


@pytest.mark.parametrize("text", [
    COUPLED_ROTATION_CFG,
    COUPLED_ROTATION_CFG.replace("coupled-circle:1", "coupled-soliton:1,0.5")],
    ids=["rotation", "coupled-soliton"])
def test_rotation_refuses_curve_data_at_parse_time(tmp_path, capsys, text):
    with pytest.raises(ConfigError, match="projected_rk4"):
        parse_config(text)
    cfg_path = tmp_path / "circle.bfl"
    cfg_path.write_text(text)
    assert run_cli("run", "-c", str(cfg_path), "-o", str(tmp_path)) == 4
    assert run_cli("converge", "-c", str(cfg_path), "--levels", "3") == 4
    err = capsys.readouterr().err
    assert "config error" in err and "rk4 or projected_rk4" in err
    assert not (tmp_path / "circle.csv").exists()
    # either rk4 scheme steps the same data
    for method in ("rk4", "projected_rk4"):
        cfg = parse_config(text.replace("method = rotation\n", "") + f"method = {method}\n")
        assert cfg.method == method


def test_curve_data_steps_with_the_default_method(tmp_path):
    text = COUPLED_ROTATION_CFG.replace("method = rotation\n", "")
    assert parse_config(text).method == "projected_rk4"
    cfg_path = tmp_path / "circle.bfl"
    cfg_path.write_text(text)
    assert run_cli("run", "-c", str(cfg_path), "-o", str(tmp_path)) == 0
    assert (tmp_path / "circle.csv").exists()


def test_cli_stability_refuses_curve_data(tmp_path, capsys):
    cfg_path = tmp_path / "circle.bfl"
    cfg_path.write_text(COUPLED_ROTATION_CFG.replace("method = rotation\n", ""))
    assert run_cli("stability", "-c", str(cfg_path), "--eps", "1e-2,1e-3") == 4
    assert "runs on tangent initial data" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("out", "res#1"), ("out", " x "), ("out", "x\n"), ("out", "a\nnodes = 9"),
    ("initial", "helix:0.5,2 "), ("probes", ("margins", "oracle#")),
    ("probes", (" oracle",)), ("probes", ("oracle\nseed = 4",))],
    ids=["out-hash", "out-spaces", "out-newline", "out-injected-key", "initial-space",
         "probe-hash", "probe-space", "probe-injected-key"])
def test_serialize_refuses_strings_that_would_not_parse_back(field, value):
    cfg = parse_config(HELIX_CFG)
    with pytest.raises(ConfigError, match="would not parse back"):
        serialize_config(replace(cfg, **{field: value}))


def test_cli_identities_refuses_no_trials(capsys):
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_identity_suite(seed=0, trials=trials)
        assert run_cli("identities", "--trials", str(trials)) == 4
        captured = capsys.readouterr()
        assert "pass" not in captured.out
        assert "trials must be >= 1" in captured.err


def child_env():
    """The environment of a child that imports bfl from wherever this process did."""
    src = str(Path(bfl.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "bfl.cli", "identities",
                           "--trials", "12"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "pass" in proc.stdout


def test_importing_a_module_loads_only_its_dependencies():
    # the package re-exports nothing: each name is imported from its module
    for target, loaded in (("bfl", ["bfl"]), ("bfl.lattice", ["bfl", "bfl.lattice"])):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, {target}; print(sorted("
             "m for m in sys.modules if m == 'bfl' or m.startswith('bfl.')))"],
            capture_output=True, text=True, env=child_env(), check=True)
        assert proc.stdout.strip() == repr(loaded)


def test_identity_suite_determinism():
    a = run_identity_suite(seed=5, trials=40)
    b = run_identity_suite(seed=5, trials=40)
    assert a == b
