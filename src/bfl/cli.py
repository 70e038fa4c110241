"""Batch driver.

Subcommands:

    bfl identities [--seed S] [--trials N]
    bfl run -c FILE [-o DIR]
    bfl converge -c FILE --levels K
    bfl stability -c FILE --eps LIST

Exit codes: 0 pass, 2 numerical divergence, 3 acceptance-threshold failure,
4 config or usage error; run's code and violation are ``report.verdict``'s.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, build_grid, build_initial, build_integrator, build_speed, parse_config
from .convergence import convergence_study, stability_sweep
from .identities import IDENTITY_THRESHOLD, run_identity_suite, suite_passes
from .integrate import evolve
from .probe import diagnose
from .report import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_THRESHOLD,
    build_report,
    verdict,
    write_csv,
    write_json,
)


def _load_config(path: str):
    try:
        return parse_config(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def cmd_identities(args) -> int:
    try:
        results = run_identity_suite(seed=args.seed, trials=args.trials)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    width = max(len(k) for k in results)
    for name, worst in sorted(results.items()):
        status = "pass" if worst <= IDENTITY_THRESHOLD else "FAIL"
        print(f"{name:<{width}}  worst residual {worst:11.3e}  {status}")
    if not suite_passes(results):
        print(f"threshold {IDENTITY_THRESHOLD:g} exceeded", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    grid = build_grid(cfg)
    speed = build_speed(cfg, grid)
    state, oracle = build_initial(cfg, grid, speed)
    spec = build_integrator(cfg)
    result = evolve(state, cfg.horizon, spec)
    records = diagnose(result, speed,
                       margins="margins" in cfg.probes,
                       oracle=oracle if "oracle" in cfg.probes else None)
    status_code, violation = verdict(result, records)
    if violation:
        print(violation, file=sys.stderr)
    out_dir = Path(args.out or cfg.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.config).stem or "run"
    write_csv(out_dir / f"{stem}.csv", records)
    write_json(out_dir / f"{stem}.json",
               build_report(cfg, records, result.status, status_code,
                            extras={"steps": result.steps_taken}))
    if records:
        last = records[-1]
        print(f"{result.status}: {result.steps_taken} steps to t = {last.t:g}, "
              f"unit drift {last.unit_drift:.3e}, energy {last.energy:.6g}")
        if last.oracle_error is not None:
            print(f"final oracle error {last.oracle_error:.3e}")
    else:
        print(f"{result.status}: no diagnosable snapshots")
    print(f"wrote {out_dir / (stem + '.csv')} and {out_dir / (stem + '.json')}")
    return status_code


def cmd_converge(args) -> int:
    cfg = _load_config(args.config)
    try:
        study = convergence_study(cfg, args.levels)
    except RuntimeError as exc:
        print(f"divergence during study: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as exc:
        raise ConfigError(str(exc))
    print(f"reference: {study['reference']}  (coefficient sampling: "
          f"{study['offset']})")
    print(f"{'h':>12} {'nodes':>7} {'error':>13} {'order':>7}")
    for row in study["rows"]:
        order = "" if row["order"] is None else f"{row['order']:7.3f}"
        print(f"{row['h']:12.6g} {row['n_nodes']:7d} {row['error']:13.5e} {order}")
    return EXIT_OK


def cmd_stability(args) -> int:
    cfg = _load_config(args.config)
    try:
        eps_list = [float(s) for s in args.eps.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"bad eps list {args.eps!r}")
    try:
        sweep = stability_sweep(cfg, eps_list)
    except RuntimeError as exc:
        print(f"divergence during sweep: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as exc:
        raise ConfigError(str(exc))
    print(f"{'eps':>10} {'H1 amplification':>18}")
    for row in sweep["rows"]:
        print(f"{row['eps']:10.3g} {row['ratio']:18.6g}")
    print(f"spread (max-min)/mean: {sweep['spread']:.3%}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfl",
        description="Semi-discrete binormal-flow lab: identity checks, "
                    "simulation runs, convergence and stability studies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identities", help="randomized exact-identity suite")
    p_id.add_argument("--seed", type=int, default=0)
    p_id.add_argument("--trials", type=int, default=1000)
    p_id.set_defaults(fn=cmd_identities)

    p_run = sub.add_parser("run", help="evolve one experiment, write CSV/JSON")
    p_run.add_argument("-c", "--config", required=True)
    p_run.add_argument("-o", "--out", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_conv = sub.add_parser("converge", help="dyadic refinement study")
    p_conv.add_argument("-c", "--config", required=True)
    p_conv.add_argument("--levels", type=int, required=True)
    p_conv.set_defaults(fn=cmd_converge)

    p_stab = sub.add_parser("stability", help="perturbation amplification sweep")
    p_stab.add_argument("-c", "--config", required=True)
    p_stab.add_argument("--eps", required=True,
                        help="comma-separated perturbation scales")
    p_stab.set_defaults(fn=cmd_stability)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
