"""bfl benchmark: run one workload in fresh processes and print its metrics.

    python3 perfbench/run.py --workload {converge,sweep,run,identities}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that holds bfl's source in src/. The
workload runs in a child process (perfbench/worker.py) whose environment
caps BLAS/OpenMP threads at 1 and leaves BFL_THREADS unset, so the load
never uses more threads than cores. Set-up time is the median over the
workload process and the fresh set-up-only processes it starts between
passes (perfbench/worker.py).

End-to-end metrics (--trace 0):
  setup_s           s             median set-up time of a fresh process
  wall_s            s             median time of one pass, checks excluded
  node_steps_per_s  node-steps/s  n_nodes x steps per pass over wall_s (for
                                  identities: n_nodes per trial)
  peak_rss_mb       MiB           peak resident memory of the workload process
Failed operations over attempted ones (failed_frac) are printed on their own
line and carried by the result's "attempted" and "failed" counts.

--trace 1 runs untraced, then traced passes, and prints the per-layer
metrics of perfbench/spans.py instead. The last line of standard output is
always one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("converge", "sweep", "run", "identities")
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = 1


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BFL_THREADS", None)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def environment(seed: int, versions: dict) -> dict:
    """Commit, machine, library versions, seed and thread settings."""
    cpu_model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bfl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = child_env()
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        **versions,
        "seed": seed,
        "threads": {"BFL_THREADS": env.get("BFL_THREADS"),
                    **{v: env[v] for v in THREAD_VARS}},
    }


def run_worker(args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(args.out)]
    # its own session, so a timeout also stops the set-up processes it started
    with subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def median_wall(passes) -> float:
    """Median pass time over passes whose operations all succeeded."""
    good = [p["wall_s"] for p in passes if p["ok"]] or [p["wall_s"] for p in passes]
    return statistics.median(good)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "bfl" / "__init__.py").is_file():
        print(f"perfbench: no bfl source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_root = ROOT / ".perfbench_out"
    args.out = out_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        res = run_worker(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.out, ignore_errors=True)
    setups = res["setup_s"]

    failed = len(res["failures"])
    attempted = res["attempted"]
    correct = failed == 0 and res.get("trace_ok", True)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(args.seed, res["versions"]), sort_keys=True))
    for failure in res["failures"]:
        print(f"FAILED {failure}")

    if args.trace:
        from spans import LAYER_UNITS

        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in res["per_layer"].items()}
        if not res["trace_ok"]:
            print("FAILED trace self-check: unresolved parents or accounting error")
    else:
        passes = res["passes"]
        wall = median_wall(passes)
        node_steps = statistics.median(p["node_steps"] for p in passes)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "node_steps_per_s": {"value": node_steps / wall, "unit": "node-steps/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
        print(f"passes {len(passes)}; set-up samples {len(setups)}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<40} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
