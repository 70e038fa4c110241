"""One benchmark process: set up a workload, then run passes of it.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                --out DIR [--setup-only]

Started by perfbench/run.py with bfl's source on PYTHONPATH; prints one
JSON object. Set-up time runs from the first statement, before bfl is
imported, to the end of the workload's set-up. Passes run until --seconds
have elapsed (at least one). Between passes, at evenly spaced times, the
process starts SETUP_SAMPLES - 1 fresh copies of itself with --setup-only,
one at a time, so the set-up samples see the same machine conditions as the
passes. With --trace 1 the first half of the time runs untraced passes (no
set-up samples), then the tracer is installed, set-up is repeated under it
and the second half runs traced passes.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


SETUP_SAMPLES = 5


def setup_sample(argv) -> float:
    """Set-up time of a fresh process started with this process's arguments."""
    proc = subprocess.run([sys.executable, __file__, *argv, "--setup-only"],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)["setup_s"]


class Client:
    """Runs passes of one workload and keeps every operation's outcome."""

    def __init__(self, workload, counter, failed_cls):
        self.workload, self.counter, self.failed_cls = workload, counter, failed_cls
        self.attempted = 0
        self.failures = []

    def run_pass(self, tracer=None) -> dict:
        wall = 0.0
        ok = True
        nodes0, trials0 = self.counter.node_steps, self.counter.trials
        for op in self.workload.operations():
            self.attempted += 1
            if tracer is not None:
                tracer.tag = op.name
            t0 = time.perf_counter()
            try:
                out = op.call()
                err = None
            except Exception as exc:  # an operation that raises counts as failed
                err = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            wall += time.perf_counter() - t0
            if err is None:
                try:
                    op.check(out)
                except self.failed_cls as exc:
                    err = str(exc)
            if err is not None:
                ok = False
                self.failures.append(f"{op.name}: {err}")
        return {"wall_s": wall, "ok": ok,
                "node_steps": self.counter.node_steps - nodes0,
                "trials": self.counter.trials - trials0}

    def run_passes(self, seconds: float, tracer=None, on_pass=None,
                   setups=None) -> list:
        """Passes until ``seconds`` have elapsed; set-up samples in between.

        ``setups`` is (argv, samples list): a fresh set-up sample is taken
        whenever the elapsed time passes the next of SETUP_SAMPLES - 1 evenly
        spaced slots.
        """
        passes = []
        begin = time.perf_counter()
        slot = 0
        while not passes or time.perf_counter() - begin < seconds:
            if tracer is not None:
                tracer.op = len(passes) + 1
            passes.append(self.run_pass(tracer))
            if on_pass is not None:
                on_pass(passes[-1])
            while setups is not None and slot < SETUP_SAMPLES - 1 and (
                    time.perf_counter() - begin >= slot * seconds / (SETUP_SAMPLES - 1)):
                setups[1].append(setup_sample(setups[0]))
                slot += 1
        return passes


def write_spans(path: Path, spans) -> None:
    with path.open("a") as fh:
        for s in spans:
            fh.write(",".join(map(str, s[:9])) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads  # imports bfl: part of set-up

    workload = workloads.WORKLOADS[args.workload](args.seed, args.out)
    workload.setup()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy
    import spans

    counter = spans.WorkCounter()
    counter.install()
    client = Client(workload, counter, workloads.Failed)
    budget = args.seconds / 2 if args.trace else args.seconds
    setups = [setup_s]
    child_argv = sys.argv[1:]
    untraced = client.run_passes(budget, setups=None if args.trace else (child_argv, setups))
    result = {"setup_s": setups, "passes": untraced,
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        # one file per workload, replaced by each traced run
        span_file = args.out.parent / f"spans-{args.workload}.csv"
        span_file.write_text("id,parent,name,op,tag,start,end,cpu_s,thread\n")
        tracer.tag = "setup"
        t0 = time.perf_counter()
        workload.setup()
        setup_spans = tracer.take()
        setup_totals = spans.operation_totals(setup_spans, time.perf_counter() - t0)
        write_spans(span_file, setup_spans)
        step_us = []
        totals = []

        def collect(p):
            taken = tracer.take()
            step_us.extend(1e6 * (s[6] - s[5]) for s in taken
                           if s[2] == "integrate.step")
            t = spans.operation_totals(taken, p["wall_s"])
            t["identities.trials"] = p["trials"]
            totals.append(t)
            write_spans(span_file, taken)

        traced = client.run_passes(budget, tracer, collect)
        med = lambda ps: statistics.median(p["wall_s"] for p in ps)
        layers = spans.layer_metrics(setup_totals, totals, step_us,
                                     med(untraced), med(traced))
        result["per_layer"] = layers
        result["trace_ok"] = (layers["trace.unresolved_parents"] == 0 and
                              layers["trace.accounting_error"]
                              <= spans.ACCOUNTING_TOLERANCE)

    result["attempted"] = client.attempted
    result["failures"] = client.failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
