"""Spans and counters recorded around bfl's public functions, from outside.

The benchmark never edits bfl. It replaces a public function with a wrapper
in every bfl module that binds it (``bfl.integrate.rotate``,
``bfl.dynamics.delta_g``, ``bfl.convergence.evolve``, ...), so calls made
inside bfl go through the wrapper too. A wrapper records one span per call:

    (id, parent id, name, operation id, tag, start, end, thread CPU s,
     thread, attribute)

The parent is the innermost open span on the calling thread. A pool thread
has no open span of its own; its parent is then the innermost open span of
the thread that installed the tracer, which is the thread blocked in the
call that submitted the pool work. Spans stay in memory until the benchmark
takes them at the end of an operation.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

# (metric prefix, owning module, function name). The prefix names the layer
# by the module that defines the function.
TRACED = (
    ("integrate.evolve", "bfl.integrate", "evolve"),
    ("integrate.step", "bfl.integrate", "step"),
    ("integrate.rotate", "bfl.integrate", "rotate"),
    ("lattice.delta_g", "bfl.lattice", "delta_g"),
    ("lattice.norm_h1_dual", "bfl.lattice", "norm_h1_dual"),
    ("dynamics.rhs", "bfl.dynamics", "rhs"),
    ("speed.sample", "bfl.speed", "sample"),
    ("convergence.convergence_study", "bfl.convergence", "convergence_study"),
    ("convergence.stability_sweep", "bfl.convergence", "stability_sweep"),
    ("probe.stability_probe", "bfl.probe", "stability_probe"),
    ("probe.diagnose", "bfl.probe", "diagnose"),
    ("probe.frenet_curve", "bfl.probe", "frenet_curve"),
    ("config.build_initial", "bfl.config", "build_initial"),
    ("interp.resample", "bfl.interp", "resample"),
    ("reconstruct.reconstruct_curve", "bfl.reconstruct", "reconstruct_curve"),
    ("report.write_csv", "bfl.report", "write_csv"),
    ("report.write_json", "bfl.report", "write_json"),
    ("identities.run_identity_suite", "bfl.identities", "run_identity_suite"),
)

# Self times plus the time no span covers must add back to the traced
# operation's wall time within this fraction.
ACCOUNTING_TOLERANCE = 1e-3


def _bindings(fn):
    """Every (module, attribute) in bfl that binds the function object fn."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "bfl" or modname.startswith("bfl.")):
            continue
        for attr, value in vars(mod).items():
            if value is fn:
                out.append((mod, attr))
    return out


def _rebind(fn, wrapper) -> None:
    for mod, attr in _bindings(fn):
        setattr(mod, attr, wrapper)


def _evolve_inputs(args, kwargs, result) -> str:
    """Digest of an evolve call's inputs: equal digests, equal trajectories."""
    state, horizon, spec = args
    h = hashlib.blake2b(state.field.values.tobytes(), digest_size=16)
    h.update(repr((state.t, state.mode, state.speed.name, horizon, spec)).encode())
    return h.hexdigest()


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


def _snapshots(args, kwargs, result) -> int:
    return len(args[0].times)


ATTRIBUTES = {
    "integrate.evolve": _evolve_inputs,
    "report.write_csv": _file_bytes,
    "report.write_json": _file_bytes,
    "probe.diagnose": _snapshots,
}


class WorkCounter:
    """Counts node-steps: n_nodes x steps per evolve call, n_nodes per identity trial.

    This is the only instrumentation of an untraced run. It adds one Python
    call per evolve call and per identity trial, each of which does far more
    work than the call costs.
    """

    def __init__(self):
        self.node_steps = 0
        self.trials = 0
        self._lock = threading.Lock()

    def install(self) -> None:
        import bfl.identities
        import bfl.integrate

        evolve = bfl.integrate.evolve

        @functools.wraps(evolve)
        def counted_evolve(state, horizon, spec):
            result = evolve(state, horizon, spec)
            with self._lock:
                self.node_steps += result.grid.n_nodes * result.steps_taken
            return result

        _rebind(evolve, counted_evolve)

        def counted_trial(fn):
            @functools.wraps(fn)
            def trial(rng, grid):
                with self._lock:
                    self.node_steps += grid.n_nodes
                    self.trials += 1
                return fn(rng, grid)
            return trial

        table = bfl.identities.IDENTITIES
        for name, fn in list(table.items()):
            table[name] = counted_trial(fn)


class Tracer:
    """Thread-safe span recorder; wraps every function listed in TRACED.

    Only evolve spans read the thread's CPU clock (a system call): the pool
    metrics need it there, and on the small kernels it would cost more than
    the kernel.
    """

    def __init__(self):
        self.spans = []
        self.op = 0
        self.tag = ""
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def install(self) -> None:
        import importlib

        for name, module, fn_name in TRACED:
            fn = getattr(importlib.import_module(module), fn_name)
            _rebind(fn, self._wrap(name, fn, ATTRIBUTES.get(name),
                                   cpu=name == "integrate.evolve"))

    def _wrap(self, name, fn, attribute, cpu):
        tracer = self
        clock = time.perf_counter
        cpu_clock = time.thread_time if cpu else (lambda: 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home
                parent = home[-1] if home and stack is not home else 0
            sid = next(tracer._ids)
            stack.append(sid)
            c0 = cpu_clock()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                c1 = cpu_clock()
                stack.pop()
            attr = attribute(args, kwargs, result) if attribute else None
            tracer.spans.append((sid, parent, name, tracer.op, tracer.tag,
                                 t0, t1, c1 - c0, threading.get_ident(), attr))
            return result

        return wrapper

    def take(self) -> list:
        """Spans recorded so far; the recorder starts empty again."""
        spans, self.spans = self.spans, []
        return spans


def _union(intervals) -> float:
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def operation_totals(spans, wall: float) -> dict:
    """Additive per-layer totals of one operation, plus its trace self-check.

    Self time of a span is its duration minus the union of its children's
    intervals. Children that overlap (pool threads) make the sum of self
    times exceed wall time by exactly that overlap, so the check is

        sum(self) + uncovered - overlap == wall

    which fails when a parent link dangles or a child leaves its parent.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    unresolved = 0
    escaped = 0
    for s in spans:
        if s[1] and s[1] not in by_id:
            unresolved += 1
            continue
        children[s[1]].append(s)
        if s[1]:
            p = by_id[s[1]]
            if s[5] < p[5] or s[6] > p[6]:
                escaped += 1

    tot = defaultdict(float)
    self_sum = 0.0
    overlap = 0.0
    for s in spans:
        kids = children.get(s[0], ())
        covered = _union((k[5], k[6]) for k in kids)
        overlap += sum(k[6] - k[5] for k in kids) - covered
        self_s = (s[6] - s[5]) - covered
        self_sum += self_s
        name = s[2]
        tot[name + ".calls"] += 1
        tot[name + ".s"] += s[6] - s[5]
        tot[name + ".self_s"] += self_s
    roots = children.get(0, ())
    covered = _union((r[5], r[6]) for r in roots)
    overlap += sum(r[6] - r[5] for r in roots) - covered
    uncovered = wall - covered
    error = abs(self_sum + uncovered - overlap - wall) / wall

    # the layers whose ratios need the span tree or a span attribute
    def ancestors(s):
        while s[1]:
            s = by_id.get(s[1])
            if s is None:
                return
            yield s

    evolve_keys = []
    for s in spans:
        name = s[2]
        if name == "integrate.evolve":
            up = [a[2] for a in ancestors(s)]
            if "probe.stability_probe" in up:
                evolve_keys.append(s[9])
            if "convergence.convergence_study" in up or "convergence.stability_sweep" in up:
                tot["convergence.pool.level_cpu_s"] += s[7]
                tot["convergence.pool.wait_s"] += (s[6] - s[5]) - s[7]
        elif name == "lattice.norm_h1_dual" and s[4] == "soliton":
            if any(a[2] == "probe.diagnose" for a in ancestors(s)):
                tot["probe.soliton_dual_solves"] += 1
        elif name == "probe.diagnose":
            tot["probe.diagnose.snapshots"] += s[9]
            if s[4] == "soliton":
                tot["probe.soliton_snapshots"] += s[9]
        elif name in ("report.write_csv", "report.write_json"):
            tot["report.bytes"] += s[9]
        elif name in ("convergence.convergence_study", "convergence.stability_sweep"):
            threads = {k[8] for k in spans if k[2] == "integrate.evolve"
                       and s[0] in {a[0] for a in ancestors(k)}}
            tot["convergence.pool.capacity_s"] += (s[6] - s[5]) * len(threads)
            tot["convergence.pool.workers"] = max(tot["convergence.pool.workers"],
                                                  len(threads))
    tot["probe.stability_probe.evolve_calls"] += len(evolve_keys)
    tot["probe.stability_probe.distinct_trajectories"] += len(set(evolve_keys))
    tot["trace.spans"] += len(spans)
    tot["trace.unresolved_parents"] += unresolved + escaped
    tot["trace.accounting_error"] = error
    return dict(tot)


def percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of already sorted values (q in percent)."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[max(0, math.ceil(q / 100.0 * len(sorted_vals)) - 1)]


def tail_quantile(n: int) -> float:
    """Highest of p50, p90, p99, p99.9, ... that leaves >= 10 samples beyond it."""
    q = 50.0
    for cand in (90.0, 99.0, 99.9, 99.99, 99.999):
        if n * (1.0 - cand / 100.0) >= 10.0:
            q = cand
    return q


# per-layer metrics in the order they are printed, with units
LAYER_UNITS = dict(
    [("integrate.evolve.calls", "count"), ("integrate.evolve.self_s", "s"),
     ("integrate.step.calls", "count"), ("integrate.step.us.p50", "us"),
     ("integrate.step.us.tail", "us"), ("integrate.step.us.tail_pct", "%"),
     ("integrate.step.us.count", "count"),
     ("integrate.rotate.calls", "count"), ("integrate.rotate.self_s", "s"),
     ("lattice.delta_g.calls", "count"), ("lattice.delta_g.self_s", "s"),
     ("lattice.norm_h1_dual.calls", "count"), ("lattice.norm_h1_dual.self_s", "s"),
     ("dynamics.rhs.calls", "count"), ("dynamics.rhs.self_s", "s"),
     ("dynamics.rhs_evals_per_step", "ratio"),
     ("speed.sample.calls", "count"), ("speed.sample.self_s", "s"),
     ("convergence.convergence_study.s", "s"), ("convergence.stability_sweep.s", "s"),
     ("convergence.pool.wait_s", "s"), ("convergence.pool.busy_frac", "ratio"),
     ("convergence.pool.workers", "count"),
     ("probe.stability_probe.calls", "count"),
     ("probe.stability_probe.useful_frac", "ratio"),
     ("probe.stability_probe.evolve_calls", "count"),
     ("probe.diagnose.s", "s"), ("probe.diagnose.snapshots", "count"),
     ("probe.diagnose.us_per_snapshot", "us"),
     ("probe.dual_solves_per_snapshot", "ratio"), ("probe.soliton_snapshots", "count"),
     ("probe.frenet_curve.s", "s"), ("config.build_initial.s", "s"),
     ("interp.resample.calls", "count"), ("interp.resample.s", "s"),
     ("reconstruct.reconstruct_curve.s", "s"),
     ("report.write_csv.s", "s"), ("report.write_json.s", "s"),
     ("report.bytes", "B"),
     ("identities.run_identity_suite.s", "s"), ("identities.trials", "count"),
     ("identities.us_per_trial", "us"),
     ("trace.overhead_frac", "ratio"), ("trace.untraced_wall_s", "s"),
     ("trace.spans", "count"), ("trace.unresolved_parents", "count"),
     ("trace.accounting_error", "ratio")])


def layer_metrics(setup: dict, passes: list, step_us: list,
                  untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics: set-up totals plus the median pass's totals.

    Step-time percentiles pool the steps of every traced pass; their sample
    count is printed as integrate.step.us.count.

    Ratios are taken after that sum, so each has its base printed beside it:
    rhs_evals_per_step over step calls, useful_frac over the probe's evolve
    calls, busy_frac over study wall x workers, per-snapshot and per-trial
    times over snapshots and trials.
    """
    keys = set(setup).union(*passes)
    tot = {}
    for k in keys:
        per_pass = [p.get(k, 0.0) for p in passes]
        if k.startswith("trace."):
            tot[k] = max([setup.get(k, 0.0)] + per_pass)
        else:
            tot[k] = setup.get(k, 0.0) + statistics.median(per_pass)
    g = lambda k: tot.get(k, 0.0)
    ratio = lambda a, b: a / b if b else 0.0
    step_us = sorted(step_us)
    tail_pct = tail_quantile(len(step_us))
    derived = {
        "integrate.step.us.p50": percentile(step_us, 50.0),
        "integrate.step.us.tail": percentile(step_us, tail_pct),
        "integrate.step.us.tail_pct": tail_pct if step_us else 0.0,
        "integrate.step.us.count": len(step_us),
        "dynamics.rhs_evals_per_step": ratio(g("dynamics.rhs.calls"),
                                             g("integrate.step.calls")),
        "convergence.pool.busy_frac": ratio(g("convergence.pool.level_cpu_s"),
                                            g("convergence.pool.capacity_s")),
        "probe.stability_probe.useful_frac": ratio(
            g("probe.stability_probe.distinct_trajectories"),
            g("probe.stability_probe.evolve_calls")),
        "probe.diagnose.us_per_snapshot": 1e6 * ratio(g("probe.diagnose.s"),
                                                      g("probe.diagnose.snapshots")),
        "probe.dual_solves_per_snapshot": ratio(g("probe.soliton_dual_solves"),
                                                g("probe.soliton_snapshots")),
        "identities.us_per_trial": 1e6 * ratio(g("identities.run_identity_suite.s"),
                                               g("identities.trials")),
        "trace.overhead_frac": ratio(traced_wall, untraced_wall) - 1.0,
        "trace.untraced_wall_s": untraced_wall,
    }
    return {name: derived[name] if name in derived else g(name)
            for name in LAYER_UNITS}
