"""Run reports: the exit code, CSV time series and JSON mirrors with the full config.

Exit code: ``verdict`` alone maps a run to 0, 2 (diverged) or 3 (a row
whose spin or unit drift passes 1e-3: the lattice flow keeps S = h sum_i
u_i, a curve's chord sum too, and every |u_i|, a curve's chord lengths).

CSV: comma separated, '.' decimal, one header row, LF line endings, floats
in shortest round-trip form, so identical (config, seed) runs produce
byte-identical files. The column schema is versioned and echoed in the JSON
report.

JSON: indented two spaces, keys sorted, one final LF. It is streamed as it
is encoded, so writing a report never holds its whole text in memory, into a
temporary file beside the target that replaces the target only once the
whole report is written: a report that fails to encode leaves any earlier
file at that path as it was. A symlinked path is resolved and its target
replaced; an earlier report's permission bits carry over to the new file,
but not its owner or group, since the new file belongs to the writer. A
process killed mid-write leaves its hidden .<name>.<pid>.tmp file behind.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

from .config import ExperimentConfig, serialize_config
from .integrate import EvolveResult
from .probe import DiagnosticsRecord

_CSV_SCHEMA = "bfl-run-csv-2"
_JSON_SCHEMA = "bfl-run-json-2"

EXIT_OK = 0
EXIT_DIVERGED = 2
EXIT_THRESHOLD = 3
EXIT_CONFIG = 4
_DRIFT_LIMIT = 1e-3  # spin drift in L, unit drift absolute

_BASE_COLUMNS = ("t", "unit_drift", "energy", "grad_norm", "rhs_norm",
                 "rhs_dual_norm", "delta_norm", "spin_drift")


def verdict(result: EvolveResult, records: list[DiagnosticsRecord]) -> tuple[int, str | None]:
    """(exit code, violation or None) of a run and its diagnostics rows.

    Each row gates its spin drift, then its unit drift; the first breach
    decides. For a curve S is the chord sum h sum_cells u_i of u = D+gamma:
    0 identically on a periodic grid, and gamma_N - gamma_0 on a window,
    conserved since both end nodes are fixed points of the flow (at node 0
    the zero ghost makes D-u_0 = u_0 / h parallel to u_0; at node N,
    u_N = D+gamma_N reads gamma's constant ghost and is 0). rk4 keeps it to
    rounding; projected_rk4's chord projection moves it by its step error
    (window coupled soliton: 1.8e-11 L at cfl 0.25, 0.53 L at cfl 1). So a
    periodic curve's blow-up shows in its unit drift, a chord's change of
    length: the coupled circle (64 nodes, stride 20) reads <= 8.0e-15 at
    cfl 0.25 to 0.7 and 2.68e-2 at cfl 1; stable rk4 runs read <= 7.2e-6.
    """
    if result.status != "ok":
        return EXIT_DIVERGED, None
    for r in records:
        if r.spin_drift > _DRIFT_LIMIT:
            return EXIT_THRESHOLD, f"total spin drifts {r.spin_drift:.3e} L by t = {r.t:g}"
        if r.unit_drift > _DRIFT_LIMIT:
            return EXIT_THRESHOLD, f"unit drift {r.unit_drift:.3e} by t = {r.t:g}"
    return EXIT_OK, None


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _columns_for(records: list[DiagnosticsRecord]) -> list[str]:
    cols = list(_BASE_COLUMNS)
    if records and records[0].bound_margins:
        cols += [f"margin_{k}" for k in sorted(records[0].bound_margins)]
    cols.append("oracle_error")
    return cols


def _csv_rows(records: list[DiagnosticsRecord]) -> list[dict]:
    rows = []
    for r in records:
        row = {c: getattr(r, c) for c in _BASE_COLUMNS + ("oracle_error",)}
        for k, v in r.bound_margins.items():
            row[f"margin_{k}"] = v
        rows.append(row)
    return rows


def render_csv(records: list[DiagnosticsRecord]) -> str:
    cols = _columns_for(records)
    lines = [",".join(cols)]
    for row in _csv_rows(records):
        lines.append(",".join(_fmt(row.get(c)) for c in cols))
    return "\n".join(lines) + "\n"


def write_csv(path, records: list[DiagnosticsRecord]) -> None:
    Path(path).write_text(render_csv(records), newline="\n")


def build_report(cfg: ExperimentConfig, records: list[DiagnosticsRecord],
                 status: str, exit_code: int, extras: dict | None = None) -> dict:
    report = {
        "schema": _JSON_SCHEMA,
        "csv_schema": _CSV_SCHEMA,
        "config": serialize_config(cfg),
        "status": status,
        "exit_code": exit_code,
        "columns": _columns_for(records),
        "rows": _csv_rows(records),
    }
    if extras:
        report.update(extras)
    return report


def write_json(path, report: dict) -> None:
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if path.exists():
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
