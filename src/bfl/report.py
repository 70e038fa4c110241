"""Run reports: the exit code, CSV time series and JSON mirrors with the full config.

Exit code: ``verdict`` alone maps a run to 0, 2 (diverged) or 3 (a tangent's
spin drift past 1e-3 L: the lattice flow keeps S = h sum_i u_i exactly).

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
from .dynamics import TANGENT
from .integrate import EvolveResult
from .probe import DiagnosticsRecord

CSV_SCHEMA = "bfl-run-csv-2"
JSON_SCHEMA = "bfl-run-json-2"

EXIT_OK = 0
EXIT_DIVERGED = 2
EXIT_THRESHOLD = 3
EXIT_CONFIG = 4
_SPIN_DRIFT_LIMIT = 1e-3  # L; curve rows carry their chord-sum drift, ungated

_BASE_COLUMNS = ("t", "unit_drift", "energy", "grad_norm", "rhs_norm",
                 "rhs_dual_norm", "delta_norm", "spin_drift")


def verdict(result: EvolveResult, records: list[DiagnosticsRecord]) -> tuple[int, str | None]:
    """(exit code, violation or None) of a run and its diagnostics rows."""
    if result.status != "ok":
        return EXIT_DIVERGED, None
    for r in records if result.mode == TANGENT else ():
        if r.spin_drift > _SPIN_DRIFT_LIMIT:
            return EXIT_THRESHOLD, f"total spin drifts {r.spin_drift:.3e} L by t = {r.t:g}"
    return EXIT_OK, None


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def columns_for(records: list[DiagnosticsRecord]) -> list[str]:
    cols = list(_BASE_COLUMNS)
    if records and records[0].bound_margins:
        cols += [f"margin_{k}" for k in sorted(records[0].bound_margins)]
    cols.append("oracle_error")
    return cols


def csv_rows(records: list[DiagnosticsRecord]) -> list[dict]:
    rows = []
    for r in records:
        row = {c: getattr(r, c) for c in _BASE_COLUMNS + ("oracle_error",)}
        for k, v in r.bound_margins.items():
            row[f"margin_{k}"] = v
        rows.append(row)
    return rows


def render_csv(records: list[DiagnosticsRecord]) -> str:
    cols = columns_for(records)
    lines = [",".join(cols)]
    for row in csv_rows(records):
        lines.append(",".join(_fmt(row.get(c)) for c in cols))
    return "\n".join(lines) + "\n"


def write_csv(path, records: list[DiagnosticsRecord]) -> None:
    Path(path).write_text(render_csv(records), newline="\n")


def build_report(cfg: ExperimentConfig, records: list[DiagnosticsRecord],
                 status: str, exit_code: int, extras: dict | None = None) -> dict:
    report = {
        "schema": JSON_SCHEMA,
        "csv_schema": CSV_SCHEMA,
        "config": serialize_config(cfg),
        "status": status,
        "exit_code": exit_code,
        "columns": columns_for(records),
        "rows": csv_rows(records),
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
