"""CSV/JSON export of simulation reports.

The monitoring-trace files (metrics.csv, lifecycle.csv) use the same schema
the extraction pipeline ingests, so a simulation run can be fed straight
back into model reconstruction.

Byte contract: every CSV is what ``csv.writer`` writes in the excel dialect
(minimal quoting: a field holding ``,``, ``"``, ``\\r`` or ``\\n`` is wrapped
in ``"`` with inner ``"`` doubled; ``\\r\\n`` line ends; floats as ``repr``),
and ``report.json`` is ``model.json_text(report.to_dict())`` plus ``\\n``.
Each CSV is formatted as text and streamed in chunks of ``_CHUNK_ROWS`` rows,
so no CSV is ever held in memory whole; ``report.json`` holds only what no
CSV does (see ``SimulationReport.to_dict``), so it is written in one piece.
"""

from __future__ import annotations

import os
import re
from itertools import islice

from .engine import SimulationReport
from .model import json_text
from .state import LIFECYCLE_COLUMNS, METRIC_COLUMNS

UTILIZATION_CSV = "utilization.csv"
POWER_CSV = "power.csv"
SUMMARY_CSV = "summary.csv"
ACTIONS_CSV = "actions.csv"
METRICS_CSV = "metrics.csv"
LIFECYCLE_CSV = "lifecycle.csv"
AUTOSCALER_CSV = "autoscaler.csv"
REPORT_JSON = "report.json"

#: CSV rows joined into one write.
_CHUNK_ROWS = 1024
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


class _CsvField(dict):
    """Each distinct string as the excel dialect writes it as a field,
    quoted only if it must be; the quoting rule runs once per string."""

    def __missing__(self, text: str) -> str:
        field = '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text
        self[text] = field
        return field


def _write_csv(path: str, header: str, rows) -> None:
    """Write ``header`` and then the ``\\r\\n``-terminated ``rows``, joined
    ``_CHUNK_ROWS`` at a time."""
    rows = iter(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        while chunk := "".join(islice(rows, _CHUNK_ROWS)):
            fh.write(chunk)


def write_report(report: SimulationReport, out_dir: str) -> list[str]:
    """Write every report artifact into ``out_dir``; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def path(name: str) -> str:
        p = os.path.join(out_dir, name)
        written.append(p)
        return p

    q = _CsvField({None: ""})  # a VM without a host has an empty host_id
    _write_csv(path(UTILIZATION_CSV), "time_s,server_id,utilization", (
        f"{t!r},{q[server_id]},{value!r}\r\n"
        for server_id, points in report.utilization.items() for t, value in points
    ))
    _write_csv(path(POWER_CSV), "time_s,server_id,power_w", (
        f"{t!r},{q[server_id]},{value!r}\r\n"
        for server_id, points in report.power.items() for t, value in points
    ))
    _write_csv(path(SUMMARY_CSV), "server_id,energy_wh", [
        *(f"{q[server_id]},{energy!r}\r\n" for server_id, energy in report.energy_wh.items()),
        f"TOTAL,{report.total_energy_wh!r}\r\n",
    ])
    _write_csv(path(ACTIONS_CSV), "time_s,action,subject,outcome", (
        f"{t!r},{q[action]},{q[subject]},{q[outcome]}\r\n"
        for t, action, subject, outcome in report.actions
    ))
    _write_csv(path(METRICS_CSV), ",".join(METRIC_COLUMNS), (
        f"{t!r},{q[kind]},{q[entity_id]},{q[metric]},{value!r}\r\n"
        for t, kind, entity_id, metric, value in report.metrics
    ))
    _write_csv(path(LIFECYCLE_CSV), ",".join(LIFECYCLE_COLUMNS), (
        f"{t!r},{q[vm_id]},{q[event]},{q[host_id]},{vcpus!r},{ram!r},{q[initiator]}\r\n"
        for t, vm_id, event, host_id, vcpus, ram, initiator in report.lifecycle
    ))
    if report.autoscaler_series:
        _write_csv(path(AUTOSCALER_CSV), "time_s,application_id,instances,rate", (
            f"{t!r},{q[app_id]},{instances!r},{rate!r}\r\n"
            for t, app_id, instances, rate in report.autoscaler_series
        ))

    with open(path(REPORT_JSON), "w", encoding="utf-8") as fh:
        fh.write(json_text(report.to_dict()) + "\n")

    return written
