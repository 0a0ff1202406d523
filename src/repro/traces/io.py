"""Serialization for traces and ensembles.

Two formats are supported:

* **CSV** — one column per workload, one row per observation, with a
  two-line header carrying the calendar (weeks, slot_minutes). Convenient
  for inspecting traces in a spreadsheet and for importing real
  measurement data.
* **JSON** — a single document embedding the calendar, attribute and all
  series. Used by the examples to cache generated ensembles.
"""

from __future__ import annotations

import csv
import json
from itertools import chain
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from repro.exceptions import TraceError
from repro.traces.calendar import TraceCalendar
from repro.traces.trace import DemandTrace

PathLike = Union[str, Path]

_CSV_MAGIC = "# ropus-traces"


def save_traces_csv(traces: Sequence[DemandTrace], path: PathLike) -> None:
    """Write an ensemble of traces sharing one calendar to a CSV file."""
    if not traces:
        raise TraceError("cannot save an empty collection of traces")
    calendar = traces[0].calendar
    attribute = traces[0].attribute
    for trace in traces:
        calendar.require_compatible(trace.calendar)
        if trace.attribute != attribute:
            raise TraceError(
                f"trace {trace.name!r} attribute {trace.attribute!r} differs "
                f"from {attribute!r}"
            )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [_CSV_MAGIC, calendar.weeks, calendar.slot_minutes, attribute]
        )
        writer.writerow([trace.name for trace in traces])
        # Each sample as ``repr(float)``, the shortest string that reads
        # back to the same double. No such string needs quoting, so the
        # rows are joined here exactly as ``writer`` would write them.
        columns = [map(repr, trace.values.tolist()) for trace in traces]
        handle.writelines(
            map("{}\r\n".format, map(",".join, zip(*columns)))
        )


def _read_header(reader, path: PathLike) -> tuple[list[str], TraceCalendar, str]:
    """The names row, calendar and attribute of a trace CSV's header."""
    try:
        magic_row = next(reader)
        names = next(reader)
    except StopIteration as exc:
        raise TraceError(f"{path}: truncated trace CSV") from exc
    if not magic_row or magic_row[0] != _CSV_MAGIC:
        raise TraceError(f"{path}: not an R-Opus trace CSV")
    try:
        weeks = int(magic_row[1])
        slot_minutes = int(magic_row[2])
        attribute = magic_row[3]
    except (IndexError, ValueError) as exc:
        raise TraceError(f"{path}: malformed trace CSV header") from exc
    return names, TraceCalendar(weeks=weeks, slot_minutes=slot_minutes), attribute


def load_traces_csv(path: PathLike) -> list[DemandTrace]:
    """Read back an ensemble written by :func:`save_traces_csv`."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        names, calendar, attribute = _read_header(reader, path)

        def checked(row: list[str]) -> list[str]:
            if len(row) != len(names):
                raise TraceError(
                    f"{path}: row has {len(row)} cells, expected {len(names)}"
                )
            return row

        # Row by row and cell by cell, as the file reads: the first
        # ragged row or unparsable cell is the one reported.
        cells = chain.from_iterable(map(checked, reader))
        values = np.fromiter(map(float, cells), dtype=float)
    if not names:
        return []
    columns = values.reshape(-1, len(names)).T
    return [
        DemandTrace(name, np.ascontiguousarray(column), calendar, attribute)
        for name, column in zip(names, columns)
    ]


def load_traces_csv_repaired(
    path: PathLike,
) -> tuple[list[DemandTrace], dict[str, "TraceRepairReport"]]:
    """Load a trace CSV, quarantining bad rows instead of raising.

    Real exports from monitoring systems are messy where the strict
    loader is exacting: cells that fail to parse, NaN/negative
    readings, rows out of order. This loader admits the ensemble anyway
    and reports what it repaired:

    * unparsable / non-finite cells are carried forward from the last
      finite observation (:class:`RepairKind.NON_FINITE`);
    * negative demand is clamped to zero (:class:`RepairKind.NEGATIVE`);
    * an optional leading ``slot`` column (not emitted by
      :func:`save_traces_csv`, but common in timestamped exports) lets
      rows arrive in any order — each row lands at its stated slot,
      later duplicates win, and every inversion in file order counts as
      :class:`RepairKind.OUT_OF_ORDER`;
    * rows with the wrong cell count or an unusable slot index count as
      :class:`RepairKind.MALFORMED_ROW`; their missing cells read as
      non-finite and are repaired like any other.

    The file-level header must still be intact — with the calendar
    unreadable there is nothing sound to repair toward. Returns the
    traces (each carrying its repair total as
    :attr:`DemandTrace.repairs`) plus the per-workload reports.
    """
    from repro.traces.validation import (
        RepairKind,
        TraceRepairReport,
        quarantine_series,
    )

    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        names, calendar, attribute = _read_header(reader, path)
        has_slot_column = bool(names) and names[0] == "slot"
        workload_names = names[1:] if has_slot_column else names
        if not workload_names:
            raise TraceError(f"{path}: trace CSV names no workloads")
        n_slots = calendar.n_observations
        matrix = np.full((n_slots, len(workload_names)), np.nan)
        malformed_rows = 0
        out_of_order_rows = 0
        previous_slot = -1
        position = 0
        for row in reader:
            cells = row
            slot = position
            if has_slot_column:
                try:
                    slot = int(float(cells[0]))
                except (IndexError, ValueError):
                    malformed_rows += 1
                    position += 1
                    continue
                cells = cells[1:]
                if slot < previous_slot:
                    out_of_order_rows += 1
                previous_slot = slot
            if len(cells) != len(workload_names):
                malformed_rows += 1
                cells = (cells + [""] * len(workload_names))[
                    : len(workload_names)
                ]
            if not 0 <= slot < n_slots:
                malformed_rows += 1
                position += 1
                continue
            for column_index, cell in enumerate(cells):
                try:
                    matrix[slot, column_index] = float(cell)
                except ValueError:
                    # Stays NaN; quarantine_series repairs and counts it.
                    pass
            position += 1

    traces: list[DemandTrace] = []
    reports: dict[str, TraceRepairReport] = {}
    row_counts: dict[RepairKind, int] = {}
    if out_of_order_rows:
        row_counts[RepairKind.OUT_OF_ORDER] = out_of_order_rows
    if malformed_rows:
        row_counts[RepairKind.MALFORMED_ROW] = malformed_rows
    for column_index, name in enumerate(workload_names):
        repaired, counts = quarantine_series(matrix[:, column_index])
        counts.update(row_counts)
        report = TraceRepairReport(workload=name, counts=counts)
        reports[name] = report
        traces.append(
            DemandTrace(
                name, repaired, calendar, attribute, repairs=report.total
            )
        )
    return traces, reports


def traces_to_json(traces: Sequence[DemandTrace]) -> str:
    """Serialize an ensemble of traces to a JSON string."""
    if not traces:
        raise TraceError("cannot serialize an empty collection of traces")
    calendar = traces[0].calendar
    for trace in traces:
        calendar.require_compatible(trace.calendar)
    document = {
        "format": "ropus-traces-v1",
        "calendar": {"weeks": calendar.weeks, "slot_minutes": calendar.slot_minutes},
        "traces": [
            {
                "name": trace.name,
                "attribute": trace.attribute,
                "values": [float(value) for value in trace.values],
            }
            for trace in traces
        ],
    }
    return json.dumps(document)


def traces_from_json(text: str) -> list[DemandTrace]:
    """Deserialize an ensemble produced by :func:`traces_to_json`."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceError(f"invalid trace JSON: {exc}") from exc
    if document.get("format") != "ropus-traces-v1":
        raise TraceError("not an R-Opus trace JSON document")
    calendar_spec = document["calendar"]
    calendar = TraceCalendar(
        weeks=int(calendar_spec["weeks"]),
        slot_minutes=int(calendar_spec["slot_minutes"]),
    )
    return [
        DemandTrace(
            entry["name"],
            entry["values"],
            calendar,
            entry.get("attribute", "cpu"),
        )
        for entry in document["traces"]
    ]


def save_traces_json(traces: Sequence[DemandTrace], path: PathLike) -> None:
    Path(path).write_text(traces_to_json(traces))

