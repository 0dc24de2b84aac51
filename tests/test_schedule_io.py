"""Schedule file parsing, writing and round-trip tests."""

from __future__ import annotations

import csv
import io
import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schednet import (
    ActivityRecord,
    Dependency,
    ScheduleParseError,
    build_network,
    load_network,
    network_from_json,
    network_to_json,
    read_activities,
    read_dependencies,
    topological_order,
    write_activities,
    write_dependencies,
)
from oracles import make_records, random_network, read_schedule

ACTIVITY_CSV = """id,name,planned_start,planned_end,actual_start,actual_end
a,Dig,2021-01-01,2021-01-05,2021-01-02,2021-01-06
b,Pour,2021-01-06,2021-01-08,,
c,Cure,2021-01-09,2021-01-12,2021-01-09,
"""

DEPENDENCY_CSV = """predecessor,successor
a,b
b,c
"""

ACTIVITY_FIELDS = ("id", "name", "planned_start", "planned_end", "actual_start", "actual_end")
DEPENDENCY_FIELDS = ("predecessor", "successor")
DAYS = [(date(2021, 1, 1) + timedelta(days=k)).isoformat() for k in range(6)]
TEXT = st.text(alphabet='ab ,"\n', max_size=4)  # cells that need quotes, and spaces that the readers strip


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReadActivities:
    def test_parses_rows_and_empty_actuals(self, tmp_path):
        records = read_activities(write(tmp_path, "a.csv", ACTIVITY_CSV))
        assert [r.id for r in records] == ["a", "b", "c"]
        assert records[0].actual_end == date(2021, 1, 6)
        assert records[1].actual_start is None
        assert records[2].actual_end is None

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "a.csv", "id,name\n")
        with pytest.raises(ScheduleParseError) as excinfo:
            read_activities(path)
        assert excinfo.value.line == 1

    def test_bad_date_reports_line(self, tmp_path):
        text = ACTIVITY_CSV.replace("2021-01-06,2021-01-08", "not-a-date,2021-01-08")
        with pytest.raises(ScheduleParseError) as excinfo:
            read_activities(write(tmp_path, "a.csv", text))
        assert excinfo.value.line == 3

    # Python 3.11 and later read both forms with date.fromisoformat, and 3.10 neither
    @pytest.mark.parametrize("form", ["20210106", "2021-W01-3"])
    def test_only_year_month_day_dates_read_on_every_python(self, tmp_path, form):
        text = ACTIVITY_CSV.replace("2021-01-06,2021-01-08", f"{form},2021-01-08")
        with pytest.raises(ScheduleParseError, match=f"planned_start: invalid ISO date '{form}'") as excinfo:
            read_activities(write(tmp_path, "a.csv", text))
        assert excinfo.value.line == 3
        data = network_to_json(build_network(make_records("ab"), [Dependency("a", "b")]))
        data["nodes"][1]["actual_end"] = form
        with pytest.raises(ValueError, match="expected YYYY-MM-DD"):
            network_from_json(data)

    def test_line_after_a_two_line_quoted_name_is_the_physical_line(self, tmp_path):
        text = ACTIVITY_CSV.replace("a,Dig,", 'a,"Dig\nsite",').replace("2021-01-06,2021-01-08", "not-a-date,2021-01-08")
        with pytest.raises(ScheduleParseError) as excinfo:
            read_activities(write(tmp_path, "a.csv", text))
        assert excinfo.value.line == 4
        assert ":4:" in str(excinfo.value)

    def test_duplicate_id_reports_line(self, tmp_path):
        text = ACTIVITY_CSV + "a,Again,2021-02-01,2021-02-02,,\n"
        with pytest.raises(ScheduleParseError) as excinfo:
            read_activities(write(tmp_path, "a.csv", text))
        assert excinfo.value.line == 5

    def test_wrong_field_count(self, tmp_path):
        text = ACTIVITY_CSV + "d,Short,2021-02-01\n"
        with pytest.raises(ScheduleParseError) as excinfo:
            read_activities(write(tmp_path, "a.csv", text))
        assert excinfo.value.line == 5

    def test_empty_file(self, tmp_path):
        with pytest.raises(ScheduleParseError):
            read_activities(write(tmp_path, "a.csv", ""))


    def test_utf8_bom_is_accepted(self, tmp_path):
        plain = read_activities(write(tmp_path, "a.csv", ACTIVITY_CSV))
        assert read_activities(write(tmp_path, "bom.csv", "\ufeff" + ACTIVITY_CSV)) == plain

    # each date text is parsed once per file; a bad one after good ones in its field keeps its own error
    @pytest.mark.parametrize(
        "field, text",
        [
            ("planned_start", "2021-02-30"),
            ("planned_end", "2021-1-05"),
            ("actual_start", "2021-01-02x"),
            ("actual_end", "tomorrow"),
        ],
    )
    def test_an_invalid_date_after_valid_ones_in_its_field_keeps_its_name_and_line(self, tmp_path, field, text):
        dates = dict(planned_start="2021-01-01", planned_end="2021-01-05", actual_start="2021-01-02", actual_end="2021-01-06")
        rows = [f"a{k},Row {k}," + ",".join(dates.values()) for k in range(3)]
        rows.append("z,Bad," + ",".join({**dates, field: text}.values()))
        path = write(tmp_path, "a.csv", "\n".join([",".join(ACTIVITY_FIELDS), *rows]) + "\n")
        with pytest.raises(ScheduleParseError, match=f"{field}: invalid ISO date '{text}'") as excinfo:
            read_activities(path)
        assert excinfo.value.line == 5

    def test_an_empty_planned_date_after_valid_ones_is_required(self, tmp_path):
        text = ACTIVITY_CSV + "d,Late,2021-01-09,,,\n"
        with pytest.raises(ScheduleParseError, match="planned_end is required") as excinfo:
            read_activities(write(tmp_path, "a.csv", text))
        assert excinfo.value.line == 5

    def test_an_invalid_planned_end_after_cached_dates_keeps_its_name_and_line(self, tmp_path):
        # the row's planned_start is a text no earlier row held, and its planned_end one no date reader accepts
        text = ACTIVITY_CSV + "d,Late,2021-01-13,2021-13-01,2021-01-06,2021-01-08\n"
        with pytest.raises(ScheduleParseError, match="planned_end: invalid ISO date '2021-13-01'") as excinfo:
            read_activities(write(tmp_path, "a.csv", text))
        assert excinfo.value.line == 5

    def test_an_empty_planned_start_after_cached_dates_is_required(self, tmp_path):
        text = ACTIVITY_CSV + "d,Late,,2021-01-08,2021-01-06,2021-01-08\n"
        with pytest.raises(ScheduleParseError, match="planned_start is required") as excinfo:
            read_activities(write(tmp_path, "a.csv", text))
        assert excinfo.value.line == 5

    def test_repeated_date_texts_read_as_equal_dates(self, tmp_path):
        text = ACTIVITY_CSV + "d,Again,2021-01-06,2021-01-08,2021-01-06,2021-01-08\n"
        records = read_activities(write(tmp_path, "a.csv", text))
        assert records[3].planned_start == records[3].actual_start == records[1].planned_start == date(2021, 1, 6)
        assert records[3].planned_end == records[1].planned_end == date(2021, 1, 8)


class TestReadDependencies:
    def test_parses_rows(self, tmp_path):
        deps = read_dependencies(write(tmp_path, "d.csv", DEPENDENCY_CSV))
        assert deps == [Dependency("a", "b"), Dependency("b", "c")]

    def test_unknown_id_reports_line(self, tmp_path):
        path = write(tmp_path, "d.csv", DEPENDENCY_CSV + "z,a\n")
        with pytest.raises(ScheduleParseError) as excinfo:
            read_dependencies(path, known_ids={"a", "b", "c"})
        assert excinfo.value.line == 4
        assert "z" in str(excinfo.value)


    def test_utf8_bom_is_accepted(self, tmp_path):
        plain = read_dependencies(write(tmp_path, "d.csv", DEPENDENCY_CSV))
        assert read_dependencies(write(tmp_path, "bom.csv", "\ufeff" + DEPENDENCY_CSV)) == plain


# rows no CSV reader can take: bytes that are not UTF-8, and a quoted field
# one character over the csv module's default field size limit
UNREADABLE_ROWS = {
    "undecodable": b"\xff\xfe,x\n",
    "oversized": b'"' + b"x" * 131_073 + b'",y\n',
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE_ROWS))
@pytest.mark.parametrize(
    "reader, text",
    [(read_activities, ACTIVITY_CSV), (read_dependencies, DEPENDENCY_CSV)],
    ids=["activities", "dependencies"],
)
def test_unreadable_row_raises_parse_error_with_path(tmp_path, reader, text, kind):
    path = tmp_path / "schedule.csv"
    path.write_bytes(text.encode("utf-8") + UNREADABLE_ROWS[kind])
    with pytest.raises(ScheduleParseError) as excinfo:
        reader(path)
    assert excinfo.value.path == str(path)
    # the decoder reads ahead in blocks, so only the CSV reader knows its line
    assert excinfo.value.line == (None if kind == "undecodable" else text.count("\n") + 1)


# a row of three fields after a row whose quoted first cell spans two lines, which takes both its lines
@pytest.mark.parametrize(
    "reader, text, fields",
    [(read_activities, ACTIVITY_CSV, 6), (read_dependencies, DEPENDENCY_CSV, 2)],
    ids=["activities", "dependencies"],
)
def test_a_field_count_error_after_a_two_line_cell_keeps_its_message_and_physical_line(tmp_path, reader, text, fields):
    text = text.replace("\nb,", '\n"b\nb",', 1) + "x,y,z\n"
    with pytest.raises(ScheduleParseError, match=f"expected {fields} fields, got 3") as excinfo:
        reader(write(tmp_path, "schedule.csv", text))
    assert excinfo.value.line == text.count("\n")
    assert f":{excinfo.value.line}:" in str(excinfo.value)


class TestRoundTrip:
    def test_csv_round_trip_preserves_nodes_and_edges(self, tmp_path):
        rng = np.random.default_rng(23)
        for _ in range(20):
            net = random_network(rng, ensure_edge=True)
            a_path = tmp_path / "a.csv"
            d_path = tmp_path / "d.csv"
            write_activities(a_path, net.nodes)
            ids = net.node_ids
            write_dependencies(
                d_path, [Dependency(ids[s], ids[t]) for s, t in net.edges]
            )
            rebuilt = load_network(a_path, d_path, prune=False)
            assert rebuilt == net

    @pytest.mark.parametrize("text", ["a\rb", "a\nb", "a,b", 'a"b', "a\r\nb"])
    def test_ids_and_names_that_need_quotes_read_back(self, tmp_path, text):
        record = ActivityRecord(text, text, date(2021, 1, 1), date(2021, 1, 2), None, None)
        write_activities(tmp_path / "a.csv", [record])
        write_dependencies(tmp_path / "d.csv", [Dependency(text, text)])
        assert read_activities(tmp_path / "a.csv") == [record]
        assert read_dependencies(tmp_path / "d.csv") == [Dependency(text, text)]

    def test_json_round_trip(self, tmp_path):
        records = make_records("abc")
        net = build_network(records, [Dependency("a", "b"), Dependency("b", "c")])
        data = network_to_json(net)
        assert data["edges"] == [[0, 1], [1, 2]]
        assert [node["id"] for node in data["nodes"]] == ["a", "b", "c"]
        assert network_from_json(data) == net

    def test_json_preserves_actual_dates(self):
        rec = ActivityRecord(
            "a",
            "A",
            date(2021, 1, 1),
            date(2021, 1, 5),
            actual_start=date(2021, 1, 2),
            actual_end=date(2021, 1, 7),
        )
        other = ActivityRecord("b", "B", date(2021, 1, 6), date(2021, 1, 8))
        net = build_network([rec, other], [Dependency("a", "b")])
        assert network_from_json(network_to_json(net)) == net

    def test_load_network_prunes_by_default(self, tmp_path):
        a_path = write(tmp_path, "a.csv", ACTIVITY_CSV)
        d_path = write(tmp_path, "d.csv", "predecessor,successor\na,b\n")
        net = load_network(a_path, d_path)
        assert net.node_ids == ("a", "b")


@st.composite
def schedule_files(draw):
    """CSV texts of a valid schedule: quoted ids and names, a BOM, blank rows, repeated and empty dates,
    duplicate dependency rows and isolated activities."""
    n = draw(st.integers(2, 12))
    ids = [f"i{k}{draw(TEXT)}z" for k in range(n)]  # no digit after k, so the ids differ
    activities = []
    for node_id in ids:
        start = draw(st.integers(0, 3))
        end = start + draw(st.integers(0, 2))
        actual = draw(st.sampled_from(["none", "start", "end", "both"]))
        activities.append([
            node_id,
            draw(TEXT),
            DAYS[start],
            f" {DAYS[end]}" if draw(st.booleans()) else DAYS[end],
            DAYS[start] if actual in ("start", "both") else "",
            DAYS[end] if actual in ("end", "both") else "",
        ])
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=3 * n))
    pairs = [(min(p), max(p)) for p in pairs]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))  # duplicate rows
    dependencies = [[ids[s], f"  {ids[t]}"] for s, t in pairs]
    ending = draw(st.sampled_from(["\n", "\r\n"]))

    def text(header, rows):
        out = io.StringIO()
        if draw(st.booleans()):
            out.write("\ufeff")
        writer = csv.writer(out, lineterminator=ending)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
            out.write(draw(st.sampled_from(["", "", ending, "   " + ending])))  # blank rows
        return out.getvalue()

    return text(ACTIVITY_FIELDS, activities), text(DEPENDENCY_FIELDS, dependencies)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(schedule_files())
def test_load_network_matches_a_standard_library_reader(texts):
    with tempfile.TemporaryDirectory() as directory:
        paths = [Path(directory) / "a.csv", Path(directory) / "d.csv"]
        for path, text in zip(paths, texts):
            path.write_text(text, encoding="utf-8", newline="")
        net = load_network(*paths)
        nodes, edges, succ, pred, order = read_schedule(*paths)
    assert [(r.id, r.name, r.planned_start, r.planned_end, r.actual_start, r.actual_end) for r in net.nodes] == nodes
    assert list(net.edges) == edges
    assert [list(s) for s in net.successor_lists] == succ
    assert [list(p) for p in net.predecessor_lists] == pred
    assert topological_order(net) == order
    assert net.index_of == {node[0]: i for i, node in enumerate(nodes)}
