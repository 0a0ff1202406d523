"""Tests for trace serialization."""

import csv

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.traces.calendar import TraceCalendar
from repro.traces.io import (
    _CSV_MAGIC,
    load_traces_csv,
    save_traces_csv,
    save_traces_json,
    traces_from_json,
    traces_to_json,
)
from repro.traces.trace import DemandTrace


@pytest.fixture
def traces():
    cal = TraceCalendar(weeks=1, slot_minutes=360)
    rng = np.random.default_rng(5)
    return [
        DemandTrace(f"app-{index}", rng.uniform(0, 4, cal.n_observations), cal)
        for index in range(3)
    ]


class TestCsvRoundTrip:
    def test_round_trip_exact(self, traces, tmp_path):
        path = tmp_path / "traces.csv"
        save_traces_csv(traces, path)
        loaded = load_traces_csv(path)
        assert len(loaded) == len(traces)
        for original, restored in zip(traces, loaded):
            assert restored.name == original.name
            assert restored.calendar == original.calendar
            assert np.array_equal(restored.values, original.values)

    def test_save_empty_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            save_traces_csv([], tmp_path / "x.csv")

    def test_load_rejects_non_trace_csv(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(TraceError):
            load_traces_csv(path)

    def test_load_rejects_truncated(self, tmp_path):
        path = tmp_path / "trunc.csv"
        path.write_text("# ropus-traces,1,360,cpu\n")
        with pytest.raises(TraceError):
            load_traces_csv(path)

    def test_load_rejects_ragged_rows(self, traces, tmp_path):
        path = tmp_path / "traces.csv"
        save_traces_csv(traces, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError):
            load_traces_csv(path)


def _slot_loop_save(traces, path):
    """The writer as it formatted one sample at a time: the byte oracle."""
    calendar = traces[0].calendar
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [_CSV_MAGIC, calendar.weeks, calendar.slot_minutes, traces[0].attribute]
        )
        writer.writerow([trace.name for trace in traces])
        columns = [trace.values for trace in traces]
        for row_index in range(calendar.n_observations):
            writer.writerow(
                [repr(float(column[row_index])) for column in columns]
            )


def _slot_loop_load(path):
    """The reader as it appended one cell at a time: the value oracle."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        magic_row = next(reader)
        names = next(reader)
        calendar = TraceCalendar(
            weeks=int(magic_row[1]), slot_minutes=int(magic_row[2])
        )
        columns = [[] for _ in names]
        for row in reader:
            if len(row) != len(names):
                raise TraceError(
                    f"{path}: row has {len(row)} cells, expected {len(names)}"
                )
            for column, cell in zip(columns, row):
                column.append(float(cell))
    return [
        DemandTrace(name, column, calendar, magic_row[3])
        for name, column in zip(names, columns)
    ]


def _outcome(load, path):
    """What ``load`` makes of ``path``: each trace's bytes, or the error."""
    try:
        return [
            (trace.name, trace.calendar, trace.attribute, trace.values.tobytes())
            for trace in load(path)
        ]
    except Exception as error:  # compared, type and message, below
        return type(error), str(error)


class TestCsvWriterBytes:
    @pytest.mark.parametrize(
        "weeks, slot_minutes", [(1, 360), (3, 60), (52, 1440)]
    )
    def test_same_bytes_as_the_slot_loop(self, weeks, slot_minutes, tmp_path):
        cal = TraceCalendar(weeks=weeks, slot_minutes=slot_minutes)
        n = cal.n_observations
        rng = np.random.default_rng(weeks)
        awkward = np.resize(
            [0.0, 0.1, 1 / 3, 2.0, 5e-324, 1e-7, 123456789.123, 1e300, 2.5e16],
            n,
        )
        traces = [
            DemandTrace("noisy", rng.uniform(0, 4, n), cal),
            DemandTrace("awkward", awkward, cal),
            DemandTrace("with, comma", rng.gamma(2.0, 0.3, n).round(3), cal),
        ]
        for subset in (traces, traces[:1]):
            ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
            save_traces_csv(subset, ours)
            _slot_loop_save(subset, oracle)
            assert ours.read_bytes() == oracle.read_bytes()


class TestCsvReaderOracle:
    HEADER = f"{_CSV_MAGIC},1,1440,cpu\r\na,b\r\n"

    def test_values_are_float_of_each_field(self, tmp_path):
        fields = [
            "0.1", "1e-300", "5e-324", "3", " 2.5", "1_000", "0.30000000000000004",
            "1.7976931348623157e308", "4.9406564584124654e-324",
            "123456789.12345678", "0", "1e-7", "7.0", "2.0000000000000004",
        ]
        path = tmp_path / "fields.csv"
        path.write_text(
            self.HEADER
            + "".join(f"{a},{b}\r\n" for a, b in zip(fields[:7], fields[7:]))
        )
        a, b = load_traces_csv(path)
        assert a.values.tobytes() == np.array(
            [float(field) for field in fields[:7]]
        ).tobytes()
        assert b.values.tobytes() == np.array(
            [float(field) for field in fields[7:]]
        ).tobytes()
        assert _outcome(load_traces_csv, path) == _outcome(_slot_loop_load, path)

    @pytest.mark.parametrize(
        "rows",
        [
            ["1,2"] * 6 + ["1"],
            ["1,2", "1,2,3"] + ["1,2"] * 5,
            ["1,2", "1,x"] + ["1,2"] * 5,
            ["1,2", "y,z", "1"] + ["1,2"] * 4,
            ["1,2", "1", "y,z"] + ["1,2"] * 4,
            ["1,2"] * 6,
            ["1,2"] * 8,
            ["1,2"] * 6 + ["nan,2"],
            ["1,2"] * 6 + ["1,-2"],
            ["1,2"] * 6 + [","],
            ["1,2"] * 3 + [""] + ["1,2"] * 4,
        ],
        ids=[
            "short-last-row", "long-row", "bad-cell", "bad-cell-then-ragged",
            "ragged-then-bad-cell", "too-few-rows", "too-many-rows", "nan",
            "negative", "empty-cells", "blank-line",
        ],
    )
    def test_errors_keep_their_types_and_messages(self, rows, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text(self.HEADER + "".join(row + "\r\n" for row in rows))
        outcome = _outcome(load_traces_csv, path)
        assert outcome == _outcome(_slot_loop_load, path)
        assert isinstance(outcome, tuple)  # every case here is an error

    def test_a_file_without_workloads(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text(f"{_CSV_MAGIC},1,1440,cpu\r\n\r\n\r\n")
        assert load_traces_csv(path) == [] == _slot_loop_load(path)

    def test_round_trip_of_a_multi_week_file(self, tmp_path):
        cal = TraceCalendar(weeks=4, slot_minutes=30)
        rng = np.random.default_rng(4)
        traces = [
            DemandTrace(f"w{index}", rng.lognormal(0, 1, cal.n_observations), cal)
            for index in range(5)
        ]
        path = tmp_path / "month.csv"
        save_traces_csv(traces, path)
        assert _outcome(load_traces_csv, path) == _outcome(_slot_loop_load, path)
        for original, restored in zip(traces, load_traces_csv(path)):
            assert restored.values.tobytes() == original.values.tobytes()
            assert restored.values.flags.c_contiguous


class TestJsonRoundTrip:
    def test_round_trip_exact(self, traces):
        restored = traces_from_json(traces_to_json(traces))
        for original, copy in zip(traces, restored):
            assert copy.name == original.name
            assert np.array_equal(copy.values, original.values)

    def test_file_round_trip(self, traces, tmp_path):
        path = tmp_path / "traces.json"
        save_traces_json(traces, path)
        loaded = traces_from_json(path.read_text())
        assert [trace.name for trace in loaded] == [
            trace.name for trace in traces
        ]

    def test_rejects_invalid_json(self):
        with pytest.raises(TraceError):
            traces_from_json("not json at all {")

    def test_rejects_wrong_format_tag(self):
        with pytest.raises(TraceError):
            traces_from_json('{"format": "something-else"}')

    def test_serialize_empty_rejected(self):
        with pytest.raises(TraceError):
            traces_to_json([])


class TestRepairedLoader:
    """``load_traces_csv_repaired`` admits messy exports with a report."""

    def _write(self, tmp_path, rows, names="a,b", header="# ropus-traces,1,360,cpu"):
        path = tmp_path / "messy.csv"
        path.write_text("\n".join([header, names, *rows]) + "\n")
        return path

    def test_clean_file_matches_strict_loader(self, traces, tmp_path):
        from repro.traces.io import load_traces_csv_repaired

        path = tmp_path / "clean.csv"
        save_traces_csv(traces, path)
        strict = load_traces_csv(path)
        repaired, reports = load_traces_csv_repaired(path)
        assert repaired == strict
        assert all(report.clean for report in reports.values())
        assert all(trace.repairs == 0 for trace in repaired)

    def test_unparsable_cells_carried_forward(self, tmp_path):
        from repro.traces.io import load_traces_csv_repaired
        from repro.traces.validation import RepairKind

        cal = TraceCalendar(weeks=1, slot_minutes=360)
        rows = ["1.0,2.0"] * cal.n_observations
        rows[3] = "oops,2.0"
        path = self._write(tmp_path, rows)
        loaded, reports = load_traces_csv_repaired(path)
        assert loaded[0].values[3] == 1.0  # carried from slot 2
        assert reports["a"].count(RepairKind.NON_FINITE) == 1
        assert reports["b"].clean
        assert loaded[0].repairs == 1

    def test_leading_nonfinite_reads_zero(self, tmp_path):
        from repro.traces.io import load_traces_csv_repaired

        cal = TraceCalendar(weeks=1, slot_minutes=360)
        rows = ["2.0,2.0"] * cal.n_observations
        rows[0] = "nan,2.0"
        path = self._write(tmp_path, rows)
        loaded, _ = load_traces_csv_repaired(path)
        assert loaded[0].values[0] == 0.0

    def test_negative_demand_clamped(self, tmp_path):
        from repro.traces.io import load_traces_csv_repaired
        from repro.traces.validation import RepairKind

        cal = TraceCalendar(weeks=1, slot_minutes=360)
        rows = ["1.0,1.0"] * cal.n_observations
        rows[5] = "-3.0,1.0"
        path = self._write(tmp_path, rows)
        loaded, reports = load_traces_csv_repaired(path)
        assert loaded[0].values[5] == 0.0
        assert reports["a"].count(RepairKind.NEGATIVE) == 1

    def test_out_of_order_rows_land_at_their_slot(self, tmp_path):
        from repro.traces.io import load_traces_csv_repaired
        from repro.traces.validation import RepairKind

        cal = TraceCalendar(weeks=1, slot_minutes=360)
        rows = [
            f"{slot},{float(slot)},0.0" for slot in range(cal.n_observations)
        ]
        rows[1], rows[2] = rows[2], rows[1]  # one inversion
        path = self._write(tmp_path, rows, names="slot,a,b")
        loaded, reports = load_traces_csv_repaired(path)
        assert loaded[0].values[1] == 1.0
        assert loaded[0].values[2] == 2.0
        assert reports["a"].count(RepairKind.OUT_OF_ORDER) == 1
        assert "out-of-order" in reports["a"].describe()

    def test_malformed_rows_counted_not_fatal(self, tmp_path):
        from repro.traces.io import load_traces_csv_repaired
        from repro.traces.validation import RepairKind

        cal = TraceCalendar(weeks=1, slot_minutes=360)
        rows = ["1.0,1.0"] * cal.n_observations
        rows[4] = "1.0"  # short row: b's cell missing
        path = self._write(tmp_path, rows)
        loaded, reports = load_traces_csv_repaired(path)
        assert reports["b"].count(RepairKind.MALFORMED_ROW) == 1
        # b's missing cell repaired by carry-forward.
        assert loaded[1].values[4] == 1.0

    def test_broken_header_still_raises(self, tmp_path):
        from repro.traces.io import load_traces_csv_repaired

        path = tmp_path / "broken.csv"
        path.write_text("not a trace csv\nother\n")
        with pytest.raises(TraceError):
            load_traces_csv_repaired(path)
