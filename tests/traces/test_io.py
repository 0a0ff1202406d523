"""Tests for trace serialization."""

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.traces.calendar import TraceCalendar
from repro.traces.io import (
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
