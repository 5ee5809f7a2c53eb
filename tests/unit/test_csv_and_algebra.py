"""Unit tests for CSV workload I/O."""

import pytest

from repro.core.condition import c1
from repro.workloads.csv_io import (
    load_workload,
    save_workload,
    workload_from_csv,
    workload_to_csv,
)


class TestWorkloadCSV:
    WORKLOAD = {
        "x": [(0.0, 2900.0), (10.0, 3100.0)],
        "y": [(5.0, 1000.0)],
    }

    def test_roundtrip(self):
        restored = workload_from_csv(workload_to_csv(self.WORKLOAD))
        assert restored == self.WORKLOAD

    def test_rows_interleaved_by_time(self):
        text = workload_to_csv(self.WORKLOAD)
        lines = text.strip().splitlines()
        assert lines[0] == "time,variable,value"
        assert lines[1].startswith("0,x")
        assert lines[2].startswith("5,y")
        assert lines[3].startswith("10,x")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "workload.csv"
        save_workload(self.WORKLOAD, str(path))
        assert load_workload(str(path)) == self.WORKLOAD

    def test_loaded_workload_runs(self, tmp_path):
        from repro.components.system import SystemConfig, run_system

        path = tmp_path / "workload.csv"
        save_workload(self.WORKLOAD, str(path))
        run = run_system(
            c1(), load_workload(str(path)), SystemConfig(front_loss=0.0), seed=1
        )
        assert [a.seqno("x") for a in run.displayed] == [2]

    def test_unsorted_rows_are_sorted_per_variable(self):
        text = "time,variable,value\n10,x,2\n0,x,1\n"
        workload = workload_from_csv(text)
        assert workload["x"] == [(0.0, 1.0), (10.0, 2.0)]

    def test_blank_lines_skipped(self):
        text = "time,variable,value\n\n0,x,1\n\n"
        assert workload_from_csv(text) == {"x": [(0.0, 1.0)]}

    def test_errors(self):
        with pytest.raises(ValueError, match="header"):
            workload_from_csv("a,b,c\n0,x,1\n")
        with pytest.raises(ValueError, match="empty CSV"):
            workload_from_csv("")
        with pytest.raises(ValueError, match="3 columns"):
            workload_from_csv("time,variable,value\n0,x\n")
        with pytest.raises(ValueError, match="non-numeric"):
            workload_from_csv("time,variable,value\n0,x,hot\n")
        with pytest.raises(ValueError, match="empty variable"):
            workload_from_csv("time,variable,value\n0,,1\n")
