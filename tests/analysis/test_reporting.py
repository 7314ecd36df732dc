"""Tests for report formatting."""


from repro.analysis.reporting import (
    format_table,
    format_table1,
    series_to_csv,
)
from repro.workloads.paper import TABLE1_LATENCIES, base_workload


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"], [["a", 1.5], ["long-name", 22.125]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1]
        assert "1.50" in text
        assert "22.12" in text

    def test_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text


class TestFormatTable1:
    def test_contains_all_sections(self):
        ts = base_workload()
        lat = {n: 10.0 for n in ts.subtask_names}
        text = format_table1(ts, lat)
        for tname in ("T1", "T2", "T3"):
            assert f"TASK {tname}" in text
        assert "Crit.Time" in text
        assert "Crit.Path" in text

    def test_paper_comparison_row(self):
        ts = base_workload()
        lat = {n: 10.0 for n in ts.subtask_names}
        text = format_table1(ts, lat, paper_latencies=TABLE1_LATENCIES)
        assert "Paper lat." in text
        assert "9.70" in text   # T11's paper latency


class TestSeriesToCsv:
    def test_columns(self):
        csv = series_to_csv({"x": [1, 2, 3], "y": [0.5, 1.5]})
        lines = csv.strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1,0.50"
        assert lines[3] == "3,"   # ragged column padded

    def test_empty(self):
        assert series_to_csv({}) == "\n"

