"""Perfbench's replay engine: equivalence wiring, caching, and
comparison report shape."""

import pytest

from repro.errors import ConfigError
from repro.perfbench import (COMPARE_SCHEMA, _TRACE_CACHE, compare,
                             compare_report, record_cell_trace, run_cell,
                             run_matrix)


class TestReplayCells:
    def test_replay_cell_matches_access_sim_ns(self):
        access = run_cell("store_heavy", "pax", ops=300, records=64)
        replay = run_cell("store_heavy", "pax", ops=300, records=64,
                          engine="replay")
        assert access["engine"] == "access"
        assert replay["engine"] == "replay"
        assert replay["sim_ns"] == access["sim_ns"]
        assert replay["ops"] == access["ops"]

    def test_replay_cell_repeats_deterministic(self):
        cell = run_cell("mixed", "pmdk", ops=200, records=32, repeats=3,
                        engine="replay")
        assert cell["sim_ns"] > 0

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="engine"):
            run_cell("store_heavy", "pax", ops=10, records=4,
                     engine="vectorized")

    def test_tracer_with_replay_rejected(self):
        with pytest.raises(ConfigError, match="per-access"):
            run_cell("store_heavy", "pax", ops=10, records=4,
                     engine="replay", tracer=object())

    def test_trace_recorded_once_per_config(self):
        key = ("load_heavy", "dram", 150, 32, 5)
        _TRACE_CACHE.pop(key, None)
        trace1, sim1 = record_cell_trace(*key)
        trace2, sim2 = record_cell_trace(*key)
        assert trace1 is trace2
        assert sim1 == sim2

    def test_matrix_engine_axis(self):
        report = run_matrix(workloads=("store_heavy",),
                            backends=("dram",), ops=100, records=16,
                            engines=("access", "replay"))
        engines = [cell["engine"] for cell in report["results"]]
        assert engines == ["access", "replay"]
        assert report["config"]["engines"] == ["access", "replay"]
        sims = {cell["sim_ns"] for cell in report["results"]}
        assert len(sims) == 1


class TestCompareReport:
    def _report(self):
        return run_matrix(workloads=("store_heavy",),
                          backends=("dram", "pax"), ops=100, records=16,
                          engines=("access", "replay"))

    def test_self_compare_clean_and_shaped(self):
        report = self._report()
        grade = compare_report(report, report)
        assert grade["schema"] == COMPARE_SCHEMA
        assert grade["problems"] == []
        assert grade["same_config"] is True
        assert len(grade["cells"]) == 4
        for cell in grade["cells"]:
            assert cell["engine"] in ("access", "replay")
            assert cell["wall_s_delta"] == 0.0
            assert cell["throughput_ratio"] == 1.0
            assert cell["regressed"] is False
            assert cell["sim_ns_match"] is True

    def test_engineless_baseline_cells_are_access(self):
        # BENCH_PR3.json predates the engine axis; its cells must keep
        # matching the access cells of a new-format run.
        report = self._report()
        baseline = {
            "config": dict(report["config"]),
            "results": [
                {k: v for k, v in cell.items() if k != "engine"}
                for cell in report["results"]
                if cell["engine"] == "access"
            ],
        }
        grade = compare_report(report, baseline)
        matched = {(c["workload"], c["backend"], c["engine"])
                   for c in grade["cells"]}
        assert all(engine == "access" for _, _, engine in matched)
        assert grade["problems"] == []

    def test_regression_reported_per_cell(self):
        report = self._report()
        forged = {
            "config": dict(report["config"]),
            "results": [dict(cell) for cell in report["results"]],
        }
        for cell in forged["results"]:
            cell["ops_per_sec"] *= 1e6
        grade = compare_report(report, forged)
        assert len(grade["problems"]) == 4
        assert all(cell["regressed"] for cell in grade["cells"])
        assert compare(report, forged) == grade["problems"]

