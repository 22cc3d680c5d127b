"""Perfbench's replay engine: equivalence wiring, caching, and grading
per cell."""

import copy

import pytest

from repro.errors import ConfigError
from repro.perfbench import (_TRACE_CACHE, compare, record_cell_trace,
                             run_cell, run_matrix)


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

    def test_regression_reported_per_cell(self):
        report = self._report()
        forged = copy.deepcopy(report)
        for cell in forged["results"]:
            cell["ops_per_sec"] *= 1e6
        problems = compare(report, forged)
        assert sorted(problem.split(":")[0] for problem in problems) == [
            "store_heavy/dram[access]", "store_heavy/dram[replay]",
            "store_heavy/pax[access]", "store_heavy/pax[replay]"]
        assert all("below" in problem for problem in problems)
