"""The wall-clock regression harness: cell/matrix runs, report I/O, the
committed baseline, and the compare grading logic (same config only,
tolerant throughput, every other field exact)."""

import copy
import os

import pytest

from repro.errors import ConfigError
from repro.perfbench import (
    BACKENDS,
    DEFAULT_OPS,
    DEFAULT_RECORDS,
    DEFAULT_REPEATS,
    DEFAULT_SEED,
    ENGINES,
    SCHEMA,
    TOLERANCE,
    WALL_FIELDS,
    WORKLOADS,
    compare,
    load_report,
    run_cell,
    run_matrix,
    write_report,
)
from repro.perfbench.__main__ import main

#: The committed baseline CI grades against.
BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH.json")

#: Tiny cell sizes: these tests check plumbing, not performance.
TINY = dict(ops=40, records=16)


class TestRunCell:
    def test_cell_shape(self):
        cell = run_cell("store_heavy", "dram", **TINY)
        assert cell["workload"] == "store_heavy"
        assert cell["backend"] == "dram"
        assert cell["ops"] == 40
        assert cell["wall_s"] > 0
        assert cell["ops_per_sec"] > 0
        assert cell["sim_ns"] > 0

    def test_sim_ns_is_deterministic_across_repeats(self):
        # repeats > 1 rebuilds the backend per attempt and asserts the
        # simulated time is identical — the harness's built-in
        # determinism check must accept a healthy simulator.
        cell = run_cell("mixed", "pm_direct", repeats=2, **TINY)
        single = run_cell("mixed", "pm_direct", repeats=1, **TINY)
        assert cell["sim_ns"] == single["sim_ns"]

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            run_cell("scan_heavy", "dram", **TINY)

    def test_bad_repeats_rejected(self):
        with pytest.raises(ConfigError):
            run_cell("mixed", "dram", repeats=0, **TINY)


class TestMatrixAndReportIo:
    def test_matrix_and_roundtrip(self, tmp_path):
        seen = []
        report = run_matrix(workloads=("store_heavy",),
                            backends=("dram", "pm_direct"),
                            progress=seen.append, **TINY)
        assert report["schema"] == SCHEMA
        assert report["config"]["ops"] == 40
        assert len(report["results"]) == 2
        assert len(seen) == 2
        path = str(tmp_path / "bench.json")
        write_report(report, path)
        assert load_report(path) == report

    def test_load_rejects_foreign_json(self, tmp_path):
        path = str(tmp_path / "other.json")
        with open(path, "w") as handle:
            handle.write('{"schema": "something/else"}\n')
        with pytest.raises(ConfigError):
            load_report(path)


class TestCommittedBaseline:
    def test_recorded_at_the_defaults(self):
        report = load_report(BENCH)
        assert report["config"] == {
            "ops": DEFAULT_OPS, "records": DEFAULT_RECORDS,
            "seed": DEFAULT_SEED, "repeats": DEFAULT_REPEATS,
            "workloads": list(WORKLOADS), "backends": list(BACKENDS),
            "engines": list(ENGINES)}
        assert len(report["results"]) == (
            len(WORKLOADS) * len(BACKENDS) * len(ENGINES))

    @pytest.mark.parametrize("workload,backend,engine", [
        ("store_heavy", "pmdk", "access"), ("mixed", "autopass", "replay")])
    def test_simulated_fields_reproduce_exactly(self, workload, backend,
                                                engine):
        # compare() grades these fields exactly, so they must come out
        # bit-for-bit (fractional sim_ns included) on every interpreter.
        report = load_report(BENCH)
        config = report["config"]
        cell = run_cell(workload, backend, ops=config["ops"],
                        records=config["records"], seed=config["seed"],
                        engine=engine)
        recorded, = [c for c in report["results"]
                     if (c["workload"], c["backend"], c["engine"])
                     == (workload, backend, engine)]
        for field in WALL_FIELDS:
            del cell[field], recorded[field]
        assert cell == recorded


def _fake_report(ops_per_sec=1000.0, sim_ns=5000, ops=40):
    return {
        "schema": SCHEMA,
        "config": {"ops": ops, "records": 16, "seed": 42, "repeats": 1,
                   "workloads": ["store_heavy"], "backends": ["pmdk"],
                   "engines": ["access"]},
        "results": [{"workload": "store_heavy", "backend": "pmdk",
                     "engine": "access", "ops": ops,
                     "wall_s": ops / ops_per_sec,
                     "ops_per_sec": ops_per_sec, "sim_ns": sim_ns,
                     "gate_count": 41, "sfence_count": 120,
                     "wal_bytes": 7680}],
    }


class TestCompare:
    def test_identical_reports_pass(self):
        report = _fake_report()
        assert compare(report, copy.deepcopy(report)) == []

    def test_slowdown_within_tolerance_passes(self):
        current = _fake_report(ops_per_sec=1000.0 * (1 - TOLERANCE) * 1.01)
        assert compare(current, _fake_report()) == []

    def test_slowdown_beyond_tolerance_fails(self):
        current = _fake_report(ops_per_sec=1000.0 * (1 - TOLERANCE) * 0.99)
        problems = compare(current, _fake_report())
        assert len(problems) == 1
        assert "below" in problems[0]

    def test_sim_ns_drift_fails_even_when_faster(self):
        current = _fake_report(ops_per_sec=9999.0, sim_ns=5001)
        problems = compare(current, _fake_report())
        assert len(problems) == 1
        assert "behaviour" in problems[0]

    @pytest.mark.parametrize("field", ["gate_count", "sfence_count",
                                       "wal_bytes", "ops"])
    def test_simulated_field_drift_names_the_cell_and_field(self, field):
        current = _fake_report()
        current["results"][0][field] += 1
        problems = compare(current, _fake_report())
        assert len(problems) == 1
        assert problems[0].startswith("store_heavy/pmdk[access]: %s "
                                      % field)

    def test_another_config_cannot_be_graded(self):
        # Different op counts legitimately change simulated time, so a
        # run at another config has nothing to be graded against.
        with pytest.raises(ConfigError, match="config"):
            compare(_fake_report(ops=80), _fake_report())


class TestCli:
    def test_run_and_compare_cycle(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        argv = ["--ops", "40", "--records", "16",
                "--workloads", "store_heavy", "--backends", "dram",
                "--out", out]
        assert main(argv) == 0
        # A fresh run on the same machine compares clean vs itself.
        assert main(argv + ["--compare", out]) == 0
        capsys.readouterr()

    def test_compare_fails_on_regression(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        argv = ["--ops", "40", "--records", "16",
                "--workloads", "store_heavy", "--backends", "dram",
                "--out", out]
        assert main(argv) == 0
        baseline = load_report(out)
        # Forge an impossible baseline: the fresh run must regress.
        for cell in baseline["results"]:
            cell["ops_per_sec"] *= 1e6
        forged = str(tmp_path / "forged.json")
        write_report(baseline, forged)
        assert main(argv + ["--compare", forged]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_trace_observes_the_access_cells(self, tmp_path, capsys):
        # Both engines run by default; replay cells carry no tracer.
        trace = tmp_path / "trace.jsonl"
        assert main(["--ops", "40", "--records", "16",
                     "--workloads", "store_heavy", "--backends", "pax",
                     "--out", str(tmp_path / "bench.json"),
                     "--trace", str(trace)]) == 0
        assert '"cell": "store_heavy/pax"' in trace.read_text()
        capsys.readouterr()

    def test_bad_baseline_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        argv = ["--ops", "40", "--records", "16",
                "--workloads", "store_heavy", "--backends", "dram"]
        assert main(argv + ["--out", out]) == 0
        assert main(argv + ["--seed", "7", "--out", out + ".2",
                            "--compare", out]) == 2
        assert "config" in capsys.readouterr().err
        # A baseline that cannot grade the run stops it before it starts.
        assert not os.path.exists(out + ".2")
        assert main(["--ops", "2000", "--out", out + ".4",
                     "--compare", BENCH]) == 2
        assert not os.path.exists(out + ".4")
        assert main(argv + ["--out", out + ".3", "--compare",
                            str(tmp_path / "missing.json")]) == 2
