"""The experiment-matrix harness: specs, grids, determinism, reports."""

import gc
import json
import weakref

import pytest

import repro.perfbench as perfbench
from repro.errors import ConfigError
from repro.sweep import (build_cell_backend, expand_grid, load_spec,
                         run_sweep, variant_id)
from repro.sweep.report import to_markdown, write_report
from repro.sweep.spec import DEFAULTS, _parse_toml_subset

try:
    import tomllib
except ImportError:
    tomllib = None


def write_spec(tmp_path, body, name="spec.json"):
    """Write a JSON sweep spec and return its path."""
    path = tmp_path / name
    path.write_text(json.dumps({"sweep": body}))
    return str(path)


def tiny_body(**overrides):
    """The smallest useful grid: 2 mechanism cells on one backend."""
    body = {
        "name": "tiny",
        "ops": 400,
        "records": 128,
        "backends": ["pax"],
        "workloads": ["mixed"],
        "mechanisms": ["none", "victim:8"],
        "llc_sizes_kib": [64],
        "spot_check": "all",
    }
    body.update(overrides)
    return body


class TestSpecLoading:
    def test_defaults_filled_and_validated(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, tiny_body()))
        for key in DEFAULTS:
            assert key in spec
        assert spec["name"] == "tiny"
        assert spec["llc_ways"] == DEFAULTS["llc_ways"]
        assert spec["schema"].startswith("repro.sweep-spec/")

    def test_unknown_key_is_an_error(self, tmp_path):
        path = write_spec(tmp_path, tiny_body(mechansims=["victim:8"]))
        with pytest.raises(ConfigError, match="unknown spec key"):
            load_spec(path)

    @pytest.mark.parametrize("bad", [
        {"backends": ["warp"]},
        {"workloads": ["scan_heavy"]},
        {"mechanisms": ["victim:many"]},
        {"policies": ["mru"]},
        {"ops": 0},
        {"hbm_lines": -1},
        {"spot_check": "some"},
        {"llc_sizes_kib": []},
    ])
    def test_bad_values_are_errors(self, tmp_path, bad):
        path = write_spec(tmp_path, tiny_body(**bad))
        with pytest.raises(ConfigError):
            load_spec(path)

    def test_backends_validate_against_the_registry(self, tmp_path,
                                                    monkeypatch):
        import repro.baselines.pax as registry
        real = registry.backend_classes
        monkeypatch.setattr(registry, "backend_classes",
                            lambda: dict(real(), warp=object))
        spec = load_spec(write_spec(tmp_path, tiny_body(backends=["warp"])))
        assert spec["backends"] == ["warp"]
        with pytest.raises(ConfigError, match=r"unknown backend 'wrap' "
                           r"\(have autopass, compiler, .*, warp\)"):
            load_spec(write_spec(tmp_path, tiny_body(backends=["wrap"])))

    @pytest.mark.parametrize("backend", ["mprotect", "hybrid"])
    def test_unrecordable_backend_is_rejected(self, tmp_path, backend):
        from repro.sweep.__main__ import main
        path = write_spec(tmp_path, tiny_body(backends=["pax", backend]))
        with pytest.raises(ConfigError,
                           match="%r cannot be recorded" % backend):
            load_spec(path)
        assert main([path, "--out", str(tmp_path / "x.json")]) == 2

    def test_needs_sweep_table(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"ops": 4}))
        with pytest.raises(ConfigError, match="sweep"):
            load_spec(str(path))

    def test_committed_specs_load(self):
        for path in ("specs/full-grid.toml", "specs/smoke-grid.toml"):
            spec = load_spec(path)
            assert spec["source"] == path
            assert len(expand_grid(spec)) > 0

    def test_full_grid_meets_the_floor(self):
        # The acceptance grid: >= 4 mechanisms x >= 2 LLC sizes x
        # >= 2 workloads x >= 3 backends, >= 48 cells total.
        spec = load_spec("specs/full-grid.toml")
        assert len(spec["mechanisms"]) >= 4
        assert len(spec["llc_sizes_kib"]) >= 2
        assert len(spec["workloads"]) >= 2
        assert len(spec["backends"]) >= 3
        assert len(expand_grid(spec)) >= 48


class TestTomlSubsetParser:
    TOML = """
# comment
[sweep]
name = "demo"            # trailing comment
ops = 12
scale = 1.5
flag = true
backends = ["pax", "pmdk"]
sizes = [64, 256]
"""

    def test_parses_the_spec_grammar(self):
        doc = _parse_toml_subset(self.TOML, "demo.toml")
        table = doc["sweep"]
        assert table["name"] == "demo"
        assert table["ops"] == 12
        assert table["scale"] == 1.5
        assert table["flag"] is True
        assert table["backends"] == ["pax", "pmdk"]
        assert table["sizes"] == [64, 256]

    @pytest.mark.skipif(tomllib is None, reason="needs tomllib (3.11+)")
    def test_agrees_with_tomllib_on_committed_specs(self):
        for path in ("specs/full-grid.toml", "specs/smoke-grid.toml"):
            with open(path) as handle:
                text = handle.read()
            assert _parse_toml_subset(text, path) == tomllib.loads(text)

    @pytest.mark.parametrize("bad", [
        "[sweep\nx = 1",
        "[sweep]\njust a line",
        '[sweep]\nx = [1,\n2]',
        '[sweep]\nx = "unterminated',
    ])
    def test_malformed_input_raises(self, bad):
        with pytest.raises(ConfigError):
            _parse_toml_subset(bad, "bad.toml")


class TestGridExpansion:
    def test_device_mechanisms_prune_to_pax(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, tiny_body(
            backends=["pax", "pmdk"], mechanisms=["none"],
            device_mechanisms=["none", "stream:2x2"])))
        cells = expand_grid(spec)
        combos = {(c["backend"], c["device_mechanisms"]) for c in cells}
        assert ("pax", "stream:2x2") in combos
        assert ("pmdk", "stream:2x2") not in combos
        assert ("pmdk", "none") in combos

    def test_policy_axis_only_multiplies_mechanized_cells(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, tiny_body(
            mechanisms=["none", "victim:8"], policies=["lru", "fifo"])))
        cells = expand_grid(spec)
        none_cells = [c for c in cells if c["mechanisms"] == "none"]
        victim_cells = [c for c in cells if c["mechanisms"] == "victim:8"]
        assert len(none_cells) == 1          # policy-free: one cell only
        assert len(victim_cells) == 2        # one per policy
        assert {c["policy"] for c in victim_cells} == {"lru", "fifo"}

    def test_variant_ids_are_unique(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, tiny_body(
            backends=["pax", "pmdk"], llc_sizes_kib=[64, 256],
            device_mechanisms=["none", "stream:2x2"])))
        cells = expand_grid(spec)
        keys = {(c["workload"], c["backend"], variant_id(c))
                for c in cells}
        assert len(keys) == len(cells)

    def test_build_cell_backend_applies_the_axes(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, tiny_body(hbm_lines=64)))
        cell = [c for c in expand_grid(spec)
                if c["mechanisms"] == "victim:8"][0]
        backend = build_cell_backend(spec, cell)
        hier = backend.machine.hierarchy
        assert hier.mechanisms is not None
        assert hier._llc.config.size_bytes == 64 * 1024
        assert backend.machine.device.hbm.capacity_lines == 64


class TestRunSweep:
    def run_tiny(self, tmp_path, **overrides):
        spec = load_spec(write_spec(tmp_path, tiny_body(**overrides)))
        return spec, run_sweep(spec)

    def test_every_cell_verifies(self, tmp_path):
        _spec, report = self.run_tiny(tmp_path)
        assert len(report["cells"]) == 2
        assert report["traces_recorded"] == 1
        verification = report["verification"]
        assert verification["checked"] == 2
        assert verification["failed"] == 0
        assert all(cell["verified"] for cell in report["cells"])

    def test_report_is_deterministic(self, tmp_path, monkeypatch):
        # The first run starts with no recorded traces; the second finds
        # them cached. That must not show.
        monkeypatch.setattr(perfbench, "_TRACE_CACHE", {})
        _spec, first = self.run_tiny(tmp_path, backends=["pax", "pmdk"])
        _spec, again = self.run_tiny(tmp_path, backends=["pax", "pmdk"])
        assert first == again
        assert first["verification"]["passed"] == len(first["cells"]) == 4
        assert first["verification"]["failed"] == 0

    def test_report_carries_no_wall_clock(self, tmp_path):
        _spec, report = self.run_tiny(tmp_path)
        assert not any("wall" in key for key in report)
        for cell in report["cells"]:
            assert not any("wall" in key for key in cell)
            assert cell["sim_ns"] > 0
            assert "host_mech_hits" in cell["counters"]

    def test_spot_check_none_skips_verification(self, tmp_path):
        _spec, report = self.run_tiny(tmp_path, spot_check="none")
        assert report["verification"]["checked"] == 0
        assert all(cell["verified"] is None for cell in report["cells"])

    def test_spot_check_counts_select_deterministically(self, tmp_path):
        spec, report = self.run_tiny(tmp_path, spot_check=1)
        assert report["verification"]["checked"] == 1
        again = run_sweep(spec)
        flags = [cell["verified"] for cell in report["cells"]]
        assert flags == [cell["verified"] for cell in again["cells"]]

    def test_each_cell_is_freed_before_the_next(self, tmp_path,
                                                monkeypatch):
        # With the collector off, a backend outlives its cell only if
        # the sweep still holds it or it sits in a reference cycle.
        import repro.sweep as sweep
        spec = load_spec(write_spec(tmp_path, tiny_body(
            backends=["pax", "pmdk"],
            device_mechanisms=["none", "stream:4x4"], hbm_lines=64)))
        built = []

        def build_and_watch(spec_, cell):
            backend = build_cell_backend(spec_, cell)
            built.append(weakref.ref(backend))
            return backend

        alive_at_progress = []
        monkeypatch.setattr(sweep, "build_cell_backend", build_and_watch)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            report = run_sweep(spec, progress=lambda row: alive_at_progress
                               .append(sum(ref() is not None
                                           for ref in built)))
        finally:
            if enabled:
                gc.enable()
        cells = len(report["cells"])
        assert cells == 6 and len(built) == 2 * cells
        assert alive_at_progress == [0] * cells


class TestReporting:
    @pytest.fixture()
    def report(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, tiny_body()))
        return run_sweep(spec)

    def test_json_round_trip(self, report, tmp_path):
        path = str(tmp_path / "sweep.json")
        write_report(report, path)
        with open(path) as handle:
            assert json.load(handle) == report

    def test_markdown_tables(self, report):
        text = to_markdown(report)
        assert "| backend |" in text
        assert "victim:8" in text
        assert "fingerprint-checked" in text
        assert "MISMATCH" not in text


class TestCli:
    def test_end_to_end(self, tmp_path):
        from repro.sweep.__main__ import main
        spec_path = write_spec(tmp_path, tiny_body())
        out = str(tmp_path / "report.json")
        md = str(tmp_path / "report.md")
        assert main([spec_path, "--out", out, "--markdown", md,
                     "--quiet"]) == 0
        with open(out) as handle:
            assert json.load(handle)["verification"]["failed"] == 0
        # Same seed, second run: a byte-identical report, no drift.
        out2 = str(tmp_path / "report2.json")
        assert main([spec_path, "--out", out2, "--quiet"]) == 0
        assert open(out).read() == open(out2).read()

    def test_bad_spec_exits_2(self, tmp_path):
        from repro.sweep.__main__ import main
        path = write_spec(tmp_path, tiny_body(backends=["warp"]))
        assert main([path, "--out", str(tmp_path / "x.json")]) == 2
