"""Every backend: functional interface, scheme-specific behaviours."""

import pytest

from repro.baselines import make_backend
from repro.errors import ConfigError
from repro.libpax.machine import HEAP_PHYS_BASE
from repro.sanitizer.base import Tracer
from tests.conftest import small_cache_kwargs

ALL_BACKENDS = ["dram", "pm_direct", "pmdk", "redo", "compiler",
                "mprotect", "pax"]


def build(name, **kwargs):
    defaults = dict(heap_size=4 * 1024 * 1024, capacity=64)
    defaults.update(small_cache_kwargs())
    if name == "pax":
        defaults = dict(pool_size=4 * 1024 * 1024, log_size=256 * 1024,
                        capacity=64)
        defaults.update(small_cache_kwargs())
    defaults.update(kwargs)
    return make_backend(name, **defaults)


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestFunctional:
    def test_put_get_remove(self, name):
        backend = build(name)
        backend.put(1, 10)
        backend.put(2, 20)
        assert backend.get(1) == 10
        assert backend.remove(1)
        assert backend.get(1) is None
        assert len(backend) == 1

    def test_many_ops(self, name):
        backend = build(name)
        for key in range(150):
            backend.put(key, key * 2)
        backend.persist()
        assert backend.to_dict() == {key: key * 2 for key in range(150)}

    def test_time_advances(self, name):
        backend = build(name)
        before = backend.now_ns
        backend.put(1, 1)
        assert backend.now_ns > before


class TestRelativeCosts:
    """The cost orderings the paper's Figure 2 is built on."""

    def run_workload(self, name, ops=150):
        backend = build(name)
        start = backend.now_ns
        for key in range(ops):
            backend.put(key, key)
        backend.persist()
        return backend.now_ns - start

    def test_dram_fastest(self):
        dram = self.run_workload("dram")
        for other in ("pm_direct", "pmdk", "compiler"):
            assert dram < self.run_workload(other)

    def test_pm_direct_beats_pmdk(self):
        # Paper §5: PM Direct ~2x PMDK (no logging, no fences).
        assert self.run_workload("pm_direct") < self.run_workload("pmdk")

    def test_pmdk_beats_compiler_pass(self):
        # Paper §2: per-store fencing costs more than batched commits.
        assert self.run_workload("pmdk") < self.run_workload("compiler")

    def test_pax_beats_pmdk(self):
        # The paper's optimism: async logging + group commit beats
        # synchronous per-op WAL.
        assert self.run_workload("pax") < self.run_workload("pmdk")


class TestSchemeSpecific:
    def test_pmdk_counts_fences(self):
        backend = build("pmdk")
        backend.put(1, 1)
        assert backend.sfence_count > 0
        assert backend.wal_bytes > 0

    def test_compiler_fences_more_than_pmdk(self):
        pmdk = build("pmdk")
        comp = build("compiler")
        for key in range(50):
            pmdk.put(key, key)
            comp.put(key, key)
        assert comp.sfence_count > pmdk.sfence_count

    def test_mprotect_faults_once_per_page_per_epoch(self):
        backend = build("mprotect")
        backend.put(1, 1)
        faults_after_first = backend.fault_count
        assert faults_after_first > 0
        backend.put(1, 2)          # same pages: no new faults
        assert backend.fault_count == faults_after_first
        backend.persist()          # re-protects
        backend.put(1, 3)
        assert backend.fault_count > faults_after_first

    def test_mprotect_page_log_amplification(self):
        backend = build("mprotect")
        backend.put(1, 1)
        # One touched page costs > 4 KiB of log.
        assert backend.log_bytes >= 4096

    def test_pax_persist_resets_log(self):
        backend = build("pax")
        backend.put(1, 1)
        backend.persist()
        assert backend.pool.undo_log_entries == 0
        assert backend.committed_epoch >= 1

    def test_pax_device_sees_first_store_only(self):
        backend = build("pax")
        backend.put(1, 1)
        device = backend.machine.device
        logged_once = device.stats.get("lines_logged")
        backend.put(1, 2)           # same lines, still same epoch
        assert device.stats.get("lines_logged") == logged_once

    def test_dram_restart_loses_all(self):
        backend = build("dram")
        backend.put(1, 1)
        backend.crash()
        backend.restart()
        assert len(backend) == 0

    def test_make_backend_unknown(self):
        with pytest.raises(ConfigError):
            make_backend("optane")

    def test_redo_reads_own_writes_in_tx(self):
        # The overlay must serve the transaction's own uncommitted data;
        # a resize inside put() depends on it.
        backend = build("redo")
        for key in range(200):        # forces several resizes
            backend.put(key, key)
        assert backend.to_dict() == {key: key for key in range(200)}


class _ClwbRecorder(Tracer):
    def __init__(self):
        self.addrs = []

    def on_clwb(self, addr, num_lines):
        self.addrs.append(addr)


@pytest.mark.parametrize("name", ["pmdk", "compiler", "autopass", "redo"])
def test_wal_backends_clwb_physical_addresses(name):
    # on_clwb means one thing on every backend: a physical address, like
    # on_store — never a structure-space offset.
    backend = build(name, capacity=4)
    recorder = _ClwbRecorder()
    backend.attach_tracer(recorder)
    for key in range(20):
        backend.put(key, key)
    heap_end = HEAP_PHYS_BASE + backend.machine.heap_size
    assert recorder.addrs
    assert all(HEAP_PHYS_BASE <= addr < heap_end for addr in recorder.addrs)
