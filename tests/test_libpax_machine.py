"""Machine models: accessors, homes, crash/restart lifecycle."""

import pytest

from repro.cxl import messages as msg
from repro.errors import ConfigError, CrashedError
from repro.libpax.machine import HEAP_PHYS_BASE, HostMachine, PaxMachine
from tests.conftest import small_cache_kwargs


class TestHostMachine:
    def test_dram_store_load(self, dram_machine):
        mem = dram_machine.mem()
        mem.write_u64(64, 77)
        assert mem.read_u64(64) == 77

    def test_invalid_media(self):
        with pytest.raises(ConfigError):
            HostMachine(media="tape")

    def test_invalid_core(self, dram_machine):
        with pytest.raises(ConfigError):
            dram_machine.mem(core_id=5)

    def test_dram_crash_loses_everything(self, dram_machine):
        mem = dram_machine.mem()
        mem.write_u64(64, 123)
        dram_machine.crash()
        dram_machine.restart()
        assert mem.read_u64(64) == 0

    def test_pm_crash_keeps_evicted_data_only(self, pm_machine):
        mem = pm_machine.mem()
        mem.write_u64(64, 123)                  # dirty in cache
        pm_machine.hierarchy.writeback_line(HEAP_PHYS_BASE + 64)
        mem.write_u64(128, 456)                 # dirty, never flushed
        pm_machine.crash()
        pm_machine.restart()
        assert mem.read_u64(64) == 123
        assert mem.read_u64(128) == 0

    def test_access_while_crashed_rejected(self, dram_machine):
        dram_machine.crash()
        with pytest.raises(CrashedError):
            dram_machine.mem().read_u64(64)
        with pytest.raises(CrashedError):
            dram_machine.mem().write_u64(64, 1)

    def test_accessor_held_across_crash_and_restart(self, pm_machine):
        mem = pm_machine.mem()
        mem.write_u64(64, 5)
        pm_machine.hierarchy.writeback_line(HEAP_PHYS_BASE + 64)
        pm_machine.crash()
        with pytest.raises(CrashedError):
            mem.read_u64(64)
        with pytest.raises(CrashedError):
            mem.write_u64(64, 6)
        pm_machine.restart()
        assert mem.read_u64(64) == 5            # through the new hierarchy
        mem.write_u64(64, 7)
        assert mem.read_u64(64) == 7

    def test_time_advances_with_accesses(self, dram_machine):
        before = dram_machine.now_ns
        dram_machine.mem().read_u64(64)
        assert dram_machine.now_ns > before


class TestPaxMachine:
    def test_vpm_store_load(self, pax_machine):
        mem = pax_machine.mem()
        mem.write_u64(4096, 0xFEED)
        assert mem.read_u64(4096) == 0xFEED

    def test_store_triggers_device_logging(self, pax_machine):
        mem = pax_machine.mem()
        mem.write_u64(4096, 1)
        assert pax_machine.device.stats.get("rd_own") >= 1
        assert pax_machine.device.stats.get("lines_logged") >= 1

    def test_load_miss_goes_through_device(self, pax_machine):
        pax_machine.mem().read_u64(8192)
        assert pax_machine.device.stats.get("rd_shared") >= 1

    def test_cached_load_skips_device(self, pax_machine):
        mem = pax_machine.mem()
        mem.read_u64(4096)
        count = pax_machine.device.stats.get("rd_shared")
        mem.read_u64(4096)
        mem.read_u64(4100)          # same line
        assert pax_machine.device.stats.get("rd_shared") == count

    def test_persist_commits_epoch(self, pax_machine):
        pax_machine.mem().write_u64(4096, 5)
        assert pax_machine.pool.committed_epoch == 0
        pax_machine.persist()
        assert pax_machine.pool.committed_epoch == 1

    def test_persist_makes_data_durable_in_pm(self, pax_machine):
        mem = pax_machine.mem()
        mem.write_u64(4096, 0xAB)
        pax_machine.persist()
        pool_addr = pax_machine.device.to_pool(HEAP_PHYS_BASE + 4096)
        raw = pax_machine.pm.read(pool_addr, 8)
        assert int.from_bytes(raw, "little") == 0xAB

    def test_unpersisted_data_lost_in_crash(self, pax_machine):
        mem = pax_machine.mem()
        mem.write_u64(4096, 1)
        pax_machine.persist()
        mem.write_u64(4096, 2)
        pax_machine.crash()
        pax_machine.restart()
        assert mem.read_u64(4096) == 1

    def test_accessor_rejects_access_until_restart(self, pax_machine):
        mem = pax_machine.mem()
        mem.write_u64(4096, 1)
        pax_machine.persist()
        pax_machine.crash()
        with pytest.raises(CrashedError):
            mem.read_u64(4096)
        with pytest.raises(CrashedError):
            mem.write_u64(4096, 2)
        pax_machine.restart()
        assert mem.read_u64(4096) == 1
        mem.write_u64(4096, 3)
        assert mem.read_u64(4096) == 3

    def test_restart_without_crash_rejected(self, pax_machine):
        with pytest.raises(CrashedError):
            pax_machine.restart()

    def test_persist_latency_positive_and_charged(self, pax_machine):
        pax_machine.mem().write_u64(4096, 9)
        before = pax_machine.now_ns
        latency = pax_machine.persist()
        assert latency > 0
        assert pax_machine.now_ns >= before + latency

    def test_recovery_report_clean_on_fresh_pool(self):
        machine = PaxMachine(pool_size=2 * 1024 * 1024,
                             log_size=128 * 1024, **small_cache_kwargs())
        assert not machine.recovery_report.was_dirty

    def test_enzian_link_slower_than_cxl(self):
        def persist_time(link):
            machine = PaxMachine(pool_size=2 * 1024 * 1024,
                                 log_size=128 * 1024, link=link,
                                 **small_cache_kwargs())
            mem = machine.mem()
            for index in range(64):
                mem.write_u64(4096 + index * 64, index)
            return machine.now_ns

        assert persist_time("enzian") > persist_time("cxl")

    def test_file_backed_pool_reopens(self, tmp_path):
        path = str(tmp_path / "m.pool")
        machine = PaxMachine(pool_size=2 * 1024 * 1024, log_size=128 * 1024,
                             backing_path=path, **small_cache_kwargs())
        machine.mem().write_u64(4096, 42)
        machine.persist()
        machine.close()
        reopened = PaxMachine(pool_size=2 * 1024 * 1024, log_size=128 * 1024,
                              backing_path=path, **small_cache_kwargs())
        assert reopened.mem().read_u64(4096) == 42
