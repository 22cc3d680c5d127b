"""The paging+PAX hybrid (§5.1): routing, faults, aliasing, crashes."""

import pytest

from repro.baselines import make_backend
from repro.crashtest import CrashInjector
from repro.errors import CrashedError
from tests.conftest import small_cache_kwargs


def build(**overrides):
    kwargs = dict(pool_size=4 * 1024 * 1024, log_size=256 * 1024,
                  capacity=64)
    kwargs.update(small_cache_kwargs())
    kwargs.update(overrides)
    return make_backend("hybrid", **kwargs)


class TestRouting:
    def test_functional_equivalence(self):
        backend = build()
        for key in range(150):
            backend.put(key, key * 2)
        backend.persist()
        assert backend.to_dict() == {key: key * 2 for key in range(150)}

    def test_one_fault_per_written_page_per_epoch(self):
        backend = build()
        backend.put(1, 1)
        faults = backend.fault_count
        assert faults > 0
        backend.put(1, 2)          # same pages, same epoch
        assert backend.fault_count == faults
        backend.persist()          # remap: next write faults again
        backend.put(1, 3)
        assert backend.fault_count > faults

    def test_reads_after_persist_take_direct_path(self):
        backend = build()
        for key in range(50):
            backend.put(key, key)
        backend.persist()
        direct_before = backend._mem.stats.get("direct_reads")
        device_before = backend.machine.device.stats.get("rd_shared")
        for key in range(50):
            assert backend.get(key) == key
        assert backend._mem.stats.get("direct_reads") > direct_before
        # Cold direct reads do not touch the device at all.
        assert backend.machine.device.stats.get("rd_shared") \
            == device_before

    def test_reads_of_written_pages_use_vpm(self):
        backend = build()
        backend.put(1, 1)
        vpm_before = backend._mem.stats.get("vpm_reads")
        backend.get(1)
        assert backend._mem.stats.get("vpm_reads") > vpm_before

    def test_aliasing_reads_see_latest_committed_value(self):
        backend = build()
        backend.put(7, 100)
        backend.persist()
        assert backend.get(7) == 100     # direct path
        backend.put(7, 200)              # fault, vPM path
        assert backend.get(7) == 200     # vPM path sees the new value
        backend.persist()
        assert backend.get(7) == 200     # direct path sees it too


class TestHybridCrash:
    def test_snapshot_semantics(self):
        backend = build()
        for key in range(30):
            backend.put(key, key)
        backend.persist()
        snapshot = dict(backend.to_dict())
        for key in range(30, 50):
            backend.put(key, key)
        backend.crash()
        backend.restart()
        assert backend.to_dict() == snapshot

    def test_mid_op_crash(self):
        backend = build()
        for key in range(10):
            backend.put(key, key)
        backend.persist()
        snapshot = dict(backend.to_dict())
        injector = CrashInjector(backend.machine)
        injector.arm(2)
        crashed = injector.run(lambda: backend.put(99, 990))
        assert crashed
        backend.restart()
        assert backend.to_dict() == snapshot

    def test_accessor_rejects_access_while_crashed(self):
        backend = build()
        backend.put(1, 1)
        backend.persist()
        mem = backend._mem
        backend.crash()
        with pytest.raises(CrashedError):
            mem.read_u64(0)
        with pytest.raises(CrashedError):
            mem.write_u64(0, 1)

    def test_repeated_cycles(self):
        backend = build()
        committed = {}
        for cycle in range(3):
            for key in range(cycle * 10, cycle * 10 + 10):
                backend.put(key, cycle)
                committed[key] = cycle
            backend.persist()
            backend.put(777, 777)
            backend.crash()
            backend.restart()
            assert backend.to_dict() == committed


class TestHybridEconomics:
    def test_fewer_device_reads_than_pure_pax_when_read_heavy(self):
        def device_reads(name):
            backend = make_backend(
                name, pool_size=4 * 1024 * 1024, log_size=256 * 1024,
                capacity=64, **small_cache_kwargs())
            for key in range(200):
                backend.put(key, key)
            backend.persist()
            # Cold host caches (nothing dirty after persist): every get
            # misses to the line's home.
            backend.machine.hierarchy.drop_all()
            backend.machine.device.stats.reset()
            for key in range(200):
                backend.get(key)
            return backend.machine.device.stats.get("rd_shared")

        hybrid_reads = device_reads("hybrid")
        pax_reads = device_reads("pax")
        assert hybrid_reads == 0            # direct path: no device hop
        assert pax_reads > 0

    def test_line_granularity_logging_retained(self):
        # Unlike mprotect, the hybrid logs lines, not pages.
        backend = build()
        for key in range(50):
            backend.put(key, key)
        backend.persist()
        from repro.pm.log import ENTRY_SIZE
        log_bytes = backend.log_bytes
        pages_written = backend.fault_count
        # Far less than a page-granularity scheme would write.
        assert log_bytes < pages_written * 4096
