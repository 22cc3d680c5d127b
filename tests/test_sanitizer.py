"""PaxSan / WalSan: clean runs stay silent, planted persist-order bugs
are caught with the right rule id and location, and the crash fuzzer
passes a sanitized sweep."""

import pytest

from repro.cache.cache import CacheConfig
from repro.crashtest.fuzz import run_fuzz
from repro.errors import SanitizerError
from repro.libpax.pool import PaxPool
from repro.sanitizer import (
    RULE_FENCE_INVERSION,
    RULE_MISSING_UNDO,
    RULE_PREMATURE_COMMIT,
    RULE_UNDO_GATE,
    PaxSanitizer,
    WalSanitizer,
)
from repro.structures.hashmap import HashMap
from repro.util.constants import CACHE_LINE_SIZE

POOL_SIZE = 2 * 1024 * 1024
LOG_SIZE = 64 * 1024


def make_pool():
    """A small sanitized PAX pool (tiny caches force early write-backs)."""
    pool = PaxPool.map_pool(
        pool_size=POOL_SIZE, log_size=LOG_SIZE,
        l1_config=CacheConfig(size_bytes=4 * 1024, ways=4),
        l2_config=CacheConfig(size_bytes=16 * 1024, ways=8),
        llc_config=CacheConfig(size_bytes=64 * 1024, ways=8))
    sanitizer = PaxSanitizer().attach(pool.machine)
    return pool, sanitizer


# -- clean runs -------------------------------------------------------------

def test_pax_clean_run_with_crash_and_restart():
    pool, sanitizer = make_pool()
    structure = pool.persistent(HashMap)
    for i in range(200):
        structure.put(i % 16, i)
        if i % 50 == 49:
            pool.persist()
    pool.crash()
    assert not sanitizer.checking
    pool.restart()
    assert sanitizer.checking
    structure = pool.reattach_root(HashMap)
    for i in range(50):
        structure.put(i % 16, i + 1000)
    pool.persist()
    assert sanitizer.ok
    assert "PaxSan" in sanitizer.describe()


def test_pax_clean_run_pipelined_persists():
    pool, sanitizer = make_pool()
    structure = pool.persistent(HashMap)
    for i in range(60):
        structure.put(i % 16, i)
        if i % 20 == 19:
            pool.persist_async()
    pool.persist_barrier()
    assert sanitizer.ok


def test_wal_backends_clean_run():
    from repro.baselines.pmdk import PmdkBackend
    from repro.baselines.redo import RedoBackend
    for backend_cls in (PmdkBackend, RedoBackend):
        backend = backend_cls(heap_size=4 * 1024 * 1024)
        sanitizer = WalSanitizer().attach(backend)
        for i in range(40):
            backend.put(i % 8, i)
            if i % 10 == 9:
                backend.remove(i % 8)
        backend.machine.crash()
        backend.restart()
        backend.put(1, 2)
        assert sanitizer.ok, backend_cls.name


# -- planted bugs -----------------------------------------------------------

def test_missing_undo_on_raw_device_write():
    pool, _sanitizer = make_pool()
    structure = pool.persistent(HashMap)
    structure.put(1, 2)
    # A device write to an untouched data line, bypassing the logging
    # path: rollback could never restore its pre-image.
    target = pool.machine.pool.data_base + 256 * 1024
    with pytest.raises(SanitizerError) as excinfo:
        pool.machine.pool.device.write(target, b"\xab" * CACHE_LINE_SIZE)
    assert excinfo.value.rule == RULE_MISSING_UNDO
    assert excinfo.value.addr == target


def test_undo_gate_on_write_before_record_durable():
    pool, _sanitizer = make_pool()
    structure = pool.persistent(HashMap)
    structure.put(1, 2)
    # Forge a pending (not yet durable) undo record, then write the line
    # to PM before the background drain runs — the ordering a real PAX
    # device enforces in hardware.
    target = pool.machine.pool.data_base + 128 * 1024
    pool.machine.device.undo.note_modification(target,
                                               bytes(CACHE_LINE_SIZE))
    with pytest.raises(SanitizerError) as excinfo:
        pool.machine.pool.device.write(target, b"\xcd" * CACHE_LINE_SIZE)
    assert excinfo.value.rule == RULE_UNDO_GATE
    assert excinfo.value.addr == target


def test_premature_commit_with_volatile_lines():
    pool, _sanitizer = make_pool()
    structure = pool.persistent(HashMap)
    structure.put(3, 4)
    # Advance the epoch record while the put's lines are still dirty in
    # the host caches — the "snapshot" would be missing them.
    inner = pool.machine.pool
    with pytest.raises(SanitizerError) as excinfo:
        inner.commit_epoch(inner.committed_epoch + 1)
    assert excinfo.value.rule == RULE_PREMATURE_COMMIT
    assert excinfo.value.addr is not None


def test_fence_inversion_on_unfenced_commit():
    from repro.baselines.pmdk import PmdkBackend
    backend = PmdkBackend(heap_size=4 * 1024 * 1024)
    WalSanitizer().attach(backend)
    # Break the backend: commits publish without ordering their flushes.
    backend._flush.sfence = lambda: 0.0
    with pytest.raises(SanitizerError) as excinfo:
        backend.put(1, 2)
    assert excinfo.value.rule == RULE_FENCE_INVERSION


def test_wal_missing_undo_on_unlogged_tx_store():
    from repro.baselines.pmdk import PmdkBackend
    backend = PmdkBackend(heap_size=4 * 1024 * 1024)
    WalSanitizer().attach(backend)
    backend._tx.begin()
    try:
        # Store into the arena around the TX_ADD interposer: no WAL
        # entry covers the line.
        with pytest.raises(SanitizerError) as excinfo:
            backend._machine.mem().write(256, b"\x01" * 8)
    finally:
        backend._tx.close()
    assert excinfo.value.rule == RULE_MISSING_UNDO


def test_collect_mode_accumulates_instead_of_raising():
    pool = PaxPool.map_pool(
        pool_size=POOL_SIZE, log_size=LOG_SIZE,
        l1_config=CacheConfig(size_bytes=4 * 1024, ways=4),
        l2_config=CacheConfig(size_bytes=16 * 1024, ways=8),
        llc_config=CacheConfig(size_bytes=64 * 1024, ways=8))
    sanitizer = PaxSanitizer(raise_on_violation=False).attach(pool.machine)
    structure = pool.persistent(HashMap)
    structure.put(1, 2)
    target = pool.machine.pool.data_base + 256 * 1024
    pool.machine.pool.device.write(target, b"\xab" * CACHE_LINE_SIZE)
    assert not sanitizer.ok
    assert [f.rule for f in sanitizer.findings] == [RULE_MISSING_UNDO]
    # Violation counts show up in the live-machine dump.
    from repro.tools.inspect import format_machine
    report = format_machine(pool.machine)
    assert "PaxSan" in report and "violations:      1" in report


# -- the fuzzer under the sanitizer ----------------------------------------

def test_sanitized_fuzz_smoke_is_clean():
    stats = run_fuzz(iterations=100, seed=20260806, progress=None,
                     sanitize=True)
    assert stats.iterations == 100
    assert stats.ok, stats.summary()
