"""Hardened recovery under injected faults.

Covers the tail taxonomy of the undo-log scan (clean / torn / corrupt /
disorder), dual-slot epoch-commit tearing, typed RecoveryError + report
on unrecoverable damage, and the crash fuzzer over every target.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.pax import backend_classes
from repro.core.recovery import recover_pool
from repro.crashtest import fuzz
from repro.crashtest.fuzz import TARGETS, run_fuzz, run_iteration
from repro.errors import PoolError, RecoveryError
from repro.faults import BitFlipSpec, FaultInjector, FaultPlan, FaultyPmDevice
from repro.pm.log import (
    ENTRY_SIZE,
    TAIL_CLEAN,
    TAIL_CORRUPT,
    TAIL_DISORDER,
    TAIL_TORN,
    UndoLogRegion,
    encode_entry,
)
from repro.pm.pool import EPOCH_SLOT_OFFSETS, EPOCH_SLOT_SIZE, Pool
from repro.structures import HashMap
from tests.conftest import make_pax_pool, small_cache_kwargs

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

POOL_SIZE = 2 * 1024 * 1024
LINE = 64


def make_region(entries=()):
    device = FaultyPmDevice("pm0", 64 * 1024)
    region = UndoLogRegion(device, 0, 16 * 1024)
    for epoch, addr, data in entries:
        region.append(epoch, addr, data)
    return device, region


def make_faulty_pool():
    device = FaultyPmDevice("pm0", POOL_SIZE)
    pool = make_pax_pool(pm_device=device, pool_size=POOL_SIZE,
                         log_size=64 * 1024, **small_cache_kwargs())
    return pool, device


class TestLogScanClassification:
    def test_clean_tail_and_valid_counter(self):
        _device, region = make_region(
            [(2, 0x1000, b"a" * 64), (2, 0x1040, b"b" * 64)])
        result = region.scan_report(committed_epoch=1)
        assert result.tail == TAIL_CLEAN
        assert len(result.entries) == 2
        assert result.tail_offset == 2 * ENTRY_SIZE
        assert region.stats.counter("entries_valid").value == 2
        assert region.stats.counter("entries_torn").value == 0
        assert region.stats.counter("entries_corrupt").value == 0

    def test_torn_tail_append_is_graceful(self):
        device, region = make_region([(2, 0x1000, b"a" * 64)])
        region.append(2, 0x1040, b"b" * 64)
        device.tear_last_write(ENTRY_SIZE // 2)    # cut the append in half
        result = region.scan_report(committed_epoch=1)
        assert result.tail == TAIL_TORN
        assert len(result.entries) == 1
        assert region.stats.counter("entries_torn").value == 1

    def test_interior_corruption_is_flagged(self):
        device, region = make_region(
            [(2, 0x1000, b"a" * 64), (2, 0x1040, b"b" * 64),
             (2, 0x1080, b"c" * 64)])
        device.flip_bit(1 * ENTRY_SIZE + 20, 3)    # middle entry, epoch field
        result = region.scan_report(committed_epoch=1)
        assert result.tail == TAIL_CORRUPT
        assert len(result.entries) == 1
        assert region.stats.counter("entries_corrupt").value == 1

    def test_corrupt_tail_counts_as_torn(self):
        # A flipped bit in the *last* entry is indistinguishable from a
        # torn append using durable bytes alone: the scan must stay
        # graceful (documented fault-model limitation, docs/faults.md).
        device, region = make_region(
            [(2, 0x1000, b"a" * 64), (2, 0x1040, b"b" * 64)])
        device.flip_bit(1 * ENTRY_SIZE + 20, 3)
        result = region.scan_report(committed_epoch=1)
        assert result.tail == TAIL_TORN
        assert len(result.entries) == 1

    def test_stale_remnant_after_torn_reset_is_clean(self):
        device, region = make_region(
            [(1, 0x1000, b"a" * 64), (1, 0x1040, b"b" * 64)])
        # An epoch-2 entry overwrote slot 0; crash tore the tail poison,
        # exposing the stale epoch-1 entry in slot 1.
        device.write(0, encode_entry(2, 0x2000, b"z" * 64))
        result = region.scan_report(committed_epoch=1)
        assert result.tail == TAIL_CLEAN
        assert [e.epoch for e in result.entries] == [2]

    def test_live_disorder_is_flagged(self):
        _device, region = make_region(
            [(3, 0x1000, b"a" * 64), (2, 0x1040, b"b" * 64)])
        result = region.scan_report(committed_epoch=1)
        assert result.tail == TAIL_DISORDER

    def test_scan_still_yields_entries(self):
        _device, region = make_region([(2, 0x1000, b"a" * 64)])
        assert [e.addr for e in region.scan()] == [0x1000]


class TestTornEpochCommit:
    @SETTINGS
    @given(keep=st.integers(0, EPOCH_SLOT_SIZE - 1))
    def test_torn_slot_write_falls_back(self, keep):
        device = FaultyPmDevice("pm0", 1024 * 1024)
        pool = Pool.format(device, log_size=64 * 1024)
        pool.commit_epoch(1)
        pool.commit_epoch(2)                   # slot 0
        pool.commit_epoch(3)                   # slot 1, then torn:
        device.tear_last_write(keep)
        epoch, slot_used, valid = Pool.open(device).epoch_record()
        assert valid[0]                        # slot 0 never touched
        assert epoch in (2, 3)
        if not valid[1]:
            assert (epoch, slot_used) == (2, 0)

    def test_machine_survives_torn_commit_record(self):
        pool, device = make_faulty_pool()
        table = pool.persistent(HashMap, capacity=16)
        for key in range(8):
            table.put(key, key)
        pool.persist()
        snapshot = dict(table.to_dict())
        committed = pool.committed_epoch
        # Tear the *next* commit's slot write directly: libpax flushes
        # all data before the commit write, so contents must equal the
        # new snapshot even though the epoch record rolled back.
        table.put(0, 999)
        pool.persist()
        slot = EPOCH_SLOT_OFFSETS[pool.committed_epoch % 2]
        device.flip_bit(slot, 5)               # newest slot now invalid
        assert pool.committed_epoch == committed    # fell back
        pool.crash()
        report = pool.restart()
        assert not all(report.epoch_slots_valid)
        assert report.survived_faults
        recovered = pool.reattach_root(HashMap)
        expected = dict(snapshot)
        expected[0] = 999                      # flushed before the commit
        assert recovered.to_dict() == expected

    def test_both_slots_corrupt_is_typed_error(self):
        device = FaultyPmDevice("pm0", 1024 * 1024)
        pool = Pool.format(device, log_size=64 * 1024)
        for offset in EPOCH_SLOT_OFFSETS:
            device.flip_bit(offset, 7)
        with pytest.raises(PoolError):
            pool.epoch_record()
        with pytest.raises(RecoveryError) as excinfo:
            recover_pool(pool)
        report = excinfo.value.report
        assert report is not None
        assert report.epoch_slots_valid == (False, False)
        assert report.epoch_slot_used == -1


class TestRecoveryRaisesOnCorruption:
    def drained_live_entries(self, pool):
        machine = pool.machine
        machine.clock.advance(50_000_000)      # drain device SRAM to PM
        region = UndoLogRegion(machine.pool.device, machine.pool.log_base,
                               machine.pool.log_size)
        committed = machine.pool.committed_epoch
        return region, [e for e in region.scan_report(committed).entries
                        if e.epoch > committed]

    def test_interior_log_corruption_raises_with_report(self):
        pool, device = make_faulty_pool()
        table = pool.persistent(HashMap, capacity=16)
        for key in range(8):
            table.put(key, key)
        pool.persist()
        for key in range(8):
            table.put(key, key + 100)          # live (uncommitted) entries
        region, live = self.drained_live_entries(pool)
        assert len(live) >= 2, "need interior live entries for this test"
        victim = live[0]
        device.flip_bit(pool.machine.pool.log_base + victim.offset + 20, 2)
        pool.crash()
        with pytest.raises(RecoveryError) as excinfo:
            pool.restart()
        report = excinfo.value.report
        assert report is not None
        assert report.log_tail == TAIL_CORRUPT
        assert report.log_entries_corrupt == 1
        assert report.committed_epoch >= 0

    def test_logged_data_flip_is_masked_by_rollback(self):
        pool, device = make_faulty_pool()
        table = pool.persistent(HashMap, capacity=16)
        for key in range(8):
            table.put(key, key)
        pool.persist()
        snapshot = dict(table.to_dict())
        for key in range(8):
            table.put(key, key + 100)
        plan = FaultPlan(bitflips=(BitFlipSpec("logged_data", flips=3),),
                         seed=17)
        _region, live = self.drained_live_entries(pool)
        assert live, "need a live undo record to target"
        injector = FaultInjector(pool.machine, plan)
        injector.crash()
        assert injector.stats.counter("flips_applied").value == 3
        pool.restart()
        recovered = pool.reattach_root(HashMap)
        assert recovered.to_dict() == snapshot


def _skip_pax_rollback(monkeypatch):
    """recover_pool runs, then its rolled-back lines get their
    pre-recovery bytes back."""
    import repro.libpax.machine as machine_mod
    real = machine_mod.recover_pool

    def recover_without_rollback(pool, **kwargs):
        before = pool.device.read(pool.data_base, pool.data_size)
        report = real(pool, **kwargs)
        for addr in report.lines_restored:
            offset = addr - pool.data_base
            pool.device.write(addr, before[offset:offset + LINE])
        return report

    monkeypatch.setattr(machine_mod, "recover_pool",
                        recover_without_rollback)


def _skip_mprotect_rollback(monkeypatch):
    """mprotect's recovery finds no page pre-image to roll back."""
    from repro.baselines.mprotect import PageLog
    monkeypatch.setattr(PageLog, "scan", lambda self: iter(()))


def _skip_undo_rollback(monkeypatch):
    """The shared WAL undo recovery still resets the WAL and the next
    transaction id, but writes no undo image back."""
    from repro.baselines.pmdk import UndoTxAccessor

    def recover_without_rollback(self):
        committed = self._cells.committed_tx
        self._wal.reset()
        self._reset()
        self._next_tx = committed + 1
        return 0

    monkeypatch.setattr(UndoTxAccessor, "recover", recover_without_rollback)


def _skip_redo_replay(monkeypatch):
    """Redo recovery resets the WAL and the next transaction id, but
    re-applies no committed entry."""
    from repro.baselines.redo import RedoTxAccessor

    def recover_without_replay(self):
        committed = self._cells.committed_tx
        self._wal.reset()
        self._next_tx = committed + 1
        return 0

    monkeypatch.setattr(RedoTxAccessor, "recover", recover_without_replay)


#: One no-op-rollback mutant per recovery family: target -> (mutant,
#: fuzz seed).
ROLLBACK_MUTANTS = {"pax": (_skip_pax_rollback, 7),
                    "mprotect": (_skip_mprotect_rollback, 7),
                    "pmdk": (_skip_undo_rollback, 42),
                    "compiler": (_skip_undo_rollback, 42),
                    "autopass": (_skip_undo_rollback, 42),
                    "redo": (_skip_redo_replay, 7)}


class TestFuzzSmoke:
    def test_fifty_seeded_iterations_hold_the_contract(self):
        stats = run_fuzz(iterations=50, seed=20260806, progress=None)
        assert stats.iterations == 50
        assert stats.ok, stats.summary()
        # The sweep must actually mix fault types, not fuzz a no-op.
        assert stats.plans_torn > 0
        assert stats.plans_flipped > 0
        assert stats.plans_lossy > 0
        assert stats.outcomes["exact"] > 0

    @pytest.mark.parametrize("target", TARGETS)
    def test_every_target_holds_its_contract(self, target):
        stats = run_fuzz(iterations=10, seed=20260806, progress=None,
                         target=target)
        assert stats.iterations == 10
        assert stats.ok, stats.summary()

    @pytest.mark.parametrize("target", sorted(ROLLBACK_MUTANTS))
    def test_a_recovery_that_skips_its_rollback_fails(self, target,
                                                      monkeypatch):
        # The fuzzer's caches are small enough that uncommitted lines
        # reach PM before the crash, so leaving them there must show.
        # An undo-WAL target only shows it when the crash cuts a
        # transaction after one of its lines was written back: at 20
        # iterations seed 7 has no such crash for autopass and seed 42
        # has one for each of pmdk, compiler and autopass. redo only
        # shows it when the crash cuts a transaction after its commit was
        # published, while the lines are applied in place.
        mutant, seed = ROLLBACK_MUTANTS[target]
        mutant(monkeypatch)
        stats = run_fuzz(iterations=20, seed=seed, progress=None,
                         target=target)
        assert not stats.ok

    def test_a_failing_iteration_still_counts_its_crash(self, monkeypatch):
        # The crash point does not depend on recovery: breaking recovery
        # must not move the mid-flight crash count.
        plain = run_fuzz(iterations=50, seed=7, progress=None)
        _skip_pax_rollback(monkeypatch)
        broken = run_fuzz(iterations=50, seed=7, progress=None)
        assert not broken.ok
        assert broken.crashed_in_flight == plain.crashed_in_flight == 15


class TestFuzzTargets:
    def test_targets_are_the_pool_and_every_crash_consistent_backend(self):
        declared = tuple(name for name, cls in backend_classes().items()
                         if cls.durability != "none")
        assert TARGETS == ("pool",) + declared
        assert TARGETS == ("pool", "pmdk", "redo", "compiler", "autopass",
                           "mprotect", "pax", "hybrid")

    @pytest.mark.parametrize("target", TARGETS)
    def test_an_iteration_replays_from_its_seed(self, target):
        from repro.obs import ObsTracer
        runs = []
        for _ in range(2):
            tracer = ObsTracer()
            outcome = run_iteration(20260806, target=target, tracer=tracer)
            runs.append((outcome, tracer.events()))
        assert runs[0] == runs[1]

    def test_cli_fuzzes_every_target_in_order(self, capsys):
        assert fuzz.main(["--iterations", "2", "--seed", "7",
                          "--progress", "0"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[1] for line in out.splitlines()
                if line.startswith("fuzz ")] \
            == ["%s:" % target for target in TARGETS]

    def test_cli_exits_1_when_one_target_fails(self, capsys, monkeypatch):
        real = fuzz.run_iteration

        def failing_pax(seed, target="pool", **kwargs):
            if target == "pax":
                raise fuzz.FuzzFailure("planted")
            return real(seed, target=target, **kwargs)

        monkeypatch.setattr(fuzz, "run_iteration", failing_pax)
        assert fuzz.main(["--iterations", "1", "--seed", "7",
                          "--progress", "0"]) == 1
        out = capsys.readouterr().out
        assert "fuzz pax: 1 iterations — 0 exact, 0 detected, " \
               "0 link-exhausted, 1 FAILED" in out
        assert "fuzz hybrid: 1 iterations — 1 exact" in out

    def test_cli_traces_backend_targets(self, tmp_path, capsys):
        from repro.obs.export import read_jsonl
        path = str(tmp_path / "fuzz.jsonl")
        assert fuzz.main(["--target", "pmdk", "--target", "hybrid",
                          "--iterations", "2", "--seed", "7",
                          "--progress", "0", "--trace", path]) == 0
        events = read_jsonl(path)
        marks = [event["args"]["target"] for event in events
                 if event["name"] == "fuzz-iteration"]
        assert marks == ["pmdk", "pmdk", "hybrid", "hybrid"]
        assert {"store", "tx"} <= {event["cat"] for event in events}
