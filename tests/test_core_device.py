"""The PAX device: message servicing, persist, recovery (unit level).

These tests drive the device directly with CXL messages, with a stub
snoop port standing in for the host — isolating device logic from the
cache hierarchy (the integration path is covered in test_libpax_*).
"""

import pytest

from repro.core.config import PaxConfig
from repro.core.device import PaxDevice
from repro.core.recovery import recover_pool
from repro.core.replication import ReplicaTarget, Replicator
from repro.cxl import messages as msg
from repro.errors import AddressError, ProtocolError
from repro.libpax.machine import PaxMachine
from repro.pm.device import PmDevice
from repro.pm.pool import Pool
from repro.sim.clock import SimClock
from repro.sim.latency import default_model
from repro.util.fastpath import SLOW_PATH_ENV

VPM_BASE = 1 << 32


def build(**config_kwargs):
    device = PmDevice("pm", 1 << 20)
    pool = Pool.format(device, log_size=96 * 512)
    pax = PaxDevice(pool, default_model(),
                    config=PaxConfig(**config_kwargs), vpm_base=VPM_BASE)
    return pax, pool


class StubSnoopPort:
    """Host stand-in: returns canned dirty data per address."""

    def __init__(self, dirty=None):
        self.dirty = dirty or {}
        self.snooped = []

    def snoop_shared(self, addr):
        self.snooped.append(addr)
        return self.dirty.get(addr), 10.0


class TestTranslation:
    def test_roundtrip(self):
        pax, pool = build()
        phys = VPM_BASE + 640
        assert pax.to_phys(pax.to_pool(phys)) == phys

    def test_out_of_range_rejected(self):
        pax, pool = build()
        with pytest.raises(AddressError):
            pax.to_pool(VPM_BASE + pool.data_size)
        with pytest.raises(AddressError):
            pax.to_pool(VPM_BASE - 64)


class TestReads:
    def test_rd_shared_returns_pm_data(self):
        pax, pool = build()
        pool.device.write(pool.data_base, b"stored!!" + b"\x00" * 56)
        response, _ns = pax.handle_message(msg.RdShared(VPM_BASE))
        assert isinstance(response, msg.DataResponse)
        assert response.state == "S"
        assert response.data[:8] == b"stored!!"

    def test_rd_shared_fills_hbm(self):
        pax, pool = build()
        pax.handle_message(msg.RdShared(VPM_BASE))
        _resp, first_ns = pax.handle_message(msg.RdShared(VPM_BASE + 64))
        _resp, hit_ns = pax.handle_message(msg.RdShared(VPM_BASE))
        assert hit_ns < first_ns      # HBM hit vs PM read

    def test_hbm_disabled_always_reads_pm(self):
        pax, pool = build(hbm_lines=0)
        pax.handle_message(msg.RdShared(VPM_BASE))
        _resp, second_ns = pax.handle_message(msg.RdShared(VPM_BASE))
        model = default_model()
        assert second_ns >= model.media.pm_read_ns


class TestOwnership:
    def test_rd_own_logs_old_value_once(self):
        pax, pool = build()
        pool.device.write(pool.data_base, b"OLDVALUE" + b"\x00" * 56)
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=False))
        assert pax.stats.get("lines_logged") == 1
        assert pax.undo.pending_count == 1

    def test_rd_own_grants_M_with_data(self):
        pax, _pool = build()
        response, _ns = pax.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        assert isinstance(response, msg.DataResponse)
        assert response.state == "M"

    def test_rd_own_upgrade_is_data_less(self):
        pax, _pool = build()
        response, _ns = pax.handle_message(msg.RdOwn(VPM_BASE, need_data=False))
        assert isinstance(response, msg.Go)

    def test_rd_own_invalidates_hbm(self):
        pax, _pool = build()
        pax.handle_message(msg.RdShared(VPM_BASE))
        assert pax.to_pool(VPM_BASE) in pax.hbm
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=False))
        assert pax.to_pool(VPM_BASE) not in pax.hbm

    def test_ack_does_not_wait_for_pm_on_upgrade(self):
        # Paper §3.2: the device acks ownership without waiting for logging.
        pax, _pool = build()
        _resp, service_ns = pax.handle_message(
            msg.RdOwn(VPM_BASE, need_data=False))
        assert service_ns < default_model().media.pm_read_ns


class TestDirtyEvict:
    def test_buffered_not_written(self):
        pax, pool = build()
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        pax.handle_message(msg.DirtyEvict(VPM_BASE, b"\xee" * 64))
        assert pool.device.read(pool.data_base, 1) != b"\xee"
        assert pax.writeback.peek(pax.to_pool(VPM_BASE)) == b"\xee" * 64

    def test_unlogged_dirty_evict_is_protocol_error(self):
        pax, _pool = build()
        with pytest.raises(ProtocolError):
            pax.handle_message(msg.DirtyEvict(VPM_BASE, b"\x00" * 64))

    def test_rd_own_after_evict_serves_buffered_value(self):
        pax, _pool = build()
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        pax.handle_message(msg.DirtyEvict(VPM_BASE, b"\xee" * 64))
        response, _ns = pax.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        assert response.data == b"\xee" * 64

    def test_unknown_message_rejected(self):
        pax, _pool = build()
        with pytest.raises(ProtocolError):
            pax.handle_message(msg.SnpData(VPM_BASE))


class TestPersist:
    def test_snoops_every_touched_line(self):
        pax, _pool = build()
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        pax.handle_message(msg.RdOwn(VPM_BASE + 128, need_data=True))
        port = StubSnoopPort()
        pax.persist(port)
        assert sorted(port.snooped) == [VPM_BASE, VPM_BASE + 128]

    def test_dirty_host_data_reaches_pm(self):
        pax, pool = build()
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        port = StubSnoopPort(dirty={VPM_BASE: b"\xab" * 64})
        pax.persist(port)
        assert pool.device.read(pool.data_base, 64) == b"\xab" * 64

    def test_epoch_advances_and_log_rewinds(self):
        pax, pool = build()
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        pax.persist(StubSnoopPort())
        assert pool.committed_epoch == 1
        assert pax.epochs.current_epoch == 2
        assert pax.region.used_entries == 0
        assert pax.undo.pending_count == 0

    def test_empty_persist_commits(self):
        pax, pool = build()
        pax.persist(StubSnoopPort())
        assert pool.committed_epoch == 1

    def test_next_epoch_relogs_lines(self):
        pax, _pool = build()
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        pax.persist(StubSnoopPort(dirty={VPM_BASE: b"\x01" * 64}))
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=False))
        assert pax.stats.get("lines_logged") == 2


class TestBackgroundTick:
    def test_tick_drains_log_and_buffer(self):
        pax, pool = build(log_drain_bps=1e9, writeback_drain_bps=1e9)
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        pax.handle_message(msg.DirtyEvict(VPM_BASE, b"\x77" * 64))
        # 1 ms of background time at 1 GB/s: plenty for 96 B + 64 B.
        pax.background_tick(0, 1_000_000)
        assert pax.undo.pending_count == 0
        assert len(pax.writeback) == 0
        assert pool.device.read(pool.data_base, 1) == b"\x77"


class TestIdleDevice:
    """An idle device banks no drain credit, and leaves its clock's busy
    count until work arrives (docs/performance.md, rule 5)."""

    @pytest.fixture
    def ticking(self, monkeypatch):
        monkeypatch.setenv(SLOW_PATH_ENV, "0")
        pax, _pool = build()
        clock = SimClock()
        pax.attach_clock(clock)
        return pax, clock

    def test_burst_after_idle_drains_at_the_configured_rate(self):
        pax, _pool = build()
        pax.background_tick(0, 1_000_000)           # 1 ms with no work
        assert pax.undo._drain_credit == 0.0
        assert pax.writeback._drain_credit == 0.0
        for line in range(20):
            pax.handle_message(msg.RdOwn(VPM_BASE + 64 * line,
                                         need_data=False))
        pax.background_tick(1_000_000, 1_000_001)   # 1 ns at 2 GB/s
        assert pax.undo.pending_count == 20
        assert pax.undo._drain_credit == pytest.approx(2.0)

    def test_busy_device_accrues_credit_as_before(self):
        pax, _pool = build()
        for line in range(20):
            pax.handle_message(msg.RdOwn(VPM_BASE + 64 * line,
                                         need_data=False))
        pax.background_tick(0, 500)                 # 1000 B: ten records
        assert pax.undo.pending_count == 10
        assert pax.undo._drain_credit == pytest.approx(40.0)

    def test_drained_device_leaves_the_busy_count(self, ticking):
        pax, clock = ticking
        assert clock.busy == 1
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=False))
        clock.advance(1_000_000)
        assert pax.undo.pending_count == 0
        assert clock.busy == 0
        now = clock.now_ns
        clock.advance(1_000)                        # skipped: no tick
        assert clock.now_ns == now + 1_000
        assert pax.undo._drain_credit == 0.0

    def test_rd_own_counts_the_device_back_in(self, ticking):
        pax, clock = ticking
        clock.advance(1)
        assert clock.busy == 0
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=False))
        assert clock.busy == 1

    def test_dirty_evict_counts_the_device_back_in(self, ticking):
        pax, clock = ticking
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=False))
        clock.advance(1_000_000)
        assert clock.busy == 0
        pax.handle_message(msg.DirtyEvict(VPM_BASE, b"\x42" * 64))
        assert clock.busy == 1
        clock.advance(1_000_000)                    # written back: idle
        assert len(pax.writeback) == 0
        assert clock.busy == 0

    def test_a_record_made_outside_a_message_wakes_it(self, ticking):
        # Work handed straight to the logger, not through handle_message,
        # must still drain: the logger counts the device back in.
        pax, clock = ticking
        clock.advance(1)
        assert clock.busy == 0
        pax.undo.note_modification(pax.to_pool(VPM_BASE), bytes(64))
        clock.advance(1_000_000)
        assert pax.undo.pending_count == 0
        assert pax.undo.durable_seq == 1
        assert clock.busy == 0

    def test_a_line_buffered_outside_a_message_wakes_it(self, ticking):
        pax, clock = ticking
        clock.advance(1)
        assert clock.busy == 0
        pool_addr = pax.to_pool(VPM_BASE)
        pax.writeback.buffer_line(pool_addr, b"\x42" * 64, 0)  # seq 0: durable
        clock.advance(1_000_000)
        assert len(pax.writeback) == 0
        assert pax.pool.device.read(pool_addr, 64) == b"\x42" * 64
        assert clock.busy == 0

    def test_work_free_messages_leave_it_idle(self, ticking):
        pax, clock = ticking
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=False))
        clock.advance(1_000_000)
        pax.handle_message(msg.RdShared(VPM_BASE + 64))
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=False))  # dedup
        assert clock.busy == 0

    def test_persist_snoop_with_dirty_data_counts_it_back_in(self, ticking):
        pax, clock = ticking
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        clock.advance(1_000_000)
        assert clock.busy == 0
        # No clock passed: the persist itself runs no tick, so the count
        # it leaves behind is the snoop's.
        pax.persist(StubSnoopPort(dirty={VPM_BASE: b"\x07" * 64}))
        assert clock.busy == 1
        clock.advance(1)
        assert clock.busy == 0

    def test_persist_async_counts_it_back_in(self, ticking):
        pax, clock = ticking
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        clock.advance(1_000_000)
        assert clock.busy == 0
        flight, _ns = pax.persist_async(StubSnoopPort())
        assert flight.committed
        assert clock.busy == 1
        clock.advance(1)
        assert clock.busy == 0

    def test_slow_path_device_never_leaves(self, monkeypatch):
        monkeypatch.setenv(SLOW_PATH_ENV, "1")
        pax, _pool = build()
        clock = SimClock()
        pax.attach_clock(clock)
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=False))
        clock.advance(1_000_000)
        assert pax.undo.pending_count == 0
        assert pax.undo._drain_credit == 0.0
        assert clock.busy == 1


def _tiny_machine(**config_kwargs):
    return PaxMachine(pool_size=1 << 20, log_size=64 * 1024,
                      pax_config=PaxConfig(**config_kwargs))


class TestIdleDeviceOnAMachine:
    """The busy count across crash/restart, and beside a second callback."""

    def test_crash_restart_cycles_keep_the_count_exact(self, monkeypatch):
        monkeypatch.setenv(SLOW_PATH_ENV, "0")
        # A 1 MB/s log: a store's record is still pending when it returns.
        machine = _tiny_machine(log_drain_bps=1e6)
        mem = machine.mem()
        clock = machine.clock
        for cycle in range(10):
            mem.write_u64(64 * (cycle + 1), cycle)
            if cycle % 2:
                clock.advance(1e9)           # crash an idle device
                assert clock.busy == 0
            else:
                assert clock.busy == 1       # crash with a record pending
            machine.crash()
            assert clock.busy == 0
            assert clock._callbacks == []
            machine.restart()
            assert clock.busy == 1
            assert len(clock._callbacks) == 1
        clock.advance(1e9)
        assert clock.busy == 0

    def test_replicator_ticks_while_the_device_idles(self, monkeypatch):
        monkeypatch.setenv(SLOW_PATH_ENV, "0")
        machine = _tiny_machine()
        replica = ReplicaTarget(Pool.format(PmDevice("replica", 1 << 20),
                                            log_size=64 * 1024))
        ticks = []

        class CountingReplicator(Replicator):
            def _background_ship(self, prev_ns, now_ns):
                ticks.append(now_ns)
                super()._background_ship(prev_ns, now_ns)

        CountingReplicator(machine, replica, mode="async")
        mem = machine.mem()
        mem.write_u64(64, 1)
        machine.persist()
        machine.clock.advance(1_000_000)
        assert machine.device._on_clock is False
        assert machine.clock.busy == 1
        del ticks[:]
        for _hit in range(5):
            mem.read_u64(64)                 # L1 hits
        machine.clock.advance(1_000_000)
        assert len(ticks) == 6
        assert replica.replicated_epoch == 1


class TestDeviceCrashRecovery:
    def test_uncommitted_epoch_rolls_back(self):
        pax, pool = build()
        pool.device.write(pool.data_base, b"EPOCH0.." + b"\x00" * 56)
        # Epoch 1: modify, persist (commit).
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        pax.persist(StubSnoopPort(dirty={VPM_BASE: b"EPOCH1.." + b"\x00" * 56}))
        # Epoch 2: modify, drain the log, write back... then crash.
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        pax.undo.pump()
        pax.writeback.buffer_line(pax.to_pool(VPM_BASE),
                                  b"EPOCH2.." + b"\x00" * 56,
                                  pax.undo.seq_for(pax.to_pool(VPM_BASE)))
        pax.writeback.drain_budget(1024)
        assert pool.device.read(pool.data_base, 8) == b"EPOCH2.."
        pax.on_crash()
        report = recover_pool(pool)
        assert report.records_rolled_back == 1
        assert pool.device.read(pool.data_base, 8) == b"EPOCH1.."
        assert pool.committed_epoch == 1

    def test_pending_records_match_unwritten_lines(self):
        # A record lost in the volatile tail corresponds to a line that
        # never reached PM (the gate), so recovery has nothing to undo.
        pax, pool = build()
        pool.device.write(pool.data_base, b"BASE...." + b"\x00" * 56)
        pax.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        pax.on_crash()                      # record was pending: lost
        report = recover_pool(pool)
        assert report.records_rolled_back == 0
        assert pool.device.read(pool.data_base, 8) == b"BASE...."
