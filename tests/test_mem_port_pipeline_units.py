"""Unit tests: MemDevicePort and PersistPipeline internals."""

import pytest

from repro.core.config import PaxConfig
from repro.core.device import PaxDevice
from repro.cxl.link import CxlLink
from repro.cxl.port import MemDevicePort
from repro.pm.device import PmDevice
from repro.pm.pool import Pool
from repro.sim.clock import SimClock
from repro.sim.latency import default_model

VPM_BASE = 1 << 32


def build(**config):
    pm = PmDevice("pm", 1 << 20)
    pool = Pool.format(pm, log_size=96 * 256)
    device = PaxDevice(pool, default_model(),
                       config=PaxConfig(**config), vpm_base=VPM_BASE)
    port = MemDevicePort(CxlLink("cxl", SimClock(), 35.0, 63e9), device)
    return port, device, pool


class StubSnoop:
    """Host stand-in; ``dirty`` maps phys addr -> data it will surrender."""

    def __init__(self, dirty=None):
        self.dirty = dirty or {}

    def snoop_shared(self, addr):
        return self.dirty.get(addr), 10.0


class TestMemDevicePort:
    def test_read_line(self):
        port, _device, pool = build()
        pool.device.write(pool.data_base, b"MEMDATA!" + b"\x00" * 56)
        data, latency = port.read_line(VPM_BASE)
        assert data[:8] == b"MEMDATA!"
        assert latency >= 70.0
        assert port.stats.get("mem_reads") == 1

    def test_write_line_logs_and_buffers(self):
        port, device, pool = build()
        latency = port.write_line(VPM_BASE, b"\x55" * 64)
        assert latency > 0
        assert device.stats.get("lines_logged") == 1
        assert device.writeback.peek(device.to_pool(VPM_BASE)) == b"\x55" * 64
        # Not yet on PM: the gate holds until the record drains.
        assert pool.device.read(pool.data_base, 1) != b"\x55"

    def test_repeat_writes_dedup_log(self):
        port, device, _pool = build()
        port.write_line(VPM_BASE, b"\x01" * 64)
        port.write_line(VPM_BASE, b"\x02" * 64)
        assert device.stats.get("lines_logged") == 1
        assert device.writeback.peek(device.to_pool(VPM_BASE)) == b"\x02" * 64

    def test_persist_mem_commits(self):
        port, device, pool = build()
        port.write_line(VPM_BASE, b"\x77" * 64)
        device.persist(None)
        assert pool.committed_epoch == 1
        assert pool.device.read(pool.data_base, 1) == b"\x77"

    def test_mem_wr_pre_image_rolls_back(self):
        from repro.core.recovery import recover_pool
        port, device, pool = build()
        pool.device.write(pool.data_base, b"ORIG" + b"\x00" * 60)
        port.write_line(VPM_BASE, b"NEW!" + b"\x00" * 60)
        device.undo.pump()
        device.writeback.drain_budget(1024)
        assert pool.device.read(pool.data_base, 4) == b"NEW!"
        device.on_crash()
        recover_pool(pool)
        assert pool.device.read(pool.data_base, 4) == b"ORIG"


class TestPipelineUnits:
    def test_flight_satisfied_when_lines_reach_pm(self):
        # Slow log drain keeps the record volatile, so the snooped dirty
        # line parks in the buffer and the flight stays open.
        _port, device, pool = build(log_drain_bps=1e-6)
        from repro.cxl import messages as msg
        device.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        flight, _ns = device.persist_async(
            StubSnoop(dirty={VPM_BASE: b"\x99" * 64}))
        assert not flight.committed
        device.undo.pump()
        device.writeback.drain_budget(10_000)
        device.pipeline.poll()
        assert flight.committed
        assert pool.committed_epoch == flight.epoch
        assert pool.device.read(pool.data_base, 1) == b"\x99"

    def test_rewind_only_at_quiescence(self):
        _port, device, pool = build()
        from repro.cxl import messages as msg
        device.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        flight, _ns = device.persist_async(StubSnoop())
        # The next epoch is already dirty: no rewind after this commit.
        device.handle_message(msg.RdOwn(VPM_BASE + 128, need_data=True))
        device.undo.pump()
        device.pipeline.poll()
        assert flight.committed
        assert device.region.used_entries > 0     # not rewound
        # Quiesce: the open epoch commits via a blocking persist, which
        # rewinds.
        device.persist(StubSnoop())
        assert device.region.used_entries == 0

    def test_depth_counts_outstanding_flights(self):
        _port, device, _pool = build(log_drain_bps=1e-6)
        from repro.cxl import messages as msg
        device.handle_message(msg.RdOwn(VPM_BASE, need_data=True))
        device.persist_async(StubSnoop(dirty={VPM_BASE: b"\x01" * 64}))
        device.handle_message(msg.RdOwn(VPM_BASE + 64, need_data=True))
        device.persist_async(
            StubSnoop(dirty={VPM_BASE + 64: b"\x02" * 64}))
        assert device.pipeline.depth == 2
        device.pipeline.complete_all()
        assert device.pipeline.depth == 0
