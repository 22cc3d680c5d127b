"""PM device durability and the pool file format."""

import os
import struct

import pytest

from repro.errors import PoolError
from repro.pm.device import PmDevice
from repro.pm.pool import (
    EPOCH_SLOT_OFFSETS,
    Pool,
    decode_epoch_record,
    encode_epoch_record,
)


class TestPmDevice:
    def test_survives_crash(self):
        device = PmDevice("pm", 4096)
        device.write(0, b"durable")
        device.on_crash()
        assert device.read(0, 7) == b"durable"

    def test_line_write_accounting(self):
        device = PmDevice("pm", 4096)
        device.write(60, b"12345678")    # spans two lines
        assert device.stats.get("lines_written") == 2
        assert device.media_write_bytes == 128

    def test_wear_counter_semantics(self):
        """Pin the wear-accounting contract across implementations.

        ``line_wear`` behaves as a plain mapping: absent lines read as
        zero without being materialized, and the summary views
        (``region_writes``, ``wear_profile``, ``max_line_wear``) agree
        with the per-line tallies.
        """
        device = PmDevice("pm", 4096)
        device.write(10, b"x" * 100)   # straddles lines 0 and 64
        device.write(64, b"y" * 64)    # exactly line 64
        device.write(200, b"z")        # single byte in line 192
        assert device.line_wear[0] == 1
        assert device.line_wear[64] == 2
        assert device.line_wear[192] == 1
        assert device.line_wear[128] == 0
        # Reading a cold line must not materialize an entry.
        assert 128 not in device.line_wear
        assert device.region_writes(0, 128) == 3
        assert device.region_writes(128, 128) == 1
        assert device.region_writes(256, 4096) == 0
        assert device.wear_profile() == (3, 4, 2)
        assert device.max_line_wear() == 2

    def test_file_backing_roundtrip(self, tmp_path):
        path = str(tmp_path / "pool.pm")
        device = PmDevice("pm", 4096, backing_path=path)
        device.write(100, b"persist me")
        device.sync()
        reopened = PmDevice("pm", 4096, backing_path=path)
        assert reopened.read(100, 10) == b"persist me"

    def test_sync_is_atomic_replace(self, tmp_path):
        path = str(tmp_path / "pool.pm")
        device = PmDevice("pm", 4096, backing_path=path)
        device.sync()
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")

    def test_unbacked_sync_noop(self):
        PmDevice("pm", 4096).sync()


class TestPoolFormat:
    def test_format_and_open(self):
        device = PmDevice("pm", 1 << 20)
        pool = Pool.format(device, log_size=64 * 96)
        reopened = Pool.open(device)
        assert reopened.log_base == pool.log_base
        assert reopened.data_size == pool.data_size
        assert reopened.committed_epoch == 0

    def test_open_or_format_idempotent(self):
        device = PmDevice("pm", 1 << 20)
        first = Pool.open_or_format(device, log_size=96 * 1024)
        first.commit_epoch(1)
        second = Pool.open_or_format(device)
        assert second.committed_epoch == 1

    def test_open_blank_device_fails(self):
        with pytest.raises(PoolError):
            Pool.open(PmDevice("pm", 1 << 20))

    def test_corrupt_header_detected(self):
        device = PmDevice("pm", 1 << 20)
        Pool.format(device, log_size=96 * 1024)
        device.write(8, b"\xff")     # corrupt the version field
        with pytest.raises(PoolError):
            Pool.open(device)

    def test_older_version_refused_by_version(self):
        # A version-2 pool sealed its header with CRC-32C: it must be
        # refused for its version, not misreported as corrupt.
        device = PmDevice("pm", 1 << 20)
        Pool.format(device, log_size=96 * 1024)
        device.write(8, struct.pack("<Q", 2))
        with pytest.raises(PoolError, match="unsupported pool version 2"):
            Pool.open(device)

    def test_size_mismatch_detected(self):
        device = PmDevice("pm", 1 << 20)
        Pool.format(device, log_size=96 * 1024)
        blob = device.read(0, 4096)
        bigger = PmDevice("pm2", 1 << 21)
        bigger.write(0, blob)
        with pytest.raises(PoolError):
            Pool.open(bigger)

    def test_unaligned_log_size_rejected(self):
        with pytest.raises(PoolError):
            Pool.format(PmDevice("pm", 1 << 20), log_size=100)

    def test_too_small_device_rejected(self):
        with pytest.raises(PoolError):
            Pool.format(PmDevice("pm", 8192), log_size=8192)


class TestEpochCell:
    def test_commit_advances(self):
        pool = Pool.format(PmDevice("pm", 1 << 20), log_size=96 * 1024)
        pool.commit_epoch(1)
        pool.commit_epoch(2)
        assert pool.committed_epoch == 2

    def test_commit_must_be_monotonic(self):
        pool = Pool.format(PmDevice("pm", 1 << 20), log_size=96 * 1024)
        pool.commit_epoch(3)
        with pytest.raises(PoolError):
            pool.commit_epoch(3)
        with pytest.raises(PoolError):
            pool.commit_epoch(2)

    def test_epoch_survives_crash(self):
        device = PmDevice("pm", 1 << 20)
        pool = Pool.format(device, log_size=96 * 1024)
        pool.commit_epoch(7)
        device.on_crash()
        assert Pool.open(device).committed_epoch == 7

    def test_commit_writes_alternating_slots(self):
        device = PmDevice("pm", 1 << 20)
        pool = Pool.format(device, log_size=96 * 1024)
        pool.commit_epoch(1)
        assert decode_epoch_record(device.read(EPOCH_SLOT_OFFSETS[1], 12)) == 1
        assert decode_epoch_record(device.read(EPOCH_SLOT_OFFSETS[0], 12)) == 0
        pool.commit_epoch(2)
        assert decode_epoch_record(device.read(EPOCH_SLOT_OFFSETS[0], 12)) == 2
        assert pool.committed_epoch == 2

    def test_torn_commit_falls_back_to_prior_epoch(self):
        device = PmDevice("pm", 1 << 20)
        pool = Pool.format(device, log_size=96 * 1024)
        pool.commit_epoch(1)
        pool.commit_epoch(2)
        # Epoch 3 targets slot 1 (holding epoch 1); tear the slot write
        # after 5 of its 12 bytes.
        record = encode_epoch_record(3)
        old = device.read(EPOCH_SLOT_OFFSETS[1], 12)
        device.write(EPOCH_SLOT_OFFSETS[1], record[:5] + old[5:])
        epoch, slot_used, valid = pool.epoch_record()
        assert epoch == 2
        assert slot_used == 0
        assert valid == (True, False)

    def test_both_slots_corrupt_detected(self):
        device = PmDevice("pm", 1 << 20)
        pool = Pool.format(device, log_size=96 * 1024)
        for slot_offset in EPOCH_SLOT_OFFSETS:
            device.write(slot_offset, b"\xde\xad" * 6)
        with pytest.raises(PoolError):
            pool.committed_epoch


class TestRootCells:
    def test_root_ptr_roundtrip(self):
        pool = Pool.format(PmDevice("pm", 1 << 20), log_size=96 * 1024)
        pool.root_ptr = 0x5000
        assert pool.root_ptr == 0x5000

    def test_alloc_root_roundtrip(self):
        pool = Pool.format(PmDevice("pm", 1 << 20), log_size=96 * 1024)
        pool.alloc_root = 64
        assert pool.alloc_root == 64

    def test_contains_data(self):
        pool = Pool.format(PmDevice("pm", 1 << 20), log_size=96 * 1024)
        assert pool.contains_data(pool.data_base)
        assert pool.contains_data(pool.data_end - 1)
        assert not pool.contains_data(pool.data_end)
        assert not pool.contains_data(0)
