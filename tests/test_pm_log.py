"""The on-PM undo log region: encoding, scanning, durability discipline."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import LogError
from repro.pm.device import PmDevice
from repro.pm.log import (
    ENTRY_SIZE,
    UndoLogRegion,
    decode_entry,
    encode_entry,
)


def region(entries=16):
    device = PmDevice("pm", 1 << 20)
    return UndoLogRegion(device, 4096, entries * ENTRY_SIZE), device


class TestEncoding:
    def test_roundtrip(self):
        blob = encode_entry(5, 0x1000, b"\xaa" * 64)
        entry = decode_entry(blob)
        assert entry.epoch == 5
        assert entry.addr == 0x1000
        assert entry.data == b"\xaa" * 64

    def test_short_payload_preserved(self):
        entry = decode_entry(encode_entry(1, 0x40, b"abc"))
        assert entry.data == b"abc"

    def test_entry_size_fixed(self):
        assert len(encode_entry(1, 0x40, b"x")) == ENTRY_SIZE

    def test_unaligned_addr_rejected(self):
        with pytest.raises(LogError):
            encode_entry(1, 0x41, b"x")

    def test_oversize_payload_rejected(self):
        with pytest.raises(LogError):
            encode_entry(1, 0x40, b"x" * 65)

    def test_empty_payload_rejected(self):
        with pytest.raises(LogError):
            encode_entry(1, 0x40, b"")

    @pytest.mark.parametrize("epoch, addr", [
        (-1, 0x40), (1 << 64, 0x40), (1, -64), (1, 1 << 64), (1.0, 0x40)])
    def test_fields_outside_u64_rejected(self, epoch, addr):
        with pytest.raises(LogError, match="u64"):
            encode_entry(epoch, addr, b"x")

    def test_corrupt_crc_detected(self):
        blob = bytearray(encode_entry(1, 0x40, b"data"))
        blob[30] ^= 0xFF
        assert decode_entry(bytes(blob)) is None

    def test_garbage_not_decoded(self):
        assert decode_entry(b"\x00" * ENTRY_SIZE) is None
        assert decode_entry(b"\xff" * ENTRY_SIZE) is None
        assert decode_entry(b"short") is None

    @given(st.integers(min_value=0, max_value=2**63),
           st.binary(min_size=1, max_size=64))
    def test_roundtrip_property(self, epoch, payload):
        entry = decode_entry(encode_entry(epoch, 0x1000, payload))
        assert entry is not None
        assert entry.epoch == epoch
        assert entry.data == payload


class TestRegion:
    def test_append_then_scan(self):
        log, _device = region()
        log.append(1, 0x1000, b"a" * 64)
        log.append(1, 0x1040, b"b" * 64)
        entries = list(log.scan())
        assert [e.addr for e in entries] == [0x1000, 0x1040]

    def test_scan_is_durable_only(self):
        # A fresh region object (volatile offset lost) must still scan.
        log, device = region()
        log.append(3, 0x1000, b"z" * 64)
        fresh = UndoLogRegion(device, 4096, log.size)
        assert [e.epoch for e in fresh.scan()] == [3]

    def test_capacity_enforced(self):
        log, _device = region(entries=2)
        log.append(1, 0x0, b"a")
        log.append(1, 0x40, b"b")
        assert log.is_full
        with pytest.raises(LogError):
            log.append(1, 0x80, b"c")

    def test_reset_poisons_scan(self):
        log, _device = region()
        log.append(1, 0x1000, b"a" * 64)
        log.append(1, 0x1040, b"b" * 64)
        log.reset()
        assert list(log.scan()) == []
        assert log.used_entries == 0

    def test_entries_beyond_reset_not_resurrected(self):
        log, _device = region()
        for index in range(4):
            log.append(1, 0x1000 + index * 64, bytes([index]) * 64)
        log.reset()
        log.append(2, 0x2000, b"n" * 64)
        entries = list(log.scan())
        # Only the new entry: old epoch-1 entries are unreachable.
        assert len(entries) == 1
        assert entries[0].epoch == 2

    def test_append_returns_monotonic_offsets(self):
        log, _device = region()
        offsets = [log.append(1, 0x1000 + i * 64, b"x") for i in range(5)]
        assert offsets == sorted(offsets)
        assert offsets[1] - offsets[0] == ENTRY_SIZE

    def test_region_too_small_rejected(self):
        with pytest.raises(LogError):
            UndoLogRegion(PmDevice("pm", 1 << 20), 4096, 10)
