"""Memory devices: bounds, crash semantics, accounting."""

import hashlib

import pytest

from repro.errors import AddressError, ConfigError
from repro.faults import FaultyPmDevice
from repro.mem.physical import DramDevice, MemoryDevice
from repro.pm.device import PmDevice


class TestMemoryDevice:
    def test_read_write_roundtrip(self):
        device = MemoryDevice("m", 1024)
        device.write(100, b"abc")
        assert device.read(100, 3) == b"abc"

    def test_zero_initialized(self):
        device = MemoryDevice("m", 64)
        assert device.read(0, 64) == bytes(64)

    def test_fresh_medium_reads_and_hashes_as_zeros(self):
        size = 1 << 20
        device = MemoryDevice("m", size)
        data = device.read(0, size)
        assert type(data) is bytes
        assert data == bytes(size)
        # fingerprint hashes the medium in place.
        assert (hashlib.sha256(device._data).digest()
                == hashlib.sha256(bytes(size)).digest())

    @pytest.mark.parametrize("make", [MemoryDevice, PmDevice, FaultyPmDevice])
    def test_refused_write_touches_nothing(self, make):
        device = make("m", 64)
        for offset in (60, -4):
            with pytest.raises(AddressError):
                device.write(offset, b"abcdefgh")
        assert device.read(0, 64) == bytes(64)
        assert device.stats.get("writes") == 0
        assert not getattr(device, "line_wear", None)
        assert getattr(device, "last_write", None) is None

    def test_out_of_range_read(self):
        device = MemoryDevice("m", 64)
        with pytest.raises(AddressError):
            device.read(60, 8)

    def test_out_of_range_write(self):
        device = MemoryDevice("m", 64)
        with pytest.raises(AddressError):
            device.write(63, b"ab")

    def test_negative_offset(self):
        with pytest.raises(AddressError):
            MemoryDevice("m", 64).read(-1, 1)

    def test_negative_length(self):
        with pytest.raises(AddressError):
            MemoryDevice("m", 64).read(0, -1)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigError):
            MemoryDevice("m", 0)

    def test_fill(self):
        device = MemoryDevice("m", 64)
        device.fill(8, 4, 0xAB)
        assert device.read(8, 4) == b"\xab" * 4

    def test_stats(self):
        device = MemoryDevice("m", 64)
        device.write(0, b"xy")
        device.read(0, 2)
        assert device.stats.get("bytes_written") == 2
        assert device.stats.get("bytes_read") == 2


class TestDramCrash:
    def test_crash_wipes_dram(self):
        device = DramDevice("d", 128)
        device.write(0, b"important")
        device.on_crash()
        assert device.read(0, 9) == bytes(9)

    def test_base_device_keeps_data(self):
        device = MemoryDevice("m", 128)
        device.write(0, b"kept")
        device.on_crash()
        assert device.read(0, 4) == b"kept"
