"""The system address map: routing, overlap rejection, crash fan-out."""

import pytest

from repro.errors import AddressError, ConfigError
from repro.mem.address_space import AddressSpace
from repro.mem.physical import DramDevice, MemoryDevice
from repro.pm.device import PmDevice


def space_with_two_devices():
    space = AddressSpace()
    a = MemoryDevice("a", 4096)
    b = MemoryDevice("b", 4096)
    space.map_device(0x10000, a)
    space.map_device(0x20000, b)
    return space, a, b


class TestMapping:
    def test_routing(self):
        space, a, b = space_with_two_devices()
        space.write(0x10010, b"AA")
        space.write(0x20020, b"BB")
        assert a.read(0x10, 2) == b"AA"
        assert b.read(0x20, 2) == b"BB"

    def test_overlap_rejected(self):
        space, _a, _b = space_with_two_devices()
        with pytest.raises(ConfigError):
            space.map_device(0x10800, MemoryDevice("c", 4096))

    def test_overlap_before_rejected(self):
        space = AddressSpace()
        space.map_device(0x20000, MemoryDevice("a", 4096))
        with pytest.raises(ConfigError):
            space.map_device(0x1F000, MemoryDevice("b", 8192))

    def test_adjacent_mappings_allowed(self):
        space = AddressSpace()
        space.map_device(0x10000, MemoryDevice("a", 4096))
        space.map_device(0x11000, MemoryDevice("b", 4096))
        assert space.device_at(0x10FFF).name == "a"
        assert space.device_at(0x11000).name == "b"

    def test_low_mapping_rejected(self):
        # Address 0 stays NULL.
        with pytest.raises(ConfigError):
            AddressSpace().map_device(0, MemoryDevice("a", 64))

    def test_unmapped_access(self):
        space, _a, _b = space_with_two_devices()
        with pytest.raises(AddressError):
            space.read(0x500, 1)
        with pytest.raises(AddressError):
            space.read(0x18000, 1)

    def test_access_spanning_device_end_rejected(self):
        space, _a, _b = space_with_two_devices()
        with pytest.raises(AddressError):
            space.read(0x10000 + 4090, 10)

    def test_resolve_offsets(self):
        space, _a, _b = space_with_two_devices()
        mapping, offset = space.resolve(0x10020, 4)
        assert mapping.base == 0x10000
        assert offset == 0x20


class TestCrashFanOut:
    def test_crash_reaches_all_devices(self):
        space = AddressSpace()
        dram = DramDevice("dram", 4096)
        keep = MemoryDevice("keep", 4096)
        space.map_device(0x10000, dram)
        space.map_device(0x20000, keep)
        space.write(0x10000, b"gone")
        space.write(0x20000, b"kept")
        space.on_crash()
        assert space.read(0x10000, 4) == bytes(4)
        assert space.read(0x20000, 4) == b"kept"


# -- boundary table -----------------------------------------------------------
#
# read()/write() test the in-range case inline and leave every other
# access to the helpers (MemoryDevice._check_range, AddressSpace.resolve),
# so each bad access must raise exactly the AddressError the helper does.

def _helper_error(call):
    with pytest.raises(AddressError) as info:
        call()
    return str(info.value)


def _device(kind):
    return (PmDevice if kind == "pm" else MemoryDevice)("dev", 4096)


#: (offset, length) device accesses and whether they are in range.
DEVICE_ACCESSES = [
    (0, 4096, True),
    (4095, 1, True),
    (4096, 0, True),          # zero length at the end
    (-1, 4, False),           # negative offset
    (-64, 0, False),
    (0, -1, False),           # negative length
    (4093, 4, False),         # end past the device
    (4096, 1, False),
    (1 << 40, 8, False),
]


@pytest.mark.parametrize("kind", ["memory", "pm"])
@pytest.mark.parametrize("offset, length, ok", DEVICE_ACCESSES)
def test_device_read_boundaries(kind, offset, length, ok):
    device = _device(kind)
    if ok:
        assert device.read(offset, length) == bytes(length)
        assert device.stats.get("reads") == 1
        return
    expected = _helper_error(lambda: device._check_range(offset, length))
    with pytest.raises(AddressError) as info:
        device.read(offset, length)
    assert str(info.value) == expected
    assert device.stats.get("reads") == 0


@pytest.mark.parametrize("kind", ["memory", "pm"])
@pytest.mark.parametrize("offset, length, ok",
                         [row for row in DEVICE_ACCESSES if row[1] >= 0])
def test_device_write_boundaries(kind, offset, length, ok):
    device = _device(kind)
    data = b"\xab" * length
    if ok:
        device.write(offset, data)
        assert device.read(offset, length) == data
        assert device.stats.get("writes") == 1
        assert device.stats.get("bytes_written") == length
        return
    expected = _helper_error(lambda: device._check_range(offset, length))
    with pytest.raises(AddressError) as info:
        device.write(offset, data)
    assert str(info.value) == expected
    assert device.stats.get("writes") == 0


def _two_adjacent_and_one_apart():
    space = AddressSpace()
    for base in (0x10000, 0x11000, 0x20000):
        space.map_device(base, MemoryDevice("m%x" % base, 4096))
    return space


#: (addr, length) physical accesses and whether they are in range.
SPACE_ACCESSES = [
    (0x10000, 4096, True),
    (0x11FFF, 1, True),       # last byte of a mapping
    (0x20000, 64, True),
    (0x10FFC, 8, False),      # spans two adjacent mappings
    (0x11FFF, 2, False),      # runs off the end into the gap
    (0x500, 1, False),        # below every mapping
    (0x18000, 1, False),      # in the gap between mappings
    (0x21000, 1, False),      # past the last mapping
    (0x10000, 0, False),      # resolve needs a positive length
    (0x10000, -1, False),
    (0x10000 - 1, 2, False),  # starts before the first mapping
]


@pytest.mark.parametrize("addr, length, ok", SPACE_ACCESSES)
def test_space_read_boundaries(addr, length, ok):
    space = _two_adjacent_and_one_apart()
    if ok:
        assert space.read(addr, length) == bytes(length)
        return
    expected = _helper_error(lambda: space.resolve(addr, length))
    with pytest.raises(AddressError) as info:
        space.read(addr, length)
    assert str(info.value) == expected


@pytest.mark.parametrize("addr, length, ok",
                         [row for row in SPACE_ACCESSES if row[1] > 0])
def test_space_write_boundaries(addr, length, ok):
    space = _two_adjacent_and_one_apart()
    data = b"\xcd" * length
    if ok:
        space.write(addr, data)
        assert space.read(addr, length) == data
        return
    expected = _helper_error(lambda: space.resolve(addr, length))
    with pytest.raises(AddressError) as info:
        space.write(addr, data)
    assert str(info.value) == expected


def test_zero_length_write_at_the_last_byte_lands():
    space = _two_adjacent_and_one_apart()
    device = space.device_at(0x11FFF)
    space.write(0x11FFF, b"")
    assert device.stats.get("writes") == 1
    assert device.stats.get("bytes_written") == 0


@pytest.mark.parametrize("addr", [0x12000, 0x500, 0x18000])
def test_zero_length_write_outside_a_mapping_is_rejected(addr):
    # A zero-length write resolves as if it were one byte long.
    space = _two_adjacent_and_one_apart()
    expected = _helper_error(lambda: space.resolve(addr, 1))
    with pytest.raises(AddressError) as info:
        space.write(addr, b"")
    assert str(info.value) == expected
