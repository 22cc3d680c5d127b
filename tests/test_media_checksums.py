"""The on-media checksums catch the crash fuzzer's fault model.

Undo/WAL entries, the pool header, the epoch slots and mprotect's page
log are each sealed with a CRC-32 (``zlib.crc32``). The fault model
(``repro.faults.plan``) tears appends and flips one to three bits of a
region; every such flip of the checked bytes must be rejected, never
decoded as a different valid record.
"""

import pytest

from repro.baselines.mprotect import PAGE_ENTRY_HEADER, PageLog, _PageLogLayout
from repro.errors import PoolError
from repro.libpax.machine import HEAP_PHYS_BASE, HostMachine
from repro.pm.device import PmDevice
from repro.pm.log import decode_entry, encode_entry
from repro.pm.pool import (
    EPOCH_SLOT_SIZE,
    Pool,
    decode_epoch_record,
    encode_epoch_record,
)
from repro.sim.rng import DeterministicRng
from repro.util.constants import PAGE_SIZE

#: Bytes an undo entry's CRC covers (88), plus the CRC itself.
ENTRY_CHECKED = 92
#: The pool header's seven u64 fields plus their CRC.
HEADER_CHECKED = 7 * 8 + 4


def flipped(blob, bits):
    """``blob`` with each bit index in ``bits`` inverted."""
    out = bytearray(blob)
    for bit in bits:
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def distinct_bits(rng, nbits, count):
    """``count`` different bit indices below ``nbits`` (a repeated index
    would flip back and leave fewer flips than asked for)."""
    bits = set()
    while len(bits) < count:
        bits.add(rng.randint(0, nbits - 1))
    return sorted(bits)


def seeded_flips(seed, nbits, cases=200):
    """Seeded 2- and 3-bit flips, the upper part of BitFlipSpec's range."""
    rng = DeterministicRng(seed)
    return [distinct_bits(rng, nbits, 2 + case % 2) for case in range(cases)]


ENTRY = encode_entry(7, 0x1040, bytes(range(64)))


def test_entry_known_answer():
    # Pins the entry format and its CRC-32: an accidental change of
    # either changes every log byte, and so every fingerprint digest.
    assert ENTRY.hex() == (
        "4f444e55400000000700000000000000401000000000000000010203"
        "0405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        "202122232425262728292a2b2c2d2e2f303132333435363738393a3b"
        "3c3d3e3f0c3e68c800000000")


class TestUndoEntry:
    def test_every_single_bit_flip_is_rejected(self):
        assert decode_entry(ENTRY) is not None
        for bit in range(ENTRY_CHECKED * 8):
            assert decode_entry(flipped(ENTRY, [bit])) is None, bit

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_multi_bit_flips_are_rejected(self, seed):
        for bits in seeded_flips(seed, ENTRY_CHECKED * 8):
            assert decode_entry(flipped(ENTRY, bits)) is None, bits


class TestEpochSlot:
    SLOT = encode_epoch_record(12345)

    def test_every_single_bit_flip_is_rejected(self):
        assert len(self.SLOT) == EPOCH_SLOT_SIZE
        assert decode_epoch_record(self.SLOT) == 12345
        for bit in range(EPOCH_SLOT_SIZE * 8):
            assert decode_epoch_record(flipped(self.SLOT, [bit])) is None, bit

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_multi_bit_flips_are_rejected(self, seed):
        for bits in seeded_flips(seed, EPOCH_SLOT_SIZE * 8):
            assert decode_epoch_record(flipped(self.SLOT, bits)) is None, bits


class TestPoolHeader:
    @pytest.fixture
    def device(self):
        device = PmDevice("pm", 1 << 20)
        Pool.format(device, log_size=96 * 1024)
        return device

    def assert_rejected(self, device, bits):
        header = device.read(0, HEADER_CHECKED)
        device.write(0, flipped(header, bits))
        with pytest.raises(PoolError):
            Pool.open(device)
        device.write(0, header)

    def test_every_single_bit_flip_is_rejected(self, device):
        Pool.open(device)
        for bit in range(HEADER_CHECKED * 8):
            self.assert_rejected(device, [bit])
        Pool.open(device)

    def test_seeded_multi_bit_flips_are_rejected(self, device):
        for bits in seeded_flips(4, HEADER_CHECKED * 8):
            self.assert_rejected(device, bits)


class TestPageLog:
    """An mprotect page-log record: its CRC covers the 4 KiB pre-image;
    the CRC field sits in the record's 64-byte header."""

    CRC_OFFSET = 24             # after magic, pad, epoch and address

    @pytest.fixture
    def page_log(self):
        heap_size = 1 << 20
        machine = HostMachine(media="pm", heap_size=heap_size)
        layout = _PageLogLayout(heap_size, log_pages=4)
        log = PageLog(machine, layout)
        page = DeterministicRng(5).bytes(PAGE_SIZE)
        log.append(3, 2 * PAGE_SIZE, page)
        base = HEAP_PHYS_BASE + layout.log_base
        return log, machine.space, base, page

    def test_a_clean_record_scans(self, page_log):
        log, _space, _base, page = page_log
        assert list(log.scan()) == [(3, 2 * PAGE_SIZE, page)]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_to_three_bit_flips_are_rejected(self, page_log, seed):
        log, space, base, _page = page_log
        crc_addr = base + self.CRC_OFFSET
        page_addr = base + PAGE_ENTRY_HEADER
        rng = DeterministicRng(seed)
        for case in range(60):
            # Every fourth case hits the stored CRC, the rest the page.
            addr, size = ((crc_addr, 4) if case % 4 == 0
                          else (page_addr, PAGE_SIZE))
            clean = space.read(addr, size)
            bits = distinct_bits(rng, size * 8, 1 + case % 3)
            space.write(addr, flipped(clean, bits))
            assert list(log.scan()) == [], (addr, bits)
            space.write(addr, clean)
        assert len(list(log.scan())) == 1
