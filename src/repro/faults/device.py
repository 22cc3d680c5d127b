"""A PM device that can tear writes and flip bits.

:class:`FaultyPmDevice` behaves exactly like
:class:`~repro.pm.device.PmDevice` until asked to misbehave. It keeps a
short journal of recent writes (offset, pre-image, payload); at crash
time the fault injector *tears* the most recent one — rewriting the
medium so only a prefix of the payload survived, the rest reverting to
the pre-image. That models a 64-byte (or larger, e.g. a 96-byte undo
entry spanning 1.5 lines) store cut by power failure.

Bit flips model media faults between crash and recovery: raw ``_data``
mutation, deliberately bypassing the write path so wear accounting and
write statistics don't register phantom writes.
"""

from collections import deque

from repro.errors import ConfigError
from repro.pm.device import PmDevice


class FaultyPmDevice(PmDevice):
    """PM with a write journal enabling torn-write and bit-flip faults."""

    KIND = "pm-faulty"

    def __init__(self, name, size, backing_path=None, journal_depth=8):
        super().__init__(name, size, backing_path=backing_path)
        if journal_depth < 1:
            raise ConfigError("journal depth must be at least 1")
        self._journal = deque(maxlen=journal_depth)

    def write(self, offset, data):
        data = bytes(data)
        if offset < 0 or offset + len(data) > self.size:
            # Refused before it is journalled: a tear must only ever
            # restore a write that reached the medium.
            self._check_range(offset, len(data))
        if data:
            old = self._data[offset:offset + len(data)]
            # A write that changes nothing (e.g. the log's tail poison
            # over already-zero bytes) cannot tear observably; journal
            # only writes whose interruption the medium could witness.
            if data != old:
                self._journal.append((offset, old, data))
        super().write(offset, data)

    @property
    def last_write(self):
        """``(offset, pre_image, payload)`` of the most recent write."""
        return self._journal[-1] if self._journal else None

    def tear_last_write(self, keep_bytes):
        """Un-persist the suffix of the most recent write.

        After this, the medium holds ``keep_bytes`` of the write's
        payload followed by the pre-image — what PM would contain had
        power failed ``keep_bytes`` into the store. Returns
        ``(offset, keep_bytes, total_bytes)`` or None if no write is
        journalled. ``keep_bytes`` is clamped to the payload length.
        """
        if not self._journal:
            return None
        offset, old, new = self._journal[-1]
        keep = max(0, min(keep_bytes, len(new)))
        self._data[offset:offset + len(new)] = new[:keep] + old[keep:]
        self.stats.counter("writes_torn").add(1)
        return offset, keep, len(new)

    def flip_bit(self, offset, bit_index):
        """Flip one bit: media fault, invisible to write accounting."""
        byte_offset = offset + bit_index // 8
        self._check_range(byte_offset, 1)
        self._data[byte_offset] ^= 1 << (bit_index % 8)
        self.stats.counter("bits_flipped").add(1)

    def flip_random_bits(self, offset, length, count, rng):
        """Flip ``count`` random bits inside ``[offset, offset+length)``."""
        self._check_range(offset, length)
        for _ in range(count):
            self.flip_bit(offset, rng.randint(0, length * 8 - 1))

    def clear_journal(self):
        """Forget journalled writes (e.g. after recovery completes)."""
        self._journal.clear()
