"""Physical memory devices.

A :class:`MemoryDevice` owns a contiguous physical byte range and services
reads and writes at byte granularity. :class:`DramDevice` is the simplest:
volatile storage that forgets everything on a crash. The persistent-memory
device lives in :mod:`repro.pm.device` and layers durability semantics on
top of the same interface.

Devices store bytes in a ``bytearray``; address arithmetic is always done
relative to the device's own base so devices can be placed anywhere in the
system map (:mod:`repro.mem.address_space`).
"""

from repro.errors import AddressError, ConfigError
from repro.util.stats import StatGroup


class MemoryDevice:
    """A contiguous physical memory region with read/write byte access."""

    #: Human-readable device kind, overridden by subclasses.
    KIND = "memory"

    def __init__(self, name, size):
        if size <= 0:
            raise ConfigError("device %s must have positive size" % name)
        self.name = name
        self.size = size
        self._data = bytearray(size)
        self.stats = StatGroup(name)
        # Per-access counters bound once (hot-path-stat-lookup rule).
        self._c_reads = self.stats.counter("reads")
        self._c_bytes_read = self.stats.counter("bytes_read")
        self._c_writes = self.stats.counter("writes")
        self._c_bytes_written = self.stats.counter("bytes_written")

    def _check_range(self, offset, length):
        if length < 0:
            raise AddressError("negative access length %d on %s" % (length, self.name))
        if offset < 0 or offset + length > self.size:
            raise AddressError(
                "access [0x%x, +%d) outside device %s of size 0x%x"
                % (offset, length, self.name, self.size))

    def read(self, offset, length):
        """Return ``length`` bytes starting at device-relative ``offset``."""
        # The in-range test inline; only a bad access calls the helper,
        # which raises its AddressError.
        if length < 0 or offset < 0 or offset + length > self.size:
            self._check_range(offset, length)
        self._c_reads.value += 1
        self._c_bytes_read.value += length
        return bytes(self._data[offset:offset + length])

    def write(self, offset, data):
        """Store ``data`` at device-relative ``offset``."""
        data = bytes(data)
        size = len(data)
        if offset < 0 or offset + size > self.size:
            self._check_range(offset, size)
        self._c_writes.value += 1
        self._c_bytes_written.value += size
        self._data[offset:offset + size] = data

    def fill(self, offset, length, value=0):
        """Set ``length`` bytes at ``offset`` to ``value``."""
        self._check_range(offset, length)
        self._data[offset:offset + length] = bytes([value]) * length

    def on_crash(self):
        """Apply crash semantics. Base devices lose nothing extra."""

    def __repr__(self):
        return "%s(%s, %d bytes)" % (type(self).__name__, self.name, self.size)


class DramDevice(MemoryDevice):
    """Volatile DRAM: contents are zeroed by a crash (power loss)."""

    KIND = "dram"

    def on_crash(self):
        """Power loss: volatile contents are gone."""
        self._data = bytearray(self.size)
        self.stats.counter("crash_wipes").add(1)
