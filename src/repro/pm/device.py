"""The persistent memory device model.

Models an Optane-DC-style DIMM behind ADR: once a write *arrives at the
device* it is inside the asynchronous-DRAM-refresh power-fail domain and
therefore durable (paper §1). The volatile part of the system is the CPU
cache hierarchy and the PAX device's buffers, both modelled elsewhere;
consequently :meth:`on_crash` here preserves contents.

The device can be backed by a real file so pools survive the hosting
Python process. Writes are buffered in memory and flushed to the file by
:meth:`sync`; this is an artifact of simulation (the in-memory mapping
*is* the durable medium for crash-injection purposes) and is documented
in DESIGN.md.
"""

import collections
import os

from repro.mem.physical import MemoryDevice
from repro.util.bitops import lines_covering
from repro.util.constants import CACHE_LINE_SIZE
from repro.util.fastpath import fast_path_enabled

#: Offset-within-line mask for the arithmetic line walk in :meth:`write`.
_LINE_MASK = CACHE_LINE_SIZE - 1


class PmDevice(MemoryDevice):
    """Byte-addressable persistent memory with line-granularity accounting."""

    KIND = "pm"

    def __init__(self, name, size, backing_path=None):
        super().__init__(name, size)
        self.backing_path = backing_path
        #: Per-line write counts (endurance/wear accounting). PM media
        #: wears out per write; schemes that concentrate writes (WAL
        #: regions) create hotspots this tally makes measurable. A
        #: ``collections.Counter`` so the write path is a bare
        #: ``wear[line] += 1`` with no per-write ``dict.get`` dance; it
        #: still reads like a plain mapping everywhere else.
        self.line_wear = collections.Counter()
        #: Optional tracer told about every media write (PaxSan's
        #: write-back gate check lives behind this hook).
        self.tracer = None
        self._c_lines_written = self.stats.counter("lines_written")
        self._fast = fast_path_enabled()
        if backing_path is not None and os.path.exists(backing_path):
            self._load()

    def write(self, offset, data):
        data = bytes(data)
        size = len(data)
        # MemoryDevice.write inlined (no super() hop): a refused write
        # raises before the tracer, the wear tally or the medium sees it.
        if offset < 0 or offset + size > self.size:
            self._check_range(offset, size)
        if self.tracer is not None:
            self.tracer.on_pm_write(offset, size)
        # Account media write amplification in cache-line units: the DIMM
        # internally writes whole lines (Optane actually uses 256 B blocks;
        # we use the coherence granularity, which is what the paper's
        # write-amplification argument is phrased in).
        if size:
            if self._fast:
                # Arithmetic line walk: same lines as lines_covering()
                # without building a generator plus list per write.
                first = offset & ~_LINE_MASK
                last = (offset + size - 1) & ~_LINE_MASK
                wear = self.line_wear
                if first == last:
                    self._c_lines_written.value += 1
                    wear[first] += 1
                else:
                    self._c_lines_written.value += \
                        ((last - first) // CACHE_LINE_SIZE) + 1
                    for line in range(first, last + 1, CACHE_LINE_SIZE):
                        wear[line] += 1
            else:
                touched = lines_covering(offset, size)
                self._c_lines_written.value += len(touched)
                for line in touched:
                    self.line_wear[line] += 1
        self._c_writes.value += 1
        self._c_bytes_written.value += size
        self._data[offset:offset + size] = data

    # -- endurance accounting ------------------------------------------------

    def max_line_wear(self):
        """Highest write count on any single line (the wear hotspot)."""
        return max(self.line_wear.values()) if self.line_wear else 0

    def region_writes(self, base, size):
        """Total line writes that landed inside ``[base, base+size)``."""
        return sum(count for line, count in self.line_wear.items()
                   if base <= line < base + size)

    def wear_profile(self):
        """``(lines_touched, total_writes, max_writes)`` summary."""
        if not self.line_wear:
            return (0, 0, 0)
        counts = self.line_wear.values()
        return (len(self.line_wear), sum(counts), max(counts))

    def on_crash(self):
        """ADR: device contents survive power loss untouched."""
        self.stats.counter("crash_survived").add(1)

    # -- file backing ------------------------------------------------------

    def _load(self):
        with open(self.backing_path, "rb") as handle:
            blob = handle.read()
        if len(blob) > self.size:
            blob = blob[: self.size]
        self._data[: len(blob)] = blob

    def sync(self):
        """Flush device contents to the backing file (no-op if unbacked)."""
        if self.backing_path is None:
            return
        tmp_path = self.backing_path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(self._data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.backing_path)

    @property
    def media_write_bytes(self):
        """Bytes written at line granularity (for write-amp reporting)."""
        return self.stats.get("lines_written") * CACHE_LINE_SIZE
