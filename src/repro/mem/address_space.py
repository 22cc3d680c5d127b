"""The system physical address map.

An :class:`AddressSpace` maps non-overlapping physical ranges to
:class:`~repro.mem.physical.MemoryDevice` instances — the same job a
system bus / system address decoder does in hardware. Accesses are routed
to the owning device; accesses that span a device boundary are rejected
(real interconnects split them, but nothing in this simulator legitimately
does that, so it is always a bug worth surfacing).

Address 0 is never mapped: every mapping must start at or above
:data:`~repro.util.constants.PAGE_SIZE`, preserving 0 as the NULL address
for persistent structures.
"""

import bisect

from repro.errors import AddressError, ConfigError
from repro.util.constants import PAGE_SIZE

_bisect_right = bisect.bisect_right


class Mapping:
    """One entry in the address map: ``[base, base+size)`` -> device."""

    __slots__ = ("base", "size", "device")

    def __init__(self, base, size, device):
        self.base = base
        self.size = size
        self.device = device

    @property
    def end(self):
        """One past the last mapped address."""
        return self.base + self.size

    def contains(self, addr, length=1):
        """True if ``[addr, addr+length)`` lies wholly inside this mapping."""
        return self.base <= addr and addr + length <= self.end

    def __repr__(self):
        return "Mapping(0x%x..0x%x -> %s)" % (self.base, self.end, self.device.name)


class AddressSpace:
    """Routes physical addresses to devices."""

    def __init__(self, name="system"):
        self.name = name
        self._mappings = []      # sorted by base
        self._bases = []         # parallel list of bases for bisect

    def map_device(self, base, device):
        """Map ``device`` at physical ``base``; returns the :class:`Mapping`."""
        if base < PAGE_SIZE:
            raise ConfigError("mappings must start at or above 0x%x" % PAGE_SIZE)
        mapping = Mapping(base, device.size, device)
        index = bisect.bisect_left(self._bases, base)
        before = self._mappings[index - 1] if index > 0 else None
        after = self._mappings[index] if index < len(self._mappings) else None
        if before is not None and before.end > base:
            raise ConfigError("mapping at 0x%x overlaps %r" % (base, before))
        if after is not None and mapping.end > after.base:
            raise ConfigError("mapping at 0x%x overlaps %r" % (base, after))
        self._mappings.insert(index, mapping)
        self._bases.insert(index, base)
        return mapping

    def resolve(self, addr, length=1):
        """Return ``(mapping, device_offset)`` for ``[addr, addr+length)``."""
        if length <= 0:
            raise AddressError("resolve needs a positive length")
        index = bisect.bisect_right(self._bases, addr) - 1
        if index < 0:
            raise AddressError("unmapped address 0x%x" % addr)
        mapping = self._mappings[index]
        if not mapping.contains(addr, length):
            raise AddressError(
                "access [0x%x, +%d) not wholly inside %r" % (addr, length, mapping))
        return mapping, addr - mapping.base

    def device_at(self, addr):
        """Return the device owning ``addr``."""
        mapping, _off = self.resolve(addr)
        return mapping.device

    def read(self, addr, length):
        """Read ``length`` bytes at physical ``addr``."""
        # resolve() inlined for an access wholly inside one mapping
        # (bisect puts the mapping's base at or below ``addr``); any
        # other access takes resolve() for its AddressError.
        index = _bisect_right(self._bases, addr) - 1
        if index >= 0 and length > 0:
            mapping = self._mappings[index]
            offset = addr - mapping.base
            if offset + length <= mapping.size:
                return mapping.device.read(offset, length)
        mapping, offset = self.resolve(addr, length)
        return mapping.device.read(offset, length)

    def write(self, addr, data):
        """Write ``data`` at physical ``addr``.

        A zero-length write must still land inside a mapping, as if it
        were one byte long.
        """
        data = bytes(data)
        length = len(data) or 1
        # resolve() inlined, as in read().
        index = _bisect_right(self._bases, addr) - 1
        if index >= 0:
            mapping = self._mappings[index]
            offset = addr - mapping.base
            if offset + length <= mapping.size:
                mapping.device.write(offset, data)
                return
        mapping, offset = self.resolve(addr, length)
        mapping.device.write(offset, data)

    def mappings(self):
        """Return the mappings in address order."""
        return list(self._mappings)

    def on_crash(self):
        """Propagate crash semantics to every mapped device."""
        for mapping in self._mappings:
            mapping.device.on_crash()

    def __repr__(self):
        return "AddressSpace(%s, %d mappings)" % (self.name, len(self._mappings))
