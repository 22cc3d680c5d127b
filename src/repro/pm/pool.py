"""Pool file format.

A *pool* is the persistent container for one structure plus its undo log,
in the style of PMDK pools and the paper's ``map_pool("./ht.pool")``
(Listing 1). The layout, in device-relative offsets:

====================  =======================================================
``[0, 4096)``         superblock page: static header + the epoch cell
``[4096, 4096+L)``    undo log region (``L`` = ``log_size``)
``[4096+L, size)``    data region: allocator heap holding the structure
====================  =======================================================

The static header is CRC-protected and written once at format time. The
**epoch record** is a dual-slot, CRC-protected structure: committing a
snapshot writes ``{epoch, crc}`` into slot ``epoch % 2`` — the paper's
"writes the current epoch number to a special location" commit step
(§3.3), hardened against torn commits. Because consecutive commits
alternate slots (each slot lives in its own cache line), a crash that
tears the in-flight slot write leaves at most that one slot with a bad
CRC, and :meth:`Pool.open` falls back to the other slot — the previous
committed epoch — instead of bricking the pool. ``root_ptr`` and
``alloc_root`` are single-word cells updated atomically (PM guarantees
8-byte write atomicity).

All addresses stored inside the pool (root pointer, undo entry targets,
structure pointers) are **pool-relative offsets**, so a pool can be
remapped at any physical/virtual base across restarts.
"""

import struct
from zlib import crc32

from repro.errors import PoolError
from repro.util.bitops import is_aligned
from repro.util.constants import CACHE_LINE_SIZE, PAGE_SIZE

#: "PAXPOOL\0" little-endian.
POOL_MAGIC = 0x004C4F4F50584150
#: Version 2 replaced the single u64 epoch cell with the dual-slot
#: CRC-protected epoch record (torn-commit hardening); version 3 seals
#: the header, the epoch slots and the undo log with CRC-32 (``zlib``)
#: instead of CRC-32C, so an older pool is refused by version, not
#: misread as a checksum mismatch.
POOL_VERSION = 3

#: Static header: magic, version, pool_size, log_base, log_size,
#: data_base, data_size  (7 x u64), then crc (u32).
_HEADER = struct.Struct("<7Q")
_HEADER_CRC_OFFSET = _HEADER.size

#: Single-word cells, each in its own cache line to avoid false sharing
#: between the epoch commit write and structure metadata updates.
ROOT_PTR_OFFSET = 3 * CACHE_LINE_SIZE
ALLOC_ROOT_OFFSET = 4 * CACHE_LINE_SIZE
ROOT_KIND_OFFSET = 5 * CACHE_LINE_SIZE

#: The two epoch-record slots, each in its own cache line so one torn
#: line write can never damage both.
EPOCH_SLOT_OFFSETS = (2 * CACHE_LINE_SIZE, 6 * CACHE_LINE_SIZE)

#: One epoch-record slot: epoch (u64) then CRC-32 over the epoch bytes.
_EPOCH_SLOT = struct.Struct("<QI")
EPOCH_SLOT_SIZE = _EPOCH_SLOT.size

#: Values of the root-kind cell.
ROOT_KIND_NONE = 0        # no root published yet
ROOT_KIND_SINGLE = 1      # root_ptr is one user structure
ROOT_KIND_DIRECTORY = 2   # root_ptr is the named-root directory

_U64 = struct.Struct("<Q")


def encode_epoch_record(epoch):
    """Serialize one epoch-record slot (fault tests tear these bytes)."""
    body = _U64.pack(epoch)
    return body + struct.pack("<I", crc32(body))


def decode_epoch_record(blob):
    """Decode one slot; returns the epoch, or None if the CRC is bad."""
    if len(blob) < _EPOCH_SLOT.size:
        return None
    epoch, stored_crc = _EPOCH_SLOT.unpack_from(blob, 0)
    if stored_crc != crc32(blob[:_U64.size]):
        return None
    return epoch


class Pool:
    """An open pool on a :class:`~repro.pm.device.PmDevice`."""

    def __init__(self, device, log_base, log_size, data_base, data_size):
        self.device = device
        self.log_base = log_base
        self.log_size = log_size
        self.data_base = data_base
        self.data_size = data_size
        #: Optional tracer told when the epoch record advances.
        self.tracer = None

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def format(cls, device, log_size=4 * 1024 * 1024):
        """Initialize a fresh pool over the whole device and return it."""
        if not is_aligned(log_size, CACHE_LINE_SIZE):
            raise PoolError("log size must be line-aligned")
        log_base = PAGE_SIZE
        data_base = log_base + log_size
        if data_base + PAGE_SIZE > device.size:
            raise PoolError(
                "device %s too small for a %d-byte log" % (device.name, log_size))
        data_size = device.size - data_base
        header = _HEADER.pack(POOL_MAGIC, POOL_VERSION, device.size,
                              log_base, log_size, data_base, data_size)
        device.write(0, header)
        device.write(_HEADER_CRC_OFFSET, struct.pack("<I", crc32(header)))
        # Both epoch slots start valid at epoch 0: a torn first commit
        # must still leave one readable slot.
        record = encode_epoch_record(0)
        for slot_offset in EPOCH_SLOT_OFFSETS:
            device.write(slot_offset, record)
        device.write(ROOT_PTR_OFFSET, _U64.pack(0))
        device.write(ALLOC_ROOT_OFFSET, _U64.pack(0))
        device.write(ROOT_KIND_OFFSET, _U64.pack(ROOT_KIND_NONE))
        # Zero the first undo-log entry header so recovery scans stop
        # immediately on a freshly formatted pool.
        device.write(log_base, bytes(CACHE_LINE_SIZE))
        return cls(device, log_base, log_size, data_base, data_size)

    @classmethod
    def open(cls, device):
        """Open and validate an existing pool on ``device``."""
        header = device.read(0, _HEADER.size)
        (magic, version, pool_size, log_base, log_size,
         data_base, data_size) = _HEADER.unpack(header)
        if magic != POOL_MAGIC:
            raise PoolError("bad pool magic 0x%x on %s" % (magic, device.name))
        if version != POOL_VERSION:
            raise PoolError("unsupported pool version %d" % version)
        (stored_crc,) = struct.unpack(
            "<I", device.read(_HEADER_CRC_OFFSET, 4))
        if stored_crc != crc32(header):
            raise PoolError("pool header checksum mismatch on %s" % device.name)
        if pool_size != device.size:
            raise PoolError(
                "pool was formatted for %d bytes, device has %d"
                % (pool_size, device.size))
        return cls(device, log_base, log_size, data_base, data_size)

    @classmethod
    def open_or_format(cls, device, log_size=4 * 1024 * 1024):
        """Open ``device`` as a pool, formatting it first if it is blank."""
        (magic,) = _U64.unpack(device.read(0, 8))
        if magic == POOL_MAGIC:
            return cls.open(device)
        return cls.format(device, log_size=log_size)

    # -- single-word durable cells ------------------------------------------

    def _read_cell(self, offset):
        return _U64.unpack(self.device.read(offset, 8))[0]

    def _write_cell(self, offset, value):
        # An aligned 8-byte store is atomic on PM hardware; writing the
        # device directly models that the commit write bypasses (or is
        # explicitly flushed past) the CPU caches.
        self.device.write(offset, _U64.pack(value))

    def epoch_record(self):
        """Read the dual-slot epoch record.

        Returns ``(epoch, slot_used, valid_slots)`` where ``valid_slots``
        is a per-slot CRC verdict tuple. When both slots are valid (the
        common case) the newer epoch wins; when a torn or corrupted commit
        has invalidated one slot, the survivor — the previous committed
        epoch — is used. Both slots invalid means the epoch record itself
        was corrupted (media fault), which no rollback can repair.
        """
        epochs = []
        for slot_offset in EPOCH_SLOT_OFFSETS:
            blob = self.device.read(slot_offset, _EPOCH_SLOT.size)
            epochs.append(decode_epoch_record(blob))
        valid = tuple(epoch is not None for epoch in epochs)
        if not any(valid):
            raise PoolError(
                "both epoch record slots are corrupt on %s; the pool's "
                "committed snapshot cannot be determined" % self.device.name)
        slot_used = max((epoch, index) for index, epoch in enumerate(epochs)
                        if epoch is not None)[1]
        return epochs[slot_used], slot_used, valid

    @property
    def committed_epoch(self):
        """Epoch number of the most recent durable snapshot."""
        return self.epoch_record()[0]

    def commit_epoch(self, epoch):
        """Durably advance the committed epoch (must be monotonic).

        Writes slot ``epoch % 2``, never the slot holding the previous
        epoch, so a crash that tears this write rolls the pool back to
        the prior committed snapshot instead of corrupting it.
        """
        current = self.committed_epoch
        if epoch <= current:
            raise PoolError(
                "epoch commit must advance: %d -> %d" % (current, epoch))
        if self.tracer is not None:
            self.tracer.on_epoch_commit(epoch)
            self.tracer.on_span("epoch-commit", "slot-write", None, 0,
                                {"epoch": epoch, "slot": epoch % 2})
        self.device.write(EPOCH_SLOT_OFFSETS[epoch % 2],
                          encode_epoch_record(epoch))

    @property
    def root_ptr(self):
        """Pool-relative offset of the structure root (0 = none)."""
        return self._read_cell(ROOT_PTR_OFFSET)

    @root_ptr.setter
    def root_ptr(self, offset):
        self._write_cell(ROOT_PTR_OFFSET, offset)

    @property
    def alloc_root(self):
        """Pool-relative offset of the allocator's persistent state."""
        return self._read_cell(ALLOC_ROOT_OFFSET)

    @alloc_root.setter
    def alloc_root(self, offset):
        self._write_cell(ALLOC_ROOT_OFFSET, offset)

    @property
    def root_kind(self):
        """What ``root_ptr`` points at (see ``ROOT_KIND_*``)."""
        return self._read_cell(ROOT_KIND_OFFSET)

    @root_kind.setter
    def root_kind(self, kind):
        if kind not in (ROOT_KIND_NONE, ROOT_KIND_SINGLE,
                        ROOT_KIND_DIRECTORY):
            raise PoolError("invalid root kind %r" % (kind,))
        self._write_cell(ROOT_KIND_OFFSET, kind)

    # -- helpers -------------------------------------------------------------

    @property
    def data_end(self):
        """One past the last data-region offset."""
        return self.data_base + self.data_size

    def contains_data(self, offset, length=1):
        """True if ``[offset, offset+length)`` is inside the data region."""
        return self.data_base <= offset and offset + length <= self.data_end

    def sync(self):
        """Flush the device to its backing file, if any."""
        self.device.sync()

    def __repr__(self):
        return "Pool(%s, epoch=%d, data=%d bytes)" % (
            self.device.name, self.committed_epoch, self.data_size)
