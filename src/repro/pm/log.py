"""The on-PM undo log region.

Fixed-size entries laid out back to back in the pool's log region. Each
entry records the **old** contents of one cache line plus the epoch that
overwrote it; recovery rolls entries back newest-first for every epoch
newer than the committed snapshot (paper §3.3-3.4).

Entry layout (96 bytes, 1.5 lines — keeps the 64-byte payload aligned):

========  ====  =========================================================
offset    size  field
``0``     4     magic (``0x554E444F``, "UNDO")
``4``     2     payload length (1..64)
``6``     2     reserved
``8``     8     epoch number
``16``    8     pool-relative address of the target line (line-aligned)
``24``    64    old line contents
``88``    4     CRC-32 (``zlib.crc32``) over bytes [0, 88)
``92``    4     reserved
========  ====  =========================================================

Durability model: the log region lives on the PM device, so an entry is
durable the instant :meth:`append` writes it. The *asynchronous* part of
PAX logging — entries buffered in device SRAM before being written here —
is modelled by :class:`repro.core.undo.UndoLogger`, which owns the
volatile tail and calls :meth:`append` as the background drain happens.

The write offset advances monotonically within an epoch (paper §3.3: "the
undo log becomes durable at a monotonically increasing offset"). After a
successful epoch commit every entry is dead, so :meth:`reset` rewinds to
offset zero and poisons the first header so stale entries cannot be
mistaken for live ones.
"""

import struct
from zlib import crc32

from repro.errors import LogError
from repro.util.constants import CACHE_LINE_SIZE
from repro.util.stats import StatGroup

ENTRY_MAGIC = 0x554E444F
ENTRY_SIZE = 96

_PREFIX = struct.Struct("<IHHQQ")      # magic, len, pad, epoch, addr
_CRC = struct.Struct("<I")
_CRC_OFFSET = _PREFIX.size + CACHE_LINE_SIZE
_TAIL = bytes(ENTRY_SIZE - _CRC_OFFSET - _CRC.size)
#: A zeroed entry header: written past the tail so a scan stops there.
POISON = bytes(_PREFIX.size)
_U64_LIMIT = 1 << 64
_LINE_MASK = CACHE_LINE_SIZE - 1


class UndoEntry:
    """A decoded undo-log entry."""

    __slots__ = ("epoch", "addr", "data", "offset")

    def __init__(self, epoch, addr, data, offset):
        self.epoch = epoch
        self.addr = addr
        self.data = data
        self.offset = offset

    def __repr__(self):
        return "UndoEntry(epoch=%d, addr=0x%x, off=%d)" % (
            self.epoch, self.addr, self.offset)


def encode_entry(epoch, addr, data):
    """Serialize one entry; ``data`` is the old line contents (<= 64 B).

    ``epoch`` and ``addr`` must be integers in ``0..2**64-1``.
    """
    data = bytes(data)
    if not 1 <= len(data) <= CACHE_LINE_SIZE:
        raise LogError("undo payload must be 1..64 bytes, got %d" % len(data))
    if not isinstance(epoch, int) or not 0 <= epoch < _U64_LIMIT:
        raise LogError("undo entry epoch must be a u64, got %r" % (epoch,))
    if not isinstance(addr, int) or not 0 <= addr < _U64_LIMIT:
        raise LogError("undo entry address must be a u64, got %r" % (addr,))
    if addr & _LINE_MASK:
        raise LogError("undo entries target line-aligned addresses")
    body = (_PREFIX.pack(ENTRY_MAGIC, len(data), 0, epoch, addr)
            + data.ljust(CACHE_LINE_SIZE, b"\x00"))
    return body + _CRC.pack(crc32(body)) + _TAIL


#: Per-slot verdicts from :func:`classify_entry`.
SLOT_VALID = "valid"      # magic, length, and CRC all check out
SLOT_HOLE = "hole"        # zero magic: a poisoned/never-written header
SLOT_INVALID = "invalid"  # nonzero junk: a torn write or flipped bits


def classify_entry(blob, offset=0):
    """Classify one entry slot; returns ``(verdict, entry_or_None)``.

    A *hole* (zero magic) is the deliberate tail poison an append or
    reset writes — the normal end of the log. An *invalid* slot holds
    nonzero bytes that fail magic/length/CRC validation: either the tail
    entry whose append was torn by a crash, or a once-valid entry whose
    media bits flipped. Which of the two it is cannot be told from the
    slot alone; recovery decides from context (see
    :meth:`UndoLogRegion.scan_report`).
    """
    if len(blob) < ENTRY_SIZE:
        return SLOT_HOLE, None
    magic, length, _pad, epoch, addr = _PREFIX.unpack_from(blob, 0)
    if magic == 0:
        return SLOT_HOLE, None
    if magic != ENTRY_MAGIC or not 1 <= length <= CACHE_LINE_SIZE:
        return SLOT_INVALID, None
    (stored_crc,) = _CRC.unpack_from(blob, _CRC_OFFSET)
    if stored_crc != crc32(blob[:_CRC_OFFSET]):
        return SLOT_INVALID, None
    data = bytes(blob[_PREFIX.size:_PREFIX.size + length])
    return SLOT_VALID, UndoEntry(epoch, addr, data, offset)


def decode_entry(blob, offset=0):
    """Decode one entry; return :class:`UndoEntry` or None if invalid."""
    return classify_entry(blob, offset)[1]


#: Tail verdicts from :meth:`UndoLogRegion.scan_report`.
TAIL_CLEAN = "clean"        # hole (or region end) after the valid prefix
TAIL_TORN = "torn"          # invalid tail slot: the append never completed
TAIL_CORRUPT = "corrupt"    # invalid slot with durable entries after it
TAIL_DISORDER = "disorder"  # live entries out of epoch order


class LogScanResult:
    """Everything a durable-bytes-only scan of the log region found."""

    __slots__ = ("entries", "tail", "tail_offset")

    def __init__(self, entries, tail, tail_offset):
        self.entries = entries          # valid prefix, in append order
        self.tail = tail                # one of the TAIL_* verdicts
        self.tail_offset = tail_offset  # region offset where the scan stopped

    def __repr__(self):
        return "LogScanResult(%d entries, tail=%s @%d)" % (
            len(self.entries), self.tail, self.tail_offset)


class UndoLogRegion:
    """Append-only undo log in the pool's log region."""

    def __init__(self, device, base, size):
        if size < ENTRY_SIZE:
            raise LogError("log region too small for a single entry")
        self.device = device
        self.base = base
        self.size = size
        self.write_offset = 0
        self.stats = StatGroup("undo_log")
        # Per-append counters bound once (hot-path-stat-lookup rule).
        self._c_appends = self.stats.counter("appends")
        self._c_bytes = self.stats.counter("bytes")

    @property
    def capacity_entries(self):
        """Maximum number of entries the region can hold."""
        return self.size // ENTRY_SIZE

    @property
    def used_entries(self):
        """Entries appended since the last reset."""
        return self.write_offset // ENTRY_SIZE

    @property
    def is_full(self):
        """True if no further entry fits."""
        return self.write_offset + ENTRY_SIZE > self.size

    def append(self, epoch, addr, data):
        """Durably append one entry; returns its region-relative offset."""
        if self.write_offset + ENTRY_SIZE > self.size:      # is_full
            raise LogError(
                "undo log full (%d entries); call persist() more often or "
                "grow the log region" % self.used_entries)
        blob = encode_entry(epoch, addr, data)
        offset = self.write_offset
        self.device.write(self.base + offset, blob)
        self.write_offset = offset + ENTRY_SIZE
        # Poison the next entry's header so a recovery scan terminates at
        # the true tail instead of resurrecting stale pre-reset entries.
        if self.write_offset + ENTRY_SIZE <= self.size:
            self.device.write(self.base + self.write_offset, POISON)
        self._c_appends.value += 1
        self._c_bytes.value += ENTRY_SIZE
        return offset

    def reset(self):
        """Discard all entries after a successful epoch commit."""
        # Poison the first header so a recovery scan of the rewound log
        # terminates immediately; old entry bodies beyond it are unreachable
        # because scanning stops at the first invalid header.
        self.device.write(self.base, POISON)
        self.write_offset = 0
        self.stats.counter("resets").add(1)

    def scan(self):
        """Yield valid entries in append order, stopping at the first hole.

        Used by recovery, which must rely only on durable bytes: the scan
        re-reads the device rather than trusting ``write_offset`` (which is
        volatile state lost in a crash). Thin wrapper over
        :meth:`scan_report`, which also grades the tail.
        """
        return iter(self.scan_report().entries)

    def scan_report(self, committed_epoch=None):
        """Scan durable bytes and grade what ended the valid prefix.

        Returns a :class:`LogScanResult` and surfaces per-entry validation
        verdicts in this region's :class:`StatGroup` counters
        (``entries_valid``, ``entries_torn``, ``entries_corrupt``).

        The interesting case is an *invalid* slot (nonzero bytes failing
        CRC). Two faults produce one:

        * a crash tore the tail append — the entry never became durable,
          so (by the write-back gate) its target line never reached PM
          either, and rolling back just the valid prefix is exactly
          right (``TAIL_TORN``);
        * media corruption flipped bits in a once-durable entry — its
          pre-image is unrecoverable and rollback would silently miss a
          line (``TAIL_CORRUPT``).

        They are distinguished by what follows: appends are strictly
        sequential within the region, so any *later* valid entry from an
        uncommitted epoch (``epoch > committed_epoch``) proves the
        invalid slot was once a durable entry — corruption, not a tear.
        Without ``committed_epoch`` the look-ahead treats any valid entry
        as proof (recovery always passes the committed epoch so stale
        pre-reset remnants are not miscounted).
        """
        entries = []
        previous_epoch = 0
        offset = 0
        tail = TAIL_CLEAN
        while offset + ENTRY_SIZE <= self.size:
            blob = self.device.read(self.base + offset, ENTRY_SIZE)
            verdict, entry = classify_entry(blob, offset)
            if verdict == SLOT_HOLE:
                break
            if verdict == SLOT_VALID:
                if entry.epoch < previous_epoch:
                    if committed_epoch is not None \
                            and entry.epoch <= committed_epoch:
                        # A stale pre-reset remnant exposed by a torn
                        # tail-poison write: the true tail is here.
                        break
                    tail = TAIL_DISORDER
                    break
                previous_epoch = entry.epoch
                entries.append(entry)
                offset += ENTRY_SIZE
                continue
            # Invalid slot: torn tail append, or corruption mid-log.
            if self._durable_entry_follows(offset + ENTRY_SIZE,
                                           committed_epoch):
                tail = TAIL_CORRUPT
            else:
                tail = TAIL_TORN
            break
        self.stats.counter("entries_valid").add(len(entries))
        if tail == TAIL_TORN:
            self.stats.counter("entries_torn").add(1)
        elif tail == TAIL_CORRUPT:
            self.stats.counter("entries_corrupt").add(1)
        return LogScanResult(entries, tail, offset)

    def _durable_entry_follows(self, offset, committed_epoch):
        """True if any slot at/after ``offset`` holds a live valid entry.

        Stops at the first hole: appends are sequential and poison the
        next header, so a live entry can never sit past a hole — only
        stale pre-reset remnants can, and those prove nothing.
        """
        while offset + ENTRY_SIZE <= self.size:
            blob = self.device.read(self.base + offset, ENTRY_SIZE)
            verdict, entry = classify_entry(blob, offset)
            if verdict == SLOT_HOLE:
                return False
            if verdict == SLOT_VALID and (committed_epoch is None
                                          or entry.epoch > committed_epoch):
                return True
            offset += ENTRY_SIZE
        return False

    def __repr__(self):
        return "UndoLogRegion(%d/%d entries)" % (
            self.used_entries, self.capacity_entries)
