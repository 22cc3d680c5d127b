"""Shared write-ahead-log machinery for the software baselines.

The PMDK-style, compiler-pass, and redo backends all need: a log region
carved out of the top of the PM heap, written with non-temporal stores
(bypassing the CPU caches, so an entry is durable the moment it is
written), a transaction-commit cell updated with a single atomic 8-byte
store, and a root-pointer cell so reopening after a crash can find the
structure.

Heap layout (structure-space offsets)::

    [0, 64)                      reserved (NULL guard)
    [64, arena_limit)            allocator arena (structure + metadata)
    [arena_limit, commit_cell)   WAL entries (96 B each, reusing the
                                 pool undo-entry format with tx_id in the
                                 epoch field)
    commit_cell  = heap - 128    last committed tx id (atomic u64)
    root_cell    = heap - 64     structure root offset (atomic u64)
"""

import struct

from repro.errors import LogError
from repro.libpax.machine import HEAP_PHYS_BASE
from repro.pm.log import ENTRY_SIZE, POISON, decode_entry, encode_entry
from repro.util.bitops import align_down
from repro.util.constants import CACHE_LINE_SIZE
from repro.util.stats import StatGroup

_U64 = struct.Struct("<Q")


class WalLayout:
    """Computes the reserved offsets for a machine's heap."""

    def __init__(self, heap_size, wal_size):
        self.root_cell = heap_size - CACHE_LINE_SIZE
        self.commit_cell = heap_size - 2 * CACHE_LINE_SIZE
        self.wal_base = align_down(self.commit_cell - wal_size,
                                   CACHE_LINE_SIZE)
        self.wal_size = self.commit_cell - self.wal_base
        self.arena_limit = self.wal_base
        if self.arena_limit < 4096:
            raise LogError("heap too small for a %d-byte WAL" % wal_size)


class DurableCells:
    """Atomic u64 cells written straight to PM (past the caches)."""

    def __init__(self, machine, layout):
        self._space = machine.space
        self._layout = layout
        #: Optional tracer told when the commit cell is published.
        self.tracer = None

    def _read(self, offset):
        return _U64.unpack(self._space.read(HEAP_PHYS_BASE + offset, 8))[0]

    def _write(self, offset, value):
        self._space.write(HEAP_PHYS_BASE + offset, _U64.pack(value))

    @property
    def committed_tx(self):
        """Id of the last durably committed transaction/epoch."""
        return self._read(self._layout.commit_cell)

    @committed_tx.setter
    def committed_tx(self, value):
        if self.tracer is not None:
            self.tracer.on_tx_commit(value)
        self._write(self._layout.commit_cell, value)

    @property
    def root(self):
        """Structure root offset (0 = unpublished)."""
        return self._read(self._layout.root_cell)

    @root.setter
    def root(self, value):
        self._write(self._layout.root_cell, value)


class Wal:
    """A synchronous WAL written with NT stores directly to PM.

    Reuses the pool undo-entry encoding; the ``epoch`` field carries the
    transaction id, and the payload carries either the *old* line (undo
    schemes) or the *new* line (redo scheme).
    """

    def __init__(self, machine, layout, flush):
        self._space = machine.space
        self._layout = layout
        self._flush = flush
        self.write_offset = 0
        #: Optional tracer told about appends and resets.
        self.tracer = None
        self.stats = StatGroup("wal")
        # Per-transaction counters bound once (hot-path-stat-lookup rule).
        self._c_appends = self.stats.counter("appends")
        self._c_bytes = self.stats.counter("bytes")
        self._c_resets = self.stats.counter("resets")

    @property
    def capacity_entries(self):
        """Maximum entries the WAL region holds."""
        return self._layout.wal_size // ENTRY_SIZE

    def append(self, tx_id, addr, data, fence=True):
        """Durably append one entry; charges NT-store + optional SFENCE."""
        if self.write_offset + ENTRY_SIZE > self._layout.wal_size:
            raise LogError("WAL full (%d entries); transaction too large"
                           % self.capacity_entries)
        blob = encode_entry(tx_id, addr, data)
        self._space.write(
            HEAP_PHYS_BASE + self._layout.wal_base + self.write_offset, blob)
        self.write_offset += ENTRY_SIZE
        # Terminate the scan at the true tail (see UndoLogRegion.append).
        if self.write_offset + ENTRY_SIZE <= self._layout.wal_size:
            self._space.write(
                HEAP_PHYS_BASE + self._layout.wal_base + self.write_offset,
                POISON)
        self._c_appends.value += 1
        self._c_bytes.value += ENTRY_SIZE
        if self.tracer is not None:
            self.tracer.on_wal_append(tx_id, addr)
        # The NT store itself pipelines; ordering it before the following
        # structure store is what costs (paper §2).
        if fence:
            self._flush.sfence()
        return self.write_offset - ENTRY_SIZE

    def reset(self):
        """Rewind after commit; poisons the first header like the pool log."""
        self._space.write(HEAP_PHYS_BASE + self._layout.wal_base, POISON)
        self.write_offset = 0
        self._c_resets.value += 1
        if self.tracer is not None:
            self.tracer.on_wal_reset()

    def scan(self):
        """Yield durable entries in order (recovery path; trusts only PM)."""
        offset = 0
        while offset + ENTRY_SIZE <= self._layout.wal_size:
            blob = self._space.read(
                HEAP_PHYS_BASE + self._layout.wal_base + offset, ENTRY_SIZE)
            entry = decode_entry(blob, offset)
            if entry is None:
                return
            yield entry
            offset += ENTRY_SIZE
