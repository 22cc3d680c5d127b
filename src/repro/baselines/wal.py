"""Shared write-ahead-log machinery for the software baselines.

The PMDK-style, compiler-pass, autopass and redo backends all need: a
log region carved out of the top of the PM heap, written with
non-temporal stores (bypassing the CPU caches, so an entry is durable
the moment it is written), a transaction-commit cell updated with a
single atomic 8-byte store, and a root-pointer cell so reopening after a
crash can find the structure.

:class:`WalBackend` builds that machinery once for all four. What
differs between the schemes lives in one :class:`TxAccessor` subclass
per scheme, which owns the log protocol from ``begin()`` to
``recover()``.

Heap layout (structure-space offsets)::

    [0, 64)                      reserved (NULL guard)
    [64, arena_limit)            allocator arena (structure + metadata)
    [arena_limit, commit_cell)   WAL entries (96 B each, reusing the
                                 pool undo-entry format with tx_id in the
                                 epoch field)
    commit_cell  = heap - 128    last committed tx id (atomic u64)
    root_cell    = heap - 64     structure root offset (atomic u64)
"""

import contextlib
import struct

from repro.baselines.base import StructureBackend
from repro.errors import LogError
from repro.libpax.allocator import PmAllocator
from repro.libpax.machine import HEAP_PHYS_BASE, HostMachine
from repro.mem.accessor import MemoryAccessor
from repro.pm.flush import FlushModel
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


class TxAccessor(MemoryAccessor):
    """A WAL scheme's transaction protocol, from ``begin()`` to recovery.

    Structure code stores through the accessor. A subclass decides what
    a store inside a transaction costs and implements ``begin()``,
    ``end()`` (the outermost end commits), ``close()`` (end without
    committing), ``commit_initial()`` (make the structure built outside
    any transaction durable) and ``recover()`` (roll the WAL forward or
    back after a crash; returns the number of entries applied).
    """

    def __init__(self, machine, wal, flush, cells):
        self._inner = machine.mem()
        self._machine = machine
        self._space = machine.space
        self._wal = wal
        self._flush = flush
        self._cells = cells
        self._next_tx = cells.committed_tx + 1
        #: Optional tracer told about transaction boundaries.
        self.tracer = None

    def run(self, operation, *args):
        """Run ``operation(*args)`` as one transaction; returns its result.

        On any exception (an injected crash included) the transaction
        closes without committing, and the exception propagates.
        """
        self.begin()
        try:
            result = operation(*args)
            self.end()
        except BaseException:
            self.close()
            raise
        return result

    @contextlib.contextmanager
    def transaction(self):
        """``with``-style gate (the fixer's ``with`` idiom), as :meth:`run`."""
        self.begin()
        try:
            yield self
        except BaseException:
            self.close()
            raise
        self.end()

    def _write_back(self, lines):
        """CLWB each structure-space line of ``lines``, writing it to PM."""
        flush = self._flush
        hierarchy = self._machine.hierarchy
        for line in lines:
            phys = HEAP_PHYS_BASE + line
            flush.clwb(phys, CACHE_LINE_SIZE)
            hierarchy.writeback_line(phys)

    def _publish(self, tx_id):
        """Fence what came before, publish ``tx_id``, fence the publish."""
        self._flush.sfence()
        self._cells.committed_tx = tx_id
        self._flush.sfence()


class WalBackend(StructureBackend):
    """A hash table on PM, made crash consistent by a software WAL.

    Builds the PM machine, the WAL and its cells, and one accessor of
    class :attr:`accessor_class`, which owns the scheme's protocol.
    Subclasses keep only what differs between schemes.
    """

    durability = "per-op"
    #: The :class:`TxAccessor` subclass that implements the scheme.
    accessor_class = None

    def __init__(self, heap_size=64 * 1024 * 1024, wal_size=None,
                 capacity=1024, **machine_kwargs):
        super().__init__()
        self._machine = HostMachine(media="pm", heap_size=heap_size,
                                    **machine_kwargs)
        if wal_size is None:
            # Default: an eighth of the heap, capped at 4 MiB.
            wal_size = min(4 * 1024 * 1024, heap_size // 8)
        self._layout = WalLayout(heap_size, wal_size)
        self._flush = FlushModel(self._machine.clock, self._machine.latency)
        self._cells = DurableCells(self._machine, self._layout)
        self._wal = Wal(self._machine, self._layout, self._flush)
        self._tx = self.accessor_class(self._machine, self._wal, self._flush,
                                       self._cells)
        if self._cells.root:
            self._reattach()
        else:
            self._alloc = PmAllocator.create(self._tx,
                                             self._layout.arena_limit)
            self._bind_structure(self._tx, self._alloc, capacity=capacity)
            # Make the empty structure durable before publishing its root.
            self._tx.commit_initial()
            self._cells.root = self._map.root
            self._flush.sfence()

    def _reattach(self):
        """Open the allocator and the structure at the published root."""
        self._alloc = PmAllocator.attach(self._tx)
        self._reattach_structure(self._tx, self._alloc, self._cells.root)

    def attach_tracer(self, tracer):
        """Wire a sanitizer/tracer into the machine, WAL, and accessor."""
        self._machine.attach_tracer(tracer)
        self._flush.tracer = tracer
        self._wal.tracer = tracer
        self._cells.tracer = tracer
        self._tx.tracer = tracer
        tracer.on_backend_attach(self, self._layout)

    def persist(self):
        """Transactions are durable at commit; nothing extra to do."""

    def restart(self):
        """Reboot, run the scheme's WAL recovery, re-attach.

        Returns the number of WAL entries recovery applied.
        """
        self._machine.restart()
        recovered = self._tx.recover()
        self._reattach()
        return recovered

    @property
    def committed_tx(self):
        """Id of the last transaction whose commit reached PM."""
        return self._cells.committed_tx

    @property
    def sfence_count(self):
        """Ordering stalls so far — the paper's overhead argument in a number."""
        return self._flush.sfence_count

    @property
    def wal_bytes(self):
        """Bytes of WAL written (write-amplification accounting)."""
        return self._wal.stats.get("bytes")
