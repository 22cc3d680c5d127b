"""The PMDK-style hand-crafted undo-WAL backend (paper §2, Fig 2b).

Models ``libpmemobj``-style transactions: before the first store to each
cache line inside a transaction, the line's old contents are appended to
an undo WAL with a non-temporal store and ordered with SFENCE
(``TX_ADD``); structure stores then proceed in place through the caches.
Commit flushes every dirtied line (CLWB), fences, and publishes the
transaction id with one atomic store. Every ``put``/``remove`` is one
transaction — exactly the cost structure the paper attributes to WAL
schemes: *multiple ordering stalls per logical operation*.

Crash recovery replays the undo WAL for any transaction newer than the
commit cell, restoring the pre-transaction image.
"""

from repro.baselines.wal import TxAccessor, WalBackend
from repro.errors import LogError
from repro.libpax.machine import HEAP_PHYS_BASE
from repro.util.bitops import split_lines
from repro.util.constants import CACHE_LINE_SIZE


class UndoTxAccessor(TxAccessor):
    """Interposes on stores: first touch of a line logs its old value.

    This is the hand-instrumented code path PMDK requires — the thing the
    paper's black-box property removes. Gates nest: only the outermost
    ``end()`` commits, so stores made inside a nested gate (allocator
    metadata, say) roll back with the transaction around them.
    """

    def __init__(self, machine, wal, flush, cells):
        super().__init__(machine, wal, flush, cells)
        self._depth = 0
        self._tx_id = None
        self._logged = set()
        self._dirty = set()
        #: Committed transactions (perfbench's gate-count column).
        self.gate_commits = 0

    # -- transaction control ------------------------------------------------

    def begin(self):
        """Open a gate; the outermost one starts the next transaction."""
        if self._depth == 0:
            self._tx_id = self._next_tx
            if self.tracer is not None:
                self.tracer.on_tx_begin(self._tx_id)
        self._depth += 1

    @property
    def in_tx(self):
        """True while any gate is open."""
        return self._depth > 0

    def end(self):
        """Close a gate; the outermost close commits the transaction.

        Commit is PMDK-ordered: CLWB every dirtied line, SFENCE, publish
        the transaction id, SFENCE, then reset the WAL.
        """
        if self._depth == 0:
            raise LogError("gate underflow: end() without begin()")
        self._depth -= 1
        if self._depth:
            return
        tx_id, dirty = self._tx_id, sorted(self._dirty)
        self.close()
        self._write_back(dirty)
        self._publish(tx_id)
        self._next_tx = tx_id + 1
        self._wal.reset()
        self.gate_commits += 1

    def close(self):
        """Close the open transaction without committing it."""
        if self.tracer is not None:
            self.tracer.on_tx_end()
        self._reset()

    def _reset(self):
        self._depth = 0
        self._tx_id = None
        self._logged.clear()
        self._dirty.clear()

    def commit_initial(self):
        """Commit every line the structure's creation dirtied as one
        transaction."""
        self.begin()
        self._dirty.update(line - HEAP_PHYS_BASE
                           for line in self._machine.hierarchy.dirty_lines())
        self.end()

    def recover(self):
        """Undo every entry of a transaction newer than the commit cell,
        newest first; returns the number of entries undone."""
        committed = self._cells.committed_tx
        to_undo = [entry for entry in self._wal.scan()
                   if entry.epoch > committed]
        for entry in reversed(to_undo):
            data = entry.data.ljust(CACHE_LINE_SIZE, b"\x00")
            self._space.write(HEAP_PHYS_BASE + entry.addr, data)
        self._wal.reset()
        # The crash ended any open transaction; recovery just rolled it back.
        self._reset()
        self._next_tx = committed + 1
        return len(to_undo)

    # -- data path -----------------------------------------------------------

    def read(self, addr, length):
        return self._inner.read(addr, length)

    def write(self, addr, data):
        data = bytes(data)
        if self._depth:
            for line, _off, _len in split_lines(addr, len(data)):
                if line not in self._logged:
                    # TX_ADD: snapshot the old line straight from PM —
                    # reading via the caches could see this transaction's
                    # own earlier (uncommitted) stores... which is fine
                    # within a tx, but the durable pre-image must be the
                    # pre-tx PM state, so we read the medium.
                    old = self._space.read(HEAP_PHYS_BASE + line,
                                           CACHE_LINE_SIZE)
                    self._wal.append(self._tx_id, line, old, fence=True)
                    self._logged.add(line)
                self._dirty.add(line)
        self._inner.write(addr, data)


class PmdkBackend(WalBackend):
    """Hand-crafted synchronous undo-WAL hash table on PM."""

    name = "pmdk"
    accessor_class = UndoTxAccessor

    def put(self, key, value):
        self._c_puts.value += 1
        return self._tx.run(self._map.put, key, value)

    def remove(self, key):
        self._c_removes.value += 1
        return self._tx.run(self._map.remove, key)

    # Defined here, not only inherited: paxbench's per-layer tracing
    # wraps PmdkBackend.get by name.
    def get(self, key, default=None):
        self._c_gets.value += 1
        return self._map.get(key, default)

    @property
    def gate_count(self):
        """Committed transactions (hand-written-gate accounting; the
        autopass backend reports the same counter for auto-placed gates)."""
        return self._tx.gate_commits
