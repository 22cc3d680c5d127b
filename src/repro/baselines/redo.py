"""The redo-WAL baseline (paper §2's other WAL flavour).

Redo logging defers structure updates: inside a transaction, stores land
in a volatile per-line overlay; reads check the overlay first so the
transaction sees its own writes. At commit, every overlaid line's *new*
value is appended to the WAL (NT stores), one SFENCE orders the batch, the
commit cell is published, and only then are the lines applied in place
through the caches.

Fewer fences than undo logging (two per transaction instead of one per
logged line), at the price of overlay lookups on the read path — the
classic redo/undo trade the paper alludes to.

Recovery: a transaction whose id is <= the commit cell re-applies its WAL
entries (idempotent); newer entries are discarded — the structure was
never touched in place before commit, so discarding is rollback.
"""

from repro.baselines.wal import TxAccessor, WalBackend
from repro.errors import LogError
from repro.libpax.machine import HEAP_PHYS_BASE
from repro.util.bitops import split_lines
from repro.util.constants import CACHE_LINE_SIZE


class RedoTxAccessor(TxAccessor):
    """Write-set overlay: stores buffer per line until commit."""

    def __init__(self, machine, wal, flush, cells):
        super().__init__(machine, wal, flush, cells)
        self._active = False
        self._overlay = {}            # line_addr -> bytearray(64)

    def begin(self):
        """Open a transaction with an empty write-set overlay."""
        if self._active:
            raise LogError("nested transactions are not supported")
        self._active = True
        if self.tracer is not None:
            self.tracer.on_tx_begin()

    def end(self):
        """Commit: log the write set, publish, then apply it in place."""
        write_set = [(line, bytes(data))
                     for line, data in self._overlay.items()]
        tx_id = self._next_tx
        # 1. Log every new value (NT stores pipeline; one fence).
        for line, data in write_set:
            self._wal.append(tx_id, line, data, fence=False)
        # 2. Publish.
        self._publish(tx_id)
        # 3. Apply in place (through the caches) and persist the
        # application so the WAL can be reused for the next transaction.
        for line, data in write_set:
            self._inner.write(line, data)
        self._write_back(line for line, _data in write_set)
        if write_set:
            self._flush.sfence()
        self.close()
        self._next_tx = tx_id + 1
        self._wal.reset()

    def close(self):
        """Close the transaction without committing; drops the overlay."""
        self._active = False
        self._overlay.clear()
        if self.tracer is not None:
            self.tracer.on_tx_end()

    def commit_initial(self):
        """Write back every line the structure's creation dirtied."""
        self._write_back(line - HEAP_PHYS_BASE
                         for line in self._machine.hierarchy.dirty_lines())
        self._flush.sfence()

    def recover(self):
        """Re-apply the entries of committed transactions (idempotent) and
        discard the rest; returns the number of entries re-applied."""
        committed = self._cells.committed_tx
        replayed = 0
        for entry in self._wal.scan():
            if entry.epoch <= committed:
                data = entry.data.ljust(CACHE_LINE_SIZE, b"\x00")
                self._space.write(HEAP_PHYS_BASE + entry.addr, data)
                replayed += 1
        self._wal.reset()
        self._next_tx = committed + 1
        return replayed

    # -- data path ---------------------------------------------------------

    def _overlay_line(self, line):
        data = self._overlay.get(line)
        if data is None:
            data = bytearray(self._inner.read(line, CACHE_LINE_SIZE))
            self._overlay[line] = data
        return data

    def read(self, addr, length):
        if not self._active or not self._overlay:
            return self._inner.read(addr, length)
        out = bytearray()
        for line, offset, chunk in split_lines(addr, length):
            if line in self._overlay:
                out += self._overlay[line][offset:offset + chunk]
            else:
                out += self._inner.read(line + offset, chunk)
        return bytes(out)

    def write(self, addr, data):
        data = bytes(data)
        if not self._active:
            self._inner.write(addr, data)
            return
        cursor = 0
        for line, offset, chunk in split_lines(addr, len(data)):
            overlay = self._overlay_line(line)
            overlay[offset:offset + chunk] = data[cursor:cursor + chunk]
            cursor += chunk


class RedoBackend(WalBackend):
    """Redo-WAL hash table on PM."""

    name = "redo"
    accessor_class = RedoTxAccessor

    def put(self, key, value):
        self._c_puts.value += 1
        return self._tx.run(self._map.put, key, value)

    def remove(self, key):
        self._c_removes.value += 1
        return self._tx.run(self._map.remove, key)
