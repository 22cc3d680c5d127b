"""The write-back coordinator (paper §3.3).

Buffers modified lines at the device — lines the host evicted dirty, or
fresh values pulled out of host caches during ``persist()`` — and writes
them to PM, subject to one rule: **a line may reach PM only after its undo
record is durable**. Each buffered line carries the sequence number of its
record; the undo log durability frontier (a single monotonically
increasing number) makes the gate a trivial comparison.

When the buffer overflows, eviction *prefers lines whose records are
already durable* so the device need not stall on a synchronous log pump;
only if every buffered line's record is still volatile does it force-drain
the log up to the oldest line's seq. This is exactly the capacity-escape
hatch the paper contrasts with Intel TSX's working-set limits.
"""

from collections import OrderedDict

from repro.util.constants import CACHE_LINE_SIZE
from repro.util.stats import StatGroup


class _BufferedLine:
    __slots__ = ("data", "seq")

    def __init__(self, data, seq):
        self.data = bytes(data)
        self.seq = seq


class WriteBackCoordinator:
    """Bounded buffer of modified lines, drained to PM under the log gate."""

    def __init__(self, pool, hbm, undo, config, device=None):
        self._pool = pool
        self._hbm = hbm
        self._undo = undo
        self._config = config
        #: The PaxDevice writing these lines back, as a ``weakref.proxy``
        #: (it owns the coordinator), counted back in on its clock when a
        #: line arrives while it idles; None for a standalone coordinator.
        self._device = device
        self._buffer = OrderedDict()     # pool_addr -> _BufferedLine (FIFO)
        self._drain_credit = 0.0
        self.stats = StatGroup("writeback")
        # Per-line counters bound once (hot-path-stat-lookup rule).
        self._c_updates = self.stats.counter("updates")
        self._c_insertions = self.stats.counter("insertions")
        self._c_forced_pumps = self.stats.counter("forced_log_pumps")
        self._c_capacity_evictions = self.stats.counter("capacity_evictions")
        self._c_pm_line_writes = self.stats.counter("pm_line_writes")

    def __len__(self):
        return len(self._buffer)

    def __contains__(self, pool_addr):
        return pool_addr in self._buffer

    def peek(self, pool_addr):
        """Return buffered line data (newest device-known value) or None."""
        entry = self._buffer.get(pool_addr)
        return entry.data if entry is not None else None

    # -- intake ---------------------------------------------------------------

    def buffer_line(self, pool_addr, data, seq):
        """Accept a modified line; returns stall ns-equivalent bytes pumped.

        If the buffer is full, one victim is written back first, possibly
        forcing a log pump; the returned byte count is the log bytes the
        caller should charge as a synchronous stall (0 in the happy path).
        """
        pumped = 0
        existing = self._buffer.get(pool_addr)
        if existing is not None:
            existing.data = bytes(data)
            existing.seq = max(existing.seq, seq)
            self._buffer.move_to_end(pool_addr)
            self._c_updates.value += 1
            return pumped
        while len(self._buffer) >= self._config.writeback_buffer_lines:
            pumped += self._evict_one()
        self._buffer[pool_addr] = _BufferedLine(data, seq)
        self._c_insertions.value += 1
        # An update above finds the device busy already: it leaves the
        # clock only with an empty buffer.
        device = self._device
        if device is not None and device._on_clock is False:
            # PaxDevice.wake(), inline: a device that drains between
            # two lines idles and comes back once per line.
            device._on_clock = True
            device._clock.busy += 1
        return pumped

    # -- eviction under the durability gate ---------------------------------------

    def _evict_one(self):
        """Write one buffered line to PM to make room; returns log bytes pumped."""
        victim_addr = None
        if self._config.prefer_durable_eviction:
            for addr, entry in self._buffer.items():
                if self._undo.is_durable(entry.seq):
                    victim_addr = addr
                    break
        if victim_addr is None:
            # No durable-logged line available (or policy disabled): take
            # the FIFO head and force the log up to its record.
            victim_addr = next(iter(self._buffer))
        entry = self._buffer.pop(victim_addr)
        pumped = 0
        if not self._undo.is_durable(entry.seq):
            pumped = self._undo.drain_until(entry.seq)
            self._c_forced_pumps.value += 1
        self._write_to_pm(victim_addr, entry.data)
        self._c_capacity_evictions.value += 1
        return pumped

    # -- draining -----------------------------------------------------------------

    def drain_budget(self, byte_budget):
        """Background write-back of ready (durably-logged) lines."""
        self._drain_credit += byte_budget
        written = 0
        for addr in list(self._buffer):
            if self._drain_credit < CACHE_LINE_SIZE:
                break
            entry = self._buffer[addr]
            if not self._undo.is_durable(entry.seq):
                continue
            del self._buffer[addr]
            self._write_to_pm(addr, entry.data)
            self._drain_credit -= CACHE_LINE_SIZE
            written += CACHE_LINE_SIZE
        return written

    def flush_all(self):
        """persist(): pump the log, then write every buffered line to PM.

        Returns ``(log_bytes_pumped, lines_written)`` for timing.
        """
        pumped = self._undo.pump()
        lines = 0
        while self._buffer:
            addr, entry = self._buffer.popitem(last=False)
            self._write_to_pm(addr, entry.data)
            lines += 1
        return pumped, lines

    def _write_to_pm(self, pool_addr, data):
        self._pool.device.write(pool_addr, data)
        self._hbm.put(pool_addr, data)
        self._c_pm_line_writes.value += 1

    def on_crash(self):
        """The buffer is device SRAM: a crash empties it."""
        lost = len(self._buffer)
        self._buffer.clear()
        self.stats.counter("lines_lost_in_crash").add(lost)
        return lost
