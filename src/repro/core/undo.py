"""The asynchronous undo logger (paper §3.2).

When the host requests ownership of a line, the device captures the line's
current PM contents as an undo record — but it does **not** stall the host
while the record reaches durability. Records queue in volatile device
memory (the *pending tail*) and drain to the PM log region in the
background; a record is *durable* once written there. Durability advances
at a monotonically increasing sequence number, which is what gates
write-back of the corresponding modified line (paper §3.3).

Crash semantics: the pending tail is lost; the durable prefix survives.
That asymmetry is the whole design — and the crash tests exercise it.
"""

from collections import deque

from repro.errors import LogError
from repro.pm.log import ENTRY_SIZE
from repro.util.stats import StatGroup


class _PendingRecord:
    __slots__ = ("seq", "epoch", "pool_addr", "old_data")

    def __init__(self, seq, epoch, pool_addr, old_data):
        self.seq = seq
        self.epoch = epoch
        self.pool_addr = pool_addr
        self.old_data = old_data


class UndoLogger:
    """Volatile pending tail + durable PM log region."""

    def __init__(self, region, config, start_epoch, device=None):
        self._region = region
        self._config = config
        #: The PaxDevice draining this log, as a ``weakref.proxy`` (it
        #: owns the logger), counted back in on its clock when a record
        #: arrives while it idles; None for a standalone logger.
        self._device = device
        self.current_epoch = start_epoch
        self._pending = deque()
        self._next_seq = 1
        self._durable_seq = 0
        self._logged = {}            # pool_addr -> seq, this epoch
        self._drain_credit = 0.0     # fractional bytes of drain budget
        #: Optional tracer told about record creation and durability.
        self.tracer = None
        self.stats = StatGroup("undo_logger")
        # Per-record counters bound once (hot-path-stat-lookup rule).
        self._c_records = self.stats.counter("records")
        self._c_dedup_hits = self.stats.counter("dedup_hits")
        self._c_drained = self.stats.counter("drained")

    # -- producing records ---------------------------------------------------

    def note_modification(self, pool_addr, old_data):
        """Record that ``pool_addr`` will be modified; returns the record seq.

        With dedup enabled (default), repeated ownership requests for the
        same line within one epoch return the original record's seq —
        rollback only needs the epoch-start value, which the first record
        captured.
        """
        if self._config.dedup_log_entries and pool_addr in self._logged:
            self._c_dedup_hits.value += 1
            return self._logged[pool_addr]
        # pending_count + region.used_entries >= region.capacity_entries,
        # without the three property calls.
        region = self._region
        if len(self._pending) + region.write_offset // ENTRY_SIZE \
                >= region.size // ENTRY_SIZE:
            raise LogError(
                "undo log capacity exhausted (%d entries this epoch); the "
                "application must call persist() more often or the pool "
                "needs a larger log region" % self._region.capacity_entries)
        seq = self._next_seq
        self._next_seq += 1
        self._pending.append(
            _PendingRecord(seq, self.current_epoch, pool_addr, bytes(old_data)))
        self._logged[pool_addr] = seq
        self._c_records.value += 1
        device = self._device
        if device is not None and device._on_clock is False:
            # PaxDevice.wake(), inline: a device that drains between
            # two records idles and comes back once per record.
            device._on_clock = True
            device._clock.busy += 1
        if self.tracer is not None:
            self.tracer.on_log_record(pool_addr, seq, self.current_epoch)
        return seq

    def seq_for(self, pool_addr):
        """Seq of this epoch's record for ``pool_addr`` (None if unlogged)."""
        return self._logged.get(pool_addr)

    # -- durability ------------------------------------------------------------

    @property
    def durable_seq(self):
        """Highest sequence number whose record is durable on PM."""
        return self._durable_seq

    @property
    def pending_count(self):
        """Records still in the volatile tail."""
        return len(self._pending)

    def is_durable(self, seq):
        """True if record ``seq`` has reached the PM log region."""
        return seq <= self._durable_seq

    def drain_one(self):
        """Write the oldest pending record to PM; returns bytes written."""
        if not self._pending:
            return 0
        record = self._pending.popleft()
        self._region.append(record.epoch, record.pool_addr, record.old_data)
        self._durable_seq = record.seq
        self._c_drained.value += 1
        if self.tracer is not None:
            self.tracer.on_log_durable(record.seq)
        return ENTRY_SIZE

    def drain_budget(self, byte_budget):
        """Background drain: write records worth up to ``byte_budget`` bytes."""
        self._drain_credit += byte_budget
        written = 0
        while self._pending and self._drain_credit >= ENTRY_SIZE:
            written += self.drain_one()
            self._drain_credit -= ENTRY_SIZE
        return written

    def drain_until(self, seq):
        """Synchronously drain until record ``seq`` is durable.

        This is the "forced pump" a buffer eviction needs when no durable
        line is available (paper §3.3); returns bytes written so the caller
        can charge the stall.
        """
        written = 0
        while self._durable_seq < seq:
            if not self._pending:
                raise LogError("seq %d was never produced" % seq)
            written += self.drain_one()
        return written

    def pump(self):
        """Drain everything (persist()); returns bytes written."""
        written = 0
        while self._pending:
            written += self.drain_one()
        return written

    # -- epoch lifecycle ----------------------------------------------------------

    def touched_lines(self):
        """Pool addresses logged this epoch, in first-touch order."""
        return list(self._logged)

    def begin_epoch(self, epoch, allow_pending=False):
        """Start a new epoch.

        After a blocking commit the volatile tail is empty; the pipelined
        persist path (:mod:`repro.core.pipeline`) overlaps epochs, so its
        transition passes ``allow_pending=True`` — the tail still holds
        the snooped epoch's records, which drain (in order) before any of
        the new epoch's.
        """
        if self._pending and not allow_pending:
            raise LogError("cannot begin an epoch with undrained records")
        self.current_epoch = epoch
        self._logged.clear()

    def on_crash(self):
        """Volatile tail is lost; durable region bytes survive untouched."""
        lost = len(self._pending)
        self._pending.clear()
        self.stats.counter("records_lost_in_crash").add(lost)
        return lost
