"""Pipelined persist: overlapping epochs (paper §6, future work).

The paper: "we believe it may be possible to make persist() fully
non-blocking, so that epochs overlap and threads never stall during
persist(); this is challenging since we cannot modify CPU caches to
retain different cache line versions for epochs."

This module implements that extension for the simulated PAX. The calling
thread blocks only for the *snoop phase* (pulling the epoch's modified
lines out of host caches — unavoidable without versioned caches); log
durability, PM write-back, and the epoch-cell commit all complete in the
background while the application mutates the next epoch.

Correctness argument (the subtle part):

* When epoch N+1 takes ownership of a line X that epoch N also touched,
  the undo record's pre-image is the *newest device-visible value* —
  which is N's value, sitting in the write-back buffer from N's snoop
  phase — not the (possibly stale) PM contents.
* N+1's store may then overwrite X's buffered N-value before it ever
  reaches PM. That is safe **iff** N+1's undo record (carrying N's value)
  is durable by the time N commits: recovery rolling back epochs > N
  re-materializes X = N-value from that record.
* Therefore epoch N may commit only when every line it touched is
  *satisfied*: written to PM (the normal case), or superseded in the
  buffer by a later-epoch entry whose undo record is already durable.
* Epochs commit strictly in order, and the undo log region is rewound
  only at a quiescent point (no in-flight epoch, no pending records, no
  touches in the open epoch), so recovery may see records from several
  uncommitted epochs — it rolls all of them back, newest first
  (:mod:`repro.core.recovery` handles multi-epoch logs).
"""

import weakref

from repro.errors import ProtocolError
from repro.util.stats import StatGroup


class InFlightEpoch:
    """One epoch whose snoop phase finished but whose commit is pending."""

    __slots__ = ("epoch", "max_seq", "pending_lines", "committed")

    def __init__(self, epoch, max_seq, touched_lines):
        self.epoch = epoch
        self.max_seq = max_seq
        self.pending_lines = set(touched_lines)
        self.committed = False

    def poll(self, device):
        """Drop satisfied lines; return True when the epoch may commit."""
        writeback = device.writeback
        undo = device.undo
        satisfied = []
        for line in self.pending_lines:
            entry_data = writeback._buffer.get(line)
            if entry_data is None:
                # Not buffered: the line's value reached PM under the
                # durability gate (or the host never held it dirty and PM
                # was already current).
                satisfied.append(line)
            elif entry_data.seq > self.max_seq:
                # Superseded by a later epoch: safe once that epoch's
                # record (whose pre-image is *this* epoch's value) is
                # durable.
                if undo.is_durable(entry_data.seq):
                    satisfied.append(line)
            elif undo.is_durable(entry_data.seq):
                # Our own record is durable; the line is merely waiting
                # for background write-back. Nudge it out now so commit
                # does not depend on drain pacing.
                writeback.drain_budget(0)       # no-op budget-wise
                data = writeback._buffer.pop(line, None)
                if data is not None:
                    writeback._write_to_pm(line, data.data)
                satisfied.append(line)
        for line in satisfied:
            self.pending_lines.discard(line)
        return not self.pending_lines

    def __repr__(self):
        return "InFlightEpoch(%d, %d lines pending)" % (
            self.epoch, len(self.pending_lines))


class PersistPipeline:
    """Orders and retires in-flight epochs for one device."""

    def __init__(self, device):
        # A weak proxy, as PaxDevice.attach_clock holds its clock: the
        # device owns this pipeline, and a strong reference back would
        # make every PAX machine a reference cycle.
        self._device = weakref.proxy(device)
        self._flights = []
        self.stats = StatGroup("persist_pipeline")

    @property
    def depth(self):
        """Number of epochs snooped but not yet committed."""
        return len(self._flights)

    def begin(self, snoop_port, clock=None):
        """Run the snoop phase for the open epoch; open the next one.

        Returns ``(flight, host_blocking_ns)`` — the host pays only for
        the snoops. With ``clock`` given, time is charged per snoop (the
        round trips are sequential, so link backlog drains between them)
        and the caller must not advance the clock again.
        """
        device = self._device
        blocking_ns = 0.0
        touched = device.undo.touched_lines()
        max_seq = 0
        for pool_addr in touched:
            seq = device.undo.seq_for(pool_addr)
            max_seq = max(max_seq, seq)
            fresh, link_ns = snoop_port.snoop_shared(device.to_phys(pool_addr))
            blocking_ns += link_ns
            if clock is not None:
                clock.advance(link_ns)
            if fresh is not None:
                device.writeback.buffer_line(pool_addr, fresh, seq)
        flight = InFlightEpoch(device.epochs.current_epoch, max_seq, touched)
        self._flights.append(flight)
        device.wake()
        # Open the next epoch immediately; records of the snooped epoch
        # may still sit in the volatile tail (they drain in order before
        # any newer record, which the commit rule relies on).
        device.epochs.current_epoch += 1
        device.undo.begin_epoch(device.epochs.current_epoch,
                                allow_pending=True)
        self.stats.counter("begun").add(1)
        return flight, blocking_ns

    def poll(self):
        """Retire every leading flight whose lines are all satisfied."""
        retired = 0
        while self._flights and self._flights[0].poll(self._device):
            flight = self._flights.pop(0)
            self._device.pool.commit_epoch(flight.epoch)
            flight.committed = True
            retired += 1
            self.stats.counter("committed").add(1)
        if retired:
            self._maybe_rewind()
        return retired

    def _maybe_rewind(self):
        """Rewind the log region at a quiescent point to bound growth."""
        device = self._device
        if (not self._flights and device.undo.pending_count == 0
                and not device.undo.touched_lines()):
            device.region.reset()
            self.stats.counter("rewinds").add(1)

    def complete_all(self):
        """Force every in-flight epoch to commit (barrier semantics).

        Returns the simulated ns of forced synchronous work (log pump).
        """
        if not self._flights:
            return 0.0
        pumped = self._device.undo.pump()
        forced_ns = pumped * 1e9 / self._device.config.log_drain_bps
        self.poll()
        if self._flights:
            raise ProtocolError(
                "in-flight epochs remain after a full log pump: %r"
                % self._flights)
        return forced_ns

    def on_crash(self):
        """In-flight bookkeeping is volatile; recovery re-derives truth."""
        self._flights.clear()
