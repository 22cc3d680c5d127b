"""PaxSan: the dynamic persist-order checker for the PAX machine.

Shadows every vPM cache line with a persist-state machine::

    clean --store--> dirty-in-cache --undo record durable + PM write--> durable
                          |                          ^
                          +----- logged (record  ----+
                                 pending in SRAM)

and checks the three invariants the accelerator design rests on
(paper §3.2-3.3), as the simulation runs:

``san-missing-undo``
    A data-region line reached the PM medium with no undo record
    covering it this epoch — rollback could not restore its pre-image.
``san-undo-gate``
    A line reached PM *before* its undo record did. A crash between the
    two writes leaves a modified line with no durable pre-image.
``san-premature-commit``
    The epoch record advanced while a line modified in the committing
    epoch was still volatile (host cache or device SRAM) — the
    "snapshot" would be missing data after a crash.

Attach with ``PaxSanitizer().attach(machine)`` (or to a
:class:`~repro.libpax.pool.PaxPool` via its ``.machine``). Crash and
restart are understood: checking suspends while recovery rewrites PM and
resumes, reset, on the recovered state. Works for both the blocking and
the pipelined (:mod:`repro.core.pipeline`) persist paths — pending
stores are tagged with their undo record's epoch, so a line superseded
by a later epoch does not false-positive the earlier commit.
"""

import weakref

from repro.sanitizer.base import (
    RULE_MISSING_UNDO,
    RULE_PREMATURE_COMMIT,
    RULE_UNDO_GATE,
    SanitizerBase,
)
from repro.util.bitops import align_down, lines_covering
from repro.util.constants import CACHE_LINE_SIZE


class PaxSanitizer(SanitizerBase):
    """Per-line persist-state tracking over one PAX machine."""

    def __init__(self, raise_on_violation=True):
        super().__init__(raise_on_violation=raise_on_violation)
        self._machine = None
        self._pending = {}       # pool line -> epoch of its undo record
        self._covered = {}       # pool line -> (record seq, record epoch)
        self._durable_seq = 0    # undo-log durability frontier
        self._epoch = 0          # open (uncommitted) epoch
        self._vpm_base = 0
        self._data_base = 0
        self._data_end = 0

    def attach(self, machine):
        """Hook every component of ``machine``; returns self.

        ``machine`` must be a :class:`~repro.libpax.machine.PaxMachine`
        (the device geometry is read from it). Attach right after the
        machine/pool is built, before the workload's first store.
        The machine holds the sanitizer, so the sanitizer holds a weak
        proxy back: a dropped machine frees without a collection.
        """
        self._machine = weakref.proxy(machine)
        self._vpm_base = machine.device.vpm_base
        self._data_base = machine.pool.data_base
        self._data_end = machine.pool.data_end
        self._epoch = machine.device.epochs.current_epoch
        self._adopt_machine_state()
        machine.attach_tracer(self)
        return self

    def _adopt_machine_state(self):
        """Seed the shadow state from stores that preceded the attach.

        ``map_pool`` itself issues stores (allocator creation) before a
        sanitizer can exist, so attaching mid-epoch must adopt the undo
        log's coverage and the hierarchy's dirty lines as if it had
        watched them happen.
        """
        undo = self._machine.device.undo
        self._durable_seq = undo.durable_seq
        for pool_addr in undo.touched_lines():
            line = align_down(pool_addr, CACHE_LINE_SIZE)
            self._covered[line] = (undo.seq_for(pool_addr),
                                   undo.current_epoch)
        for phys_line in self._machine.hierarchy.dirty_lines():
            pool_line = self._to_pool(phys_line)
            if self._in_data(pool_line):
                covered = self._covered.get(pool_line)
                self._pending[pool_line] = (covered[1] if covered is not None
                                            else self._epoch)

    # -- address helpers -----------------------------------------------------

    def _to_pool(self, phys_addr):
        return phys_addr - self._vpm_base + self._data_base

    def _in_data(self, pool_addr):
        return self._data_base <= pool_addr < self._data_end

    # -- events --------------------------------------------------------------

    def on_store(self, phys_line):
        """Mark the stored line volatile, tagged with its record's epoch."""
        if self._suspended:
            return
        pool_line = self._to_pool(phys_line)
        if not self._in_data(pool_line):
            return
        covered = self._covered.get(pool_line)
        # CXL.cache logs at RdOwn, which precedes the store, so the
        # record (and its epoch) exists by now; CXL.mem logs at
        # write-back, so fall back to the sanitizer's epoch counter.
        self._pending[pool_line] = (covered[1] if covered is not None
                                    else self._epoch)

    def on_log_record(self, pool_addr, seq, epoch):
        """Record undo coverage for the line."""
        self._covered[align_down(pool_addr, CACHE_LINE_SIZE)] = (seq, epoch)

    def on_log_durable(self, seq):
        """Advance the durability frontier."""
        if seq > self._durable_seq:
            self._durable_seq = seq

    def on_pm_write(self, offset, length):
        """Check the write-back gate; retire pending state for the lines."""
        if self._suspended or length == 0:
            return
        if offset >= self._data_end or offset + length <= self._data_base:
            return      # superblock or undo-log region: not shadowed
        for line in lines_covering(offset, length):
            if not self._in_data(line):
                continue
            covered = self._covered.get(line)
            if covered is None:
                self._pending.pop(line, None)
                self._report(
                    RULE_MISSING_UNDO,
                    "line written to PM with no undo record this epoch; "
                    "rollback cannot restore its pre-image",
                    addr=line, epoch=self._epoch)
            elif covered[0] > self._durable_seq:
                self._pending.pop(line, None)
                self._report(
                    RULE_UNDO_GATE,
                    "line written to PM before undo record %d became "
                    "durable (frontier %d)" % (covered[0], self._durable_seq),
                    addr=line, epoch=covered[1])
            else:
                self._pending.pop(line, None)

    def on_epoch_commit(self, epoch):
        """Check no line of the committing epoch is still volatile."""
        if self._suspended:
            return
        stale = sorted(line for line, tag in self._pending.items()
                       if tag <= epoch)
        if stale:
            for line in stale:
                del self._pending[line]
            self._report(
                RULE_PREMATURE_COMMIT,
                "epoch committed while %d modified line(s) never reached "
                "PM (first: 0x%x)" % (len(stale), stale[0]),
                addr=stale[0], epoch=epoch)
        self._covered = {line: cov for line, cov in self._covered.items()
                         if cov[1] > epoch}
        if epoch >= self._epoch:
            self._epoch = epoch + 1

    def on_machine_crash(self):
        """Power loss: every pending (volatile) line is legitimately gone."""
        super().on_machine_crash()
        self._pending.clear()

    def on_machine_restart(self):
        """Resync with the recovered machine: fresh log, committed epoch."""
        super().on_machine_restart()
        self._pending.clear()
        self._covered.clear()
        self._durable_seq = 0
        self._epoch = self._machine.device.epochs.current_epoch

    # -- introspection -------------------------------------------------------

    def describe(self):
        """Multi-line summary of the shadow state (for tools.inspect)."""
        lines = [
            "sanitizer:       PaxSan (%s mode)"
            % ("raise" if self.raise_on_violation else "collect"),
            "open epoch:      %d" % self._epoch,
            "pending lines:   %d volatile (stored, not yet on PM)"
            % len(self._pending),
            "covered lines:   %d with live undo records" % len(self._covered),
            "durable seq:     %d" % self._durable_seq,
            "checking:        %s" % ("suspended (mid-crash)"
                                     if self._suspended else "active"),
            "violations:      %d" % len(self.findings),
        ]
        for finding in self.findings[:5]:
            lines.append("  %s" % finding)
        return "\n".join(lines)
