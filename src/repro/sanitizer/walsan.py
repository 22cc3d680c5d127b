"""WalSan: persist-order checking for the software WAL baselines.

The PMDK-style and redo backends promise a different discipline than
PAX: every in-transaction store to the arena must be covered by a WAL
entry *before* it can reach PM, and the commit-cell publish must be
ordered (SFENCE) after every flush and NT store of the transaction.
WalSan checks both, from the same tracer hooks PaxSan uses plus the
WAL/flush-model events:

``san-missing-undo``
    An in-transaction store touched an arena line with no WAL entry for
    it — crash recovery could not undo (or redo) that line.
``san-fence-inversion``
    The commit cell was published while CLWBs or WAL NT stores were
    still unfenced: the commit could reach PM before the data (or log)
    it covers, which is precisely the reordering SFENCE exists to
    forbid.

Attach with ``WalSanitizer().attach(backend)`` where ``backend`` is any
:class:`~repro.baselines.wal.WalBackend` (pmdk, compiler, autopass or
redo). Stores outside transactions (structure initialization, recovery
rollback) are exempt by design — they precede the first commit publish
and need no log coverage.
"""

from repro.sanitizer.base import (
    RULE_FENCE_INVERSION,
    RULE_MISSING_UNDO,
    SanitizerBase,
)
from repro.util.bitops import align_down
from repro.util.constants import CACHE_LINE_SIZE


class WalSanitizer(SanitizerBase):
    """WAL-coverage and fence-ordering checks over one WAL backend."""

    def __init__(self, raise_on_violation=True):
        super().__init__(raise_on_violation=raise_on_violation)
        self._heap_base = None
        self._arena_limit = None
        self._tx_active = False
        self._tx_id = None
        self._wal_covered = set()      # heap line addrs logged this tx
        self._unfenced = 0             # flushes/NT stores since last fence

    def attach(self, backend):
        """Hook ``backend``'s machine, WAL, cells, and accessor; returns self."""
        backend.attach_tracer(self)
        return self

    def on_backend_attach(self, backend, layout):
        """Learn the backend's heap geometry (called by attach_tracer)."""
        from repro.libpax.machine import HEAP_PHYS_BASE
        self._heap_base = HEAP_PHYS_BASE
        self._arena_limit = layout.arena_limit

    # -- events --------------------------------------------------------------

    def on_tx_begin(self, tx_id=None):
        """A transaction opened: reset its WAL coverage set."""
        self._tx_active = True
        self._tx_id = tx_id
        self._wal_covered.clear()

    def on_tx_end(self):
        """The transaction closed (commit bookkeeping may follow)."""
        self._tx_active = False

    def on_wal_append(self, tx_id, addr):
        """A WAL entry covers ``addr``; the NT store is unfenced until SFENCE."""
        self._wal_covered.add(align_down(addr, CACHE_LINE_SIZE))
        self._unfenced += 1

    def on_store(self, phys_line):
        """Check an in-transaction arena store has WAL coverage."""
        if self._suspended or not self._tx_active:
            return
        heap_line = phys_line - self._heap_base
        if not 0 <= heap_line < self._arena_limit:
            return
        if heap_line not in self._wal_covered:
            self._report(
                RULE_MISSING_UNDO,
                "in-transaction store with no WAL entry for the line; "
                "recovery cannot undo it",
                addr=heap_line, epoch=self._tx_id)

    def on_clwb(self, addr, num_lines):
        """Count issued write-backs toward the unfenced window."""
        self._unfenced += num_lines

    def on_fence(self):
        """SFENCE: every prior flush/NT store is now ordered."""
        self._unfenced = 0

    def on_tx_commit(self, tx_id):
        """Check the commit publish was fenced against prior persists."""
        if self._suspended:
            return
        if self._unfenced:
            self._report(
                RULE_FENCE_INVERSION,
                "commit cell published with %d unfenced flush(es)/NT "
                "store(s) outstanding" % self._unfenced,
                epoch=tx_id)

    def on_machine_restart(self):
        """Reboot: no transaction survives; the fence window is empty."""
        super().on_machine_restart()
        self._tx_active = False
        self._tx_id = None
        self._wal_covered.clear()
        self._unfenced = 0

    # -- introspection -------------------------------------------------------

    def describe(self):
        """Multi-line summary of the shadow state (for tools.inspect)."""
        lines = [
            "sanitizer:       WalSan (%s mode)"
            % ("raise" if self.raise_on_violation else "collect"),
            "transaction:     %s" % ("open (id=%r)" % (self._tx_id,)
                                     if self._tx_active else "none"),
            "wal coverage:    %d line(s) this tx" % len(self._wal_covered),
            "unfenced ops:    %d" % self._unfenced,
            "violations:      %d" % len(self.findings),
        ]
        for finding in self.findings[:5]:
            lines.append("  %s" % finding)
        return "\n".join(lines)
