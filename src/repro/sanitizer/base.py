"""Tracer protocol and shared sanitizer machinery.

Instrumented components (the cache hierarchy, the PM device, the undo
logger, the pool's epoch cell, the flush model, the WAL) each carry a
``tracer`` attribute, ``None`` by default; when set, they emit the events
below at the exact points the persist-order argument cares about. A
:class:`Tracer` ignores everything — sanitizers subclass it and override
only the events their rules need, so one tracer can attach to any subset
of components without caring which events actually fire.
"""

from repro.errors import SanitizerError

#: A store reached PM with no undo/WAL record covering the line.
RULE_MISSING_UNDO = "san-missing-undo"
#: A line was written to PM before its undo record became durable.
RULE_UNDO_GATE = "san-undo-gate"
#: An epoch/tx committed while lines it modified were still volatile.
RULE_PREMATURE_COMMIT = "san-premature-commit"
#: A commit was published while flushes/NT stores were still unfenced.
RULE_FENCE_INVERSION = "san-fence-inversion"

#: Every rule id a sanitizer can report.
ALL_RULES = (RULE_MISSING_UNDO, RULE_UNDO_GATE, RULE_PREMATURE_COMMIT,
             RULE_FENCE_INVERSION)


class Tracer:
    """Base tracer: receives every instrumentation event, ignores all.

    Event sources, by component:

    * :class:`~repro.cache.hierarchy.CacheHierarchy` — :meth:`on_store`
    * :class:`~repro.pm.device.PmDevice` — :meth:`on_pm_write`
    * :class:`~repro.core.undo.UndoLogger` — :meth:`on_log_record`,
      :meth:`on_log_durable`
    * :class:`~repro.pm.pool.Pool` — :meth:`on_epoch_commit`
    * :class:`~repro.pm.flush.FlushModel` — :meth:`on_clwb`,
      :meth:`on_fence`
    * :class:`~repro.baselines.wal.Wal` — :meth:`on_wal_append`,
      :meth:`on_wal_reset`
    * :class:`~repro.baselines.wal.DurableCells` — :meth:`on_tx_commit`
    * the tx accessors — :meth:`on_tx_begin`, :meth:`on_tx_end`
    * the machines — :meth:`on_machine_crash`, :meth:`on_machine_restart`
    * timed operations (miss handling, link hops, persist, recovery) —
      :meth:`on_span`; the hierarchy's snoop ports — :meth:`on_snoop`

    The span/snoop hooks exist for ``repro.obs`` structured tracing;
    sanitizers ignore them, and like every hook they must only *read*
    simulation state — a tracer that perturbs ``sim_ns`` or a stat
    counter breaks the traced-equals-untraced guarantee.
    """

    def on_store(self, phys_line):
        """A CPU store touched cache line ``phys_line`` (physical addr)."""

    def on_pm_write(self, offset, length):
        """``length`` bytes landed on the PM medium at device ``offset``."""

    def on_log_record(self, pool_addr, seq, epoch):
        """Undo record ``seq`` (epoch ``epoch``) now covers ``pool_addr``."""

    def on_log_durable(self, seq):
        """Undo record ``seq`` reached the durable PM log region."""

    def on_epoch_commit(self, epoch):
        """The pool's epoch record is being advanced to ``epoch``."""

    def on_clwb(self, addr, num_lines):
        """``num_lines`` cache-line write-backs were issued at physical
        ``addr``."""

    def on_fence(self):
        """An SFENCE ordered (drained) every prior flush/NT store."""

    def on_wal_append(self, tx_id, addr):
        """A WAL entry for line ``addr`` was durably appended for ``tx_id``."""

    def on_wal_reset(self):
        """The WAL was rewound (post-commit reuse)."""

    def on_tx_begin(self, tx_id=None):
        """A software transaction opened (``tx_id`` may be None)."""

    def on_tx_end(self):
        """The open software transaction closed."""

    def on_tx_commit(self, tx_id):
        """The commit cell was atomically published as ``tx_id``."""

    def on_backend_attach(self, backend, layout):
        """A WAL backend adopted this tracer; ``layout`` is its WalLayout."""

    def on_machine_crash(self):
        """The machine simulated power loss (recovery writes follow)."""

    def on_machine_restart(self):
        """The machine rebooted and recovery finished; state is clean."""

    def on_span(self, category, name, start_ns, dur_ns, args=None):
        """A timed operation covered ``[start_ns, start_ns + dur_ns)``.

        ``category`` is one of ``repro.obs.CATEGORIES``; ``start_ns`` of
        None means "stamp with the current simulated time".
        """

    def on_snoop(self, kind, phys_line, dirty):
        """The device snooped ``phys_line``; ``kind`` is shared|invalidate.

        ``dirty`` is True when the snoop found (and for invalidations,
        extracted) modified data in the hierarchy.
        """


class SanitizerBase(Tracer):
    """Violation reporting shared by both sanitizer flavours.

    In the default *raise* mode a violation raises the
    :class:`~repro.errors.SanitizerError` at the offending simulation
    step, so the traceback points into the code that broke the order. In
    *collect* mode (``raise_on_violation=False``) violations accumulate
    in :attr:`findings` and the run continues.
    """

    def __init__(self, raise_on_violation=True):
        self.raise_on_violation = raise_on_violation
        #: Every :class:`~repro.errors.SanitizerError` reported so far.
        self.findings = []
        self._suspended = False

    @property
    def checking(self):
        """False between crash and restart, when recovery rewrites PM."""
        return not self._suspended

    @property
    def ok(self):
        """True while no violation has been reported."""
        return not self.findings

    def _report(self, rule, message, addr=None, epoch=None):
        error = SanitizerError(rule, message, addr=addr, epoch=epoch)
        self.findings.append(error)
        if self.raise_on_violation:
            raise error
        return error

    def on_machine_crash(self):
        """Suspend checking: recovery legitimately rewrites PM data."""
        self._suspended = True

    def on_machine_restart(self):
        """Resume checking over the machine's recovered, clean state."""
        self._suspended = False
