"""The structured event tracer.

Events are plain tuples, ``(ph, category, name, ts_ns, dur_ns, args)``:

* ``ph`` — the phase, :data:`EVENT_SPAN` (``"X"``, a completed operation
  covering ``[ts_ns, ts_ns + dur_ns)`` of simulated time) or
  :data:`EVENT_INSTANT` (``"i"``, a point event; ``dur_ns`` is 0). The
  letters deliberately match Chrome ``trace_event`` phases so the export
  is a rename, not a transformation.
* ``category`` — one of :data:`CATEGORIES`; what the event *is about*
  (undo-log append, snoop, epoch commit, ...), the axis ``summarize``
  groups by.
* ``ts_ns`` — **simulated** nanoseconds from the attached machine's
  :class:`~repro.sim.clock.SimClock`. Never wall-clock: traces replay
  bit-for-bit from a seed like everything else in this repository.
* ``args`` — a small dict of event detail (line address, epoch number,
  message type) or None.

Storage is a fixed-capacity :class:`RingBuffer`: tracing a long run
keeps the newest events and counts what it dropped, so an attached
tracer can never grow without bound. 64 Ki events cover a perfbench
microworkload with room to spare.

Cost discipline: every instrumentation site guards with a single
``tracer is not None`` attribute check (nothing else — no flag reads,
no method calls) so an untraced run pays one pointer test per hook.
When a tracer *is* attached but :attr:`ObsTracer.enabled` is False, the
hook methods return after one attribute check of their own; the
``python -m repro.obs overhead`` harness measures both regimes.
"""

import weakref

from repro.errors import ConfigError
from repro.sanitizer.base import Tracer

#: Chrome-compatible phase letters.
EVENT_SPAN = "X"
EVENT_INSTANT = "i"

#: The event taxonomy (docs/observability.md documents each source).
CATEGORIES = (
    "load",           # cache miss servicing for a read
    "store",          # CPU stores + cache miss servicing for a write
    "undo-append",    # undo/WAL record creation
    "drain",          # undo records reaching the durable log region
    "snoop",          # device-to-host SnpData/SnpInv handling
    "writeback",      # bytes reaching the PM medium, CLWB/SFENCE costs
    "epoch-commit",   # persist() spans, epoch record slot writes, tx commits
    "recovery",       # crash, restart, rollback
    "link",           # CXL/Enzian message hops
    "tx",             # software transaction begin/end
)

DEFAULT_CAPACITY = 64 * 1024


class RingBuffer:
    """Fixed-capacity event store that overwrites its oldest entries."""

    __slots__ = ("capacity", "_slots", "_total")

    def __init__(self, capacity=DEFAULT_CAPACITY):
        if capacity < 1:
            raise ConfigError("ring buffer capacity must be >= 1")
        self.capacity = capacity
        self._slots = [None] * capacity
        self._total = 0

    def append(self, event):
        """Store one event, evicting the oldest once full."""
        self._slots[self._total % self.capacity] = event
        self._total += 1

    def __len__(self):
        return min(self._total, self.capacity)

    @property
    def total(self):
        """Events ever appended (retained + dropped)."""
        return self._total

    @property
    def dropped(self):
        """Events overwritten because the buffer wrapped."""
        return max(0, self._total - self.capacity)

    def events(self):
        """Retained events, oldest first."""
        total = self._total
        capacity = self.capacity
        if total <= capacity:
            return self._slots[:total]
        cut = total % capacity
        return self._slots[cut:] + self._slots[:cut]

    def clear(self):
        """Forget everything (capacity is kept)."""
        self._slots = [None] * self.capacity
        self._total = 0


class ObsTracer(Tracer):
    """Ring-buffered structured tracer over the instrumentation hooks.

    Attach with :meth:`attach` (machines, backends, and ``PaxPool`` all
    work); the tracer adopts the target's simulated clock for
    timestamps. One tracer can be re-attached across restarts and even
    across machines (the crash fuzzer reuses one for a whole sweep) —
    events simply keep accumulating in the ring.
    """

    def __init__(self, clock=None, capacity=DEFAULT_CAPACITY):
        self.ring = RingBuffer(capacity)
        self.enabled = True
        self._clock = clock
        # Bound method: the hooks below append via one attribute load.
        self._append = self.ring.append

    # -- wiring ------------------------------------------------------------

    def attach(self, target):
        """Wire this tracer into ``target``; returns self.

        ``target`` may be a machine (has ``attach_tracer`` and
        ``clock``), a backend (has ``machine``), or a ``PaxPool``. The
        richest attach hook the target offers is used, so backend-side
        components (FlushModel, Wal) are wired too where they exist.
        The target holds the tracer, so the tracer holds a weak proxy of
        its clock: a dropped target frees without a collection.
        """
        machine = target
        for hop in ("pool", "machine"):
            inner = getattr(machine, hop, None)
            if inner is not None and hasattr(inner, "attach_tracer"):
                machine = inner
        self._clock = weakref.proxy(machine.clock)
        attach = getattr(target, "attach_tracer", None)
        if attach is not None:
            attach(self)
        else:
            machine.attach_tracer(self)
        return self

    def _now(self):
        clock = self._clock
        return clock.now_ns if clock is not None else 0

    # -- recording ---------------------------------------------------------

    def instant(self, category, name, args=None):
        """Record a point event stamped with the current simulated time."""
        if self.enabled:
            self._append((EVENT_INSTANT, category, name, self._now(), 0,
                          args))

    def on_span(self, category, name, start_ns, dur_ns, args=None):
        """Record a completed span; ``start_ns`` None means "stamp now"."""
        if self.enabled:
            if start_ns is None:
                start_ns = self._now()
            self._append((EVENT_SPAN, category, name, start_ns, dur_ns,
                          args))

    def events(self):
        """Retained events, oldest first."""
        return self.ring.events()

    def counts_by_category(self):
        """``{category: event count}`` over the retained events."""
        counts = {}
        for event in self.ring.events():
            category = event[1]
            counts[category] = counts.get(category, 0) + 1
        return counts

    # -- Tracer protocol hooks -> instant events ---------------------------
    # Each is one enabled-check plus one tuple append; sim state is only
    # ever read, never touched, so traced and untraced runs stay
    # byte-identical (tests/test_obs_golden.py).

    def on_store(self, phys_line):
        if self.enabled:
            self._append((EVENT_INSTANT, "store", "store", self._now(), 0,
                          {"line": phys_line}))

    def on_pm_write(self, offset, length):
        if self.enabled:
            self._append((EVENT_INSTANT, "writeback", "pm-write",
                          self._now(), 0,
                          {"offset": offset, "bytes": length}))

    def on_log_record(self, pool_addr, seq, epoch):
        if self.enabled:
            self._append((EVENT_INSTANT, "undo-append", "undo-record",
                          self._now(), 0,
                          {"addr": pool_addr, "seq": seq, "epoch": epoch}))

    def on_log_durable(self, seq):
        if self.enabled:
            self._append((EVENT_INSTANT, "drain", "undo-durable",
                          self._now(), 0, {"seq": seq}))

    def on_epoch_commit(self, epoch):
        if self.enabled:
            self._append((EVENT_INSTANT, "epoch-commit", "epoch-advance",
                          self._now(), 0, {"epoch": epoch}))

    def on_snoop(self, kind, phys_line, dirty):
        if self.enabled:
            self._append((EVENT_INSTANT, "snoop", "snoop-" + kind,
                          self._now(), 0,
                          {"line": phys_line, "dirty": dirty}))

    def on_clwb(self, addr, num_lines):
        if self.enabled:
            self._append((EVENT_INSTANT, "writeback", "clwb", self._now(),
                          0, {"addr": addr, "lines": num_lines}))

    def on_fence(self):
        if self.enabled:
            self._append((EVENT_INSTANT, "writeback", "sfence", self._now(),
                          0, None))

    def on_wal_append(self, tx_id, addr):
        if self.enabled:
            self._append((EVENT_INSTANT, "undo-append", "wal-append",
                          self._now(), 0, {"tx": tx_id, "addr": addr}))

    def on_wal_reset(self):
        if self.enabled:
            self._append((EVENT_INSTANT, "undo-append", "wal-reset",
                          self._now(), 0, None))

    def on_tx_begin(self, tx_id=None):
        if self.enabled:
            self._append((EVENT_INSTANT, "tx", "tx-begin", self._now(), 0,
                          {"tx": tx_id} if tx_id is not None else None))

    def on_tx_end(self):
        if self.enabled:
            self._append((EVENT_INSTANT, "tx", "tx-end", self._now(), 0,
                          None))

    def on_tx_commit(self, tx_id):
        if self.enabled:
            self._append((EVENT_INSTANT, "epoch-commit", "tx-commit",
                          self._now(), 0, {"tx": tx_id}))

    def on_machine_crash(self):
        if self.enabled:
            self._append((EVENT_INSTANT, "recovery", "crash", self._now(),
                          0, None))

    def on_machine_restart(self):
        if self.enabled:
            self._append((EVENT_INSTANT, "recovery", "restart", self._now(),
                          0, None))

    def __repr__(self):
        return "ObsTracer(%d events, %d dropped)" % (len(self.ring),
                                                     self.ring.dropped)


class TeeTracer(Tracer):
    """Fan one instrumentation stream out to several tracers.

    Lets a sanitizer and an :class:`ObsTracer` share a machine's single
    tracer slot (the fuzzer's ``--sanitize --trace`` combination).
    Every protocol hook — including the span/snoop hooks — forwards to
    each child in order.
    """

    def __init__(self, children):
        self.children = list(children)

    def _fan(self, method_name, *args, **kwargs):
        for child in self.children:
            getattr(child, method_name)(*args, **kwargs)

    def on_span(self, category, name, start_ns, dur_ns, args=None):
        self._fan("on_span", category, name, start_ns, dur_ns, args)

    def on_snoop(self, kind, phys_line, dirty):
        self._fan("on_snoop", kind, phys_line, dirty)

    def on_store(self, phys_line):
        self._fan("on_store", phys_line)

    def on_pm_write(self, offset, length):
        self._fan("on_pm_write", offset, length)

    def on_log_record(self, pool_addr, seq, epoch):
        self._fan("on_log_record", pool_addr, seq, epoch)

    def on_log_durable(self, seq):
        self._fan("on_log_durable", seq)

    def on_epoch_commit(self, epoch):
        self._fan("on_epoch_commit", epoch)

    def on_clwb(self, addr, num_lines):
        self._fan("on_clwb", addr, num_lines)

    def on_fence(self):
        self._fan("on_fence")

    def on_wal_append(self, tx_id, addr):
        self._fan("on_wal_append", tx_id, addr)

    def on_wal_reset(self):
        self._fan("on_wal_reset")

    def on_tx_begin(self, tx_id=None):
        self._fan("on_tx_begin", tx_id=tx_id)

    def on_tx_end(self):
        self._fan("on_tx_end")

    def on_tx_commit(self, tx_id):
        self._fan("on_tx_commit", tx_id)

    def on_backend_attach(self, backend, layout):
        self._fan("on_backend_attach", backend, layout)

    def on_machine_crash(self):
        self._fan("on_machine_crash")

    def on_machine_restart(self):
        self._fan("on_machine_restart")
