"""Trace recorder: capture a backend's event stream at the machine seams.

The recorder wraps a live backend's *semantic* entry points — hierarchy
loads/stores, raw address-space accesses, flush/fence, WAL append/reset,
``persist()`` — with one generic instance-level shim each, which logs
the seam's name and the argument tuple it received, then calls through.
A depth flag suppresses nested seams (e.g. the address-space writes
``Wal.append`` performs internally, or the home-fetch reads inside a
cache miss), so the trace contains exactly the top-level calls replay
must re-issue; everything below them is re-derived by the simulator
during replay.

Recording is only faithful for workloads replay can re-execute: no
crash/restart, no pipelined persists, no store hooks, and a backend
that declares itself ``recordable``
(:attr:`~repro.baselines.base.KvBackend.recordable`). Anything else
raises :class:`~repro.errors.TraceUnsupportedError` — fall back to the
per-access path (see docs/performance.md).
"""

from repro.errors import TraceUnsupportedError
from repro.replay.equivalence import structure_stat_groups

#: Mark code emitted by perfbench between preload and the timed phase.
MARK_TIMED = 1

#: Seam name -> (dotted path from the backend to the method, index of
#: the argument that carries bytes, or None). Recording patches each
#: path the backend has; replay calls the same paths on a fresh backend.
SEAMS = {
    "load": ("machine.hierarchy.load", None),
    "store": ("machine.hierarchy.store", 2),
    "writeback_line": ("machine.hierarchy.writeback_line", None),
    "persist": ("machine.persist", None),
    "raw_read": ("machine.space.read", None),
    "raw_write": ("machine.space.write", 1),
    "clwb": ("_flush.clwb", None),
    "sfence": ("_flush.sfence", None),
    "wal_append": ("_wal.append", 2),
    "wal_reset": ("_wal.reset", None),
}

#: Backend scalar attributes restored after replay (the structure layer
#: does not run during replay, so its volatile accounting is carried in
#: the trace footer as deltas). Dotted paths resolved with getattr.
SCALAR_PATHS = ("_tx.gate_commits", "_tx._next_tx")


def _resolve(obj, path):
    """Follow a dotted attribute path; returns (holder, name) or None."""
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    if not hasattr(obj, parts[-1]):
        return None
    return obj, parts[-1]


def _unsupported(what):
    def stub(*_args, **_kwargs):
        raise TraceUnsupportedError(
            "%s cannot be recorded for replay; use the per-access path"
            % what)
    return stub


def _fence_by_keyword(append):
    """``append`` taking ``fence`` by keyword, as WAL callers pass it;
    the trace holds it positionally."""
    def adapter(tx_id, addr, data, fence=True):
        return append(tx_id, addr, data, fence)
    return adapter


class Trace:
    """A recorded event stream plus its footer.

    Event ``i`` is the top-level call ``seams[i](*args[i])``: the seam's
    name (a :data:`SEAMS` key, or ``"mark"``) and the argument tuple it
    received. Two parallel lists keep one tuple per event.
    """

    __slots__ = ("seams", "args", "footer")

    def __init__(self, seams, args, footer):
        self.seams = seams
        self.args = args
        self.footer = footer

    def __len__(self):
        return len(self.seams)


class TraceRecorder:
    """Record one backend's event stream into a :class:`Trace`.

    Usage::

        recorder = TraceRecorder(backend)
        with recorder:
            drive_workload(backend)
            recorder.mark(MARK_TIMED)
            drive_timed_phase(backend)
        trace = recorder.finish()

    ``finish()`` (or leaving the ``with`` block) detaches every shim, so
    the backend is reusable afterwards; the recorded backend's final state
    is the golden reference replay must reproduce.
    """

    def __init__(self, backend):
        if not backend.recordable:
            raise TraceUnsupportedError(
                "backend %r acts on its machine outside the recorded "
                "seams; use the per-access path" % backend.name)
        self._backend = backend
        self._machine = backend.machine
        if getattr(self._machine, "store_hook", None) is not None:
            raise TraceUnsupportedError(
                "store hooks fire outside the recorded seams")
        if getattr(self._machine.hierarchy, "num_cores", 1) != 1:
            raise TraceUnsupportedError(
                "multi-core schedules are not yet recordable")
        self._seams = []
        self._args = []
        self._depth = 0
        self._patched = []   # (obj, attr_name) in attach order
        self._attached = False
        self._finished = False
        self._start_sim_ns = None
        self._start_counters = {}
        self._start_scalars = {}

    def mark(self, code):
        """Insert a ``mark`` event (e.g. :data:`MARK_TIMED`)."""
        if not self._attached:
            raise TraceUnsupportedError("recorder is not attached")
        self._seams.append("mark")
        self._args.append((code,))

    # -- seam patching ----------------------------------------------------

    def _patch(self, obj, name, wrapper):
        # Instance-level shadow of the class method; detach restores the
        # class method by deleting the shadow.
        setattr(obj, name, wrapper)
        self._patched.append((obj, name))

    def _shim(self, seam, orig, data_at):
        """``orig`` logging each top-level call as ``(seam, args)``.

        The argument at ``data_at`` is copied to ``bytes``, since a
        caller may reuse its buffer after the call.
        """
        seams, arg_log = self._seams, self._args

        def shim(*args):
            if self._depth:
                return orig(*args)
            if data_at is not None and type(args[data_at]) is not bytes:
                args = (args[:data_at] + (bytes(args[data_at]),)
                        + args[data_at + 1:])
            seams.append(seam)
            arg_log.append(args)
            self._depth = 1
            try:
                return orig(*args)
            finally:
                self._depth = 0
        return shim

    def attach(self):
        """Install the recording shims. Idempotent per recorder."""
        if self._attached or self._finished:
            raise TraceUnsupportedError("recorder cannot be re-attached")
        backend, machine = self._backend, self._machine
        self._start_sim_ns = machine.clock.now_ns
        self._start_counters = {
            path: dict(group.counters())
            for path, group in structure_stat_groups(backend).items()}
        for path in SCALAR_PATHS:
            spot = _resolve(backend, path)
            if spot is not None:
                value = getattr(spot[0], spot[1])
                if isinstance(value, int) and not isinstance(value, bool):
                    self._start_scalars[path] = value

        for seam, (path, data_at) in SEAMS.items():
            spot = _resolve(backend, path)
            if spot is None:
                continue
            shim = self._shim(seam, getattr(*spot), data_at)
            if seam == "wal_append":
                shim = _fence_by_keyword(shim)
            self._patch(spot[0], spot[1], shim)
        if hasattr(machine, "persist_async"):
            self._patch(machine, "persist_async",
                        _unsupported("persist_async (pipelined persists)"))
        for obj, name in ((backend, "crash"), (machine, "crash")):
            if hasattr(obj, name):
                self._patch(obj, name, _unsupported("crash/restart"))
        self._attached = True
        return self

    def detach(self):
        """Remove every shim (idempotent)."""
        while self._patched:
            obj, name = self._patched.pop()
            try:
                delattr(obj, name)
            except AttributeError:
                pass
        self._attached = False

    def __enter__(self):
        if not self._attached:
            self.attach()
        return self

    def __exit__(self, _exc_type, _exc, _tb):
        self.detach()
        return False

    # -- trace construction ----------------------------------------------

    def finish(self, meta=None):
        """Detach and build the :class:`Trace` (single use)."""
        self.detach()
        if self._finished:
            raise TraceUnsupportedError("recorder already finished")
        self._finished = True
        backend, machine = self._backend, self._machine
        counter_deltas = {}
        for path, group in structure_stat_groups(backend).items():
            start = self._start_counters.get(path, {})
            deltas = {}
            for name, value in group.counters().items():
                delta = value - start.get(name, 0)
                if delta:
                    deltas[name] = delta
            if deltas:
                counter_deltas[path] = deltas
        scalar_deltas = {}
        for path, start in self._start_scalars.items():
            spot = _resolve(backend, path)
            if spot is not None:
                delta = getattr(spot[0], spot[1]) - start
                if delta:
                    scalar_deltas[path] = delta
        footer = {
            "backend": getattr(backend, "name", type(backend).__name__),
            "events": len(self._seams),
            "sim_ns_start": self._start_sim_ns,
            "sim_ns_end": machine.clock.now_ns,
            "counter_deltas": counter_deltas,
            "scalar_deltas": scalar_deltas,
            "meta": dict(meta or {}),
        }
        return Trace(self._seams, self._args, footer)


def record(backend, drive, meta=None):
    """Record ``drive(backend, recorder)`` into a trace and return it.

    ``drive`` receives the live backend plus the recorder (for
    :meth:`TraceRecorder.mark`); the returned trace carries the footer
    deltas replay needs to restore structure-layer accounting.
    """
    recorder = TraceRecorder(backend)
    with recorder:
        drive(backend, recorder)
    return recorder.finish(meta=meta)
