"""Trace recorder: capture a backend's event stream at the machine seams.

The recorder wraps a live backend's *semantic* entry points — hierarchy
loads/stores, raw address-space accesses, flush/fence, WAL append/reset,
``persist()`` — with thin instance-level shims that append one columnar
event each, then call through. A depth counter suppresses nested seams
(e.g. the address-space writes ``Wal.append`` performs internally, or the
home-fetch reads inside a cache miss), so the trace contains exactly the
top-level operations replay must re-issue; everything below them is
re-derived by the simulator during replay.

Recording is only faithful for workloads replay can re-execute: no
crash/restart, no pipelined persists, no store hooks. Those paths raise
:class:`~repro.errors.TraceUnsupportedError` — fall back to the
per-access path (see docs/performance.md).
"""

from repro.errors import TraceUnsupportedError
from repro.replay import format as fmt
from repro.replay.equivalence import structure_stat_groups

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


class TraceRecorder:
    """Record one backend's event stream into a :class:`Trace`.

    Usage::

        recorder = TraceRecorder(backend)
        with recorder:
            drive_workload(backend)
            recorder.mark(fmt.MARK_TIMED)
            drive_timed_phase(backend)
        trace = recorder.finish()

    ``finish()`` (or leaving the ``with`` block) detaches every shim, so
    the backend is reusable afterwards; the recorded backend's final state
    is the golden reference replay must reproduce.
    """

    def __init__(self, backend):
        self._backend = backend
        self._machine = backend.machine
        if getattr(self._machine, "store_hook", None) is not None:
            raise TraceUnsupportedError(
                "store hooks fire outside the recorded seams")
        if getattr(self._machine.hierarchy, "num_cores", 1) != 1:
            raise TraceUnsupportedError(
                "multi-core schedules are not yet recordable")
        self._kinds = []
        self._aux = []
        self._addrs = []
        self._sizes = []
        self._payload = []
        self._depth = 0
        self._patched = []   # (obj, attr_name) in attach order
        self._attached = False
        self._finished = False
        self._start_sim_ns = None
        self._start_counters = {}
        self._start_scalars = {}

    # -- event emission ---------------------------------------------------

    def _emit(self, kind, aux=0, addr=0, size=0, payload=None):
        self._kinds.append(kind)
        self._aux.append(aux)
        self._addrs.append(addr)
        if payload is not None:
            payload = bytes(payload)
            size = len(payload)
            self._payload.append(payload)
        self._sizes.append(size)

    def mark(self, code, label=b""):
        """Insert a MARK event (e.g. :data:`fmt.MARK_TIMED`)."""
        if not self._attached:
            raise TraceUnsupportedError("recorder is not attached")
        self._emit(fmt.MARK, aux=code, payload=bytes(label))

    # -- seam patching ----------------------------------------------------

    def _patch(self, obj, name, wrapper):
        # Instance-level shadow of the class method; detach restores the
        # class method by deleting the shadow.
        setattr(obj, name, wrapper)
        self._patched.append((obj, name))

    def attach(self):
        """Install the recording shims. Idempotent per recorder."""
        if self._attached or self._finished:
            raise TraceUnsupportedError("recorder cannot be re-attached")
        backend, machine = self._backend, self._machine
        emit = self._emit
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

        hier = machine.hierarchy
        call = self._call

        def wrap_load(orig):
            def load(core_id, addr, size):
                if not self._depth:
                    emit(fmt.LOAD, core_id, addr, size)
                return call(orig, core_id, addr, size)
            return load

        def wrap_store(orig):
            def store(core_id, addr, data):
                if not self._depth:
                    emit(fmt.STORE, core_id, addr, payload=data)
                return call(orig, core_id, addr, data)
            return store

        def wrap_wbl(orig):
            def writeback_line(line_addr):
                if not self._depth:
                    emit(fmt.WBL, 0, line_addr)
                return call(orig, line_addr)
            return writeback_line

        def wrap_plain(orig, kind):
            def seam():
                if not self._depth:
                    emit(kind)
                return call(orig)
            return seam

        def wrap_raw(orig, kind, carries_payload):
            def seam(addr, arg):
                if not self._depth:
                    if carries_payload:
                        emit(kind, 0, addr, payload=arg)
                    else:
                        emit(kind, 0, addr, arg)
                return call(orig, addr, arg)
            return seam

        def wrap_append(orig):
            def append(tx_id, addr, data, fence=True):
                if not self._depth:
                    emit(fmt.WAL_APPEND, tx_id * 2 + bool(fence), addr,
                         payload=data)
                return call(orig, tx_id, addr, data, fence)
            return append

        self._wrap(hier, "load", wrap_load)
        self._wrap(hier, "store", wrap_store)
        self._wrap(hier, "writeback_line", wrap_wbl)
        if hasattr(machine, "persist"):
            self._patch(machine, "persist",
                        wrap_plain(machine.persist, fmt.PERSIST))
        if hasattr(machine, "persist_async"):
            self._patch(machine, "persist_async",
                        _unsupported("persist_async (pipelined persists)"))
        space = getattr(machine, "space", None)
        if space is not None:
            self._patch(space, "read",
                        wrap_raw(space.read, fmt.RAW_READ, False))
            self._patch(space, "write",
                        wrap_raw(space.write, fmt.RAW_WRITE, True))
        flush = getattr(backend, "_flush", None)
        if flush is not None:
            self._patch(flush, "clwb",
                        wrap_raw(flush.clwb, fmt.CLWB, False))
            self._patch(flush, "sfence",
                        wrap_plain(flush.sfence, fmt.SFENCE))
        wal = getattr(backend, "_wal", None)
        if wal is not None:
            self._patch(wal, "append", wrap_append(wal.append))
            self._patch(wal, "reset",
                        wrap_plain(wal.reset, fmt.WAL_RESET))
        for obj, name in ((backend, "crash"), (machine, "crash")):
            if hasattr(obj, name):
                self._patch(obj, name, _unsupported("crash/restart"))
        self._attached = True
        return self

    def _wrap(self, obj, name, factory):
        self._patch(obj, name, factory(getattr(obj, name)))

    def _call(self, orig, *args):
        """Run the original seam with nested emission suppressed."""
        self._depth += 1
        try:
            return orig(*args)
        finally:
            self._depth -= 1

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
            "events": len(self._kinds),
            "sim_ns_start": self._start_sim_ns,
            "sim_ns_end": machine.clock.now_ns,
            "counter_deltas": counter_deltas,
            "scalar_deltas": scalar_deltas,
            "meta": dict(meta or {}),
        }
        return fmt.Trace(self._kinds, self._aux, self._addrs, self._sizes,
                         b"".join(self._payload), footer)


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
