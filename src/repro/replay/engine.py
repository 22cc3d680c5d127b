"""Trace replay: re-execute a recorded event stream through the real seams.

:func:`replay_trace` dispatches every event to the same seam methods the
recorder wrapped (``hierarchy.load``, ``space.write``, ``wal.append``,
...). Everything below the seams — caches, link, device, media —
re-simulates, so replay is exact for any backend the recorder accepts;
it skips only the structure layer (hash probing, key encoding), which is
what a trace makes redundant. The per-access path stays the executable
spec (docs/performance.md).
"""

from repro.errors import TraceError
from repro.replay import format as fmt
from repro.replay.equivalence import structure_stat_groups
from repro.replay.recorder import _resolve


class ReplayResult:
    """What one replay produced (see :func:`replay_trace`)."""

    __slots__ = ("backend", "events", "sim_ns", "marks", "wall_s",
                 "wall_s_timed")

    def __init__(self, backend, events, sim_ns, marks, wall_s, wall_s_timed):
        self.backend = backend
        self.events = events
        self.sim_ns = sim_ns
        self.marks = marks          # mark code -> sim_ns at the mark
        self.wall_s = wall_s        # whole-trace wall clock (None w/o stopwatch)
        self.wall_s_timed = wall_s_timed   # wall after MARK_TIMED

    @property
    def sim_ns_timed(self):
        """Simulated ns consumed after the timed-phase mark."""
        start = self.marks.get(fmt.MARK_TIMED)
        if start is None:
            return self.sim_ns
        return self.sim_ns - start


def _seam(owner, name, kind):
    """``owner.name`` bound, or a stub failing typed on a ``kind`` event.

    A trace holding events its backend has no seam for (a WAL append
    replayed onto a machine without a WAL) then fails on the first such
    event with a :class:`TraceError` naming it.
    """
    method = getattr(owner, name, None)
    if method is not None:
        return method

    def missing(*_args):
        raise TraceError("trace holds a %s event, but the backend has no "
                         "seam for it" % fmt.KIND_NAMES[kind])
    return missing


def _handlers(backend):
    """Kind -> ``handler(aux, addr, size, payload)`` for every kind but
    MARK, each re-issuing its event through a seam of ``backend``."""
    machine = backend.machine
    hier = machine.hierarchy
    load, store, wbl = hier.load, hier.store, hier.writeback_line
    persist = _seam(machine, "persist", fmt.PERSIST)
    space = getattr(machine, "space", None)
    space_read = _seam(space, "read", fmt.RAW_READ)
    space_write = _seam(space, "write", fmt.RAW_WRITE)
    flush = getattr(backend, "_flush", None)
    clwb = _seam(flush, "clwb", fmt.CLWB)
    sfence = _seam(flush, "sfence", fmt.SFENCE)
    wal = getattr(backend, "_wal", None)
    wal_append = _seam(wal, "append", fmt.WAL_APPEND)
    wal_reset = _seam(wal, "reset", fmt.WAL_RESET)
    # x, a, n, p: the event's aux, addr, size and payload columns.
    return {
        fmt.LOAD: lambda x, a, n, p: load(x, a, n),
        fmt.STORE: lambda x, a, n, p: store(x, a, p),
        fmt.RAW_READ: lambda x, a, n, p: space_read(a, n),
        fmt.RAW_WRITE: lambda x, a, n, p: space_write(a, p),
        fmt.CLWB: lambda x, a, n, p: clwb(a, n),
        fmt.SFENCE: lambda x, a, n, p: sfence(),
        fmt.WBL: lambda x, a, n, p: wbl(a),
        fmt.PERSIST: lambda x, a, n, p: persist(),
        fmt.WAL_APPEND: lambda x, a, n, p: wal_append(x >> 1, a, p,
                                                      bool(x & 1)),
        fmt.WAL_RESET: lambda x, a, n, p: wal_reset(),
    }


def replay_trace(trace, backend, stopwatch=None):
    """Re-execute ``trace`` against a freshly built ``backend``.

    ``backend`` must be constructed exactly as the recorded one was (same
    config, same seed): construction is the trace's implicit initial
    state. A backend of another kind than the footer names raises
    :class:`TraceError`. ``stopwatch`` is an optional zero-argument
    monotonic-seconds callable (supplied by perfbench, which owns
    wall-clock concerns) used to time the replay.

    Returns a :class:`ReplayResult`; afterwards the backend's machine
    state matches the recorded run byte for byte, and the footer's
    structure-layer deltas have been applied to the backend's stats.
    """
    recorded = trace.footer.get("backend")
    actual = getattr(backend, "name", type(backend).__name__)
    if recorded != actual:
        raise TraceError("trace was recorded on backend %r; cannot replay "
                         "it onto %r" % (recorded, actual))
    start_wall = stopwatch() if stopwatch is not None else None
    marks, mark_walls = _replay_generic(trace, backend, stopwatch)
    end_wall = stopwatch() if stopwatch is not None else None
    _apply_footer(trace.footer, backend)
    wall_s = None if start_wall is None else end_wall - start_wall
    timed_wall = None
    if end_wall is not None and fmt.MARK_TIMED in mark_walls:
        timed_wall = end_wall - mark_walls[fmt.MARK_TIMED]
    return ReplayResult(backend, len(trace), backend.machine.clock.now_ns,
                        marks, wall_s, timed_wall)


def _apply_footer(footer, backend):
    """Restore structure-layer accounting skipped during replay."""
    groups = structure_stat_groups(backend)
    for path, deltas in footer.get("counter_deltas", {}).items():
        group = groups.get(path)
        if group is None:
            raise TraceError(
                "trace footer names stat group %r the backend lacks" % path)
        for name, delta in deltas.items():
            group.counter(name).value += delta
    for path, delta in footer.get("scalar_deltas", {}).items():
        spot = _resolve(backend, path)
        if spot is None:
            raise TraceError(
                "trace footer names scalar %r the backend lacks" % path)
        setattr(spot[0], spot[1], getattr(spot[0], spot[1]) + delta)


def _replay_generic(trace, backend, stopwatch):
    """Dispatch every event through the real seam methods."""
    handler_for = _handlers(backend).get
    clock = backend.machine.clock
    marks = {}
    mark_walls = {}
    for kind, aux, addr, size, payload in trace.events():
        handler = handler_for(kind)
        if handler is not None:
            handler(aux, addr, size, payload)
        elif kind == fmt.MARK:
            marks[aux] = clock.now_ns
            if stopwatch is not None:
                mark_walls[aux] = stopwatch()
        else:
            raise TraceError("unknown trace event kind %d" % kind)
    return marks, mark_walls
