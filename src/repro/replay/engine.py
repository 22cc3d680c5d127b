"""Trace replay: re-execute a recorded event stream through the real seams.

:func:`replay_trace` calls every event's seam on a fresh backend with the
argument tuple the recorder logged (``hierarchy.load``, ``space.write``,
``wal.append``, ...). Everything below the seams — caches, link, device,
media — re-simulates, so replay is exact for any backend the recorder
accepts; it skips only the structure layer (hash probing, key encoding),
which is what a trace makes redundant. The per-access path stays the
executable spec (docs/performance.md).
"""

from functools import partial

from repro.errors import TraceError
from repro.replay.equivalence import structure_stat_groups
from repro.replay.recorder import MARK_TIMED, SEAMS, _resolve


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
        start = self.marks.get(MARK_TIMED)
        if start is None:
            return self.sim_ns
        return self.sim_ns - start


def _no_seam(seam, *_args):
    """Stands in for a seam the backend lacks.

    A trace holding events its backend has no seam for (a WAL append
    replayed onto a machine without a WAL) then fails on the first such
    event with a :class:`TraceError` naming it.
    """
    raise TraceError("trace holds a %s event, but the backend has no "
                     "seam for it" % seam)


def _seam_table(backend):
    """Seam name -> ``backend``'s bound method for every :data:`SEAMS`
    entry (:func:`_no_seam` where the backend lacks it)."""
    table = {}
    for seam, (path, _data_at) in SEAMS.items():
        *owners, name = path.split(".")
        owner = backend
        for part in owners:
            owner = getattr(owner, part, None)
        method = getattr(owner, name, None)
        table[seam] = partial(_no_seam, seam) if method is None else method
    return table


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
    clock = backend.machine.clock
    marks = {}
    mark_walls = {}

    def mark(code):
        marks[code] = clock.now_ns
        if stopwatch is not None:
            mark_walls[code] = stopwatch()

    table = _seam_table(backend)
    table["mark"] = mark
    start_wall = stopwatch() if stopwatch is not None else None
    _replay_events(trace, table)
    end_wall = stopwatch() if stopwatch is not None else None
    _apply_footer(trace.footer, backend)
    wall_s = None if start_wall is None else end_wall - start_wall
    timed_wall = None
    if end_wall is not None and MARK_TIMED in mark_walls:
        timed_wall = end_wall - mark_walls[MARK_TIMED]
    return ReplayResult(backend, len(trace), clock.now_ns, marks, wall_s,
                        timed_wall)


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


def _replay_events(trace, table):
    """Call every event's seam in ``table`` with its recorded arguments."""
    seam = None
    try:
        for seam, args in zip(trace.seams, trace.args):
            table[seam](*args)
    except KeyError:
        if seam in table:
            raise
        raise TraceError("unknown trace event %r" % (seam,)) from None
