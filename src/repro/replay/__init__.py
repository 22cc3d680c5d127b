"""Trace record / trace replay (see docs/performance.md, "Trace replay").

Record a workload's event stream once at the machine seams, then replay
it many times against freshly built backends without re-running the
structure layer. A trace is the list of top-level seam calls, each kept
as the seam's name and its argument tuple; replay calls the same seam
of a fresh backend with the same arguments, and is proven byte-identical
to the per-access path (``sim_ns``, stat counters, final pool bytes) by
the golden-equivalence tests; the per-access path remains the executable
spec.

Public API::

    trace = record(backend, drive)            # capture
    result = replay_trace(trace, fresh_backend)
"""

from repro.replay.engine import ReplayResult, replay_trace
from repro.replay.recorder import MARK_TIMED, Trace, TraceRecorder, record

__all__ = [
    "MARK_TIMED", "Trace", "TraceRecorder", "ReplayResult", "record",
    "replay_trace",
]
