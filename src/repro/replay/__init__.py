"""Trace record / trace replay (see docs/performance.md, "Trace replay").

Record a workload's event stream once at the machine seams, then replay
it many times against freshly built backends without re-running the
structure layer. Replay dispatches every event through the same seam
methods the recorder wrapped, and is proven byte-identical to the
per-access path (``sim_ns``, stat counters, final pool bytes) by the
golden-equivalence tests; the per-access path remains the executable
spec.

Public API::

    trace = record(backend, drive)            # capture
    trace.save(path); trace = load_trace(path)
    result = replay_trace(trace, fresh_backend)
"""

from repro.replay.engine import ReplayResult, replay_trace
from repro.replay.format import (MARK_TIMED, TRACE_MAGIC, TRACE_VERSION,
                                 Trace, load_trace, load_trace_bytes)
from repro.replay.recorder import TraceRecorder, record

__all__ = [
    "MARK_TIMED", "TRACE_MAGIC", "TRACE_VERSION", "Trace",
    "TraceRecorder", "ReplayResult", "load_trace", "load_trace_bytes",
    "record", "replay_trace",
]
