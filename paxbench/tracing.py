"""Outside-in span tracing for the benchmark's traced runs.

The simulator is never edited for tracing. A traced run replaces public
methods of each layer's classes with timing wrappers, from this file,
before any backend is built: the hierarchy binds ``clock.advance`` at
construction, the PAX device binds its drain callees, and ``HashMap``
binds ``mem.read_u64``, so a wrapper installed later would never run.

Each call of a wrapped method is one span. Spans nest on a stack, and
each one is folded into per-name totals as it closes, so memory stays
flat however long the run is:

* ``calls``  - spans closed;
* ``self_s`` - span duration minus the duration of its direct child
  spans (children of one thread never overlap, so this is the span's
  interval minus the part its children cover);
* ``total_s`` - inclusive duration;
* ``units`` - a per-span measure taken from the return value (replay
  events).

A span's name is ``<layer>.<boundary>``; the layer is the ``src/repro``
package whose public method the span wraps.
"""

import functools
import time

#: Span names whose individual durations are kept (percentile metrics).
KEEP = frozenset({"libpax.persist", "libpax.restart", "core.persist"})


class SpanTracer:
    """Folds nested spans into per-(phase, name) totals.

    ``phase`` names the bucket spans land in; while it is None, wrapped
    methods run untimed (set-up and output checks stay out of the
    figures). Phases only change between spans, never inside one.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack = []
        self.phase = None
        #: (phase, name) -> [calls, self_s, total_s, units]
        self.totals = {}
        #: (phase, name) -> [(self_s, total_s), ...] for names in KEEP
        self.samples = {}

    def span(self, name, fn, units=None):
        """``fn`` wrapped so that every call records one ``name`` span.

        ``units(result)``, when given, is added to the span's ``units``.
        """
        clock = self._clock
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                total = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += total
                tracer._fold(phase, name, total, child,
                             0 if units is None or result is None
                             else units(result))

        return traced

    def _fold(self, phase, name, total, child, units):
        key = (phase, name)
        rec = self.totals.get(key)
        if rec is None:
            rec = self.totals[key] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += total - child
        rec[2] += total
        rec[3] += units
        if name in KEEP:
            self.samples.setdefault(key, []).append((total - child, total))

    # -- queries ----------------------------------------------------------------

    def _sum(self, field, prefix, phases):
        return sum(rec[field] for (phase, name), rec in self.totals.items()
                   if phase in phases and (name == prefix
                                           or name.startswith(prefix + ".")
                                           or prefix == ""))

    def calls(self, prefix, phases=("timed",)):
        """Spans closed under ``prefix`` (a layer or a full span name)."""
        return self._sum(0, prefix, phases)

    def self_s(self, prefix, phases=("timed",)):
        """Summed self time under ``prefix``, in seconds."""
        return self._sum(1, prefix, phases)

    def total_s(self, prefix, phases=("timed",)):
        """Summed inclusive time under ``prefix``, in seconds."""
        return self._sum(2, prefix, phases)

    def units(self, prefix, phases=("timed",)):
        """Summed per-span units under ``prefix``."""
        return self._sum(3, prefix, phases)

    def kept(self, name, phases):
        """Kept ``(self_s, total_s)`` pairs of ``name`` across ``phases``."""
        out = []
        for phase in phases:
            out.extend(self.samples.get((phase, name), ()))
        return out


def layer_targets():
    """``(owner, attribute, span name)`` for every wrapped boundary.

    Imports lazily: the benchmark puts the checkout's ``src`` on the
    path before anything from ``repro`` is loaded.
    """
    import repro.sweep as sweep
    from repro.baselines.base import StructureBackend
    from repro.baselines.pax import PaxBackend
    from repro.baselines.pmdk import PmdkBackend, UndoTxAccessor
    from repro.baselines.wal import Wal
    from repro.cache.hierarchy import CacheHierarchy
    from repro.core.device import PaxDevice
    from repro.cxl.port import DevicePort, HostSnoopPort
    from repro.libpax.machine import CpuAccessor, PaxMachine
    from repro.mem.accessor import MemoryAccessor
    from repro.pm.device import PmDevice
    from repro.sim.clock import SimClock
    from repro.structures.hashmap import HashMap
    return [
        (HashMap, "put", "structures.op"),
        (HashMap, "get", "structures.op"),
        (MemoryAccessor, "read_u64", "mem.word"),
        (MemoryAccessor, "write_u64", "mem.word"),
        (CpuAccessor, "read", "libpax.access"),
        (CpuAccessor, "write", "libpax.access"),
        (PaxMachine, "persist", "libpax.persist"),
        (PaxBackend, "restart", "libpax.restart"),
        (CacheHierarchy, "load", "cache.access"),
        (CacheHierarchy, "store", "cache.access"),
        (CacheHierarchy, "snoop_shared", "cache.snoop"),
        (CacheHierarchy, "snoop_invalidate", "cache.snoop"),
        (CacheHierarchy, "writeback_line", "cache.snoop"),
        (SimClock, "advance", "sim.advance"),
        (PaxDevice, "background_tick", "core.tick"),
        (PaxDevice, "handle_message", "core.msg"),
        (PaxDevice, "persist", "core.persist"),
        (DevicePort, "read_shared", "cxl.port"),
        (DevicePort, "read_own", "cxl.port"),
        (DevicePort, "evict_dirty", "cxl.port"),
        (DevicePort, "evict_clean", "cxl.port"),
        (HostSnoopPort, "snoop_shared", "cxl.snoop"),
        (HostSnoopPort, "snoop_invalidate", "cxl.snoop"),
        (PmDevice, "read", "pm.read"),
        (PmDevice, "write", "pm.write"),
        (StructureBackend, "put", "baselines.op"),
        (StructureBackend, "get", "baselines.op"),
        (PmdkBackend, "put", "baselines.op"),
        (PmdkBackend, "get", "baselines.op"),
        (UndoTxAccessor, "read", "baselines.tx"),
        (UndoTxAccessor, "write", "baselines.tx"),
        (Wal, "append", "baselines.wal"),
        (sweep, "replay_trace", "replay.trace"),
        (sweep, "_drive_access", "sweep.verify"),
        (sweep, "fingerprint", "sweep.verify"),
    ]


def _replay_events(result):
    return result.events


def install(tracer, targets=None):
    """Wrap every target in place; returns a callable that undoes it.

    A method a class only inherits (``PmDevice.read``) is wrapped on that
    class and deleted again on undo, so the base class never changes.
    """
    if targets is None:
        targets = layer_targets()
    undo = []
    for owner, attr, name in targets:
        own = owner.__dict__.get(attr) if isinstance(owner, type) else None
        original = getattr(owner, attr)
        units = _replay_events if name == "replay.trace" else None
        setattr(owner, attr, tracer.span(name, original, units))
        undo.append((owner, attr, original, own is not None
                     or not isinstance(owner, type)))

    def uninstall():
        for owner, attr, original, owned in reversed(undo):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    return uninstall
