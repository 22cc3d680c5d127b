"""Golden-equivalence fingerprints (the PR3 pattern, machine-wide).

The per-access path is the executable spec; replay is an optimization
that must be *indistinguishable* from it. :func:`fingerprint` reduces a
backend to a flat dict covering everything the spec defines:

* ``sim_ns`` — the simulated clock;
* every counter and histogram of every :class:`StatGroup` reachable from
  the backend (cache levels, hierarchy, directory, device, undo logger,
  write-back coordinator, HBM, link + both bandwidth limiters, ports,
  adapter, media devices, flush model, WAL, the structure layer);
* every :class:`MemoryDevice`'s full contents (sha256) and per-line wear
  tally — "final pool bytes" in the acceptance criteria;
* the machine-shape scalars replay must reproduce (epoch number, undo
  sequence frontier, buffered/pending/logged line sets, cache line
  populations).

Histogram fingerprints take the raw accumulator state (count, total,
sum of squares, min, max, reservoir contents) rather than derived
percentiles, so a single reassociated float add anywhere shows up.
Deliberately excluded: ``CacheHierarchy._home_map`` (a lazily populated
memo with no observable effect) and ``Histogram``'s sorted-reservoir
cache (derived, rebuilt on demand).

Two backends are equivalent iff ``fingerprint(a) == fingerprint(b)``;
:func:`diff` names the keys that disagree.
"""

import hashlib
from collections import deque

from repro.mem.physical import MemoryDevice
from repro.util.stats import StatGroup

#: Object-graph traversal depth bound; the deepest interesting object
#: (a media bandwidth limiter's histogram inside a host home) sits at 5.
_MAX_DEPTH = 10


def _attr_items(obj):
    """(name, value) pairs of ``obj``'s instance attributes, sorted."""
    items = {}
    data = getattr(obj, "__dict__", None)
    if data is not None:
        items.update(data)
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot not in items and hasattr(obj, slot):
                items[slot] = getattr(obj, slot)
    return sorted(items.items())


def _is_repro_object(value):
    return type(value).__module__.split(".", 1)[0] == "repro"


def collect_instrumented(root, label="backend"):
    """Map path -> object for every StatGroup/MemoryDevice reachable.

    Deterministic BFS over instance attributes (sorted by name), list and
    tuple elements, and dict values under sorted keys; identically built
    backends therefore produce identical paths. Breadth-first matters:
    the graph has back-references, and first-visit-wins dedup combined
    with the depth bound would truncate a subtree first reached on a deep
    path — BFS guarantees every object is expanded at its shallowest
    depth.
    """
    seen = set()
    found = {}
    stack = deque([(label, root, 0)])
    while stack:
        path, obj, depth = stack.popleft()
        if id(obj) in seen or depth > _MAX_DEPTH:
            continue
        seen.add(id(obj))
        if isinstance(obj, StatGroup):
            found.setdefault(path, obj)
            continue
        if isinstance(obj, MemoryDevice):
            found.setdefault(path, obj)
        children = []
        if isinstance(obj, dict):
            try:
                keys = sorted(obj)
            except TypeError:
                keys = sorted(obj, key=repr)
            children = [("%s[%r]" % (path, key), obj[key]) for key in keys]
        elif isinstance(obj, (list, tuple)):
            children = [("%s[%d]" % (path, index), value)
                        for index, value in enumerate(obj)]
        else:
            children = [("%s.%s" % (path, name), value)
                        for name, value in _attr_items(obj)]
        for child_path, value in children:
            if (_is_repro_object(value)
                    or isinstance(value, (dict, list, tuple))):
                stack.append((child_path, value, depth + 1))
    return found


def structure_stat_groups(backend):
    """Stat groups of the structure layer, by the backend's declaration.

    Replay re-executes everything below the recorded seams (machine, WAL,
    flush), so those counters must match by re-execution; the groups the
    structure layer increments directly never run during replay and their
    deltas travel in the trace footer. The split cannot be inferred from
    reachability — the object graph is full of back-references (the PAX
    machine holds its pool, the write-back coordinator holds the device
    pool) — so each backend declares it via
    :meth:`~repro.baselines.base.KvBackend.replay_structure_stats`.
    """
    declare = getattr(backend, "replay_structure_stats", None)
    if declare is not None:
        return dict(declare())
    stats = getattr(backend, "stats", None)
    return {"backend.stats": stats} if isinstance(stats, StatGroup) else {}


def fingerprint(backend):
    """Flat dict capturing every spec-visible bit of ``backend``."""
    out = {"sim_ns": backend.machine.clock.now_ns}
    for path, obj in sorted(collect_instrumented(backend).items()):
        if isinstance(obj, StatGroup):
            for name, value in obj.counters().items():
                out["%s:%s" % (path, name)] = value
            for name, hist in obj.histograms().items():
                out["%s:%s" % (path, name)] = hist.state()
        else:   # MemoryDevice: durable bytes + media wear
            # Hashed in place: a bytes() copy of a whole device is a
            # full-size allocation per fingerprint.
            out["%s:sha256" % path] = hashlib.sha256(obj._data).hexdigest()
            wear = getattr(obj, "line_wear", None)
            if wear is not None:
                out["%s:line_wear" % path] = tuple(sorted(wear.items()))
    machine = backend.machine
    device = getattr(machine, "device", None)
    if device is not None:
        out["device:epoch"] = device.epochs.current_epoch
        undo = device.undo
        out["undo:next_seq"] = undo._next_seq
        out["undo:durable_seq"] = undo._durable_seq
        out["undo:pending"] = tuple(
            (r.seq, r.epoch, r.pool_addr, r.old_data) for r in undo._pending)
        out["undo:logged"] = tuple(sorted(undo._logged.items()))
        out["wb:buffer"] = tuple(
            (addr, entry.seq, entry.data)
            for addr, entry in device.writeback._buffer.items())
        out["hbm:lines"] = hashlib.sha256(
            b"".join(b"%x:" % addr + data
                     for addr, data in device.hbm._lines.items())
        ).hexdigest()
    hier = machine.hierarchy
    out["dir:entries"] = tuple(
        sorted((addr, tuple(sorted(entry.states.items())))
               for addr, entry in hier._dir_entries.items()))
    caches = [("llc", hier._llc)]
    for core in hier._cores:
        caches.append(("core%d.l1" % core.core_id, core.l1))
        caches.append(("core%d.l2" % core.core_id, core.l2))
    for label, cache in caches:
        out["cache:%s" % label] = tuple(
            sorted((line.addr, bytes(line.data), line.dirty)
                   for line in cache.lines()))
    return out


def diff(golden, candidate):
    """Keys where two fingerprints disagree: [(key, golden, candidate)]."""
    out = []
    for key in sorted(set(golden) | set(candidate)):
        a = golden.get(key)
        b = candidate.get(key)
        if a != b or type(a) is not type(b):
            out.append((key, a, b))
    return out
