"""The miss-path mechanism zoo (ROADMAP: device-cache mechanism zoo).

The paper ships one fixed device cache design; the interesting question
— which miss-path mechanism wins at which size under which workload —
is an experiment matrix, not a point. This module makes the miss path
pluggable at *both* caching sites:

* the host hierarchy's LLC miss path (:mod:`repro.cache.hierarchy`),
  where a mechanism hit spares a home round trip (for vPM lines, a full
  CXL transaction);
* the PAX device's HBM miss path (:mod:`repro.core.device`), where a
  hit spares a PM media read.

Four classic mechanisms (Jouppi-style victim and miss caches, stream
buffers, next-line prefetch) share one small interface and compose into
a :class:`MechanismStack`; each is parameterized by a spec string (see
:func:`make_mechanisms`) and composes with the existing replacement
policies (:mod:`repro.cache.replacement`).

Correctness discipline — mechanisms are a *performance overlay only*:

* A mechanism may hold only **clean** data that matches the home's
  current (device-visible) value. They capture clean evictions, demand
  fills, and guarded prefetches; dirty write-backs still travel to the
  home exactly as before.
* Only demand **loads** are served from a mechanism. Exclusive acquires
  (stores, upgrades) always reach the home, so the device still
  observes the first store to every line and undo logging is never
  skipped — the crash-consistency argument is untouched.
* Every exclusive acquire invalidates the line's mechanism entries, so
  a stale copy can never be served after a modification.
* Mechanisms are volatile (SRAM next to the cache they assist): a crash
  clears them.

Prefetch fills are modelled as fully overlapped background fetches: the
data transfer happens (home/PM counters and bandwidth backlogs move),
but no latency is charged to the demand access that triggered it. The
cost of a bad prefetch therefore shows up as pollution — wasted home
reads and useful entries evicted early — which is exactly what the
``prefetch pollution`` experiments measure.

With no mechanisms configured (the default everywhere) the miss path
executes the exact pre-zoo arithmetic; the golden tests pin this.
"""

from collections import OrderedDict, deque

from repro.cache.replacement import make_policy
from repro.errors import ConfigError
from repro.util.constants import CACHE_LINE_SIZE
from repro.util.stats import StatGroup


class Mechanism:
    """Interface implemented by every miss-path mechanism.

    ``fetch`` arguments are site-provided callables
    ``fetch(line_addr) -> bytes | None`` that return the home's current
    data for a line (or None when the line must not be prefetched); the
    transfer is accounted by the site, the latency is hidden (overlapped
    background fill).
    """

    #: Registry key and spec-string name.
    kind = "abstract"

    def __init__(self, label):
        self.stats = StatGroup(label)
        # Per-miss counters bound once (hot-path-stat-lookup rule).
        stats = self.stats
        self._c_hits = stats.counter("hits")
        self._c_misses = stats.counter("misses")
        self._c_fills = stats.counter("fills")
        self._c_evictions = stats.counter("evictions")
        self._c_invalidations = stats.counter("invalidations")
        self._c_prefetches = stats.counter("prefetches")

    def probe(self, line_addr):
        """Return clean line data on a hit, else None (demand loads only)."""
        raise NotImplementedError

    def on_demand_fill(self, line_addr, data, fetch):
        """A demand miss was served by the home with ``data``."""

    def on_evict(self, line_addr, data):
        """A clean (or just-written-back) line left the cache above."""

    def invalidate(self, line_addr):
        """Drop any entry for ``line_addr`` (it is about to be modified)."""

    def clear(self):
        """Volatile state: a crash empties the mechanism."""

    def __len__(self):
        return 0


class VictimCache(Mechanism):
    """A small fully-associative buffer of clean evicted lines (Jouppi).

    Filled from evictions out of the cache above; a probe hit removes
    the entry (the line moves back up). The victim-selection order
    within the buffer is a pluggable replacement policy.
    """

    kind = "victim"

    def __init__(self, capacity=32, policy="lru", label="mech.victim"):
        super().__init__(label)
        if capacity < 1:
            raise ConfigError("victim cache needs at least one line")
        self.capacity = capacity
        self._lines = {}
        self._policy = make_policy(policy)
        self._policy_name = policy

    def probe(self, line_addr):
        data = self._lines.pop(line_addr, None)
        if data is None:
            self._c_misses.value += 1
            return None
        self._policy.on_remove(line_addr)
        self._c_hits.value += 1
        return data

    def on_evict(self, line_addr, data):
        if line_addr in self._lines:
            self._lines[line_addr] = data
            self._policy.on_access(line_addr)
            return
        if len(self._lines) >= self.capacity:
            victim = self._policy.victim()
            del self._lines[victim]
            self._policy.on_remove(victim)
            self._c_evictions.value += 1
        self._lines[line_addr] = data
        self._policy.on_insert(line_addr)
        self._c_fills.value += 1

    def invalidate(self, line_addr):
        if self._lines.pop(line_addr, None) is not None:
            self._policy.on_remove(line_addr)
            self._c_invalidations.value += 1

    def clear(self):
        self._lines.clear()
        self._policy = make_policy(self._policy_name)

    def __len__(self):
        return len(self._lines)


class MissCache(Mechanism):
    """A small fully-associative mirror of recently missed lines (Jouppi).

    Filled with the demand-missed line itself on every home fetch; a hit
    keeps the entry (refreshing recency) — the classic conflict-miss
    absorber for caches with low associativity.
    """

    kind = "miss"

    def __init__(self, capacity=16, policy="lru", label="mech.miss"):
        super().__init__(label)
        if capacity < 1:
            raise ConfigError("miss cache needs at least one line")
        self.capacity = capacity
        self._lines = {}
        self._policy = make_policy(policy)
        self._policy_name = policy

    def probe(self, line_addr):
        data = self._lines.get(line_addr)
        if data is None:
            self._c_misses.value += 1
            return None
        self._policy.on_access(line_addr)
        self._c_hits.value += 1
        return data

    def on_demand_fill(self, line_addr, data, fetch):
        if line_addr in self._lines:
            self._lines[line_addr] = data
            self._policy.on_access(line_addr)
            return
        if len(self._lines) >= self.capacity:
            victim = self._policy.victim()
            del self._lines[victim]
            self._policy.on_remove(victim)
            self._c_evictions.value += 1
        self._lines[line_addr] = data
        self._policy.on_insert(line_addr)
        self._c_fills.value += 1

    def invalidate(self, line_addr):
        if self._lines.pop(line_addr, None) is not None:
            self._policy.on_remove(line_addr)
            self._c_invalidations.value += 1

    def clear(self):
        self._lines.clear()
        self._policy = make_policy(self._policy_name)

    def __len__(self):
        return len(self._lines)


class StreamBuffers(Mechanism):
    """``buffers`` FIFO queues of ``depth`` sequentially prefetched lines.

    A demand miss that also misses every buffer allocates one (replacing
    the least recently allocated/hit) and fills it with the next
    ``depth`` lines. A probe only matches a buffer *head* (the classic
    design); a head hit pops it and extends the tail by one line, so a
    sequential walk streams at buffer speed after the first miss.
    """

    kind = "stream"

    def __init__(self, buffers=4, depth=4, label="mech.stream"):
        super().__init__(label)
        if buffers < 1 or depth < 1:
            raise ConfigError("stream buffers need buffers >= 1, depth >= 1")
        self.buffers = buffers
        self.depth = depth
        #: buffer id -> deque of (line_addr, data); allocation recency
        #: tracked by OrderedDict order (oldest first).
        self._streams = OrderedDict()
        self._next_id = 0
        self._c_allocations = self.stats.counter("allocations")
        self._c_head_pops = self.stats.counter("head_pops")

    def probe(self, line_addr):
        for stream_id, queue in self._streams.items():
            if queue and queue[0][0] == line_addr:
                _addr, data = queue.popleft()
                self._c_head_pops.value += 1
                self._c_hits.value += 1
                self._streams.move_to_end(stream_id)
                return data
        self._c_misses.value += 1
        return None

    def extend(self, fetch):
        """Refill the most recently hit stream's tail by one line."""
        if not self._streams:
            return
        stream_id, queue = next(reversed(self._streams.items()))
        tail = queue[-1][0] if queue else None
        if tail is None:
            del self._streams[stream_id]
            return
        nxt = tail + CACHE_LINE_SIZE
        data = fetch(nxt)
        if data is not None:
            queue.append((nxt, data))
            self._c_prefetches.value += 1
            self._c_fills.value += 1

    def on_demand_fill(self, line_addr, data, fetch):
        if len(self._streams) >= self.buffers:
            self._streams.popitem(last=False)
            self._c_evictions.value += 1
        queue = deque()
        addr = line_addr
        for _step in range(self.depth):
            addr += CACHE_LINE_SIZE
            fetched = fetch(addr)
            if fetched is None:
                break
            queue.append((addr, fetched))
            self._c_prefetches.value += 1
            self._c_fills.value += 1
        self._streams[self._next_id] = queue
        self._next_id += 1
        self._c_allocations.value += 1

    def invalidate(self, line_addr):
        # Conservative: flush any stream holding the line (its remaining
        # entries were fetched around data that is going stale).
        stale = []
        for stream_id, queue in self._streams.items():
            for addr, _data in queue:
                if addr == line_addr:
                    stale.append(stream_id)
                    break
        for stream_id in stale:
            del self._streams[stream_id]
            self._c_invalidations.value += 1

    def clear(self):
        self._streams.clear()

    def __len__(self):
        return sum(len(queue) for queue in self._streams.values())


class NextLinePrefetch(Mechanism):
    """One-block-lookahead: every demand fill prefetches ``addr + 64``.

    Prefetched lines wait in a small LRU buffer; a hit consumes the
    entry and prefetches the next sequential line (prefetch-on-hit keeps
    a stream going). Small capacities make pollution visible: useless
    prefetches evict useful ones before they are consumed.
    """

    kind = "nextline"

    def __init__(self, capacity=16, label="mech.nextline"):
        super().__init__(label)
        if capacity < 1:
            raise ConfigError("next-line buffer needs at least one line")
        self.capacity = capacity
        self._lines = OrderedDict()

    def _prefetch(self, line_addr, fetch):
        nxt = line_addr + CACHE_LINE_SIZE
        if nxt in self._lines:
            return
        data = fetch(nxt)
        if data is None:
            return
        self._lines[nxt] = data
        self._lines.move_to_end(nxt)
        if len(self._lines) > self.capacity:
            self._lines.popitem(last=False)
            self._c_evictions.value += 1
        self._c_prefetches.value += 1
        self._c_fills.value += 1

    def probe(self, line_addr):
        data = self._lines.pop(line_addr, None)
        if data is None:
            self._c_misses.value += 1
            return None
        self._c_hits.value += 1
        return data

    def probe_and_extend(self, line_addr, fetch):
        """Probe, and on a hit keep the stream going (site helper)."""
        data = self.probe(line_addr)
        if data is not None:
            self._prefetch(line_addr, fetch)
        return data

    def on_demand_fill(self, line_addr, data, fetch):
        self._prefetch(line_addr, fetch)

    def invalidate(self, line_addr):
        if self._lines.pop(line_addr, None) is not None:
            self._c_invalidations.value += 1

    def clear(self):
        self._lines.clear()

    def __len__(self):
        return len(self._lines)


class MechanismStack:
    """An ordered composition of mechanisms behind one probe.

    ``probe`` asks each mechanism in spec order and returns the first
    hit (also extending prefetch streams on a hit); fill/evict/
    invalidate/clear broadcast to every member. The stack itself keeps
    no line state, so composing mechanisms never changes any one
    mechanism's behaviour — only which of them answers first.
    """

    def __init__(self, mechanisms, spec):
        self.mechanisms = list(mechanisms)
        self.spec = spec

    def probe(self, line_addr, fetch):
        """First hit in spec order (extending prefetch streams on it)."""
        for mech in self.mechanisms:
            if type(mech) is NextLinePrefetch:
                data = mech.probe_and_extend(line_addr, fetch)
            else:
                data = mech.probe(line_addr)
                if data is not None and type(mech) is StreamBuffers:
                    mech.extend(fetch)
            if data is not None:
                return data
        return None

    def on_demand_fill(self, line_addr, data, fetch):
        """Broadcast a demand fill to every member."""
        for mech in self.mechanisms:
            mech.on_demand_fill(line_addr, data, fetch)

    def on_evict(self, line_addr, data):
        """Broadcast a clean eviction to every member."""
        for mech in self.mechanisms:
            mech.on_evict(line_addr, data)

    def invalidate(self, line_addr):
        """Drop the line from every member (it is going stale)."""
        for mech in self.mechanisms:
            mech.invalidate(line_addr)

    def clear(self):
        """Crash: every member loses its volatile contents."""
        for mech in self.mechanisms:
            mech.clear()

    def __len__(self):
        return sum(len(mech) for mech in self.mechanisms)

    def __repr__(self):
        return "MechanismStack(%s)" % self.spec


def _parse_int(text, what):
    try:
        value = int(text)
    except ValueError:
        raise ConfigError("%s: %r is not an integer" % (what, text)) \
            from None
    return value


def _make_victim(arg, policy, label):
    capacity = _parse_int(arg, "victim capacity") if arg else 32
    return VictimCache(capacity=capacity, policy=policy, label=label)


def _make_miss(arg, policy, label):
    capacity = _parse_int(arg, "miss-cache capacity") if arg else 16
    return MissCache(capacity=capacity, policy=policy, label=label)


def _make_stream(arg, policy, label):
    buffers, depth = 4, 4
    if arg:
        parts = arg.split("x")
        if len(parts) != 2:
            raise ConfigError(
                "stream spec wants BUFFERSxDEPTH, got %r" % (arg,))
        buffers = _parse_int(parts[0], "stream buffers")
        depth = _parse_int(parts[1], "stream depth")
    return StreamBuffers(buffers=buffers, depth=depth, label=label)


def _make_nextline(arg, policy, label):
    capacity = _parse_int(arg, "next-line capacity") if arg else 16
    return NextLinePrefetch(capacity=capacity, label=label)


#: The mechanism registry: spec name -> factory(arg, policy, label).
MECHANISMS = {
    "victim": _make_victim,
    "miss": _make_miss,
    "stream": _make_stream,
    "nextline": _make_nextline,
}


def mechanism_names():
    """Spec names of every registered mechanism, sorted."""
    return sorted(MECHANISMS)


def make_mechanisms(spec, policy="lru", label_prefix="mech"):
    """Build a :class:`MechanismStack` from a spec string.

    Grammar: ``name[:arg]`` terms joined with ``+``; e.g. ``"victim"``,
    ``"victim:64"``, ``"stream:4x8"``, ``"victim:32+nextline:16"``.
    ``None``, ``""`` and ``"none"`` mean no mechanisms and return None
    (the hierarchy/device then run the exact pre-zoo miss path).
    ``policy`` parameterizes the buffer-internal replacement of the
    mechanisms that have one (victim, miss).
    """
    if isinstance(spec, MechanismStack):
        return spec
    if spec is None or spec == "" or spec == "none":
        return None
    mechanisms = []
    for term in spec.split("+"):
        term = term.strip()
        if not term:
            raise ConfigError("empty mechanism term in spec %r" % (spec,))
        name, _sep, arg = term.partition(":")
        factory = MECHANISMS.get(name)
        if factory is None:
            raise ConfigError("unknown mechanism %r (have %s)"
                              % (name, ", ".join(mechanism_names())))
        mechanisms.append(
            factory(arg, policy, "%s.%s" % (label_prefix, name)))
    return MechanismStack(mechanisms, spec)
