"""The device-side HBM cache of PM lines.

Paper §1/§5: load misses are "often served from an on-device
high-bandwidth memory cache of PM", which is how a PAX can approach DRAM
performance despite PM media latency. This is a simple LRU line cache:
associativity games buy nothing in a functional model, and the ablation
benchmark sweeps only capacity.

Coherence discipline: the HBM may only hold lines that match PM *or* are
about to be written to PM by the device itself. Lines granted to the host
in M state are invalidated here, and every device write-back refreshes the
mirror — so a hit is always the newest device-visible value.
"""

from collections import OrderedDict

from repro.errors import ProtocolError
from repro.util.constants import CACHE_LINE_SIZE
from repro.util.stats import StatGroup


class HbmCache:
    """LRU cache of ``capacity_lines`` PM lines (0 disables it)."""

    def __init__(self, capacity_lines):
        self.capacity_lines = capacity_lines
        self._lines = OrderedDict()
        #: Optional ``callback(pool_addr, data)`` fired for every LRU
        #: victim — the device hangs its miss-path mechanism capture
        #: here so victims can fall into a side buffer instead of
        #: vanishing (see repro.cache.mechanisms).
        self.on_evict = None
        self.stats = StatGroup("hbm")
        # Per-access counters bound once (hot-path-stat-lookup rule).
        self._c_hits = self.stats.counter("hits")
        self._c_misses = self.stats.counter("misses")
        self._c_evictions = self.stats.counter("evictions")
        self._c_invalidations = self.stats.counter("invalidations")

    @property
    def enabled(self):
        """False when configured with zero capacity (the ablation)."""
        return self.capacity_lines > 0

    def get(self, pool_addr):
        """Return cached line data or None; refreshes recency."""
        data = self._lines.get(pool_addr)
        if data is None:
            self._c_misses.value += 1
            return None
        self._lines.move_to_end(pool_addr)
        self._c_hits.value += 1
        return data

    def put(self, pool_addr, data):
        """Cache ``data`` for ``pool_addr`` (evicting LRU if full)."""
        if not self.enabled:
            return
        data = bytes(data)
        if len(data) != CACHE_LINE_SIZE:
            raise ProtocolError("HBM caches whole lines")
        self._lines[pool_addr] = data
        self._lines.move_to_end(pool_addr)
        if len(self._lines) > self.capacity_lines:
            victim_addr, victim_data = self._lines.popitem(last=False)
            self._c_evictions.value += 1
            if self.on_evict is not None:
                self.on_evict(victim_addr, victim_data)

    def peek(self, pool_addr):
        """Return cached data without touching recency or hit statistics."""
        return self._lines.get(pool_addr)

    def invalidate(self, pool_addr):
        """Drop the line (host took ownership; our copy may go stale)."""
        if self._lines.pop(pool_addr, None) is not None:
            self._c_invalidations.value += 1

    def clear(self):
        """HBM is volatile: a crash empties it."""
        self._lines.clear()

    def __len__(self):
        return len(self._lines)

    def __contains__(self, pool_addr):
        return pool_addr in self._lines
