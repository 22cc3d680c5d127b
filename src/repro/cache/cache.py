"""A set-associative cache array.

Stores :class:`~repro.cache.line.CacheLine` objects; no coherence state
(see :mod:`repro.cache.coherence`) and no timing (the hierarchy charges
latency). Evictions are returned to the caller, which decides where the
victim goes (next level, home, or nowhere).
"""

from dataclasses import dataclass

from repro.cache.replacement import make_policy
from repro.errors import ConfigError
from repro.util.constants import CACHE_LINE_SIZE, is_power_of_two
from repro.util.stats import StatGroup

#: log2(line size), hoisted so set indexing is a shift, not a division.
_LINE_SHIFT = CACHE_LINE_SIZE.bit_length() - 1


@dataclass
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    ways: int
    policy: str = "lru"

    @property
    def num_sets(self):
        """Number of sets this geometry yields."""
        return self.size_bytes // (self.ways * CACHE_LINE_SIZE)

    def validate(self, name):
        """Raise :class:`ConfigError` on an impossible geometry."""
        if self.size_bytes <= 0 or self.ways <= 0:
            raise ConfigError("%s: size and ways must be positive" % name)
        if self.size_bytes % (self.ways * CACHE_LINE_SIZE) != 0:
            raise ConfigError("%s: size must divide into ways x lines" % name)
        if not is_power_of_two(self.num_sets):
            raise ConfigError("%s: number of sets must be a power of two" % name)
        return self


class SetAssociativeCache:
    """A data array of ``num_sets`` sets, each holding up to ``ways`` lines."""

    def __init__(self, name, config):
        config.validate(name)
        self.name = name
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._sets = [dict() for _ in range(self.num_sets)]
        self._policies = [make_policy(config.policy) for _ in range(self.num_sets)]
        self._set_mask = self.num_sets - 1
        self.stats = StatGroup(name)
        # Per-access counters bound once (hot-path-stat-lookup rule).
        self._c_hits = self.stats.counter("hits")
        self._c_misses = self.stats.counter("misses")
        self._c_evictions = self.stats.counter("evictions")
        self._c_invalidations = self.stats.counter("invalidations")

    def _index(self, line_addr):
        return (line_addr >> _LINE_SHIFT) & self._set_mask

    def lookup(self, line_addr):
        """Return the resident line (refreshing recency) or None."""
        index = (line_addr >> _LINE_SHIFT) & self._set_mask
        line = self._sets[index].get(line_addr)
        if line is not None:
            self._policies[index].on_access(line_addr)
            self._c_hits.value += 1
        else:
            self._c_misses.value += 1
        return line

    def peek(self, line_addr):
        """Return the resident line without touching recency or stats."""
        return self._sets[(line_addr >> _LINE_SHIFT) & self._set_mask] \
            .get(line_addr)

    def insert(self, line):
        """Insert ``line``; return the evicted victim line or None.

        If the line address is already resident, its entry is replaced in
        place (data merged by the caller beforehand) and nothing is
        evicted.
        """
        index = (line.addr >> _LINE_SHIFT) & self._set_mask
        bucket = self._sets[index]
        policy = self._policies[index]
        victim = None
        if line.addr in bucket:
            policy.on_access(line.addr)
        else:
            if len(bucket) >= self.ways:
                victim_addr = policy.victim()
                victim = bucket.pop(victim_addr)
                policy.on_remove(victim_addr)
                self._c_evictions.value += 1
            policy.on_insert(line.addr)
        bucket[line.addr] = line
        return victim

    def remove(self, line_addr):
        """Remove and return the line (None if absent)."""
        index = (line_addr >> _LINE_SHIFT) & self._set_mask
        line = self._sets[index].pop(line_addr, None)
        if line is not None:
            self._policies[index].on_remove(line_addr)
            self._c_invalidations.value += 1
        return line

    def clear(self):
        """Drop every line (crash / reset)."""
        for index in range(self.num_sets):
            self._sets[index].clear()
            self._policies[index] = make_policy(self.config.policy)

    def lines(self):
        """Iterate over all resident lines (no recency effect)."""
        for bucket in self._sets:
            yield from bucket.values()

    def __len__(self):
        return sum(len(bucket) for bucket in self._sets)

    def __contains__(self, line_addr):
        return self.peek(line_addr) is not None

    def __repr__(self):
        return "SetAssociativeCache(%s, %d/%d lines)" % (
            self.name, len(self), self.num_sets * self.ways)
