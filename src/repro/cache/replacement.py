"""Replacement policies for set-associative caches.

Each cache *set* owns one policy instance. The policy sees accesses,
insertions, and removals by line address and nominates a victim when the
set is full. LRU is the default everywhere; FIFO and Random exist for the
ablation benchmarks and as sanity baselines.
"""

from collections import OrderedDict, deque

from repro.errors import ConfigError
from repro.sim.rng import DeterministicRng


class ReplacementPolicy:
    """Interface implemented by every policy."""

    def on_access(self, addr):
        """A lookup hit ``addr``."""

    def on_insert(self, addr):
        """``addr`` was inserted into the set."""

    def on_remove(self, addr):
        """``addr`` left the set (eviction or invalidation)."""

    def victim(self):
        """Return the address the set should evict next."""
        raise NotImplementedError


class LruPolicy(ReplacementPolicy):
    """Least recently used."""

    def __init__(self):
        self._order = OrderedDict()

    def on_access(self, addr):
        # Hit path: the address is almost always present, so try/except
        # beats a membership probe before every move_to_end.
        try:
            self._order.move_to_end(addr)
        except KeyError:
            pass

    def on_insert(self, addr):
        # A fresh key already lands at the most-recent end; only a key
        # inserted twice needs moving.
        order = self._order
        if addr in order:
            order.move_to_end(addr)
        else:
            order[addr] = True

    def on_remove(self, addr):
        self._order.pop(addr, None)

    def victim(self):
        if not self._order:
            raise ConfigError("victim requested from an empty set")
        return next(iter(self._order))


class FifoPolicy(ReplacementPolicy):
    """First in, first out; accesses do not refresh position."""

    def __init__(self):
        self._queue = deque()

    def on_insert(self, addr):
        self._queue.append(addr)

    def on_remove(self, addr):
        try:
            self._queue.remove(addr)
        except ValueError:
            pass

    def victim(self):
        if not self._queue:
            raise ConfigError("victim requested from an empty set")
        return self._queue[0]


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim (deterministic via the shared RNG)."""

    def __init__(self, rng=None):
        self._members = []
        self._rng = rng or DeterministicRng(7)

    def on_insert(self, addr):
        self._members.append(addr)

    def on_remove(self, addr):
        try:
            self._members.remove(addr)
        except ValueError:
            pass

    def victim(self):
        if not self._members:
            raise ConfigError("victim requested from an empty set")
        return self._rng.choice(self._members)


_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
}


def make_policy(name):
    """Factory: return a fresh policy instance by name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ConfigError("unknown replacement policy %r" % (name,)) from None
