"""Common interface for every key-value backend under test.

Each backend binds the *same* :class:`~repro.structures.hashmap.HashMap`
code to a different machine/accessor combination, reproducing the paper's
comparison set:

================  ============================================================
``dram``          volatile hash table in DRAM (Fig 2b upper bound)
``pm_direct``     hash table on PM, no crash consistency (Fig 2b middle)
``pmdk``          hand-crafted synchronous undo WAL (Fig 2b lower; paper §2)
``redo``          redo-log WAL variant
``compiler``      compiler-injected per-store logging (Atlas/iDO style)
``autopass``      undo WAL behind gates placed by the staticcheck fixer
``mprotect``      page-fault interposition at 4 KiB granularity [12,15,20]
``pax``           the contribution (vPM through the accelerator)
``hybrid``        paging + PAX: direct reads, vPM writes (paper §5.1)
================  ============================================================

A backend exposes ``put/get/remove`` plus ``persist()`` (group-commit
point; meaning varies per scheme), crash/restart hooks for the crash
tests, and its machine so harnesses can read the simulated clock.
"""

from repro.structures.hashmap import HashMap
from repro.util.stats import StatGroup


class KvBackend:
    """Interface implemented by every backend."""

    #: Short name used in benchmark tables.
    name = "abstract"
    #: The crash contract: ``"per-op"`` (every completed operation
    #: survives a crash), ``"per-persist"`` (a crash recovers the state
    #: of the last ``persist()``) or ``"none"``.
    durability = "none"
    #: Whether :mod:`repro.replay` can record this backend: every
    #: simulated effect of an operation must pass through a recorded
    #: machine seam. A backend whose accessor acts on the machine outside
    #: those seams (a page-fault handler charging trap latency to the
    #: clock) declares ``False``, and the recorder refuses it.
    recordable = True

    def __init__(self):
        self.stats = StatGroup(self.name)

    # -- data path -----------------------------------------------------------

    def put(self, key, value):
        """Insert or update one pair."""
        raise NotImplementedError

    def get(self, key, default=None):
        """Point lookup."""
        raise NotImplementedError

    def remove(self, key):
        """Delete one key."""
        raise NotImplementedError

    def persist(self):
        """Reach a durability point (no-op where meaningless)."""

    def __len__(self):
        raise NotImplementedError

    # -- simulation hooks --------------------------------------------------------

    @property
    def machine(self):
        """The simulated machine (for clocks and stats)."""
        raise NotImplementedError

    @property
    def now_ns(self):
        """Simulated time on this backend's machine."""
        return self.machine.clock.now_ns

    def crash(self):
        """Simulate power loss."""
        self.machine.crash()

    def restart(self):
        """Reboot and run whatever recovery the scheme defines."""
        raise NotImplementedError

    def to_dict(self):
        """Materialize contents for verification."""
        raise NotImplementedError

    # -- trace replay (repro.replay) ---------------------------------------

    def replay_structure_stats(self):
        """Stat groups the structure layer increments *directly*.

        Trace replay (:mod:`repro.replay`) re-executes everything below
        the recorded seams — hierarchy loads/stores, WAL appends, flush,
        ``persist()`` — so those counters must match by re-execution.
        Counters the structure layer bumps itself (op counts, allocator
        traffic) never run during replay; their deltas travel in the
        trace footer under these keys. Subclasses that add structure-side
        accounting must extend this map.
        """
        groups = {"backend.stats": self.stats}
        alloc = getattr(getattr(self, "_map", None), "_alloc", None)
        stats = getattr(alloc, "stats", None)
        if stats is not None:
            groups["backend.allocator.stats"] = stats
        return groups


class StructureBackend(KvBackend):
    """A backend whose data path is a HashMap over some accessor.

    Subclasses build the machine and accessor, then call
    :meth:`_bind_structure`; the hash-map code itself is shared —
    the black-box reuse property in action.
    """

    def __init__(self):
        super().__init__()
        self._map = None
        # Per-operation counters bound once (hot-path-stat-lookup rule).
        self._c_puts = self.stats.counter("puts")
        self._c_gets = self.stats.counter("gets")
        self._c_removes = self.stats.counter("removes")

    @property
    def machine(self):
        return self._machine

    def _bind_structure(self, mem, allocator, capacity=1024):
        self._map = HashMap.create(mem, allocator, capacity=capacity)

    def _reattach_structure(self, mem, allocator, root):
        self._map = HashMap.attach(mem, allocator, root)

    def put(self, key, value):
        self._c_puts.value += 1
        return self._map.put(key, value)

    def get(self, key, default=None):
        self._c_gets.value += 1
        return self._map.get(key, default)

    def remove(self, key):
        self._c_removes.value += 1
        return self._map.remove(key)

    def __len__(self):
        return len(self._map)

    def items(self):
        """Yield ``(key, value)`` pairs (verification/integrity checks)."""
        return self._map.items()

    def to_dict(self):
        return self._map.to_dict()

    @property
    def root(self):
        """Structure-space offset of the hash map header."""
        return self._map.root
