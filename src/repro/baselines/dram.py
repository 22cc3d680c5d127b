"""The volatile DRAM backend — Figure 2's performance upper bound.

A hash table in DRAM behind the normal cache hierarchy. Fast, and loses
everything on a crash; it exists to anchor the top of the throughput
curves and the bottom of the AMAT bars.
"""

from repro.baselines.base import StructureBackend
from repro.libpax.allocator import PmAllocator
from repro.libpax.machine import HostMachine


class DramBackend(StructureBackend):
    """Volatile hash table in DRAM."""

    name = "dram"

    def __init__(self, heap_size=64 * 1024 * 1024, capacity=1024, **machine_kwargs):
        super().__init__()
        self._machine = HostMachine(media="dram", heap_size=heap_size,
                                    **machine_kwargs)
        self._mem = self._machine.mem()
        self._alloc = PmAllocator.create(self._mem, heap_size)
        self._bind_structure(self._mem, self._alloc, capacity=capacity)
        self._capacity = capacity

    def restart(self):
        """Reboot: DRAM is empty; start over with a fresh table."""
        self._machine.restart()
        self._alloc = PmAllocator.create(self._mem, self._machine.heap_size)
        self._bind_structure(self._mem, self._alloc, capacity=self._capacity)
