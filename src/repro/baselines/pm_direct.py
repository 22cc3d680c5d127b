"""PM Direct — persistent memory with **no** crash consistency.

The "PM Direct" line in Figure 2b: the hash table lives on PM behind the
host memory controller, accessed like DRAM. Whatever dirty lines happen to
have been evicted are durable; everything else is lost, and a crash
mid-operation can leave the structure torn. This is the performance target
PAX aims to match while *adding* crash consistency (paper §5).

``persist()`` is a no-op by design — the scheme has no durability point.
An eADR variant (``eadr=True``) flushes caches on power loss, which makes
individual stores durable but still provides **no atomicity** across the
multiple stores of one operation; the crash tests demonstrate exactly that
distinction.
"""

from repro.baselines.base import StructureBackend
from repro.libpax.allocator import PmAllocator
from repro.libpax.machine import HostMachine


class PmDirectBackend(StructureBackend):
    """Hash table directly on PM; fast and unsafe."""

    name = "pm_direct"

    def __init__(self, heap_size=64 * 1024 * 1024, capacity=1024, eadr=False,
                 **machine_kwargs):
        super().__init__()
        self._machine = HostMachine(media="pm", heap_size=heap_size,
                                    **machine_kwargs)
        self._mem = self._machine.mem()
        self._alloc = PmAllocator.create(self._mem, heap_size)
        self._bind_structure(self._mem, self._alloc, capacity=capacity)
        self.eadr = eadr

    def crash(self):
        if self.eadr:
            # eADR: the power-fail domain includes the caches, so dirty
            # lines reach PM — but nothing makes multi-store operations
            # atomic.
            self._machine.hierarchy.flush_all()
        self._machine.crash()

    def restart(self):
        """Reboot and re-attach to whatever PM contains — possibly garbage.

        There is no recovery procedure; this models an application naively
        reopening its pool. Callers must treat the result as untrusted.
        """
        self._machine.restart()
        try:
            self._alloc = PmAllocator.attach(self._mem)
            self._reattach_structure(self._mem, self._alloc, self._map.root)
            return True
        except Exception:
            return False
