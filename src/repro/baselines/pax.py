"""The PAX system behind the common backend interface.

Not a baseline — the contribution — but exposing it through
:class:`~repro.baselines.base.KvBackend` lets every benchmark and crash
test iterate over one backend list. ``persist()`` maps to the device group
commit; ``group_size`` (used by harnesses) controls how many operations
share one epoch, the knob paper §3.2 calls group commit.
"""

from repro.baselines.base import StructureBackend
from repro.errors import ConfigError
from repro.libpax.pool import PaxPool
from repro.structures.hashmap import HashMap


class PaxBackend(StructureBackend):
    """Hash table on vPM through the PAX accelerator."""

    name = "pax"
    durability = "per-persist"

    def __init__(self, pool_size=64 * 1024 * 1024, log_size=4 * 1024 * 1024,
                 capacity=1024, link="cxl", pax_config=None, **machine_kwargs):
        super().__init__()
        self.pool = PaxPool.map_pool(pool_size=pool_size, log_size=log_size,
                                     link=link, pax_config=pax_config,
                                     **machine_kwargs)
        self._map = self.pool.persistent(HashMap, capacity=capacity)

    @property
    def machine(self):
        return self.pool.machine

    def persist(self):
        """Group commit: crash-consistent snapshot of the pool."""
        return self.pool.persist()

    def restart(self):
        """Reboot; libpax recovery restores the last snapshot."""
        report = self.pool.restart()
        self._map = self.pool.reattach_root(HashMap)
        return report.records_rolled_back

    @property
    def committed_epoch(self):
        """Durable snapshot epoch."""
        return self.pool.committed_epoch

    @property
    def log_bytes(self):
        """Bytes of undo log written by the device (write-amp accounting)."""
        from repro.pm.log import ENTRY_SIZE
        return self.machine.device.undo.stats.get("drained") * ENTRY_SIZE


def backend_classes():
    """Every backend class, by short name."""
    from repro.baselines.autopass import AutopassBackend
    from repro.baselines.compiler_pass import CompilerPassBackend
    from repro.baselines.dram import DramBackend
    from repro.baselines.hybrid import HybridBackend
    from repro.baselines.mprotect import MprotectBackend
    from repro.baselines.pm_direct import PmDirectBackend
    from repro.baselines.pmdk import PmdkBackend
    from repro.baselines.redo import RedoBackend
    return {cls.name: cls for cls in (
        DramBackend, PmDirectBackend, PmdkBackend, RedoBackend,
        CompilerPassBackend, AutopassBackend, MprotectBackend, PaxBackend,
        HybridBackend)}


def make_backend(name, **kwargs):
    """Factory over every backend by short name."""
    classes = backend_classes()
    try:
        cls = classes[name]
    except KeyError:
        raise ConfigError("unknown backend %r (have %s)"
                          % (name, ", ".join(sorted(classes)))) from None
    return cls(**kwargs)
