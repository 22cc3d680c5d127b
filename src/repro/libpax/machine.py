"""Simulated machines: CPU + caches + interconnect + memory/device.

Two machine shapes cover every configuration in the paper's evaluation:

* :class:`PaxMachine` — host cores in front of a coherent hierarchy whose
  vPM range is homed at a :class:`~repro.core.device.PaxDevice` across a
  CXL (or Enzian) link. This is "PM via CXL/Enzian" in Figure 2a and the
  PAX rows everywhere else.
* :class:`HostMachine` — the same hierarchy with a plain host-attached
  medium (DRAM, or PM behind the host memory controller). These are the
  "DRAM" and "PM Direct" configurations, and the substrate under the
  PMDK / mprotect / compiler-pass baselines.

Both expose *structure space*: data structures address bytes in
``[0, heap_size)`` (0 = NULL) through a :class:`CpuAccessor`, and the
machine maps that onto physical addresses. Structure space is what makes
the same structure code run on every machine — the reproduction of the
paper's black-box reuse property.
"""

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.homes import Home, HostHome
from repro.core.device import PaxDevice
from repro.core.recovery import recover_pool
from repro.cxl.link import CxlLink
from repro.cxl.lossy import LossyLink
from repro.cxl.port import DevicePort, HostSnoopPort, MemDevicePort
from repro.errors import ConfigError, CrashedError
from repro.mem.accessor import MemoryAccessor
from repro.mem.address_space import AddressSpace
from repro.mem.physical import DramDevice
from repro.pm.device import PmDevice
from repro.pm.pool import Pool
from repro.sim.bandwidth import BandwidthLimiter
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng
from repro.sim.latency import default_model
from repro.util.stats import StatGroup

#: Fixed physical base where every machine maps its heap/vPM region.
#: Fixed (like a DAX mapping at a hint address) so that pointers stored in
#: a pool remain valid across restarts.
HEAP_PHYS_BASE = 1 << 32


class CpuAccessor(MemoryAccessor):
    """Loads/stores issued by one core, translated into the hierarchy.

    Addresses are structure-space offsets; the accessor adds the machine's
    physical base. Every access goes through the coherent cache hierarchy
    and charges simulated time.
    """

    def __init__(self, machine, core_id=0):
        if not 0 <= core_id < machine.hierarchy.num_cores:
            raise ConfigError("machine has no core %d" % core_id)
        self._machine = machine
        self._core = core_id

    def read(self, addr, length):
        machine = self._machine
        # check_alive() only on the rare crashed machine: a live access
        # pays one attribute test, no call. The hierarchy is read per
        # access because restart() rebuilds it.
        if machine.crashed:
            machine.check_alive()
        return machine.hierarchy.load(self._core, addr + HEAP_PHYS_BASE,
                                      length)

    def write(self, addr, data):
        machine = self._machine
        if machine.crashed:
            machine.check_alive()
        if machine.store_hook is not None:
            machine.store_hook(addr, data)
        machine.hierarchy.store(self._core, addr + HEAP_PHYS_BASE, data)


class PaxHome(Home):
    """The cache hierarchy's view of the PAX device, across the link.

    Never grants E: the device must observe the first store to every line
    (paper §3.2) — a silent E->M upgrade would skip undo logging.
    """

    grants_exclusive = False

    def __init__(self, port):
        self._port = port

    def acquire(self, line_addr, exclusive, need_data):
        if exclusive:
            return self._port.read_own(line_addr, need_data)
        return self._port.read_shared(line_addr)

    def writeback(self, line_addr, data):
        return self._port.evict_dirty(line_addr, data)


class PaxMemHome(Home):
    """The hierarchy's view of a CXL.mem-mode PAX device (paper §6).

    The device is plain memory to the coherence protocol: E grants are
    host-internal (silent E->M is fine — the device logs at write-back,
    not at ownership), upgrades never reach the device, and there is no
    snoop channel back.
    """

    grants_exclusive = True

    def __init__(self, port):
        self._port = port

    def acquire(self, line_addr, exclusive, need_data):
        if not need_data:
            # Host-internal permission change; the device never hears it.
            return None, 0.0
        return self._port.read_line(line_addr)

    def writeback(self, line_addr, data):
        return self._port.write_line(line_addr, data)


class _BaseMachine:
    """State shared by both machine shapes."""

    def __init__(self, latency=None, num_cores=1, clock=None,
                 l1_config=None, l2_config=None, llc_config=None,
                 mechanisms=None, mech_policy="lru"):
        self.latency = (latency or default_model()).validate()
        self.clock = clock or SimClock()
        self._cache_kwargs = dict(num_cores=num_cores, l1_config=l1_config,
                                  l2_config=l2_config, llc_config=llc_config,
                                  mechanisms=mechanisms,
                                  mech_policy=mech_policy)
        self.hierarchy = self._fresh_hierarchy()
        self.crashed = False
        #: Optional callable invoked before every CPU store (crash-point
        #: injection; see :mod:`repro.crashtest.injector`).
        self.store_hook = None
        #: Optional :class:`~repro.sanitizer.base.Tracer` observing the
        #: machine's persist-relevant events (see attach_tracer).
        self.tracer = None
        self.stats = StatGroup(type(self).__name__)

    def _fresh_hierarchy(self):
        return CacheHierarchy(self.clock, self.latency, **self._cache_kwargs)

    def attach_tracer(self, tracer):
        """Wire ``tracer`` into every instrumented component.

        The wiring survives :meth:`restart` — components that are rebuilt
        on reboot (the hierarchy, and on :class:`PaxMachine` the device)
        are re-propagated to before ``on_machine_restart`` fires.
        """
        self.tracer = tracer
        self._propagate_tracer()

    def _propagate_tracer(self):
        """Push the tracer into components (rebuilt ones included)."""
        self.hierarchy.tracer = self.tracer

    def check_alive(self):
        if self.crashed:
            raise CrashedError(
                "machine has crashed; call restart() before further access")

    def mem(self, core_id=0):
        """A :class:`CpuAccessor` for structure space on ``core_id``."""
        return CpuAccessor(self, core_id)

    @property
    def now_ns(self):
        """Current simulated time."""
        return self.clock.now_ns


class PaxMachine(_BaseMachine):
    """Host CPU + coherent caches + CXL/Enzian link + PAX device + PM pool."""

    PROTOCOLS = ("cxl.cache", "cxl.mem")

    def __init__(self, pool_size=64 * 1024 * 1024, log_size=4 * 1024 * 1024,
                 backing_path=None, link="cxl", pax_config=None,
                 protocol="cxl.cache", latency=None, num_cores=1, clock=None,
                 l1_config=None, l2_config=None, llc_config=None,
                 pm_device=None, link_faults=None,
                 mechanisms=None, mech_policy="lru"):
        super().__init__(latency=latency, num_cores=num_cores, clock=clock,
                         l1_config=l1_config, l2_config=l2_config,
                         llc_config=llc_config, mechanisms=mechanisms,
                         mech_policy=mech_policy)
        if protocol not in self.PROTOCOLS:
            raise ConfigError("protocol must be one of %r" % (self.PROTOCOLS,))
        self.protocol = protocol
        self.link_name = link
        self._link_faults = link_faults.validate() if link_faults else None
        # One rng for the machine's lifetime: a restart rebuilds the link
        # wrapper but must not replay the identical drop sequence.
        self._link_rng = (DeterministicRng(link_faults.seed)
                          if link_faults else None)
        self._pax_config = pax_config
        # ``pm_device`` lets a machine adopt an existing PM device — the
        # replication failover path brings a replica's device online.
        self.pm = pm_device or PmDevice("pm0", pool_size,
                                        backing_path=backing_path)
        self.pool = Pool.open_or_format(self.pm, log_size=log_size)
        # Recovery runs before anything touches the pool (paper §3.4); on
        # a fresh pool it is a no-op (and charges zero simulated time).
        self.recovery_report = self._recover(deadline_ns=None)
        self._bring_up_device()

    def _recover(self, deadline_ns):
        """Timed recovery: scan/rollback costs charge the machine clock."""
        return recover_pool(self.pool, clock=self.clock,
                            scan_ns=self.latency.media.pm_read_ns,
                            write_ns=self.latency.media.pm_write_ns,
                            deadline_ns=deadline_ns)

    def _bring_up_device(self):
        self.device = PaxDevice(self.pool, self.latency,
                                config=self._pax_config,
                                vpm_base=HEAP_PHYS_BASE)
        self.link = CxlLink.from_model(self.link_name, self.clock, self.latency)
        if self._link_faults is not None:
            self.link = LossyLink(self.link, self._link_faults,
                                  rng=self._link_rng)
        if self.protocol == "cxl.mem":
            self.port = MemDevicePort(self.link, self.device)
            self.snoop_port = None       # CXL.mem has no snoop channel
            home = PaxMemHome(self.port)
        else:
            self.port = DevicePort(self.link, self.device)
            self.snoop_port = HostSnoopPort(self.link, self.hierarchy)
            home = PaxHome(self.port)
        self.hierarchy.add_home(HEAP_PHYS_BASE, self.pool.data_size, home)
        self._tick = self.device.attach_clock(self.clock)

    def _propagate_tracer(self):
        super()._propagate_tracer()
        self.pm.tracer = self.tracer
        self.pool.tracer = self.tracer
        self.device.undo.tracer = self.tracer
        self.link.tracer = self.tracer

    @property
    def heap_size(self):
        """Bytes of structure space available."""
        return self.pool.data_size

    def persist(self):
        """Commit a crash-consistent snapshot (Listing 1, line 6).

        Blocks the calling thread for the full group-commit latency and
        returns that latency in nanoseconds.
        """
        self.check_alive()
        tracer = self.tracer
        start_ns = self.clock.now_ns if tracer is not None else 0
        if self.protocol == "cxl.mem":
            latency = self._persist_mem()
        else:
            latency = self.device.persist(self.snoop_port, clock=self.clock)
        if tracer is not None:
            # current_epoch (a plain attribute) rather than the pool's
            # committed_epoch property: the latter issues device reads,
            # which would perturb counters relative to an untraced run.
            tracer.on_span("epoch-commit", "persist", start_ns, latency,
                           {"epoch": self.device.epochs.current_epoch - 1})
        self.stats.counter("persists").add(1)
        return latency

    def _persist_mem(self):
        """CXL.mem persist: the *host* must flush its dirty vPM lines.

        Without a device snoop channel (paper §6: CXL.mem "does not have
        as much visibility into coherence as CXL.cache"), the library
        issues CLWB per dirty line — the serialized, cycle-consuming path
        the paper's CXL.cache design avoids — then tells the device to
        drain and commit.
        """
        start = self.clock.now_ns
        for line in self.hierarchy.dirty_lines():
            self.clock.advance(self.latency.software.clwb_ns)
            self.hierarchy.writeback_line(line)    # charges MemWr + link
        self.clock.advance(self.latency.software.sfence_ns)
        self.device.persist(None, clock=self.clock)
        return self.clock.now_ns - start

    def persist_async(self):
        """Pipelined persist (paper §6 extension): block only for snoops.

        Returns the in-flight epoch handle; ``handle.committed`` flips as
        background draining completes (simulated time must pass — any
        further accesses, or :meth:`persist_barrier`, provide it).
        """
        self.check_alive()
        if self.protocol == "cxl.mem":
            raise ConfigError(
                "pipelined persist needs the CXL.cache snoop channel; "
                "CXL.mem mode supports blocking persist() only")
        flight, _blocking_ns = self.device.persist_async(
            self.snoop_port, clock=self.clock)
        self.stats.counter("persist_asyncs").add(1)
        return flight

    def persist_barrier(self):
        """Wait (in simulated time) until every in-flight epoch commits."""
        self.check_alive()
        forced_ns = self.device.pipeline.complete_all()
        if forced_ns:
            self.clock.advance(forced_ns)
        return forced_ns

    def crash(self):
        """Power failure: lose every volatile byte (caches, device SRAM)."""
        if self.tracer is not None:
            self.tracer.on_machine_crash()
        self.hierarchy.drop_all()
        self.device.on_crash()
        self.device.detach_clock(self._tick)
        self.crashed = True
        self.stats.counter("crashes").add(1)

    def restart(self, recovery_deadline_ns=None):
        """Reboot after a crash: recover the pool, rebuild volatile state.

        Returns the :class:`~repro.core.recovery.RecoveryReport`; its
        ``elapsed_ns`` is the simulated time recovery charged. With
        ``recovery_deadline_ns``, a recovery that blows the budget raises
        :class:`~repro.errors.RecoveryTimeout` — after the pool is
        consistent, but before volatile state is rebuilt, so the machine
        is still ``crashed`` and a deadline-free ``restart()`` retry
        finishes bring-up (idempotent: the log was already reset).
        """
        if not self.crashed:
            raise CrashedError("restart() is only valid after crash()")
        # A fresh hierarchy models the rebooted host.
        self.hierarchy = self._fresh_hierarchy()
        self.recovery_report = self._recover(deadline_ns=recovery_deadline_ns)
        self._bring_up_device()
        self.crashed = False
        self._propagate_tracer()
        if self.tracer is not None:
            self.tracer.on_machine_restart()
        self.stats.counter("restarts").add(1)
        return self.recovery_report

    def close(self):
        """Flush the pool to its backing file (if any)."""
        self.pool.sync()


class HostMachine(_BaseMachine):
    """Host CPU + caches over host-attached DRAM or PM (no accelerator)."""

    MEDIA = ("dram", "pm")

    def __init__(self, media="dram", heap_size=64 * 1024 * 1024,
                 latency=None, num_cores=1, clock=None, share_bandwidth=True,
                 l1_config=None, l2_config=None, llc_config=None,
                 mechanisms=None, mech_policy="lru"):
        super().__init__(latency=latency, num_cores=num_cores, clock=clock,
                         l1_config=l1_config, l2_config=l2_config,
                         llc_config=llc_config, mechanisms=mechanisms,
                         mech_policy=mech_policy)
        if media not in self.MEDIA:
            raise ConfigError("media must be one of %r" % (self.MEDIA,))
        self.media = media
        self.space = AddressSpace()
        if media == "dram":
            self.memory = DramDevice("dram0", heap_size)
            read_ns = write_ns = self.latency.media.dram_ns
            read_bps = write_bps = self.latency.bandwidth.dram_bps
        else:
            self.memory = PmDevice("pm0", heap_size)
            read_ns = self.latency.media.pm_read_ns
            write_ns = self.latency.media.pm_write_ns
            read_bps = self.latency.bandwidth.pm_read_bps
            write_bps = self.latency.bandwidth.pm_write_bps
        self.space.map_device(HEAP_PHYS_BASE, self.memory)
        read_limiter = (BandwidthLimiter("media.read", self.clock, read_bps)
                        if share_bandwidth else None)
        write_limiter = (BandwidthLimiter("media.write", self.clock, write_bps)
                         if share_bandwidth else None)
        self.home = HostHome(media, self.space, read_ns, write_ns,
                             read_limiter=read_limiter,
                             write_limiter=write_limiter)
        self.hierarchy.add_home(HEAP_PHYS_BASE, heap_size, self.home)
        self.heap_size = heap_size

    def crash(self):
        """Power failure: caches are lost; PM keeps what reached it."""
        if self.tracer is not None:
            self.tracer.on_machine_crash()
        self.hierarchy.drop_all()
        if self.media == "dram":
            self.memory.on_crash()
        self.crashed = True
        self.stats.counter("crashes").add(1)

    def restart(self):
        """Reboot: fresh caches over whatever the medium retained."""
        self.hierarchy = self._fresh_hierarchy()
        self.hierarchy.add_home(HEAP_PHYS_BASE, self.heap_size, self.home)
        self.crashed = False
        self._propagate_tracer()
        if self.tracer is not None:
            self.tracer.on_machine_restart()
        self.stats.counter("restarts").add(1)
