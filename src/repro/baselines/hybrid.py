"""The paging + PAX hybrid (paper §5.1, "Combining with Paging").

The paper's proposal, verbatim: "the application could directly map PM
pages as read-only; on a write page fault, the page could be remapped at
read/write through addresses assigned to vPM, letting PAX track changes
to the page at cache line granularity."

The win: reads of pages that are not being written skip the device hop
entirely (host-attached PM latency, no CXL round trip), while writes keep
PAX's line-granularity logging and snapshot semantics — page faults cost
>1 µs but happen once per written page per epoch.

Simulation: the pool's PM device is visible at *two* physical ranges —
the vPM range homed at the PAX device, and a direct range homed at the
host memory controller. A per-page table routes each access:

* ``DIRECT`` (read-only): loads use the direct range; stores fault,
  invalidate the page's direct-range cached lines (they would go stale),
  flip the page to ``VPM``, and retry through the device.
* ``VPM`` (read-write): all accesses use the vPM range; the device logs
  and snapshots as usual.
* ``persist()`` commits the PAX snapshot, then remaps every written page
  back to ``DIRECT`` — safe because persist just made PM current, and no
  store can touch the page again without a fresh fault.

Aliasing discipline (why two cached copies of one PM line stay coherent):
writes only ever travel the vPM path, and only after the direct-path
copies of that page are invalidated; between a persist and the next
fault, the page is read-only everywhere, so both paths serve the same
committed bytes.
"""

from repro.baselines.base import StructureBackend
from repro.errors import ProtocolError
from repro.libpax.allocator import PmAllocator
from repro.libpax.machine import HEAP_PHYS_BASE
from repro.libpax.pool import PaxPool
from repro.cache.homes import HostHome
from repro.mem.accessor import MemoryAccessor
from repro.mem.address_space import AddressSpace
from repro.mem.page_table import PagePermission, PageTable
from repro.util.bitops import split_pages
from repro.util.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.util.stats import StatGroup

#: Physical base of the direct (host-homed, read-only) view of the pool.
DIRECT_BASE = 1 << 33


class _DirectReadOnlyHome(HostHome):
    """The host memory controller's view of the pool PM: reads only.

    A dirty write-back arriving here would mean the aliasing discipline
    broke — fail loudly instead of corrupting the pool.
    """

    def writeback(self, line_addr, data):
        raise ProtocolError(
            "dirty write-back 0x%x on the read-only direct PM path"
            % line_addr)


class HybridAccessor(MemoryAccessor):
    """Routes loads/stores between the direct and vPM views per page."""

    def __init__(self, machine, direct_view_base, core_id=0):
        self._machine = machine
        self._direct_base = direct_view_base
        self._core = core_id
        self._table = PageTable(0, machine.heap_size)
        self._table.protect_all(PagePermission.READ)
        self.stats = StatGroup("hybrid_accessor")
        # Per-chunk counters bound once (hot-path-stat-lookup rule).
        self._c_vpm_reads = self.stats.counter("vpm_reads")
        self._c_direct_reads = self.stats.counter("direct_reads")

    # -- page routing ---------------------------------------------------------

    def _is_vpm(self, page):
        return self._table.is_writable(page)

    def _fault(self, page):
        """First store to a DIRECT page this epoch: remap it into vPM."""
        machine = self._machine
        machine.clock.advance(machine.latency.software.page_fault_ns)
        machine.clock.advance(machine.latency.software.syscall_ns)
        # The direct-path cached copies of this page are about to go
        # stale; drop them (TLB-shootdown-style invalidation).
        for line in range(page, page + PAGE_SIZE, CACHE_LINE_SIZE):
            machine.hierarchy.snoop_invalidate(self._direct_base + line)
        self._table.protect(page, PAGE_SIZE, PagePermission.READ_WRITE)
        self.stats.counter("write_faults").add(1)

    def remap_all_direct(self):
        """After persist(): every page returns to the direct read path."""
        remapped = len(self._table.dirty_pages())
        self._table.clear_dirty()
        self._table.protect_all(PagePermission.READ)
        self.stats.counter("remap_sweeps").add(1)
        return remapped

    # -- data path ----------------------------------------------------------------

    def read(self, addr, length):
        if self._machine.crashed:
            self._machine.check_alive()
        out = bytearray()
        for page, offset, chunk in split_pages(addr, length):
            if self._is_vpm(page):
                base = HEAP_PHYS_BASE
                self._c_vpm_reads.value += 1
            else:
                base = self._direct_base
                self._c_direct_reads.value += 1
            out += self._machine.hierarchy.load(self._core,
                                                base + page + offset, chunk)
        return bytes(out)

    def write(self, addr, data):
        if self._machine.crashed:
            self._machine.check_alive()
        data = bytes(data)
        if self._machine.store_hook is not None:
            self._machine.store_hook(addr, data)
        cursor = 0
        for page, offset, chunk in split_pages(addr, len(data)):
            if not self._is_vpm(page):
                self._fault(page)
            self._table.mark_dirty(page)
            self._machine.hierarchy.store(
                self._core, HEAP_PHYS_BASE + page + offset,
                data[cursor:cursor + chunk])
            cursor += chunk


class HybridBackend(StructureBackend):
    """Hash table on the paging+PAX hybrid."""

    name = "hybrid"
    durability = "per-persist"
    # A write fault charges trap latency and invalidates the page's
    # direct-path lines outside the recorded seams, so a replay would
    # not take it.
    recordable = False

    def __init__(self, pool_size=64 * 1024 * 1024, log_size=4 * 1024 * 1024,
                 capacity=1024, link="cxl", pax_config=None,
                 **machine_kwargs):
        super().__init__()
        self.pool = PaxPool.map_pool(pool_size=pool_size, log_size=log_size,
                                     link=link, pax_config=pax_config,
                                     **machine_kwargs)
        machine = self.pool.machine
        self._add_direct_home()
        self._direct_view_base = DIRECT_BASE + machine.pool.data_base
        self._mem = HybridAccessor(machine, self._direct_view_base)
        # Rebind pool plumbing to the hybrid accessor.
        self._alloc = PmAllocator.create_or_attach(self._mem,
                                                   machine.heap_size)
        root = machine.pool.root_ptr
        if root:
            self._reattach_structure(self._mem, self._alloc, root)
        else:
            self._bind_structure(self._mem, self._alloc, capacity=capacity)
            self.persist()
            machine.pool.root_ptr = self._map.root

    @property
    def machine(self):
        return self.pool.machine

    def _add_direct_home(self):
        """Expose the pool PM at a second, host-homed physical range."""
        machine = self.pool.machine
        direct_space = AddressSpace()
        direct_space.map_device(DIRECT_BASE, machine.pm)
        lat = machine.latency
        home = _DirectReadOnlyHome("pm_direct_view", direct_space,
                                   lat.media.pm_read_ns,
                                   lat.media.pm_write_ns)
        machine.hierarchy.add_home(DIRECT_BASE, machine.pm.size, home)

    def persist(self):
        """PAX snapshot, then flip every written page back to direct."""
        latency = self.pool.persist()
        self._mem.remap_all_direct()
        return latency

    def restart(self):
        """Reboot: standard PAX recovery; all pages reopen as direct."""
        report = self.pool.restart()
        machine = self.pool.machine
        # The rebooted hierarchy needs the direct home registered again.
        self._add_direct_home()
        self._mem = HybridAccessor(machine, self._direct_view_base)
        self._alloc = PmAllocator.attach(self._mem)
        self._reattach_structure(self._mem, self._alloc,
                                 machine.pool.root_ptr)
        return report.records_rolled_back

    @property
    def fault_count(self):
        """Write faults taken (per written page per epoch)."""
        return self._mem.stats.get("write_faults")

    @property
    def log_bytes(self):
        """Device undo-log bytes (same accounting as PaxBackend)."""
        from repro.pm.log import ENTRY_SIZE
        return self.machine.device.undo.stats.get("drained") * ENTRY_SIZE
