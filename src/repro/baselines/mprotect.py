"""The page-fault interposition baseline (paper §1, refs [12, 15, 20]).

The persistent region is mapped read-only at the start of each epoch; the
first store to a page traps (>1 µs on modern x86 — the paper's number),
the fault handler logs the *whole 4 KiB page's* old contents, the page is
remapped read-write, and execution continues. ``persist()`` flushes the
dirty pages, publishes the epoch, and re-protects everything.

This gives the same snapshot semantics as PAX with unmodified structure
code — and the two costs the paper hammers on: trap latency on every
first-touch, and 64x write amplification in the log (4 KiB per page vs
96 B per line).
"""

import functools
import struct
import weakref
from zlib import crc32

from repro.baselines.base import StructureBackend
from repro.baselines.wal import DurableCells
from repro.errors import LogError
from repro.libpax.allocator import PmAllocator
from repro.libpax.machine import HEAP_PHYS_BASE, HostMachine
from repro.mem.page_table import FaultingAccessor, PagePermission, PageTable
from repro.pm.flush import FlushModel
from repro.util.bitops import align_down
from repro.util.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.util.stats import StatGroup

PAGE_ENTRY_MAGIC = 0x50474C47          # "PGLG"
PAGE_ENTRY_HEADER = 64
PAGE_ENTRY_SIZE = PAGE_ENTRY_HEADER + PAGE_SIZE

_HEADER = struct.Struct("<IIQQI")       # magic, pad, epoch, addr, crc


class _PageLogLayout:
    """Reserved offsets at the top of the heap for the page log."""

    def __init__(self, heap_size, log_pages):
        self.root_cell = heap_size - CACHE_LINE_SIZE
        self.commit_cell = heap_size - 2 * CACHE_LINE_SIZE
        self.log_base = align_down(
            self.commit_cell - log_pages * PAGE_ENTRY_SIZE, PAGE_SIZE)
        self.log_size = self.commit_cell - self.log_base
        self.arena_limit = self.log_base
        if self.arena_limit < 2 * PAGE_SIZE:
            raise LogError("heap too small for a %d-page log" % log_pages)


class PageLog:
    """Undo log of whole pages, written directly to PM."""

    def __init__(self, machine, layout):
        self._space = machine.space
        self._layout = layout
        self.write_offset = 0
        self.stats = StatGroup("page_log")

    def append(self, epoch, page_addr, old_page):
        """Durably log one page's pre-image."""
        if self.write_offset + PAGE_ENTRY_SIZE > self._layout.log_size:
            raise LogError("page log full; persist() more often")
        header = _HEADER.pack(PAGE_ENTRY_MAGIC, 0, epoch, page_addr,
                              crc32(old_page))
        base = HEAP_PHYS_BASE + self._layout.log_base + self.write_offset
        self._space.write(base, header.ljust(PAGE_ENTRY_HEADER, b"\x00"))
        self._space.write(base + PAGE_ENTRY_HEADER, old_page)
        self.write_offset += PAGE_ENTRY_SIZE
        self.stats.counter("pages").add(1)
        self.stats.counter("bytes").add(PAGE_ENTRY_SIZE)

    def scan(self):
        """Yield ``(epoch, page_addr, old_page)`` durable entries in order."""
        offset = 0
        while offset + PAGE_ENTRY_SIZE <= self._layout.log_size:
            base = HEAP_PHYS_BASE + self._layout.log_base + offset
            blob = self._space.read(base, PAGE_ENTRY_HEADER)
            magic, _pad, epoch, addr, crc = _HEADER.unpack_from(blob, 0)
            if magic != PAGE_ENTRY_MAGIC:
                return
            page = self._space.read(base + PAGE_ENTRY_HEADER, PAGE_SIZE)
            if crc32(page) != crc:
                return
            yield epoch, addr, page
            offset += PAGE_ENTRY_SIZE

    def reset(self):
        """Rewind after an epoch commit."""
        self._space.write(HEAP_PHYS_BASE + self._layout.log_base,
                          bytes(PAGE_ENTRY_HEADER))
        self.write_offset = 0


class MprotectBackend(StructureBackend):
    """Page-fault tracked, epoch-snapshotted hash table on PM."""

    name = "mprotect"
    durability = "per-persist"
    # The fault handler charges trap latency and logs the page outside
    # the recorded seams, so a replay would not take its faults.
    recordable = False

    def __init__(self, heap_size=64 * 1024 * 1024, log_pages=None,
                 capacity=1024, **machine_kwargs):
        super().__init__()
        self._machine = HostMachine(media="pm", heap_size=heap_size,
                                    **machine_kwargs)
        if log_pages is None:
            # Default: a quarter of the heap holds pre-images.
            log_pages = max(16, heap_size // (4 * PAGE_ENTRY_SIZE))
        self._layout = _PageLogLayout(heap_size, log_pages)
        self._flush = FlushModel(self._machine.clock, self._machine.latency)
        self._cells = DurableCells(self._machine, self._layout)
        self._log = PageLog(self._machine, self._layout)
        self._table = PageTable(0, self._layout.arena_limit)
        self._mem = FaultingAccessor(self._machine.mem(), self._table,
                                     self._fault_handler())
        self._epoch = self._cells.committed_tx + 1
        root = self._cells.root
        if root == 0:
            # Build the initial structure unprotected, then take the first
            # snapshot to establish epoch 1.
            self._alloc = PmAllocator.create(self._mem,
                                             self._layout.arena_limit)
            self._bind_structure(self._mem, self._alloc, capacity=capacity)
            self.persist()
            self._cells.root = self._map.root
        else:
            self._alloc = PmAllocator.attach(self._mem)
            self._reattach_structure(self._mem, self._alloc, root)
            self._table.protect_all(PagePermission.READ)

    # -- fault handling -----------------------------------------------------------

    def _fault_handler(self):
        """``_on_fault`` for the accessor, run on a weak proxy of self.

        The backend owns the accessor; a bound method in it would make
        the backend, its machine and its PM a reference cycle. Only the
        fault path (once per page per epoch) pays the proxy hops.
        """
        return functools.partial(type(self)._on_fault,
                                 weakref.proxy(self))

    def _on_fault(self, page):
        """First store to ``page`` this epoch: trap, log pre-image, unprotect."""
        self._machine.clock.advance(self._machine.latency.software.page_fault_ns)
        old_page = self._machine.space.read(HEAP_PHYS_BASE + page, PAGE_SIZE)
        self._log.append(self._epoch, page, old_page)
        self._flush.sfence()
        self._table.protect(page, PAGE_SIZE, PagePermission.READ_WRITE)
        self.stats.counter("page_faults").add(1)

    # -- durability point -------------------------------------------------------------

    def persist(self):
        """Snapshot commit: flush dirty pages, publish epoch, re-protect."""
        for page in self._table.dirty_pages():
            self._flush.clwb(page, PAGE_SIZE)
            for line in range(page, page + PAGE_SIZE, CACHE_LINE_SIZE):
                self._machine.hierarchy.writeback_line(HEAP_PHYS_BASE + line)
        self._flush.sfence()
        self._cells.committed_tx = self._epoch
        self._flush.sfence()
        self._log.reset()
        self._table.clear_dirty()
        self._table.protect_all(PagePermission.READ)
        self._epoch += 1
        self.stats.counter("persists").add(1)

    # -- crash / recovery ----------------------------------------------------------------

    def restart(self):
        """Reboot; roll back pages of the uncommitted epoch."""
        self._machine.restart()
        committed = self._cells.committed_tx
        to_undo = [(epoch, addr, page) for epoch, addr, page in self._log.scan()
                   if epoch > committed]
        for _epoch, addr, page in reversed(to_undo):
            self._machine.space.write(HEAP_PHYS_BASE + addr, page)
        self._log.reset()
        self._epoch = committed + 1
        self._table = PageTable(0, self._layout.arena_limit)
        self._mem = FaultingAccessor(self._machine.mem(), self._table,
                                     self._fault_handler())
        self._alloc = PmAllocator.attach(self._mem)
        self._reattach_structure(self._mem, self._alloc, self._cells.root)
        self._table.protect_all(PagePermission.READ)
        return len(to_undo)

    @property
    def log_bytes(self):
        """Bytes of page log written (write-amplification accounting)."""
        return self._log.stats.get("bytes")

    @property
    def fault_count(self):
        """Page faults taken (trap-overhead accounting)."""
        return self.stats.get("page_faults")
