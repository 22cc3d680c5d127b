"""The PAX device (paper §3, Figure 1).

Homes the vPM physical range. Servicing:

* ``RdShared`` — proxy the line from (newest first) the write-back buffer,
  the HBM cache, or PM; grant S.
* ``RdOwn`` — the host announces an impending store. Capture the line's
  PM contents as an undo record (asynchronously durable), invalidate our
  HBM copy (the host will hold the only current version), return data if
  the host needs it, and ack immediately — the host never waits on
  logging.
* ``DirtyEvict`` — buffer the modified line; PM write-back is gated on the
  line's undo record durability.
* ``persist()`` — the §3.3 group commit: snoop every line logged this
  epoch out of host caches (device-to-host SnpData), pump the undo log to
  durability, drain the write-back buffer to PM, then atomically bump the
  epoch cell. Returns the host-visible latency so the machine can charge
  the calling thread.

Background work (log drain, gated write-back) runs off the simulated
clock: the machine attaches the device to its clock
(:meth:`attach_clock`), so device-side asynchrony advances whenever host
time does — and an idle device, whose ticks would change nothing, stays
off the clock's busy count until work arrives.
"""

import weakref

from repro.cache.mechanisms import make_mechanisms
from repro.core.config import PaxConfig
from repro.core.epochs import EpochManager
from repro.core.hbm import HbmCache
from repro.core.undo import UndoLogger
from repro.core.writeback import WriteBackCoordinator
from repro.cxl import messages as msg
from repro.errors import AddressError, ProtocolError
from repro.pm.log import UndoLogRegion
from repro.util.constants import CACHE_LINE_SIZE
from repro.util.fastpath import fast_path_enabled
from repro.util.stats import StatGroup


def _mech_capture(seq_for, buffered, capture):
    """HBM eviction hook: drop clean victims into the side buffers.

    Guarded like :meth:`PaxDevice._mech_fetch`: a victim whose line the
    host has modified this epoch (``seq_for``, the undo logger's line ->
    seq ``get``) or that the write-back buffer holds a newer copy of
    (``buffered``, its ``get``) would go stale with no invalidation
    message, so it is dropped instead of handed to ``capture``. The hook
    holds those leaves, not the device, so the HBM cache holding it
    puts no reference cycle through the device.
    """
    def on_evict(pool_addr, data):
        if seq_for(pool_addr) is None and buffered(pool_addr) is None:
            capture(pool_addr, data)
    return on_evict


class PaxDevice:
    """A persistence accelerator homing one pool's vPM range."""

    def __init__(self, pool, latency_model, config=None, vpm_base=None):
        self.pool = pool
        self.config = (config or PaxConfig()).validate()
        self._lat = latency_model
        #: Physical base address the pool's data region is exposed at.
        self.vpm_base = vpm_base if vpm_base is not None else pool.data_base
        self.region = UndoLogRegion(pool.device, pool.log_base, pool.log_size)
        self.epochs = EpochManager(pool, self.region)
        # The logger and the coordinator count an idle device back in
        # where work arrives; like the pipeline, they hold it through a
        # weak proxy (the device owns them).
        proxy = weakref.proxy(self)
        self.undo = UndoLogger(self.region, self.config,
                               self.epochs.current_epoch, device=proxy)
        self.hbm = HbmCache(self.config.hbm_lines)
        #: Miss-path mechanism stack between the HBM cache and PM media
        #: (None = pre-zoo read path). See :mod:`repro.cache.mechanisms`.
        self.mech = make_mechanisms(self.config.mechanisms,
                                    self.config.mechanism_policy,
                                    label_prefix="dev.mech")
        self.writeback = WriteBackCoordinator(pool, self.hbm, self.undo,
                                              self.config, device=proxy)
        if self.mech is not None:
            # HBM LRU victims fall into the side buffers instead of
            # vanishing (guarded: never capture a host-modified line).
            self.hbm.on_evict = _mech_capture(
                self.undo._logged.get, self.writeback._buffer.get,
                self.mech.on_evict)
        from repro.core.pipeline import PersistPipeline
        self.pipeline = PersistPipeline(self)
        # background_tick fires on every clock advance while the device
        # has work; bind its three targets once (the logger/coordinator/
        # pipeline live as long as the device).
        self._undo_drain = self.undo.drain_budget
        # undo.seq_for without its wrapper frame: the logger clears its
        # line -> seq dict in place at each epoch, never replaces it.
        self._seq_for = self.undo._logged.get
        self._wb_drain = self.writeback.drain_budget
        self._pipeline_poll = self.pipeline.poll
        #: The clock this device ticks on (a weak proxy; see
        #: attach_clock) and its place in that clock's ``busy`` count:
        #: True = counted, False = left it (idle, no credit), None =
        #: never leaves (unattached, or on the slow path).
        self._clock = None
        self._on_clock = None
        self.stats = StatGroup("pax_device")
        # Per-message counters bound once (hot-path-stat-lookup rule).
        stats = self.stats
        self._c_rd_shared = stats.counter("rd_shared")
        self._c_rd_own = stats.counter("rd_own")
        self._c_dirty_evicts = stats.counter("dirty_evicts")
        self._c_clean_evicts = stats.counter("clean_evicts")
        self._c_mem_rd = stats.counter("mem_rd")
        self._c_mem_wr = stats.counter("mem_wr")
        self._c_lines_logged = stats.counter("lines_logged")
        self._c_stalled_evicts = stats.counter("stalled_evicts")
        self._c_buffer_serves = stats.counter("buffer_serves")
        self._c_pm_line_reads = stats.counter("pm_line_reads")
        self._c_mech_hits = stats.counter("mech_hits")
        self._c_mech_prefetch_reads = stats.counter("mech_prefetch_reads")

    # -- address translation ---------------------------------------------------

    def to_pool(self, phys_addr):
        """Translate a vPM physical address to a pool-relative offset."""
        pool = self.pool
        base = pool.data_base
        offset = phys_addr - self.vpm_base + base
        # pool.contains_data(offset, CACHE_LINE_SIZE), inline: every
        # message from the host translates its address here.
        if not (base <= offset
                and offset + CACHE_LINE_SIZE <= base + pool.data_size):
            raise AddressError(
                "physical 0x%x is outside this device's vPM range" % phys_addr)
        return offset

    def to_phys(self, pool_addr):
        """Translate a pool-relative offset back to a vPM physical address."""
        return pool_addr - self.pool.data_base + self.vpm_base

    # -- message handling ---------------------------------------------------------

    def handle_message(self, message):
        """Service one host request; returns ``(response, service_ns)``."""
        handler = _HANDLERS.get(type(message))
        if handler is None:
            raise ProtocolError("PAX cannot handle %r" % (message,))
        return handler(self, message)

    def _clean_evict(self, message):
        self._c_clean_evicts.value += 1
        return msg.Go(message.addr), self.config.device_processing_ns

    # -- CXL.mem mode (paper §6: less coherence visibility) -----------------

    def _mem_rd(self, message):
        """CXL.mem read: plain data, no coherence state granted."""
        pool_addr = self.to_pool(message.addr)
        data, media_ns = self._lookup_line(pool_addr)
        self.hbm.put(pool_addr, data)
        self._c_mem_rd.value += 1
        service = self.config.device_processing_ns + media_ns
        return msg.DataResponse(message.addr, data, "S"), service

    def _mem_wr(self, message):
        """CXL.mem write: the device's *only* interposition point.

        Without coherence visibility there is no RdOwn to log at, so the
        pre-image is captured here, at write-back time — the first write
        of a line per epoch still records the epoch-start PM value (any
        earlier PM write of the line this epoch would itself have logged
        first, and dedup keeps the original record).
        """
        pool_addr = self.to_pool(message.addr)
        self._c_mem_wr.value += 1
        if self.mech is not None:
            # The write supersedes whatever clean copy a side buffer
            # holds (there is no RdOwn in .mem mode to catch this at).
            self.mech.invalidate(pool_addr)
        if self._seq_for(pool_addr) is None:
            old = self.pool.device.read(pool_addr, CACHE_LINE_SIZE)
            self.undo.note_modification(pool_addr, old)
            self._c_lines_logged.value += 1
        seq = self._seq_for(pool_addr)
        pumped = self.writeback.buffer_line(pool_addr, message.data, seq)
        service = self.config.device_processing_ns
        if pumped:
            service += pumped * 1e9 / self.config.log_drain_bps
            self._c_stalled_evicts.value += 1
        return msg.Go(message.addr), service

    def _lookup_line(self, pool_addr):
        """Newest device-visible value: buffer > HBM > mech > PM.

        Returns ``(data, ns)``. The mechanism stack sits between the HBM
        cache and the PM media; a hit there costs HBM latency (on-device
        SRAM/HBM side buffers), a miss falls through to the media read
        and feeds the demand fill back to the mechanisms.
        """
        data = self.writeback.peek(pool_addr)
        if data is not None:
            self._c_buffer_serves.value += 1
            return data, 0.0
        data = self.hbm.get(pool_addr)
        if data is not None:
            return data, self._lat.media.hbm_ns
        mech = self.mech
        if mech is not None:
            data = mech.probe(pool_addr, self._mech_fetch)
            if data is not None:
                self._c_mech_hits.value += 1
                return data, self._lat.media.hbm_ns
        data = self.pool.device.read(pool_addr, CACHE_LINE_SIZE)
        self._c_pm_line_reads.value += 1
        if mech is not None:
            mech.on_demand_fill(pool_addr, data, self._mech_fetch)
        return data, self._lat.media.pm_read_ns

    def _mech_fetch(self, pool_addr):
        """Guarded background PM read for mechanism prefetches.

        Refuses lines outside the pool's data region, lines the host has
        modified this epoch (their PM copy is the stale pre-image), and
        lines already mirrored in buffer or HBM (pure pollution). The
        media latency is hidden — an overlapped background read.
        """
        if not self.pool.contains_data(pool_addr, CACHE_LINE_SIZE):
            return None
        if self._seq_for(pool_addr) is not None:
            return None
        if self.writeback.peek(pool_addr) is not None:
            return None
        if self.hbm.peek(pool_addr) is not None:
            return None
        data = self.pool.device.read(pool_addr, CACHE_LINE_SIZE)
        self._c_mech_prefetch_reads.value += 1
        return data

    def _rd_shared(self, message):
        pool_addr = self.to_pool(message.addr)
        data, media_ns = self._lookup_line(pool_addr)
        self.hbm.put(pool_addr, data)
        self._c_rd_shared.value += 1
        service = self.config.device_processing_ns + media_ns
        return msg.DataResponse(message.addr, data, "S"), service

    def _rd_own(self, message):
        pool_addr = self.to_pool(message.addr)
        self._c_rd_own.value += 1
        # Undo-log the epoch-start value: the newest *device-visible*
        # value. With blocking persists that always equals the PM copy;
        # with pipelined persists (core.pipeline) the previous epoch's
        # value may still sit in the write-back buffer, and it — not the
        # stale PM bytes — is what rollback must restore.
        if self._seq_for(pool_addr) is None:
            old = self.writeback.peek(pool_addr)
            if old is None:
                old = self.hbm.peek(pool_addr)
            if old is None:
                old = self.pool.device.read(pool_addr, CACHE_LINE_SIZE)
            self.undo.note_modification(pool_addr, old)
            self._c_lines_logged.value += 1
        service = self.config.device_processing_ns
        if message.need_data:
            data, media_ns = self._lookup_line(pool_addr)
            service += media_ns
        else:
            data = None
        # The host will hold the only up-to-date copy; our HBM mirror is
        # about to go stale — and so is any side-buffer copy.
        self.hbm.invalidate(pool_addr)
        if self.mech is not None:
            self.mech.invalidate(pool_addr)
        if data is not None:
            return msg.DataResponse(message.addr, data, "M"), service
        return msg.Go(message.addr, "M"), service

    def _dirty_evict(self, message):
        pool_addr = self.to_pool(message.addr)
        seq = self._seq_for(pool_addr)
        if seq is None:
            # Invariant: a dirty vPM line implies a RdOwn (and thus a log
            # record) earlier in this same epoch — persist() downgrades
            # every modified line before committing.
            raise ProtocolError(
                "dirty eviction of 0x%x, but the line was never logged "
                "this epoch" % message.addr)
        pumped = self.writeback.buffer_line(pool_addr, message.data, seq)
        self._c_dirty_evicts.value += 1
        service = self.config.device_processing_ns
        if pumped:
            # A forced log pump stalls the eviction path synchronously.
            service += pumped * 1e9 / self.config.log_drain_bps
            self._c_stalled_evicts.value += 1
        return msg.Go(message.addr), service

    # -- persist: the group commit (paper §3.3) ------------------------------------

    def persist(self, snoop_port, clock=None):
        """Commit a crash-consistent snapshot; returns host-blocking ns.

        ``snoop_port`` is a :class:`~repro.cxl.port.HostSnoopPort` bound to
        the host hierarchy, or None under CXL.mem, where no device-to-host
        snoop exists and the host has already CLWB'd its dirty lines. The
        application must guarantee no thread is mutating the structure
        during the call (paper §3.5).

        When ``clock`` is given, time is charged *as the steps happen* —
        the snoops are sequential round trips, so link backlog drains
        between them and background device work overlaps the commit —
        and the caller must not advance the clock again.
        """
        total_ns = 0.0

        def charge(step_ns):
            nonlocal total_ns
            total_ns += step_ns
            if clock is not None:
                clock.advance(step_ns)

        # A blocking persist is a barrier: retire any pipelined epochs
        # first so the epoch sequence stays strictly ordered.
        charge(self.pipeline.complete_all())
        touched = self.undo.touched_lines()
        # 1. Pull every possibly-modified line out of host caches.
        if snoop_port is not None:
            for pool_addr in touched:
                fresh, link_ns = snoop_port.snoop_shared(
                    self.to_phys(pool_addr))
                charge(link_ns)
                if fresh is not None:
                    seq = self._seq_for(pool_addr)
                    self.writeback.buffer_line(pool_addr, fresh, seq)
        # 2+3. Make every undo record durable, then write all buffered
        # lines to PM (flush_all enforces that order internally).
        pumped_bytes, lines_written = self.writeback.flush_all()
        charge(pumped_bytes * 1e9 / self.config.log_drain_bps)
        charge(lines_written * self._lat.media.pm_write_ns)
        # 4. Atomic epoch publish.
        self.epochs.commit(len(touched))
        self.undo.begin_epoch(self.epochs.current_epoch)
        charge(self._lat.media.pm_write_ns)
        self.stats.counter("persists").add(1)
        self.stats.histogram("persist_ns").record(total_ns)
        return total_ns

    def persist_async(self, snoop_port, clock=None):
        """Pipelined persist (paper §6 extension; see core.pipeline).

        Blocks the host only for the snoop phase and returns the
        in-flight epoch handle plus the blocking ns; the commit completes
        in the background. ``handle.committed`` flips once durable.
        """
        flight, blocking_ns = self.pipeline.begin(snoop_port, clock=clock)
        self.pipeline.poll()
        self.stats.counter("persist_asyncs").add(1)
        return flight, blocking_ns

    # -- background asynchrony ---------------------------------------------------

    def attach_clock(self, clock):
        """Tick on ``clock``; returns the callback registered there.

        The device holds the clock through a weak proxy: the clock's
        callback list already holds the device, and a strong reference
        back would make every machine a reference cycle. On the fast
        path an idle device leaves the clock's busy count; under
        ``REPRO_SLOW_PATH=1`` it ticks on every advance, which is the
        spec the skipping is checked against.
        """
        tick = self.background_tick
        clock.on_advance(tick)
        self._clock = weakref.proxy(clock)
        self._on_clock = True if fast_path_enabled() else None
        return tick

    def wake(self):
        """Work arrived: count an idle device back in on its clock.

        Work is counted in where it is created, and only while the
        device idles. :class:`~repro.core.pipeline.PersistPipeline`
        calls this for a new flight; the
        :class:`~repro.core.undo.UndoLogger` (a new record) and the
        :class:`~repro.core.writeback.WriteBackCoordinator` (a newly
        buffered line) do the same inline, since a device that drains
        in between comes back once per record or line.
        """
        if self._on_clock is False:
            self._on_clock = True
            self._clock.busy += 1

    def detach_clock(self, tick):
        """Unregister ``tick`` (from :meth:`attach_clock`) at a crash."""
        # Counted in first, idle or not, so the removal uncounts it once.
        self.wake()
        self._clock.remove_callback(tick)
        self._clock = None
        self._on_clock = None

    def background_tick(self, prev_ns, now_ns):
        """Clock callback: drain log records and ready write-backs.

        This fires on every clock advance while the device has work, and
        so goes through locally bound references.
        """
        delta_s = (now_ns - prev_ns) / 1e9
        config = self.config
        # While there is work, credit accrues at the drain rates and the
        # drain loops spend it; the pipeline scan only runs with epochs
        # in flight.
        undo = self.undo
        undo._drain_credit += config.log_drain_bps * delta_s
        if undo._pending:
            self._undo_drain(0.0)
        writeback = self.writeback
        writeback._drain_credit += config.writeback_drain_bps * delta_s
        if writeback._buffer:
            self._wb_drain(0.0)
        pipeline = self.pipeline
        if pipeline._flights:
            self._pipeline_poll()
        if not (undo._pending or writeback._buffer or pipeline._flights):
            # Idle: bank no credit, so a burst after an idle stretch
            # drains at the configured rates. Every further idle tick
            # would add credit and zero it again — a no-op — so the
            # device leaves the clock's busy count until work arrives.
            undo._drain_credit = 0.0
            writeback._drain_credit = 0.0
            if self._on_clock:
                self._on_clock = False
                self._clock.busy -= 1

    # -- crash ---------------------------------------------------------------------

    def on_crash(self):
        """Lose all volatile device state (SRAM buffers, HBM, pending log)."""
        self.undo.on_crash()
        self.writeback.on_crash()
        self.hbm.clear()
        if self.mech is not None:
            self.mech.clear()
        self.pipeline.on_crash()
        self.stats.counter("crashes").add(1)

    def __repr__(self):
        return "PaxDevice(epoch=%d, hbm=%d lines)" % (
            self.epochs.current_epoch, len(self.hbm))


#: Exact-type message dispatch, built once from the plain handler
#: functions (called as ``handler(self, message)``): cheaper than an
#: isinstance chain, the message classes are final by design, and a
#: table of bound methods on each device would be a reference cycle.
_HANDLERS = {
    msg.RdShared: PaxDevice._rd_shared,
    msg.RdOwn: PaxDevice._rd_own,
    msg.DirtyEvict: PaxDevice._dirty_evict,
    msg.CleanEvict: PaxDevice._clean_evict,
    msg.MemRd: PaxDevice._mem_rd,
    msg.MemWr: PaxDevice._mem_wr,
}
