"""The coherent CPU cache hierarchy.

Per core: a private L1 and an L2 *inclusive of* L1. Shared across cores: a
non-inclusive (victim-style) LLC. Coherence state lives in the
:class:`~repro.cache.coherence.Directory`. Design choices that matter for
PAX (and are exercised by tests):

* **L1 and L2 alias one line object per core.** A line resident in both
  levels is the *same* :class:`~repro.cache.line.CacheLine` instance, so
  the dirty bit and data can never diverge within a core. Distinct cores
  and the LLC hold distinct copies.
* **M/E lines are never silently dropped.** Private-cache evictions always
  notify the directory; dirty data always lands in the LLC, and dirty LLC
  victims always reach the owning home. This is what lets the PAX device
  reason about write-back safety.
* **Device-homed lines are never granted E.** A store therefore always
  produces a coherence transaction the device can see at least once per
  epoch (after each `persist()` snoop downgrade, lines are S again).
* **Snoop entry points.** :meth:`snoop_shared` / :meth:`snoop_invalidate`
  are the host-side handlers for the device-to-host messages PAX sends
  during `persist()` (paper §3.3): they downgrade/invalidate every cached
  copy and surface the freshest dirty data.

A crash (:meth:`drop_all`) discards caches and directory — the ADR model.
:meth:`flush_all` implements eADR: dirty lines are pushed to their homes
first.
"""

from repro.cache.cache import CacheConfig, SetAssociativeCache
from repro.cache.line import CacheLine, MesiState
from repro.cache.mechanisms import make_mechanisms
from repro.errors import AddressError, ProtocolError
from repro.util.bitops import split_lines
from repro.util.constants import CACHE_LINE_SIZE
from repro.util.fastpath import fast_path_enabled
from repro.util.stats import StatGroup

#: Offset-within-line mask and log2(line size), hoisted for the
#: single-line fast path.
_LINE_MASK = CACHE_LINE_SIZE - 1
_LINE_SHIFT = CACHE_LINE_SIZE.bit_length() - 1

#: MESI states bound to module globals: the per-access walk compares
#: against these a handful of times per event, and a global load is
#: cheaper than two attribute hops.
_INVALID = MesiState.INVALID
_SHARED = MesiState.SHARED
_EXCLUSIVE = MesiState.EXCLUSIVE
_MODIFIED = MesiState.MODIFIED
_WRITABLE = MesiState.WRITABLE


class _Core:
    """Private cache levels for one core."""

    __slots__ = ("core_id", "l1", "l2")

    def __init__(self, core_id, l1_config, l2_config):
        self.core_id = core_id
        self.l1 = SetAssociativeCache("core%d.l1" % core_id, l1_config)
        self.l2 = SetAssociativeCache("core%d.l2" % core_id, l2_config)


def default_l1_config():
    """32 KiB, 8-way — Skylake-SP L1D."""
    return CacheConfig(size_bytes=32 * 1024, ways=8)


def default_l2_config():
    """256 KiB, 8-way (sized so set count is a power of two)."""
    return CacheConfig(size_bytes=256 * 1024, ways=8)


def default_llc_config():
    """2 MiB shared slice, 16-way."""
    return CacheConfig(size_bytes=2 * 1024 * 1024, ways=16)


class CacheHierarchy:
    """A multi-core write-back cache hierarchy over pluggable homes."""

    def __init__(self, clock, latency, num_cores=1,
                 l1_config=None, l2_config=None, llc_config=None,
                 mechanisms=None, mech_policy="lru"):
        self._clock = clock
        self._lat = latency
        self.num_cores = num_cores
        self._cores = [
            _Core(i, l1_config or default_l1_config(),
                  l2_config or default_l2_config())
            for i in range(num_cores)
        ]
        self._llc = SetAssociativeCache("llc", llc_config or default_llc_config())
        #: Miss-path mechanism stack below the LLC (None = pre-zoo miss
        #: path, byte-for-byte). See :mod:`repro.cache.mechanisms`.
        self._mech = make_mechanisms(mechanisms, mech_policy,
                                     label_prefix="host.mech")
        from repro.cache.coherence import Directory
        self._dir = Directory()
        # Direct reference to the directory's entry dict: the per-access
        # walk reads coherence state once per event, and going through
        # Directory.state() costs a method call plus a second dict probe.
        # The dict identity is stable (Directory.clear() empties in place).
        self._dir_entries = self._dir._entries
        self._homes = []
        #: line_addr -> home memo over the sorted range list; rebuilt
        #: lazily and invalidated by :meth:`add_home`.
        self._home_map = {}
        #: Optional :class:`~repro.sanitizer.base.Tracer` notified of
        #: every store (machines re-propagate it across restart()).
        self.tracer = None
        self.stats = StatGroup("hierarchy")
        # Hot counters/histograms bound once so no string-keyed lookup
        # happens per access (see the hot-path-stat-lookup lint rule).
        stats = self.stats
        self._c_loads = stats.counter("loads")
        self._c_stores = stats.counter("stores")
        self._c_l1_hits = stats.counter("l1_hits")
        self._c_l2_hits = stats.counter("l2_hits")
        self._c_llc_hits = stats.counter("llc_hits")
        self._c_memory_fetches = stats.counter("memory_fetches")
        self._c_cross_core = stats.counter("cross_core_transfers")
        self._c_sharer_forwards = stats.counter("sharer_forwards")
        self._c_upgrades = stats.counter("upgrades")
        self._c_inval_snoops = stats.counter("invalidation_snoops")
        self._c_l1_evictions = stats.counter("l1_evictions")
        self._c_l2_evictions = stats.counter("l2_evictions")
        self._c_llc_writebacks = stats.counter("llc_writebacks")
        self._c_clwb_writebacks = stats.counter("clwb_writebacks")
        self._c_snoop_shared = stats.counter("snoop_shared")
        self._c_snoop_invalidate = stats.counter("snoop_invalidate")
        self._c_mech_hits = stats.counter("mech_hits")
        self._c_mech_prefetch_fetches = stats.counter("mech_prefetch_fetches")
        self._h_access_ns = stats.histogram("access_ns")
        cache_lat = self._lat.cache
        self._l1_ns = cache_lat.l1_ns
        # The L1-hit shortcut records by bumping this histogram's run.
        self._h_access_ns.run_value = self._l1_ns
        self._l2_ns = cache_lat.l2_ns
        self._llc_ns = cache_lat.llc_ns
        self._cross_core_ns = cache_lat.cross_core_ns
        # Bound methods for the per-access epilogue (histogram sample +
        # clock charge); both targets are fixed for the hierarchy's life.
        self._record_access = self._h_access_ns.record
        self._advance = clock.advance
        self._fast = fast_path_enabled()

    # -- configuration ------------------------------------------------------

    def add_home(self, base, size, home):
        """Register ``home`` as owning physical range ``[base, base+size)``."""
        self._homes.append((base, base + size, home))
        self._homes.sort(key=lambda item: item[0])
        self._home_map.clear()

    def home_for(self, line_addr):
        """Return the home owning ``line_addr``.

        Memoized per line address: the miss path asks for the same few
        hundred thousand lines over and over, and the linear range scan
        only needs to run once per line.
        """
        home = self._home_map.get(line_addr)
        if home is not None:
            return home
        for base, end, home in self._homes:
            if base <= line_addr < end:
                self._home_map[line_addr] = home
                return home
        raise AddressError("no home for address 0x%x" % line_addr)

    # -- public access path ---------------------------------------------------

    def load(self, core_id, addr, size):
        """Perform a load of ``size`` bytes at ``addr`` from ``core_id``."""
        self._c_loads.value += 1
        if self._fast and 0 < size:
            offset = addr & _LINE_MASK
            if offset + size <= CACHE_LINE_SIZE:
                # Single-line fast path: no generator, no join buffer.
                line_addr = addr - offset
                line = None
                entry = self._dir_entries.get(line_addr)
                if entry is not None and core_id in entry.states:
                    # L1-hit shortcut: _hit_path's L1 branch inlined, in
                    # its order (any valid state may load). The probe is
                    # a peek, so an L1 miss leaves nothing to undo.
                    l1 = self._cores[core_id].l1
                    index = (line_addr >> _LINE_SHIFT) & l1._set_mask
                    line = l1._sets[index].get(line_addr)
                    if line is not None:
                        l1._policies[index].on_access(line_addr)
                        l1._c_hits.value += 1
                        self._c_l1_hits.value += 1
                        # _record_access(l1_ns), folded later; then
                        # advance(l1_ns), which is this one float add
                        # while nothing on the clock wants ticks.
                        self._h_access_ns.run += 1
                        clock = self._clock
                        if clock.busy:
                            self._advance(self._l1_ns)
                        else:
                            clock.now_ns += self._l1_ns
                if line is None:
                    line = self._access_line(core_id, line_addr, False)
                return bytes(line.data[offset:offset + size])
        out = bytearray()
        for base, offset, length in split_lines(addr, size):
            line = self._access_line(core_id, base, exclusive=False)
            out += line.read(offset, length)
        return bytes(out)

    def store(self, core_id, addr, data):
        """Perform a store of ``data`` at ``addr`` from ``core_id``."""
        data = bytes(data)
        self._c_stores.value += 1
        size = len(data)
        if self._fast and 0 < size:
            offset = addr & _LINE_MASK
            if offset + size <= CACHE_LINE_SIZE:
                base = addr - offset
                line = None
                entry = self._dir_entries.get(base)
                if entry is not None \
                        and entry.states.get(core_id) == _MODIFIED:
                    # The load's L1-hit shortcut, for a store that needs
                    # no coherence transition: E->M and S->M stay with
                    # _hit_path.
                    l1 = self._cores[core_id].l1
                    index = (base >> _LINE_SHIFT) & l1._set_mask
                    line = l1._sets[index].get(base)
                    if line is not None:
                        l1._policies[index].on_access(base)
                        l1._c_hits.value += 1
                        self._c_l1_hits.value += 1
                        self._h_access_ns.run += 1
                        clock = self._clock
                        if clock.busy:
                            self._advance(self._l1_ns)
                        else:
                            clock.now_ns += self._l1_ns
                if line is None:
                    line = self._access_line(core_id, base, True)
                line.data[offset:offset + size] = data
                line.dirty = True
                if self.tracer is not None:
                    self.tracer.on_store(base)
                return
        cursor = 0
        for base, offset, length in split_lines(addr, size):
            line = self._access_line(core_id, base, exclusive=True)
            line.write(offset, data[cursor:cursor + length])
            cursor += length
            if self.tracer is not None:
                self.tracer.on_store(base)

    # -- the per-line coherence walk ----------------------------------------

    def _access_line(self, core_id, line_addr, exclusive):
        core = self._cores[core_id]
        entry = self._dir_entries.get(line_addr)
        state = _INVALID if entry is None \
            else entry.states.get(core_id, _INVALID)
        if state != _INVALID:
            return self._hit_path(core, line_addr, state, exclusive)
        return self._miss_path(core, line_addr, exclusive)

    def _hit_path(self, core, line_addr, state, exclusive):
        """The line is already in this core's private caches."""
        line = core.l1.lookup(line_addr)
        if line is not None:
            latency = self._l1_ns
            self._c_l1_hits.value += 1
        else:
            line = core.l2.lookup(line_addr)
            if line is None:
                raise ProtocolError(
                    "directory says core %d holds 0x%x but L2 lost it"
                    % (core.core_id, line_addr))
            latency = self._l2_ns
            self._c_l2_hits.value += 1
            self._fill_l1(core, line)
        if exclusive:
            if state == _SHARED:
                latency += self._upgrade(core.core_id, line_addr)
            elif state == _EXCLUSIVE:
                self._dir.set_state(line_addr, core.core_id, _MODIFIED)
                if self._mech is not None:
                    # Silent E->M: the only M transition with no home
                    # message, so the side buffers must be told here.
                    self._mech.invalidate(line_addr)
        # _charge() inlined: this is the single hottest return path.
        self._record_access(latency)
        self._advance(latency)
        return line

    def _miss_path(self, core, line_addr, exclusive):
        """The line is not in this core; find it elsewhere or at home."""
        latency = 0.0
        mech = self._mech
        if exclusive and mech is not None:
            # The line is about to be modified: whatever clean copy a
            # side buffer holds goes stale the instant the store lands.
            mech.invalidate(line_addr)
        # One directory read: the first M/E holder (Directory.owner) and
        # the other cores' copies in directory order (Directory.sharers).
        # Nothing below changes this line's entry before the grant.
        owner = None
        sharers = []
        entry = self._dir_entries.get(line_addr)
        if entry is not None:
            for holder, held in entry.states.items():
                if owner is None and held in _WRITABLE:
                    owner = holder
                if holder != core.core_id:
                    sharers.append(holder)
        if owner is not None and owner != core.core_id:
            data, dirty, extra = self._pull_from_core(
                owner, line_addr, invalidate=exclusive)
            latency += extra
            new_state = MesiState.MODIFIED if exclusive else MesiState.SHARED
            line = CacheLine(line_addr, data, dirty=dirty if exclusive else False)
            if exclusive:
                # Any LLC copy is older than the stolen M data.
                self._llc.remove(line_addr)
            self._c_cross_core.value += 1
        elif sharers:
            # Cache-to-cache forward from a clean sharer: cheaper than a
            # home fetch, and for device-homed lines it spares a device
            # round trip. A store still tells the home (upgrade message),
            # because the PAX device must log the first modification.
            source = self._cores[sharers[0]].l2.peek(line_addr)
            if source is None:
                raise ProtocolError(
                    "directory sharer %d lost line 0x%x"
                    % (sharers[0], line_addr))
            data = source.snapshot()
            latency += self._cross_core_ns
            self._c_sharer_forwards.value += 1
            if exclusive:
                latency += self._invalidate_sharers(core.core_id, line_addr)
                # As in _upgrade: a dirty LLC copy is superseded by the
                # forwarded data the new owner will modify.
                self._llc.remove(line_addr)
                _none, home_ns = self.home_for(line_addr).acquire(
                    line_addr, True, False)
                latency += home_ns
                new_state = MesiState.MODIFIED
            else:
                new_state = MesiState.SHARED
            line = CacheLine(line_addr, data, dirty=False)
        else:
            if exclusive:
                latency += self._invalidate_sharers(core.core_id, line_addr)
            llc_line = self._llc.lookup(line_addr)
            home = self.home_for(line_addr)
            if llc_line is not None:
                latency += self._llc_ns
                self._c_llc_hits.value += 1
                data = llc_line.snapshot()
                dirty = llc_line.dirty
                if exclusive:
                    # Ownership (and the write-back obligation, if any)
                    # moves into the core; and for device-homed lines the
                    # device must still hear about the impending store.
                    self._llc.remove(line_addr)
                    _none, home_ns = home.acquire(line_addr, True, False)
                    latency += home_ns
                    line = CacheLine(line_addr, data, dirty=dirty)
                    new_state = MesiState.MODIFIED
                else:
                    line = CacheLine(line_addr, data, dirty=False)
                    new_state = MesiState.SHARED
            else:
                latency += self._llc_ns   # LLC lookup that missed
                data = None
                if mech is not None and not exclusive:
                    # Side buffers serve demand loads only: stores must
                    # reach the home so the device logs the first write.
                    data = mech.probe(line_addr, self._mech_fetch)
                if data is not None:
                    latency += self._llc_ns   # adjacent side-buffer probe
                    self._c_mech_hits.value += 1
                    line = CacheLine(line_addr, data, dirty=False)
                    new_state = MesiState.SHARED
                else:
                    data, home_ns = home.acquire(line_addr, exclusive, True)
                    latency += home_ns
                    self._c_memory_fetches.value += 1
                    if mech is not None and not exclusive:
                        mech.on_demand_fill(line_addr, data, self._mech_fetch)
                    line = CacheLine(line_addr, data, dirty=False)
                    if exclusive:
                        new_state = MesiState.MODIFIED
                    elif home.grants_exclusive and entry is None:
                        # Sole reader: no core held the line.
                        new_state = MesiState.EXCLUSIVE
                    else:
                        new_state = MesiState.SHARED
        latency += self._fill_core(core, line)
        self._dir.set_state(line_addr, core.core_id, new_state)
        tracer = self.tracer
        if tracer is not None:
            tracer.on_span("store" if exclusive else "load", "miss",
                           self._clock.now_ns, latency, {"line": line_addr})
        # _charge() inlined, as in _hit_path: every miss returns here.
        self._record_access(latency)
        self._advance(latency)
        return line

    def _upgrade(self, core_id, line_addr):
        """S -> M: invalidate other sharers, tell the home if it must know."""
        if self._mech is not None:
            self._mech.invalidate(line_addr)
        latency = self._invalidate_sharers(core_id, line_addr)
        # A dirty LLC copy (from an earlier M->S downgrade) is superseded:
        # the new owner's M line carries the write-back obligation now, so
        # the stale copy must not be written back later.
        self._llc.remove(line_addr)
        home = self.home_for(line_addr)
        _none, home_ns = home.acquire(line_addr, True, False)
        latency += home_ns
        self._dir.set_state(line_addr, core_id, MesiState.MODIFIED)
        self._c_upgrades.value += 1
        return latency

    def _invalidate_sharers(self, requester, line_addr):
        """Drop every other core's (necessarily clean, S-state) copy."""
        latency = 0.0
        entry = self._dir_entries.get(line_addr)
        if entry is None:
            return latency
        for sharer in list(entry.states):
            if sharer == requester:
                continue
            other = self._cores[sharer]
            other.l1.remove(line_addr)
            other.l2.remove(line_addr)
            self._dir.drop(line_addr, sharer)
            latency += self._llc_ns   # snoop round through the LLC
            self._c_inval_snoops.value += 1
        return latency

    def _pull_from_core(self, owner_id, line_addr, invalidate):
        """Fetch the line from the core holding it M/E."""
        owner = self._cores[owner_id]
        line = owner.l2.peek(line_addr)
        if line is None:
            raise ProtocolError(
                "directory owner %d lost line 0x%x" % (owner_id, line_addr))
        data = line.snapshot()
        dirty = line.dirty
        extra = self._cross_core_ns
        if invalidate:
            owner.l1.remove(line_addr)
            owner.l2.remove(line_addr)
            self._dir.drop(line_addr, owner_id)
        else:
            # Downgrade to S; the dirty data's write-back obligation moves
            # to the LLC so no update is lost if the ex-owner evicts.
            line.dirty = False
            self._dir.set_state(line_addr, owner_id, MesiState.SHARED)
            if dirty:
                extra += self._insert_llc(CacheLine(line_addr, data, dirty=True))
        return data, dirty, extra

    # -- fills and evictions ---------------------------------------------------

    def _fill_core(self, core, line):
        """Insert ``line`` into L2 then L1 (same object), handling victims."""
        latency = 0.0
        victim = core.l2.insert(line)
        if victim is not None:
            latency += self._evict_from_l2(core, victim)
        self._fill_l1(core, line)
        return latency

    def _fill_l1(self, core, line):
        victim = core.l1.insert(line)
        if victim is not None and victim.addr != line.addr:
            # The victim object still lives in L2 (inclusion), so dropping
            # the L1 pointer loses nothing.
            if core.l2.peek(victim.addr) is None:
                raise ProtocolError(
                    "L1 victim 0x%x missing from inclusive L2" % victim.addr)
            self._c_l1_evictions.value += 1

    def _evict_from_l2(self, core, victim):
        """An L2 victim leaves the core entirely (back-invalidates L1)."""
        core.l1.remove(victim.addr)
        self._dir.drop(victim.addr, core.core_id)
        self._c_l2_evictions.value += 1
        if victim.dirty:
            return self._insert_llc(CacheLine(victim.addr, victim.data, dirty=True))
        if self._mech is not None:
            # Clean L2 victims bypass the non-inclusive LLC entirely, so
            # this is where they leave the hierarchy — the victim-buffer
            # capture point on the memory side.
            self._mech.on_evict(victim.addr, victim.snapshot())
        return 0.0

    def _insert_llc(self, line):
        """Insert into the LLC; push any dirty LLC victim to its home."""
        existing = self._llc.peek(line.addr)
        if existing is not None:
            existing.data = bytearray(line.data)
            existing.dirty = existing.dirty or line.dirty
            return 0.0
        victim = self._llc.insert(line)
        if victim is None:
            return 0.0
        latency = 0.0
        if victim.dirty:
            home = self.home_for(victim.addr)
            latency = home.writeback(victim.addr, victim.snapshot())
            self._c_llc_writebacks.value += 1
        if self._mech is not None:
            # Dirty victims were just written back, so the captured copy
            # matches the home again; clean victims always did.
            self._mech.on_evict(victim.addr, victim.snapshot())
        return latency

    # -- mechanism plumbing ------------------------------------------------------

    def _mech_fetch(self, line_addr):
        """Guarded background fetch for mechanism prefetches.

        Returns the home's current data for ``line_addr``, or None when
        the line must not be prefetched: held by any core (an E holder
        could silently transition to M, leaving the buffer stale with no
        invalidation message), resident in the LLC (prefetch would be
        pure pollution), or outside every home's range. The transfer's
        side effects (home counters, link bandwidth backlog, device HBM
        fill) happen; the latency is hidden — an overlapped background
        fill that never delays the demand access that triggered it.
        """
        entry = self._dir_entries.get(line_addr)
        if entry is not None and entry.states:
            return None
        if self._llc.peek(line_addr) is not None:
            return None
        try:
            home = self.home_for(line_addr)
        except AddressError:
            return None
        data, _overlapped_ns = home.acquire(line_addr, False, True)
        self._c_mech_prefetch_fetches.value += 1
        return data

    @property
    def mechanisms(self):
        """The miss-path mechanism stack, or None (tests, fast-path gate)."""
        return self._mech

    # -- snoops from the device (and eADR flushing) -----------------------------

    def snoop_shared(self, line_addr):
        """Downgrade every cached copy to S; return freshest dirty data.

        This is the host-side handler for the device-to-host RdShared the
        PAX device issues for every logged line during ``persist()``
        (paper §3.3). Returns None if no copy was dirty — the device then
        already holds the newest value.

        Custody contract: returned dirty data carries its write-back
        obligation with it — the caller (the device) must get it to the
        home. All cached copies are left clean, so nothing else will.
        """
        self._c_snoop_shared.value += 1
        fresh = None
        owner = self._dir.owner(line_addr)
        if owner is not None:
            line = self._cores[owner].l2.peek(line_addr)
            if line is None:
                raise ProtocolError(
                    "owner %d lost snooped line 0x%x" % (owner, line_addr))
            if line.dirty:
                fresh = line.snapshot()
                line.dirty = False
            self._dir.set_state(line_addr, owner, MesiState.SHARED)
        llc_line = self._llc.peek(line_addr)
        if llc_line is not None:
            if fresh is not None:
                llc_line.data = bytearray(fresh)
                llc_line.dirty = False
            elif llc_line.dirty:
                fresh = llc_line.snapshot()
                llc_line.dirty = False
        if self.tracer is not None:
            self.tracer.on_snoop("shared", line_addr, fresh is not None)
        return fresh

    def snoop_invalidate(self, line_addr):
        """Remove every cached copy; return freshest dirty data (or None)."""
        self._c_snoop_invalidate.value += 1
        if self._mech is not None:
            # The device is taking custody of the line; drop any side-
            # buffer copy along with the cached ones.
            self._mech.invalidate(line_addr)
        fresh = None
        owner = self._dir.owner(line_addr)
        for sharer in list(self._dir.sharers(line_addr)):
            core = self._cores[sharer]
            line = core.l2.peek(line_addr)
            if line is not None and line.dirty and sharer == owner:
                fresh = line.snapshot()
            core.l1.remove(line_addr)
            core.l2.remove(line_addr)
            self._dir.drop(line_addr, sharer)
        llc_line = self._llc.remove(line_addr)
        if llc_line is not None and llc_line.dirty and fresh is None:
            fresh = llc_line.snapshot()
        if self.tracer is not None:
            self.tracer.on_snoop("invalidate", line_addr, fresh is not None)
        return fresh

    def writeback_line(self, line_addr):
        """CLWB semantics: push the dirty copy (if any) to the home, keep
        the line cached clean. Returns True if data was written back."""
        owner = self._dir.owner(line_addr)
        if owner is not None:
            line = self._cores[owner].l2.peek(line_addr)
            if line is not None and line.dirty:
                self._charge(self.home_for(line_addr).writeback(
                    line_addr, line.snapshot()))
                line.dirty = False
                self._dir.set_state(line_addr, owner, MesiState.SHARED)
                llc_line = self._llc.peek(line_addr)
                if llc_line is not None:
                    llc_line.data = bytearray(line.data)
                    llc_line.dirty = False
                self._c_clwb_writebacks.value += 1
                return True
        llc_line = self._llc.peek(line_addr)
        if llc_line is not None and llc_line.dirty:
            self._charge(self.home_for(line_addr).writeback(
                line_addr, llc_line.snapshot()))
            llc_line.dirty = False
            self._c_clwb_writebacks.value += 1
            return True
        return False

    # -- crash semantics ---------------------------------------------------------

    def drop_all(self):
        """ADR crash: every cached byte (incl. dirty data) is lost."""
        for core in self._cores:
            core.l1.clear()
            core.l2.clear()
        self._llc.clear()
        if self._mech is not None:
            self._mech.clear()
        self._dir.clear()
        self.stats.counter("crash_drops").add(1)

    def flush_all(self):
        """eADR: write every dirty line back to its home, then keep clean copies."""
        flushed = 0
        for line_addr in self._dir.lines_held():
            owner = self._dir.owner(line_addr)
            if owner is None:
                continue
            line = self._cores[owner].l2.peek(line_addr)
            if line is not None and line.dirty:
                self.home_for(line_addr).writeback(line_addr, line.snapshot())
                line.dirty = False
                self._dir.set_state(line_addr, owner, MesiState.SHARED)
                flushed += 1
        for line in list(self._llc.lines()):
            if line.dirty:
                self.home_for(line.addr).writeback(line.addr, line.snapshot())
                line.dirty = False
                flushed += 1
        self.stats.counter("eadr_flushes").add(flushed)
        return flushed

    def dirty_lines(self):
        """Addresses of every dirty line anywhere in the hierarchy."""
        dirty = set()
        for core in self._cores:
            for line in core.l2.lines():
                if line.dirty:
                    dirty.add(line.addr)
        for line in self._llc.lines():
            if line.dirty:
                dirty.add(line.addr)
        return sorted(dirty)

    # -- bookkeeping ------------------------------------------------------------

    def _charge(self, latency_ns):
        self._record_access(latency_ns)
        self._advance(latency_ns)

    @property
    def directory(self):
        """The coherence directory (exposed for tests and the device)."""
        return self._dir

    @property
    def llc(self):
        """The shared last-level cache array."""
        return self._llc

    def core_caches(self, core_id):
        """Return ``(l1, l2)`` arrays of one core (tests)."""
        core = self._cores[core_id]
        return core.l1, core.l2

    def __repr__(self):
        return "CacheHierarchy(%d cores)" % self.num_cores
