"""The miss-path mechanism zoo: units, composition, and golden defaults."""

import pytest

from repro.cache.mechanisms import (MECHANISMS, MechanismStack, MissCache,
                                    NextLinePrefetch, StreamBuffers,
                                    VictimCache, make_mechanisms,
                                    mechanism_names)
from repro.errors import ConfigError
from repro.perfbench import _drive, build_backend
from repro.util.constants import CACHE_LINE_SIZE

LINE = CACHE_LINE_SIZE


def line(i):
    """Distinct line-sized payload for line index ``i``."""
    return bytes([i & 0xFF]) * LINE


def always_fetch(addr):
    """A fetch callable that always has data (low byte of the address)."""
    return bytes([(addr >> 6) & 0xFF]) * LINE


def never_fetch(addr):
    return None


class TestVictimCache:
    def test_eviction_fill_and_hit_removes(self):
        victim = VictimCache(capacity=4)
        victim.on_evict(0, line(0))
        assert len(victim) == 1
        assert victim.probe(0) == line(0)
        # A hit moves the line back up: the entry is consumed.
        assert len(victim) == 0
        assert victim.probe(0) is None
        assert victim.stats.get("hits") == 1
        assert victim.stats.get("misses") == 1

    def test_capacity_evicts_lru(self):
        victim = VictimCache(capacity=2)
        for i in range(3):
            victim.on_evict(i * LINE, line(i))
        assert len(victim) == 2
        assert victim.stats.get("evictions") == 1
        assert victim.probe(0) is None           # oldest entry was dropped
        assert victim.probe(LINE) == line(1)

    def test_invalidate_and_clear(self):
        victim = VictimCache(capacity=4)
        victim.on_evict(0, line(0))
        victim.invalidate(0)
        assert victim.probe(0) is None
        assert victim.stats.get("invalidations") == 1
        victim.on_evict(LINE, line(1))
        victim.clear()
        assert len(victim) == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigError):
            VictimCache(capacity=0)


class TestMissCache:
    def test_demand_fill_and_hit_keeps_entry(self):
        miss = MissCache(capacity=4)
        miss.on_demand_fill(0, line(0), never_fetch)
        assert miss.probe(0) == line(0)
        # Unlike a victim cache, a hit refreshes rather than consumes.
        assert miss.probe(0) == line(0)
        assert miss.stats.get("hits") == 2

    def test_capacity_and_recency(self):
        miss = MissCache(capacity=2)
        miss.on_demand_fill(0, line(0), never_fetch)
        miss.on_demand_fill(LINE, line(1), never_fetch)
        miss.probe(0)                            # refresh 0's recency
        miss.on_demand_fill(2 * LINE, line(2), never_fetch)
        assert miss.probe(0) == line(0)          # survived (recently used)
        assert miss.probe(LINE) is None          # the LRU victim


class TestStreamBuffers:
    def test_fill_prefetches_depth_lines(self):
        stream = StreamBuffers(buffers=2, depth=3)
        stream.on_demand_fill(0, line(0), always_fetch)
        # The missed line itself is NOT buffered; the next `depth` are.
        assert len(stream) == 3
        assert stream.stats.get("prefetches") == 3
        assert stream.probe(0) is None

    def test_head_only_match_and_streaming(self):
        stream = StreamBuffers(buffers=2, depth=3)
        stream.on_demand_fill(0, line(0), always_fetch)
        # Probing past the head misses (classic head-only design).
        assert stream.probe(3 * LINE) is None
        assert stream.probe(LINE) is not None    # the head
        stream.extend(always_fetch)              # site extends on a hit
        # Head popped + tail extended: still 3 lines, window advanced.
        assert len(stream) == 3
        assert stream.probe(2 * LINE) is not None

    def test_allocation_evicts_oldest_stream(self):
        stream = StreamBuffers(buffers=1, depth=2)
        stream.on_demand_fill(0, line(0), always_fetch)
        stream.on_demand_fill(0x1000, line(1), always_fetch)
        assert stream.stats.get("evictions") == 1
        assert stream.probe(LINE) is None        # first stream is gone
        assert stream.probe(0x1000 + LINE) is not None

    def test_invalidate_flushes_whole_stream(self):
        stream = StreamBuffers(buffers=2, depth=3)
        stream.on_demand_fill(0, line(0), always_fetch)
        stream.invalidate(2 * LINE)              # a mid-stream line
        assert len(stream) == 0
        assert stream.stats.get("invalidations") == 1

    def test_fetch_refusal_truncates_fill(self):
        calls = []

        def fussy(addr):
            calls.append(addr)
            return always_fetch(addr) if len(calls) < 2 else None

        stream = StreamBuffers(buffers=1, depth=4)
        stream.on_demand_fill(0, line(0), fussy)
        assert len(stream) == 1                  # stopped at the refusal


class TestNextLinePrefetch:
    def test_demand_fill_prefetches_next(self):
        nextline = NextLinePrefetch(capacity=4)
        nextline.on_demand_fill(0, line(0), always_fetch)
        assert nextline.probe(LINE) is not None
        assert nextline.stats.get("prefetches") == 1

    def test_prefetch_on_hit_keeps_stream_going(self):
        nextline = NextLinePrefetch(capacity=4)
        nextline.on_demand_fill(0, line(0), always_fetch)
        assert nextline.probe_and_extend(LINE, always_fetch) is not None
        # Consuming addr+64 prefetched addr+128.
        assert nextline.probe(2 * LINE) is not None

    def test_pollution_evicts_unconsumed_prefetches(self):
        # Seeded pollution scenario: scattered demand fills at capacity 1
        # evict every prefetch before it can be consumed — all cost, no
        # hits, which is exactly what the pollution experiments measure.
        nextline = NextLinePrefetch(capacity=1)
        for i in range(8):
            nextline.on_demand_fill(i * 0x1000, line(i), always_fetch)
        assert nextline.stats.get("evictions") == 7
        assert nextline.stats.get("hits") == 0
        assert len(nextline) == 1


class TestStackAndSpecs:
    def test_registry_names(self):
        assert mechanism_names() == sorted(MECHANISMS)
        assert set(MECHANISMS) == {"victim", "miss", "stream", "nextline"}

    def test_spec_grammar(self):
        stack = make_mechanisms("victim:8+nextline:2", policy="fifo")
        assert isinstance(stack, MechanismStack)
        kinds = [type(m).kind for m in stack.mechanisms]
        assert kinds == ["victim", "nextline"]
        assert stack.mechanisms[0].capacity == 8
        assert stack.mechanisms[1].capacity == 2
        stream = make_mechanisms("stream:2x8").mechanisms[0]
        assert (stream.buffers, stream.depth) == (2, 8)

    def test_none_specs_return_none(self):
        assert make_mechanisms(None) is None
        assert make_mechanisms("") is None
        assert make_mechanisms("none") is None

    def test_stack_passthrough(self):
        stack = make_mechanisms("victim:4")
        assert make_mechanisms(stack) is stack

    def test_bad_specs_raise(self):
        with pytest.raises(ConfigError):
            make_mechanisms("warp-drive")
        with pytest.raises(ConfigError):
            make_mechanisms("victim:many")
        with pytest.raises(ConfigError):
            make_mechanisms("stream:4")
        with pytest.raises(ConfigError):
            make_mechanisms("victim:4++miss")

    def test_first_hit_wins_in_spec_order(self):
        stack = make_mechanisms("victim:4+miss:4")
        victim, miss = stack.mechanisms
        victim.on_evict(0, line(1))
        miss.on_demand_fill(0, line(2), never_fetch)
        assert stack.probe(0, never_fetch) == line(1)

    def test_broadcasts(self):
        stack = make_mechanisms("victim:4+miss:4")
        stack.on_evict(0, line(0))
        stack.invalidate(0)
        assert len(stack) == 0
        stack.on_demand_fill(LINE, line(1), never_fetch)
        stack.clear()
        assert len(stack) == 0


#: Absolute machine clock after perfbench's standard drive (ops=2000,
#: records=400, seed=42) at the default (no-mechanism) configuration —
#: captured before the mechanism zoo landed (redo, mprotect and hybrid
#: later, before the WAL backends shared one base class). The default
#: miss path must execute the exact pre-zoo arithmetic, backend by
#: backend.
GOLDEN_DEFAULT_SIM_NS = {
    ("dram", "store_heavy"): 104032,
    ("dram", "mixed"): 104032,
    ("pm_direct", "store_heavy"): 264416,
    ("pm_direct", "mixed"): 264416,
    ("pmdk", "store_heavy"): 1887807,
    ("pmdk", "mixed"): 1381807,
    ("compiler", "store_heavy"): 2526809,
    ("compiler", "mixed"): 1891809,
    ("autopass", "store_heavy"): 1963241,
    ("autopass", "mixed"): 1457241,
    ("pax", "store_heavy"): 386320,
    ("pax", "mixed"): 386320,
    ("redo", "store_heavy"): 1710438,
    ("redo", "mixed"): 1203238,
    ("mprotect", "store_heavy"): 343526,
    ("mprotect", "mixed"): 343526,
    ("hybrid", "store_heavy"): 425278,
    ("hybrid", "mixed"): 425278,
}


class TestGoldenDefaults:
    @pytest.mark.parametrize("backend_name,workload",
                             sorted(GOLDEN_DEFAULT_SIM_NS))
    def test_default_miss_path_unchanged(self, backend_name, workload):
        backend = build_backend(backend_name)
        _drive(backend, workload, 2000, 400, 42)
        assert int(backend.machine.clock.now_ns) == \
            GOLDEN_DEFAULT_SIM_NS[(backend_name, workload)]


class TestHierarchyIntegration:
    def drive_pair(self, mechanisms, **kwargs):
        """Drive a mechanized and a default backend identically."""
        from repro.cache.cache import CacheConfig
        llc = CacheConfig(size_bytes=64 * 1024, ways=16)
        plain = build_backend("pax", llc_config=llc)
        mech = build_backend("pax", llc_config=llc, mechanisms=mechanisms,
                             **kwargs)
        for backend in (plain, mech):
            _drive(backend, "mixed", 1500, 2400, 42)
        return plain, mech

    def test_victim_hits_and_value_equivalence(self):
        plain, mech = self.drive_pair("victim:32")
        hier = mech.machine.hierarchy
        assert hier.stats.get("mech_hits") > 0
        # Performance overlay only: every observable value is identical.
        for key in range(0, 2400, 37):
            assert mech.get(key) == plain.get(key)

    def test_victim_never_slows_the_clock(self):
        # Victim probes are free on miss and save a home round trip on
        # a hit; its fetches are nil. The clock can only move down.
        plain, mech = self.drive_pair("victim:32")
        assert mech.now_ns <= plain.now_ns

    def test_crash_clears_host_mechanisms(self):
        _plain, mech = self.drive_pair("victim:32+nextline:16")
        stack = mech.machine.hierarchy.mechanisms
        mech.machine.crash()
        assert len(stack) == 0


class TestDeviceIntegration:
    def build(self):
        return build_backend("pax", device_mechanisms="stream:4x4",
                             hbm_lines=64)

    def test_device_stream_serves_pm_reads(self):
        backend = self.build()
        plain = build_backend("pax", hbm_lines=64)
        for b in (backend, plain):
            _drive(b, "mixed", 1500, 2400, 42)
        device = backend.machine.device
        assert device.stats.get("mech_hits") > 0
        # Mechanism hits replace PM media reads one for one (plus the
        # prefetch reads that filled them).
        assert device.stats.get("pm_line_reads") < \
            plain.machine.device.stats.get("pm_line_reads")
        for key in range(0, 2400, 37):
            assert backend.get(key) == plain.get(key)

    def test_crash_clears_device_mechanisms(self):
        backend = self.build()
        _drive(backend, "mixed", 400, 256, 42)
        device = backend.machine.device
        backend.machine.crash()
        assert len(device.mech) == 0

    def test_device_mechanisms_need_a_device(self):
        with pytest.raises(ConfigError):
            build_backend("pmdk", device_mechanisms="victim:8")
