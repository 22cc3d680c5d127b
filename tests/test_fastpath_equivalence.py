"""Golden equivalence for the hot-path optimizations.

The cache hierarchy and the PM device carry single-line fast paths that
bypass the generic ``split_lines``/``lines_covering`` walk, plus bound
counters and inlined accounting (docs/performance.md). Setting
``REPRO_SLOW_PATH=1`` before construction forces the generic code.  These
tests run the *same* mixed workload — loads, stores, persists, a crash,
recovery — under both settings and require byte-identical observable
behaviour: every stat snapshot, the simulated clock, the wear profile,
and the recovered pool contents.  Any divergence means an optimization
changed simulated behaviour, not just wall-clock speed.

The randomized cases at the end draw cache geometries, replacement
policies and mechanism stacks from fixed seeds and compare machine-wide
fingerprints; single-core backends add a third leg, replay of the
recorded trace.
"""

import functools
import types

import pytest

from repro.baselines.pax import PaxBackend, make_backend
from repro.cache.cache import CacheConfig
from repro.core.config import PaxConfig
from repro.libpax.machine import HostMachine, PaxMachine
from repro.perfbench import BACKENDS
from repro.pm.device import PmDevice
from repro.replay import record, replay_trace
from repro.replay.equivalence import diff, fingerprint
from repro.sim.rng import DeterministicRng
from repro.util.fastpath import SLOW_PATH_ENV, fast_path_enabled
from repro.util.stats import StatGroup

from tests.conftest import small_cache_kwargs


def _collect_stat_groups(root):
    """Every StatGroup reachable from ``root`` via instance attributes."""
    seen = set()
    groups = []
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, StatGroup):
            groups.append(obj)
            continue
        values = []
        attrs = getattr(obj, "__dict__", None)
        if attrs:
            values.extend(attrs.values())
        if isinstance(obj, (list, tuple, set, frozenset)):
            values.extend(obj)
        elif isinstance(obj, dict):
            values.extend(obj.values())
        for value in values:
            if isinstance(value, (str, bytes, bytearray, int, float,
                                  bool, type(None))):
                continue
            stack.append(value)
    return groups


def _stats_fingerprint(root):
    """Sorted, hashable image of every stat group under ``root``."""
    return sorted(
        (group.owner, tuple(sorted(group.snapshot().items())))
        for group in _collect_stat_groups(root))


def _drive_pax(backend):
    """Mixed load/store/persist/crash/recover workload."""
    for i in range(80):
        backend.put(i, i * 2 + 1)
        if i % 7 == 0:
            backend.get(i)
    backend.persist()
    for i in range(0, 40, 3):
        backend.remove(i)
    for i in range(80, 120):
        backend.put(i, i ^ 0x5A)
    backend.persist()
    # Uncommitted tail, then power loss: recovery must roll it back.
    for i in range(120, 128):
        backend.put(i, i)
    backend.crash()
    rolled_back = backend.restart()
    for i in range(128, 140):
        backend.put(i, i + 7)
    backend.persist()
    return rolled_back


def _pax_fingerprint():
    backend = PaxBackend(pool_size=4 * 1024 * 1024, log_size=256 * 1024,
                         capacity=256, **small_cache_kwargs())
    rolled_back = _drive_pax(backend)
    return {
        "rolled_back": rolled_back,
        "clock_ns": backend.machine.clock.now_ns,
        "contents": backend.to_dict(),
        "wear": backend.machine.pm.wear_profile(),
        "stats": _stats_fingerprint(backend),
    }


def test_pax_fast_and_slow_paths_are_byte_identical(monkeypatch):
    monkeypatch.setenv(SLOW_PATH_ENV, "0")
    assert fast_path_enabled()
    fast = _pax_fingerprint()

    monkeypatch.setenv(SLOW_PATH_ENV, "1")
    assert not fast_path_enabled()
    slow = _pax_fingerprint()

    assert fast["rolled_back"] == slow["rolled_back"]
    assert fast["clock_ns"] == slow["clock_ns"]
    assert fast["contents"] == slow["contents"]
    assert fast["wear"] == slow["wear"]
    assert fast["stats"] == slow["stats"]


def _host_fingerprint(media):
    machine = HostMachine(media=media, heap_size=1 * 1024 * 1024,
                          **small_cache_kwargs())
    mem = machine.mem()
    # Aligned words, unaligned spans, and line-crossing writes: the
    # single-line fast path and the generic walk must split identically.
    for i in range(64):
        mem.write_u64(i * 8, i * 3 + 1)
    for i in range(16):
        mem.write(4000 + i * 61, bytes([i]) * 61)
    total = 0
    for i in range(64):
        total += mem.read_u64(i * 8)
    blob = mem.read(4000, 16 * 61)
    return {
        "clock_ns": machine.clock.now_ns,
        "sum": total,
        "blob": blob,
        "stats": _stats_fingerprint(machine),
    }


def test_host_machine_fast_and_slow_paths_match(monkeypatch):
    for media in ("dram", "pm"):
        monkeypatch.setenv(SLOW_PATH_ENV, "0")
        fast = _host_fingerprint(media)
        monkeypatch.setenv(SLOW_PATH_ENV, "1")
        slow = _host_fingerprint(media)
        assert fast == slow, "fast/slow divergence on %s machine" % media


def _pm_device_fingerprint():
    device = PmDevice("pm", 64 * 1024)
    # One-line, exact-line, straddling, and long multi-line writes.
    device.write(0, b"a" * 8)
    device.write(64, b"b" * 64)
    device.write(60, b"c" * 8)
    device.write(130, b"d" * 700)
    device.write(63, b"e")
    return {
        "wear": dict(device.line_wear),
        "profile": device.wear_profile(),
        "lines_written": device.stats.get("lines_written"),
        "contents": device.read(0, 1024),
    }


def test_pm_device_fast_and_slow_paths_match(monkeypatch):
    monkeypatch.setenv(SLOW_PATH_ENV, "0")
    fast = _pm_device_fingerprint()
    monkeypatch.setenv(SLOW_PATH_ENV, "1")
    slow = _pm_device_fingerprint()
    assert fast == slow


# -- randomized differential checks ------------------------------------------

_POLICIES = ("lru", "fifo", "random")
_HOST_MECHANISMS = ("none", "victim:8", "miss:4", "stream:2x4",
                    "nextline:4", "victim:8+nextline:4")
_DEVICE_MECHANISMS = ("none", "victim:8", "stream:2x4", "nextline:4")


def _level(rng, min_sets, policy):
    ways = rng.choice((1, 2, 4, 8))
    sets = min_sets * rng.choice((1, 2, 4))
    return CacheConfig(size_bytes=sets * ways * 64, ways=ways, policy=policy)


def _draw_machine_kwargs(rng):
    """A small random cache geometry, policy and host mechanism stack."""
    policy = rng.choice(_POLICIES)
    kwargs = dict(l1_config=_level(rng, 4, policy),
                  l2_config=_level(rng, 16, policy),
                  llc_config=_level(rng, 32, policy))
    mechanisms = rng.choice(_HOST_MECHANISMS)
    if mechanisms != "none":
        kwargs.update(mechanisms=mechanisms, mech_policy=policy)
    return kwargs


def _draw_pax_config(rng):
    mechanisms = rng.choice(_DEVICE_MECHANISMS)
    return PaxConfig(hbm_lines=rng.choice((0, 8, 64, 1024)),
                     mechanisms=None if mechanisms == "none" else mechanisms,
                     mechanism_policy=rng.choice(_POLICIES))


def _random_backend(name, seed):
    """A ``name`` backend of a random shape, rebuilt identically per seed."""
    rng = DeterministicRng(seed).fork(name)
    kwargs = _draw_machine_kwargs(rng)
    kwargs["capacity"] = 64
    if name == "pax":
        kwargs.update(pool_size=1 << 20, log_size=128 * 1024,
                      pax_config=_draw_pax_config(rng))
    else:
        kwargs["heap_size"] = 1 << 20
    return make_backend(name, **kwargs)


def _drive_random(seed, live, _recorder=None):
    rng = DeterministicRng(seed ^ 0x5EED)
    for _step in range(160):
        key = rng.randint(0, 95)
        action = rng.randint(0, 19)
        if action < 9:
            live.put(key, rng.randint(0, 1 << 40))
        elif action < 19:
            live.get(key)
        else:
            live.persist()


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("seed", range(3))
def test_random_backend_fast_slow_and_replay_agree(monkeypatch, name, seed):
    """Fast path, REPRO_SLOW_PATH=1 and replay of the recorded trace must
    leave identical machine-wide fingerprints, over random cache
    geometries, replacement policies and mechanism stacks."""
    monkeypatch.setenv(SLOW_PATH_ENV, "0")
    golden = _random_backend(name, seed)
    trace = record(golden, functools.partial(_drive_random, seed))
    fast = fingerprint(golden)
    replayed = _random_backend(name, seed)
    replay_trace(trace, replayed)
    assert diff(fast, fingerprint(replayed)) == []
    monkeypatch.setenv(SLOW_PATH_ENV, "1")
    slow = _random_backend(name, seed)
    _drive_random(seed, slow)
    assert diff(fast, fingerprint(slow)) == []


def _two_core_fingerprint(shape, seed):
    """Random loads and stores from two cores on few lines, so lines move
    through silent E->M (host homes grant E), S->M upgrades (PAX never
    grants E) and cross-core steals."""
    rng = DeterministicRng(seed)
    kwargs = _draw_machine_kwargs(rng)
    if shape == "host":
        machine = HostMachine(media=rng.choice(HostMachine.MEDIA),
                              heap_size=256 * 1024, num_cores=2, **kwargs)
    else:
        machine = PaxMachine(pool_size=1 << 20, log_size=128 * 1024,
                             num_cores=2, pax_config=_draw_pax_config(rng),
                             **kwargs)
    mems = (machine.mem(0), machine.mem(1))
    lines = rng.choice((8, 32, 128))
    for _step in range(400):
        mem = mems[rng.randint(0, 1)]
        addr = 64 * rng.randint(1, lines) + 8 * rng.randint(0, 7)
        action = rng.randint(0, 19)
        if action < 9:
            mem.read_u64(addr)
        elif action < 18:
            mem.write_u64(addr, rng.randint(0, 1 << 40))
        elif action == 18:
            mem.write(addr + 4, rng.bytes(64))    # spans two lines
        elif shape == "pax":
            machine.persist()
        else:
            mem.read(addr + 4, 64)
    return fingerprint(types.SimpleNamespace(machine=machine))


def _pipelined_fingerprint(seed):
    """Random accesses around pipelined and blocking persists, some
    started from an idle device, on a log slow enough that the crash
    hits an epoch in flight. Returns the fingerprint and the pipeline
    depth at the crash."""
    rng = DeterministicRng(seed)
    kwargs = _draw_machine_kwargs(rng)
    config = _draw_pax_config(rng)
    config.log_drain_bps = rng.choice((2e7, 1e8))
    machine = PaxMachine(pool_size=1 << 20, log_size=128 * 1024,
                         pax_config=config, **kwargs)
    mem = machine.mem()

    def accesses(count):
        for _step in range(count):
            addr = 64 * rng.randint(1, 48) + 8 * rng.randint(0, 7)
            if rng.randint(0, 1):
                mem.write_u64(addr, rng.randint(0, 1 << 40))
            else:
                mem.read_u64(addr)

    accesses(150)
    machine.persist_async()
    accesses(80)
    machine.persist_barrier()
    accesses(150)
    # An idle stretch drains the log: the next persists start from an
    # idle device whose snoops bring it work.
    machine.clock.advance(1_000_000)
    machine.persist_async()
    accesses(40)
    machine.persist_async()
    accesses(3)
    depth = machine.device.pipeline.depth
    machine.crash()
    machine.restart()
    accesses(100)
    machine.clock.advance(1_000_000)
    machine.persist()
    accesses(20)
    return fingerprint(types.SimpleNamespace(machine=machine)), depth


@pytest.mark.parametrize("seed", range(3))
def test_pipelined_persist_fast_and_slow_paths_agree(monkeypatch, seed):
    monkeypatch.setenv(SLOW_PATH_ENV, "0")
    fast, depth = _pipelined_fingerprint(seed)
    assert depth > 0, "the crash must hit an epoch in flight"
    monkeypatch.setenv(SLOW_PATH_ENV, "1")
    slow, _depth = _pipelined_fingerprint(seed)
    assert diff(fast, slow) == []


@pytest.mark.parametrize("shape", ("host", "pax"))
@pytest.mark.parametrize("seed", range(3))
def test_random_two_core_fast_and_slow_paths_agree(monkeypatch, shape, seed):
    # No replay leg: the recorder refuses multi-core schedules.
    monkeypatch.setenv(SLOW_PATH_ENV, "0")
    fast = _two_core_fingerprint(shape, seed)
    monkeypatch.setenv(SLOW_PATH_ENV, "1")
    assert diff(fast, _two_core_fingerprint(shape, seed)) == []
