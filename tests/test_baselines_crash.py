"""Crash consistency contracts per scheme, including mid-operation cuts.

Each backend class declares its contract once (``durability``); the
parametrizations below are derived from those declarations.
"""

import pytest

from repro.baselines import make_backend
from repro.baselines.pax import backend_classes
from repro.crashtest import CrashInjector, check_prefix_atomic, count_stores
from tests.conftest import small_cache_kwargs


def declaring(durability):
    """Names of the backends whose class declares ``durability``."""
    return [name for name, cls in backend_classes().items()
            if cls.durability == durability]


def build(name):
    kwargs = dict(heap_size=4 * 1024 * 1024, capacity=64)
    if name in ("pax", "hybrid"):
        kwargs = dict(pool_size=4 * 1024 * 1024, log_size=256 * 1024,
                      capacity=64)
    kwargs.update(small_cache_kwargs())
    return make_backend(name, **kwargs)


def test_every_backend_declares_its_contract():
    # Pinned so a changed declaration cannot silently drop a backend
    # from the contract tests below.
    declared = {name: cls.durability
                for name, cls in backend_classes().items()}
    assert declared == {
        "dram": "none", "pm_direct": "none",
        "pmdk": "per-op", "redo": "per-op", "compiler": "per-op",
        "autopass": "per-op",
        "mprotect": "per-persist", "pax": "per-persist",
        "hybrid": "per-persist",
    }


#: Simulated clock right after restart(), and restart()'s count of WAL
#: entries undone (undo schemes) or re-applied (redo), for a crash two
#: CPU stores into a put(). Recovery's cost must not drift.
RESTART_PINS = {
    "pmdk": (22211.3, 2),
    "compiler": (32234.7, 2),
    "autopass": (32629.3, 2),
    "redo": (17921.8, 5),
}


@pytest.mark.parametrize("name", sorted(RESTART_PINS))
def test_restart_cost_pinned(name):
    backend = build(name)
    for key in range(10):
        backend.put(key, key)
    injector = CrashInjector(backend.machine)
    injector.arm(2)
    assert injector.run(lambda: backend.put(99, 990))
    recovered = backend.restart()
    now_ns, count = RESTART_PINS[name]
    assert backend.now_ns == pytest.approx(now_ns, abs=1e-6)
    assert recovered == count
    check_prefix_atomic(backend.to_dict(), [("put", 99, 990)],
                        base_state={key: key for key in range(10)})


@pytest.mark.parametrize("name", declaring("per-op"))
class TestPerOpDurability:
    def test_all_completed_ops_survive(self, name):
        backend = build(name)
        for key in range(60):
            backend.put(key, key)
        backend.crash()
        backend.restart()
        assert backend.to_dict() == {key: key for key in range(60)}

    def test_removes_survive(self, name):
        backend = build(name)
        for key in range(20):
            backend.put(key, key)
        backend.remove(5)
        backend.remove(15)
        backend.crash()
        backend.restart()
        expected = {key: key for key in range(20) if key not in (5, 15)}
        assert backend.to_dict() == expected

    def test_mid_operation_crash_is_atomic(self, name):
        # Cut a put() half-way at several store offsets: after recovery
        # the op either fully happened or never happened.
        backend = build(name)
        for key in range(10):
            backend.put(key, key)
        base = backend.to_dict()
        stores = count_stores(backend.machine, lambda: backend.put(99, 990))
        backend.remove(99)   # undo the counting run (keeps state known)
        base = backend.to_dict()
        for cut in {1, stores // 2, max(1, stores - 1)}:
            fresh = build(name)
            for key, value in base.items():
                fresh.put(key, value)
            injector = CrashInjector(fresh.machine)
            injector.arm(cut)
            crashed = injector.run(lambda: fresh.put(99, 990))
            if not crashed:
                continue
            fresh.restart()
            check_prefix_atomic(fresh.to_dict(), [("put", 99, 990)],
                                base_state=base)


@pytest.mark.parametrize("name", declaring("per-persist"))
class TestSnapshotSemantics:
    def test_recovers_to_last_persist_exactly(self, name):
        backend = build(name)
        for key in range(30):
            backend.put(key, key)
        backend.persist()
        snapshot = dict(backend.to_dict())
        for key in range(30, 60):
            backend.put(key, key)
        backend.remove(0)
        backend.crash()
        backend.restart()
        assert backend.to_dict() == snapshot

    def test_mid_operation_crash_recovers_to_snapshot(self, name):
        backend = build(name)
        for key in range(20):
            backend.put(key, key)
        backend.persist()
        snapshot = dict(backend.to_dict())
        stores = count_stores(backend.machine,
                              lambda: backend.put(77, 770))
        # The counting run already applied the put; persist a new snapshot
        # and cut the next op instead.
        backend.persist()
        snapshot = dict(backend.to_dict())
        injector = CrashInjector(backend.machine)
        injector.arm(max(1, stores // 2))
        crashed = injector.run(lambda: backend.put(88, 880))
        assert crashed
        backend.restart()
        assert backend.to_dict() == snapshot

    def test_repeated_crash_restart_cycles(self, name):
        backend = build(name)
        committed = {}
        for cycle in range(4):
            for key in range(cycle * 10, cycle * 10 + 10):
                backend.put(key, cycle)
                committed[key] = cycle
            backend.persist()
            for key in range(100, 105):
                backend.put(key, 999)     # never persisted
            backend.crash()
            backend.restart()
            assert backend.to_dict() == committed


class TestPmDirectIsNotCrashConsistent:
    """The negative control: PM Direct tears."""

    def test_mid_op_crash_with_eadr_can_tear(self):
        # With eADR all stores are durable, so a cut put() leaves a torn
        # structure state (e.g. count bumped but node unlinked, or node
        # linked while allocator metadata is stale).
        torn_or_lost = 0
        for cut in (1, 2, 3, 5, 8):
            backend = make_backend("pm_direct", heap_size=4 * 1024 * 1024,
                                   capacity=64, eadr=True,
                                   **small_cache_kwargs())
            for key in range(10):
                backend.put(key, key)
            injector = CrashInjector(backend.machine)
            injector.arm(cut)
            if not injector.run(lambda: backend.put(42, 420)):
                continue
            if not backend.restart():
                torn_or_lost += 1
                continue
            try:
                state = backend.to_dict()
            except Exception:
                torn_or_lost += 1
                continue
            base = {key: key for key in range(10)}
            if state != base and state != dict(base, **{42: 420}):
                torn_or_lost += 1
        assert torn_or_lost > 0

    def test_plain_adr_loses_cached_writes(self):
        backend = make_backend("pm_direct", heap_size=4 * 1024 * 1024,
                               capacity=64, **small_cache_kwargs())
        for key in range(10):
            backend.put(key, key)
        backend.crash()
        if backend.restart():
            assert backend.to_dict() != {key: key for key in range(10)}
