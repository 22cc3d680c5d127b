"""The autopass backend: staticcheck-generated gate placement driving
the same WAL machinery as the hand-written pmdk backend."""

import pytest

from repro.baselines import AutopassBackend, make_backend
from repro.crashtest import CrashInjector
from repro.errors import LogError
from repro.sanitizer import WalSanitizer
from tests.conftest import small_cache_kwargs


def build(capacity=64, **extra):
    kwargs = dict(heap_size=4 * 1024 * 1024, capacity=capacity)
    kwargs.update(small_cache_kwargs())
    kwargs.update(extra)
    return make_backend("autopass", **kwargs)


def test_registry_and_flags():
    backend = build()
    assert isinstance(backend, AutopassBackend)
    assert backend.name == "autopass"
    assert backend.durability == "per-op"


def test_basic_ops_and_grow():
    backend = build(capacity=4)
    for key in range(64):   # far past capacity: several grows
        backend.put(key, key * 3)
    assert len(backend) == 64
    assert backend.get(17) == 51
    assert backend.remove(17)
    assert backend.get(17) is None
    assert not backend.remove(17)
    expected = {key: key * 3 for key in range(64) if key != 17}
    assert backend.to_dict() == expected
    assert dict(backend.items()) == expected


def test_gate_count_tracks_committed_transactions():
    backend = build()
    before = backend.gate_count
    backend.put(1, 10)
    mid = backend.gate_count
    assert mid > before
    backend.get(1)          # loads commit nothing
    assert backend.gate_count == mid
    backend.remove(1)
    assert backend.gate_count > mid


def test_transaction_nesting_commits_once_at_outermost_end():
    backend = build()
    tx = backend._tx
    before = tx.gate_commits
    with tx.transaction():
        assert tx.in_tx
        with tx.transaction():      # nested region: no commit yet
            backend.put(3, 30)
        assert tx.gate_commits == before
        assert tx.in_tx
    assert tx.gate_commits == before + 1
    assert not tx.in_tx
    assert backend.get(3) == 30


def test_end_without_begin_raises():
    backend = build()
    with pytest.raises(LogError):
        backend._tx.end()


def test_walsan_clean_under_mixed_workload():
    backend = build(capacity=4)
    san = WalSanitizer()
    san.attach(backend)
    for key in range(40):
        backend.put(key, key)
    for key in range(0, 40, 3):
        backend.remove(key)
    backend.crash()
    backend.restart()
    assert san.ok, san.findings


def test_crash_recover_with_open_gate():
    # A crash strands an open gate; restart must roll the partial tx
    # back and reset the accessor so new gated ops work.
    backend = build()
    for key in range(8):
        backend.put(key, key)
    base = backend.to_dict()
    tx = backend._tx
    tx.begin()
    tx.write(64, b"\x42" * 64)      # uncommitted arena store
    backend.crash()
    undone = backend.restart()
    assert undone >= 1
    assert not tx.in_tx
    assert backend.to_dict() == base
    backend.put(99, 990)            # gates still work post-recovery
    assert backend.get(99) == 990


def test_crash_inside_mini_transaction_rolls_it_back():
    # A depth-zero store runs as a one-store transaction; a crash that
    # cuts it must leave it uncommitted, so recovery undoes its TX_ADD.
    backend = build()
    for key in range(8):
        backend.put(key, key)
    committed = backend._cells.committed_tx
    injector = CrashInjector(backend.machine)
    injector.arm(0)
    assert injector.run(lambda: backend._tx.write(64, b"\x42" * 8))
    assert backend._cells.committed_tx == committed
    assert backend.restart() == 1
    assert backend.to_dict() == {key: key for key in range(8)}


def test_sim_ns_parity_with_pmdk():
    # Identical no-grow workload: auto-placed gates commit the same
    # lines in the same batches as hand-written pmdk gates, so the two
    # backends consume *exactly* the same simulated time in steady
    # state. (Pool *creation* is excluded: there autopass wraps each
    # allocator store in a depth-0 mini-tx while pmdk covers creation
    # with one hand-written transaction, so the one-off setup cost
    # differs even though every put/remove afterwards matches.)
    def drive(name):
        kwargs = dict(heap_size=4 * 1024 * 1024, capacity=256)
        kwargs.update(small_cache_kwargs())
        backend = make_backend(name, **kwargs)
        start = backend.now_ns
        for i in range(120):
            backend.put(i % 50, i)
        for i in range(0, 50, 4):
            backend.remove(i)
        return backend.now_ns - start

    # approx only absorbs float dust: the two clocks accumulate the
    # same increments on different bases, so the deltas agree to ~1e-9
    # relative but not bit-for-bit.
    assert drive("autopass") == pytest.approx(drive("pmdk"), abs=1e-3)
