"""The recorded trace form: determinism and argument capture."""

from repro.libpax.machine import HEAP_PHYS_BASE
from repro.perfbench import build_backend
from repro.replay import MARK_TIMED, record
from repro.sim.rng import DeterministicRng


def _recorded(seed=3):
    """One seeded pax recording's events and footer."""
    backend = build_backend("pax")

    def drive(live, recorder):
        rng = DeterministicRng(seed)
        for i in range(16):
            live.put(i, i * 3)
        recorder.mark(MARK_TIMED)
        for i in range(64):
            key = rng.randint(0, 15)
            if i & 1:
                live.put(key, i)
            else:
                live.get(key)

    trace = record(backend, drive, meta={"seed": seed})
    return list(zip(trace.seams, trace.args)), trace.footer


class TestDeterminism:
    def test_recording_is_deterministic(self):
        # Two recordings of the same seeded drive on fresh backends must
        # hold the same events and footer — the property that makes
        # trace caching sound.
        assert _recorded() == _recorded()

    def test_different_seed_changes_bytes(self):
        assert _recorded(seed=3)[0] != _recorded(seed=4)[0]


class TestArguments:
    def test_a_reused_buffer_leaves_the_recorded_event_unchanged(self):
        # Store, raw-write and WAL-append data is copied at record time:
        # the caller may mutate its buffer after the call returns.
        backend = build_backend("pmdk")
        line = HEAP_PHYS_BASE + (1 << 20)
        buf = bytearray(b"\x11" * 8)
        wal_buf = bytearray(b"\x22" * 64)

        def drive(live, _recorder):
            live.machine.hierarchy.store(0, line, buf)
            live.machine.space.write(line + 64, buf)
            live._wal.append(1, 0, wal_buf, fence=False)
            buf[:] = b"\xff" * 8
            wal_buf[:] = b"\xff" * 64

        trace = record(backend, drive)
        assert list(zip(trace.seams, trace.args)) == [
            ("store", (0, line, b"\x11" * 8)),
            ("raw_write", (line + 64, b"\x11" * 8)),
            ("wal_append", (1, 0, b"\x22" * 64, False)),
        ]
        for args in trace.args:
            assert all(type(arg) is not bytearray for arg in args)
