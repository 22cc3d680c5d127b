"""Golden equivalence: replay must be indistinguishable from the
per-access path (the PR3 pattern, applied machine-wide).

Each case records a seeded workload through a live backend, replays the
trace onto a freshly built backend, and diffs the two machine-wide
fingerprints — simulated clock, every stat counter and histogram, every
memory device's bytes, the machine-shape scalars. An empty diff is the
acceptance criterion; anything else names exactly which quantity moved.
"""

import pytest

from repro.errors import TraceError, TraceUnsupportedError
from repro.perfbench import BACKENDS, build_backend
from repro.pm import log as pm_log
from repro.replay import MARK_TIMED, record, replay_trace
from repro.replay.equivalence import diff, fingerprint
from repro.sim.rng import DeterministicRng
from repro.util.fastpath import SLOW_PATH_ENV


def _drive(live, recorder=None, ops=300, records=32, seed=11):
    """A small mixed workload with an explicit mid-trace persist."""
    rng = DeterministicRng(seed)
    for i in range(records):
        live.put(i, i * 7)
    if recorder is not None:
        recorder.mark(MARK_TIMED)
    for i in range(ops):
        key = rng.randint(0, records - 1)
        if i % 3 == 0:
            live.get(key)
        else:
            live.put(key, i)
        if i == ops // 2:
            live.persist()
    live.persist()


def _record_golden(name):
    golden = build_backend(name)
    trace = record(golden, _drive)
    return golden, trace


@pytest.mark.parametrize("name", BACKENDS)
def test_replay_matches_per_access(name):
    golden, trace = _record_golden(name)
    fresh = build_backend(name)
    result = replay_trace(trace, fresh)
    assert diff(fingerprint(golden), fingerprint(fresh)) == []
    assert result.events == len(trace)
    assert result.sim_ns == golden.machine.clock.now_ns


@pytest.mark.parametrize("name", BACKENDS)
def test_generic_engine_matches_per_access(monkeypatch, name):
    # Replay onto a backend whose hierarchy takes the generic spec walk
    # (no L1-hit shortcut) must still match the fast per-access run.
    monkeypatch.setenv(SLOW_PATH_ENV, "0")
    golden, trace = _record_golden(name)
    monkeypatch.setenv(SLOW_PATH_ENV, "1")
    fresh = build_backend(name)
    result = replay_trace(trace, fresh)
    assert diff(fingerprint(golden), fingerprint(fresh)) == []
    assert result.sim_ns == golden.machine.clock.now_ns


def test_replay_is_repeatable(monkeypatch):
    # The second replay of one Trace object finds every log entry in the
    # encoder memo; the first starts with it empty. Both must match the
    # recording. pax writes undo-log entries and pmdk WAL entries through
    # that memo; redo's WAL appends skip the fence, which callers pass by
    # keyword and the recorded event holds positionally.
    for name in ("pax", "pmdk", "redo"):
        golden, trace = _record_golden(name)
        monkeypatch.setattr(pm_log, "_ENCODED", {})
        a, b = build_backend(name), build_backend(name)
        replay_trace(trace, a)
        replay_trace(trace, b)
        assert diff(fingerprint(golden), fingerprint(a)) == []
        assert diff(fingerprint(a), fingerprint(b)) == []


@pytest.mark.parametrize("replayed_before", [False, True])
def test_unknown_event_kind_names_it(replayed_before):
    _golden, trace = _record_golden("pax")
    if replayed_before:
        replay_trace(trace, build_backend("pax"))
    trace.seams[0] = "teleport"
    with pytest.raises(TraceError, match="unknown trace event 'teleport'"):
        replay_trace(trace, build_backend("pax"))


def test_marks_reported():
    _golden, trace = _record_golden("pax")
    fresh = build_backend("pax")
    result = replay_trace(trace, fresh)
    assert MARK_TIMED in result.marks
    assert result.sim_ns_timed <= result.sim_ns


def test_footer_records_final_sim_ns():
    golden, trace = _record_golden("dram")
    assert trace.footer["sim_ns_end"] == golden.machine.clock.now_ns


def test_crash_cannot_be_recorded():
    backend = build_backend("pax")

    def drive(live, _recorder):
        live.put(0, 1)
        live.crash()

    with pytest.raises(TraceUnsupportedError):
        record(backend, drive)


@pytest.mark.parametrize("recorded, target",
                         [("pax", "dram"), ("pmdk", "pax"), ("pmdk", "dram")])
def test_replay_onto_another_backend_is_refused(recorded, target):
    _golden, trace = _record_golden(recorded)
    with pytest.raises(TraceError, match="recorded on backend %r" % recorded):
        replay_trace(trace, build_backend(target))


def test_event_without_a_seam_names_its_kind():
    # A footer naming the wrong backend gets past the name check; the
    # first event the machine has no seam for must still fail typed.
    _golden, trace = _record_golden("pmdk")
    trace.footer["backend"] = "pax"
    with pytest.raises(TraceError, match="raw_read event"):
        replay_trace(trace, build_backend("pax"))
