"""Call budget: Python calls into ``repro`` for grid-cell work.

Wall-clock throughput on a shared machine swings by tens of percent
between runs; the number of Python calls a fixed piece of simulation
makes does not move at all. This test counts them, so that a change
which puts a call back on the miss side (docs/performance.md, rules 1,
4 and 6) fails here even when timing noise would hide it.

Counted: every ``call`` event of ``sys.setprofile`` whose code object
lives under the ``repro`` package, except comprehension and generator-
expression code objects (Python 3.12 inlines comprehensions, so
excluding them keeps 3.11, 3.12 and 3.13 in agreement). Generator
resumptions count as calls, as the profiler reports them.

Four counts, each measured in a fresh interpreter so the trace cache
starts empty:

* building a pax and a pmdk sweep-cell backend at the paxbench grid
  geometry (64/256 KiB 16-way LLC, 64 HBM lines, a victim buffer on
  the host and stream buffers on the device);
* replaying a small recorded pax trace and a small pmdk trace into
  such a backend (the replay only, not the recording).

Each count must stay at or below its budget plus 2%. A change that
lowers a count should lower the budget to the new value.

A fifth count is exact: one access to a line the core already holds in
L1 makes :data:`L1_HIT_CALLS` calls (docs/performance.md, rule 2).

    PYTHONPATH=src python tests/test_call_budget.py   # print the counts
"""

import json
import os
import subprocess
import sys

import pytest

import repro

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Code objects that are not calls the source spells out.
EXCLUDED_CODE_NAMES = frozenset({
    "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})

#: The sweep spec fields :func:`repro.sweep.build_cell_backend` reads,
#: at the paxbench grid's values.
GRID_GEOMETRY = {"llc_ways": 16, "hbm_lines": 64}

CELLS = {
    "pax": {"backend": "pax", "llc_kib": 64, "mechanisms": "victim:32",
            "device_mechanisms": "stream:4x4", "policy": "lru"},
    "pmdk": {"backend": "pmdk", "llc_kib": 256, "mechanisms": "stream:4x4",
             "device_mechanisms": "none", "policy": "lru"},
}

#: The recorded workload replayed into each cell (paxbench's tiny grid).
TRACE = {"workload": "mixed", "ops": 64, "records": 96, "seed": 1}

#: Calls counted when this budget was set; a count may exceed its
#: budget by at most :data:`SLACK`.
BUDGET = {
    "build_pax": 48711,
    "build_pmdk": 25191,
    "replay_pax": 12087,
    "replay_pmdk": 25411,
}
SLACK = 0.02

#: Calls one L1-hit access makes: ``read_u64``/``write_u64`` ->
#: ``CpuAccessor.read``/``write`` -> ``CacheHierarchy.load``/``store``
#: -> ``LruPolicy.on_access``.
L1_HIT_CALLS = 4


def count_calls(fn):
    """Run ``fn()``; return the number of calls into ``repro`` it made."""
    verdicts = {}
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event != "call":
            return
        code = frame.f_code
        counted = verdicts.get(code)
        if counted is None:
            counted = verdicts[code] = (
                code.co_filename.startswith(PACKAGE_DIR)
                and code.co_name not in EXCLUDED_CODE_NAMES)
        if counted:
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def measure():
    """The four counts, measured in this process (see the module doc)."""
    from repro.perfbench import record_cell_trace
    from repro.replay.engine import replay_trace
    from repro.sweep import build_cell_backend

    counts = {}
    for name, cell in CELLS.items():
        trace, _sim_ns = record_cell_trace(
            TRACE["workload"], name, TRACE["ops"], TRACE["records"],
            TRACE["seed"])
        build_cell_backend(GRID_GEOMETRY, cell)     # warm lazy imports
        built = []
        counts["build_" + name] = count_calls(
            lambda cell=cell: built.append(
                build_cell_backend(GRID_GEOMETRY, cell)))
        counts["replay_" + name] = count_calls(
            lambda trace=trace: replay_trace(trace, built[0]))
    return counts


def _measure_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONHASHSEED="0")
    src = os.path.dirname(PACKAGE_DIR.rstrip(os.sep))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)],
                          env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_calls_stay_within_budget():
    counts = _measure_in_a_fresh_interpreter()
    assert set(counts) == set(BUDGET)
    over = {name: (count, BUDGET[name]) for name, count in counts.items()
            if count > BUDGET[name] * (1 + SLACK)}
    assert not over, "calls (count, budget) over budget + %d%%: %s" % (
        SLACK * 100, over)


@pytest.mark.parametrize("shape", ("pax", "dram"))
def test_l1_hit_makes_four_calls(monkeypatch, shape):
    """No liveness call, no histogram call, and no clock call while the
    clock is idle: on a PAX machine, once its device has drained."""
    from repro.libpax.machine import HostMachine, PaxMachine
    from repro.util.fastpath import SLOW_PATH_ENV

    monkeypatch.setenv(SLOW_PATH_ENV, "0")
    if shape == "pax":
        machine = PaxMachine(pool_size=1 << 20, log_size=64 * 1024)
    else:
        machine = HostMachine("dram", heap_size=1 << 20)
    mem = machine.mem()
    mem.write_u64(64, 1)                 # the line is in L1, in M
    machine.clock.advance(1_000_000)     # the device drains and idles
    assert machine.clock.busy == 0
    hits = machine.hierarchy.stats.histogram("access_ns")
    recorded = hits.count
    expected_ns = machine.clock.now_ns
    assert count_calls(lambda: mem.read_u64(64)) == L1_HIT_CALLS
    assert count_calls(lambda: mem.write_u64(64, 2)) == L1_HIT_CALLS
    assert mem.read_u64(64) == 2
    # The shortcut still charged and sampled all three hits.
    for _hit in range(3):
        expected_ns += machine.latency.cache.l1_ns
    assert machine.clock.now_ns == expected_ns
    assert hits.count == recorded + 3


if __name__ == "__main__":
    print(json.dumps(measure(), sort_keys=True))
