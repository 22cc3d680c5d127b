"""Wall-clock performance regression harness.

Everything else in this repository measures *simulated* nanoseconds; this
package measures how fast the simulator itself runs, so that hot-path
regressions (an accidental per-access allocation, a string-keyed stat
lookup creeping back in) are caught by a number rather than by a feeling.
See docs/performance.md for the design rules this harness polices.

``python -m repro.perfbench`` runs a fixed workload x backend matrix and
writes a JSON report (see :data:`SCHEMA`); ``--compare`` grades a fresh
run against a committed baseline and fails on regression. Two different
quantities appear in a report and are deliberately kept apart:

* ``ops_per_sec`` — wall-clock throughput. Machine-dependent; compared
  with a tolerance.
* ``sim_ns`` — simulated time the workload consumed. Machine-independent
  and fully deterministic; compared exactly when configurations match,
  because any drift means simulated *behaviour* changed, which is never
  acceptable for a performance-only patch.

Wall-clock timing is inherently non-deterministic, so this package (like
``sim/clock.py``) is sanctioned to import :mod:`time`; nothing here feeds
back into simulation results.
"""

import gc
import json
import time

from repro.baselines import make_backend
from repro.cache.cache import CacheConfig
from repro.errors import ConfigError
from repro.replay import MARK_TIMED, record, replay_trace
from repro.sim.rng import DeterministicRng

#: Report format identifier, bumped on incompatible layout changes.
SCHEMA = "repro.perfbench/1"

#: Comparison report format identifier (see :func:`compare_report`).
COMPARE_SCHEMA = "repro.perfbench.compare/1"

#: Workloads in the default matrix.
WORKLOADS = ("store_heavy", "load_heavy", "mixed")

#: Execution engines. ``access`` drives the backend through its public
#: put/get path (the executable spec); ``replay`` records that exact
#: event stream once per cell config, then re-executes the trace through
#: :mod:`repro.replay` — byte-identical simulated behaviour, measured on
#: the replay interpreter's wall clock.
ENGINES = ("access", "replay")

#: Backends in the default matrix (the paper's headline comparison set,
#: plus the instrumentation spectrum: hand-written gates ``pmdk``,
#: per-store compiler gates ``compiler``, auto-placed gates ``autopass``).
BACKENDS = ("dram", "pm_direct", "pmdk", "compiler", "autopass", "pax")

#: Per-cell accounting pulled off backends that expose it: gate commits,
#: ordering stalls, undo-log bytes. How hand-written vs compiler vs
#: auto-placed gate placement differ shows up in these columns.
CELL_COUNTERS = ("gate_count", "sfence_count", "wal_bytes")

#: Default operation counts: sized so a full matrix finishes in about a
#: minute on a laptop while still spending >90% of its time in the
#: simulator's per-access path.
DEFAULT_OPS = 20000
DEFAULT_RECORDS = 2000
DEFAULT_SEED = 42

#: Same ~8x-scaled cache geometry the pytest benchmarks use, so perfbench
#: exercises the realistic mixed hit/miss regime rather than pure L1 hits.
BENCH_CACHES = dict(
    l1_config=CacheConfig(size_bytes=8 * 1024, ways=4),
    l2_config=CacheConfig(size_bytes=64 * 1024, ways=8),
    llc_config=CacheConfig(size_bytes=256 * 1024, ways=16),
)

_HEAP = 8 * 1024 * 1024
_LOG = 2 * 1024 * 1024


def build_backend(name, llc_config=None, mechanisms=None, mech_policy="lru",
                  device_mechanisms=None, hbm_lines=None):
    """Build ``name`` with perfbench-standard sizing.

    The optional overrides are the sweep axes (:mod:`repro.sweep`):
    ``llc_config`` replaces the BENCH_CACHES LLC, ``mechanisms`` is a
    miss-path mechanism spec (:mod:`repro.cache.mechanisms`) applied to
    the host hierarchy, ``mech_policy`` the buffer-internal replacement
    policy, ``device_mechanisms`` the spec for the PAX device's PM read
    path, and ``hbm_lines`` shrinks (or grows) the device's HBM cache so
    that path actually sees PM traffic. The device knobs apply to
    PAX-family backends only. All default to the historical
    configuration, so existing callers (and committed baselines) are
    untouched.
    """
    kwargs = dict(heap_size=_HEAP, capacity=1 << 12)
    if name in ("pax", "hybrid"):
        kwargs = dict(pool_size=_HEAP, log_size=_LOG, capacity=1 << 12)
        if device_mechanisms not in (None, "", "none") or hbm_lines is not None:
            from repro.core.config import PaxConfig
            config = PaxConfig(mechanism_policy=mech_policy)
            if device_mechanisms not in (None, "", "none"):
                config.mechanisms = device_mechanisms
            if hbm_lines is not None:
                config.hbm_lines = hbm_lines
            kwargs["pax_config"] = config
    elif device_mechanisms not in (None, "", "none"):
        raise ConfigError(
            "device mechanisms need a PAX device; backend %r has none"
            % (name,))
    kwargs.update(BENCH_CACHES)
    if llc_config is not None:
        kwargs["llc_config"] = llc_config
    if mechanisms not in (None, "", "none"):
        kwargs["mechanisms"] = mechanisms
        kwargs["mech_policy"] = mech_policy
    return make_backend(name, **kwargs)


def _run_ops(backend, workload, ops, hi, rng):
    """The timed operation loop of ``workload`` (no timing here)."""
    if workload == "store_heavy":
        for i in range(ops):
            backend.put(rng.randint(0, hi), i)
    elif workload == "load_heavy":
        for _i in range(ops):
            backend.get(rng.randint(0, hi))
    elif workload == "mixed":
        for i in range(ops):
            key = rng.randint(0, hi)
            if i & 1:
                backend.put(key, i)
            else:
                backend.get(key)
    else:
        raise ConfigError("unknown workload %r (have %s)"
                          % (workload, ", ".join(WORKLOADS)))


def _drive(backend, workload, ops, records, seed):
    """Run the timed phase; returns (wall_s, sim_ns)."""
    rng = DeterministicRng(seed)
    for i in range(records):
        backend.put(i, i)
    hi = records - 1
    sim_start = backend.now_ns
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _run_ops(backend, workload, ops, hi, rng)
        wall_s = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return wall_s, backend.now_ns - sim_start


#: (workload, backend, ops, records, seed) -> (Trace, timed-phase sim_ns).
#: Replay cells record once per configuration and replay many times, so
#: sweeps pay the recording cost a single time.
_TRACE_CACHE = {}


def record_cell_trace(workload, backend_name, ops, records, seed):
    """Record (or fetch the cached) trace for one cell configuration.

    The machine-seam event stream depends on structure logic and data
    values, **not** on cache geometry or miss-path mechanisms — which is
    what lets :mod:`repro.sweep` record once at the default configuration
    and replay the same trace across a whole cache-config grid.
    """
    key = (workload, backend_name, ops, records, seed)
    cached = _TRACE_CACHE.get(key)
    if cached is not None:
        return cached
    backend = build_backend(backend_name)
    timed_sim = []

    def drive(live, recorder):
        rng = DeterministicRng(seed)
        for i in range(records):
            live.put(i, i)
        recorder.mark(MARK_TIMED)
        sim_start = live.now_ns
        _run_ops(live, workload, ops, records - 1, rng)
        timed_sim.append(live.now_ns - sim_start)

    trace = record(backend, drive,
                   meta={"workload": workload, "ops": ops,
                         "records": records, "seed": seed})
    cached = (trace, timed_sim[0])
    _TRACE_CACHE[key] = cached
    return cached


def _drive_replay(workload, backend_name, ops, records, seed):
    """Replay one cell's recorded trace; returns (wall_s, sim_ns, backend).

    The trace is recorded (and cached) through the per-access path, so
    the replayed simulation is that path's event stream re-executed; the
    engine asserts the timed-phase ``sim_ns`` matches the recording —
    every replay cell is a free equivalence check on the clock.
    """
    trace, expected_sim = record_cell_trace(
        workload, backend_name, ops, records, seed)
    backend = build_backend(backend_name)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = replay_trace(trace, backend,
                              stopwatch=time.perf_counter)
    finally:
        if gc_was_enabled:
            gc.enable()
    if result.sim_ns_timed != expected_sim:
        raise ConfigError(
            "replay diverged: %s/%s timed phase consumed %d sim-ns, "
            "the per-access recording consumed %d"
            % (workload, backend_name, result.sim_ns_timed, expected_sim))
    return result.wall_s_timed, result.sim_ns_timed, backend


def attach_tracer(backend, tracer):
    """Wire ``tracer`` into ``backend`` through its richest attach hook.

    ``repro.obs`` tracers know how to attach themselves (adopting the
    backend's simulated clock); plain :class:`~repro.sanitizer.base.Tracer`
    objects go through the backend's or machine's ``attach_tracer``.
    """
    self_attach = getattr(tracer, "attach", None)
    if self_attach is not None:
        self_attach(backend)
        return
    hook = getattr(backend, "attach_tracer", None)
    (hook or backend.machine.attach_tracer)(tracer)


def _run_cell(workload, backend_name, ops, records, seed, repeats, tracer,
              engine="access"):
    """Measure one cell; returns ``(result dict, last backend)``."""
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    if engine not in ENGINES:
        raise ConfigError("unknown engine %r (have %s)"
                          % (engine, ", ".join(ENGINES)))
    if engine == "replay" and tracer is not None:
        raise ConfigError("tracers observe the per-access path; replay "
                          "cells cannot be traced")
    best_wall = None
    sim_ns = None
    backend = None
    for _attempt in range(repeats):
        if engine == "replay":
            wall_s, cell_sim_ns, backend = _drive_replay(
                workload, backend_name, ops, records, seed)
        else:
            backend = build_backend(backend_name)
            if tracer is not None:
                attach_tracer(backend, tracer)
            wall_s, cell_sim_ns = _drive(backend, workload, ops, records,
                                         seed)
        if sim_ns is None:
            sim_ns = cell_sim_ns
        elif sim_ns != cell_sim_ns:
            raise ConfigError(
                "non-deterministic simulation: %s/%s consumed %d ns then %d"
                % (workload, backend_name, sim_ns, cell_sim_ns))
        if best_wall is None or wall_s < best_wall:
            best_wall = wall_s
    cell = {
        "workload": workload,
        "backend": backend_name,
        "engine": engine,
        "ops": ops,
        "wall_s": round(best_wall, 6),
        "ops_per_sec": round(ops / best_wall, 1) if best_wall > 0 else 0.0,
        "sim_ns": sim_ns,
    }
    for counter in CELL_COUNTERS:
        value = getattr(backend, counter, None)
        # bool is an int subclass; exclude it so a stray flag attribute
        # never masquerades as a counter.
        if isinstance(value, int) and not isinstance(value, bool):
            cell[counter] = value
    return cell, backend


def run_cell(workload, backend_name, ops=DEFAULT_OPS, records=DEFAULT_RECORDS,
             seed=DEFAULT_SEED, repeats=1, tracer=None, engine="access"):
    """Measure one workload x backend cell; returns a result dict.

    With ``repeats`` > 1 the cell is rebuilt and rerun that many times and
    the best (largest throughput) wall-clock figure is reported — the
    standard defence against a scheduler hiccup polluting a measurement.
    ``sim_ns`` is identical across repeats by construction; this is
    asserted, making every multi-repeat run a free determinism check.

    ``tracer`` (a :class:`~repro.obs.tracer.ObsTracer` or any sanitizer
    tracer) is attached to every rebuilt backend; since tracers only
    observe, the ``sim_ns`` assertion keeps holding — which is how the
    harness proves tracing never perturbs the simulation.

    ``engine`` selects how the cell executes (see :data:`ENGINES`).
    Replay cells record the per-access event stream once, then measure
    the trace interpreter; their ``sim_ns`` is checked against the
    recording, so the two engines are directly comparable.
    """
    cell, _backend = _run_cell(workload, backend_name, ops, records, seed,
                               repeats, tracer, engine)
    return cell


def run_matrix(workloads=WORKLOADS, backends=BACKENDS, ops=DEFAULT_OPS,
               records=DEFAULT_RECORDS, seed=DEFAULT_SEED, repeats=1,
               progress=None, tracer_factory=None, cell_hook=None,
               engines=("access",)):
    """Run the full matrix; returns the report dict (see :data:`SCHEMA`).

    ``tracer_factory()`` (optional) builds a fresh tracer per cell;
    ``cell_hook(cell, backend, tracer)`` then receives each finished
    cell with its (last-repeat) backend and tracer, so the CLI can dump
    trace events and metrics without the report format changing.

    ``engines`` extends the matrix with a third axis; the default stays
    access-only so existing baselines keep their shape. Grids over cache
    geometry and miss-path mechanisms belong to :mod:`repro.sweep`.
    """
    results = []
    for engine in engines:
        for workload in workloads:
            for backend_name in backends:
                tracer = (tracer_factory() if tracer_factory is not None
                          and engine == "access" else None)
                cell, backend = _run_cell(workload, backend_name, ops,
                                          records, seed, repeats, tracer,
                                          engine)
                results.append(cell)
                if progress is not None:
                    progress(cell)
                if cell_hook is not None:
                    cell_hook(cell, backend, tracer)
    return {
        "schema": SCHEMA,
        "config": {
            "ops": ops,
            "records": records,
            "seed": seed,
            "repeats": repeats,
            "workloads": list(workloads),
            "backends": list(backends),
            "engines": list(engines),
        },
        "results": results,
    }


def write_report(report, path):
    """Write ``report`` as pretty JSON with a trailing newline."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path):
    """Load and schema-check a report written by :func:`write_report`."""
    with open(path) as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA:
        raise ConfigError("%s is not a %s report (schema=%r)"
                          % (path, SCHEMA, report.get("schema")))
    return report


def _cell_key(cell):
    """Identity of a cell across reports. Baselines written before the
    engine axis existed (``BENCH_PR3.json``) carry no ``engine`` field;
    those cells are access cells by construction. Perfbench cells carry
    no ``mechanisms`` field; the sweep's perfbench view
    (:func:`repro.sweep.report.perfbench_view`) writes its variant id
    there."""
    return (cell["workload"], cell["backend"], cell.get("engine", "access"),
            cell.get("mechanisms", "none"))


def compare_report(current, baseline, tolerance=0.30):
    """Grade ``current`` against ``baseline``; returns a comparison dict.

    The dict (schema :data:`COMPARE_SCHEMA`) is the machine-readable form
    the CLI writes next to its human-readable verdict: one entry per cell
    present in both reports, carrying both wall-clock figures, the delta,
    and the pass/fail flags, plus the flat ``problems`` list that
    :func:`compare` returns.

    Two checks, matching the two quantities in a report:

    * wall-clock: a cell regresses when its throughput drops below
      ``baseline * (1 - tolerance)``. Tolerant, because machines differ.
    * simulated time: compared **exactly**, but only when the two reports
      ran the same config (ops/records/seed) — ``sim_ns`` must not move
      under a performance-only change.

    Cells present in only one report are ignored (the matrix may grow).
    """
    if not 0 <= tolerance < 1:
        raise ConfigError("tolerance must be in [0, 1)")
    base_cells = {_cell_key(cell): cell for cell in baseline["results"]}
    same_config = all(
        current["config"].get(key) == baseline["config"].get(key)
        for key in ("ops", "records", "seed"))
    cells = []
    problems = []
    for cell in current["results"]:
        workload, backend, engine, _mechanisms = _cell_key(cell)
        base = base_cells.get(_cell_key(cell))
        if base is None:
            continue
        floor = base["ops_per_sec"] * (1.0 - tolerance)
        regressed = cell["ops_per_sec"] < floor
        ratio = (cell["ops_per_sec"] / base["ops_per_sec"]
                 if base["ops_per_sec"] > 0 else 0.0)
        entry = {
            "workload": workload,
            "backend": backend,
            "engine": engine,
            "wall_s": cell["wall_s"],
            "baseline_wall_s": base["wall_s"],
            "wall_s_delta": round(cell["wall_s"] - base["wall_s"], 6),
            "ops_per_sec": cell["ops_per_sec"],
            "baseline_ops_per_sec": base["ops_per_sec"],
            "throughput_ratio": round(ratio, 4),
            "regressed": regressed,
            "sim_ns": cell["sim_ns"],
            "baseline_sim_ns": base["sim_ns"],
            "sim_ns_checked": same_config,
            "sim_ns_match": cell["sim_ns"] == base["sim_ns"],
        }
        cells.append(entry)
        if regressed:
            problems.append(
                "%s/%s[%s]: %.0f ops/s is below %.0f (baseline %.0f - %d%%)"
                % (workload, backend, engine, cell["ops_per_sec"],
                   floor, base["ops_per_sec"], round(tolerance * 100)))
        if same_config and cell["sim_ns"] != base["sim_ns"]:
            problems.append(
                "%s/%s[%s]: simulated time changed %d -> %d ns under "
                "identical config; the patch changed behaviour, not just "
                "speed"
                % (workload, backend, engine, base["sim_ns"],
                   cell["sim_ns"]))
    return {
        "schema": COMPARE_SCHEMA,
        "tolerance": tolerance,
        "same_config": same_config,
        "cells": cells,
        "problems": problems,
    }


def compare(current, baseline, tolerance=0.30):
    """Grade ``current`` against ``baseline``; returns a list of problems.

    Convenience wrapper over :func:`compare_report` — the flat problem
    strings only, for callers that just need a pass/fail verdict.
    """
    return compare_report(current, baseline, tolerance)["problems"]
