"""Wall-clock performance regression harness.

Everything else in this repository measures *simulated* nanoseconds; this
package measures how fast the simulator itself runs, so that hot-path
regressions (an accidental per-access allocation, a string-keyed stat
lookup creeping back in) are caught by a number rather than by a feeling.
See docs/performance.md for the design rules this harness polices.

``python -m repro.perfbench`` runs a fixed workload x backend x engine
matrix and writes a JSON report (see :data:`SCHEMA`); ``--compare``
grades a fresh run against a committed baseline recorded at the same
configuration (:func:`compare`). Two kinds of quantity appear in a cell
and are deliberately kept apart:

* ``wall_s`` / ``ops_per_sec`` — wall-clock throughput. Machine-dependent;
  compared with a fixed :data:`TOLERANCE`.
* everything else (``sim_ns``, the :data:`CELL_COUNTERS`) — simulated
  quantities. Machine-independent and fully deterministic; compared
  exactly, because any drift means simulated *behaviour* changed, which
  is never acceptable for a performance-only patch.

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
SCHEMA = "repro.perfbench/2"

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

#: The CLI's defaults, the configuration the committed baseline
#: ``BENCH.json`` is recorded at and CI grades: the full matrix on both
#: engines in well under a minute, best of two runs per cell.
DEFAULT_OPS = 4000
DEFAULT_RECORDS = 800
DEFAULT_SEED = 42
DEFAULT_REPEATS = 2

#: Allowed fractional throughput drop, the one field graded with slack:
#: on the 2-vCPU VM that recorded ``BENCH.json`` a cell ran up to 2.4x
#: slower in one process than in another, whatever the repeat count.
TOLERANCE = 0.70

#: Cell fields measured on the wall clock; :func:`compare` checks every
#: other field exactly.
WALL_FIELDS = ("wall_s", "ops_per_sec")

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
                tracer.attach(backend)
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

    ``tracer`` (a :class:`~repro.obs.tracer.ObsTracer`) is attached to
    every rebuilt backend; since tracers only observe, the ``sim_ns``
    assertion keeps holding — which is how the harness proves tracing
    never perturbs the simulation.

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

    ``engines`` is the matrix's third axis (see :data:`ENGINES`). Grids
    over cache geometry and miss-path mechanisms belong to
    :mod:`repro.sweep`.
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
        "config": matrix_config(workloads, backends, ops, records, seed,
                                repeats, engines),
        "results": results,
    }


def matrix_config(workloads, backends, ops, records, seed, repeats, engines):
    """The ``config`` of :func:`run_matrix`'s report for these arguments."""
    return {"ops": ops, "records": records, "seed": seed, "repeats": repeats,
            "workloads": list(workloads), "backends": list(backends),
            "engines": list(engines)}


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
    return cell["workload"], cell["backend"], cell["engine"]


def check_config(config, baseline):
    """Raise :class:`ConfigError` unless ``baseline`` ran ``config``."""
    if config != baseline["config"]:
        raise ConfigError(
            "cannot grade a run of config %s against a baseline of config "
            "%s; re-record the baseline or rerun at its config"
            % (json.dumps(config, sort_keys=True),
               json.dumps(baseline["config"], sort_keys=True)))


def compare(current, baseline):
    """Grade ``current`` against ``baseline``; returns a list of problems.

    The two reports must have run the same ``config`` (else
    :class:`ConfigError`), so every cell has a twin. A cell's throughput
    may fall at most :data:`TOLERANCE` below its twin's; every other
    field (``sim_ns``, ``ops``, the :data:`CELL_COUNTERS`) must be equal.
    """
    check_config(current["config"], baseline)
    base_cells = {_cell_key(cell): cell for cell in baseline["results"]}
    problems = []
    for cell in current["results"]:
        key = _cell_key(cell)
        name = "%s/%s[%s]" % key
        base = base_cells.pop(key, None)
        if base is None:
            problems.append("%s: not in the baseline" % name)
            continue
        floor = base["ops_per_sec"] * (1.0 - TOLERANCE)
        if cell["ops_per_sec"] < floor:
            problems.append(
                "%s: %.0f ops/s is below %.0f (baseline %.0f - %d%%)"
                % (name, cell["ops_per_sec"], floor, base["ops_per_sec"],
                   round(TOLERANCE * 100)))
        for field in sorted(set(cell) | set(base)):
            if field not in WALL_FIELDS and cell.get(field) != base.get(field):
                problems.append(
                    "%s: %s changed %r -> %r under identical config; the "
                    "patch changed behaviour, not just speed"
                    % (name, field, base.get(field), cell.get(field)))
    problems.extend("%s/%s[%s]: missing from this run" % key
                    for key in base_cells)
    return problems
