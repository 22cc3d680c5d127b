"""The benchmark's workloads: one closed-loop client each.

Every workload builds its inputs from the seed, sets up a backend (timed
as ``setup_s``), runs a timed phase in which one client issues the next
operation only after the previous one returned, and checks the program's
outputs. :func:`run_sample` runs one of them once and returns a plain
dict; ``sample.py`` calls it in a fresh process per sample.

Drives the simulator only through public entry points:
``repro.perfbench.build_backend``/``record_cell_trace``,
``repro.workloads.ycsb.YcsbWorkload``, backend ``put/get/persist/
crash/restart``, ``repro.sweep.load_spec``/``expand_grid``/``run_sweep``
and ``repro.replay.equivalence.fingerprint``.
"""

import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import time
import traceback

from layers import Ledger, fold

HERE = os.path.dirname(os.path.abspath(__file__))
GRID_SPEC = os.path.join(HERE, "grid.toml")

WORKLOADS = ("hot-read", "cold-write", "grid")

#: Input sizes. ``full`` is what the benchmark measures; ``tiny`` keeps
#: the self-tests fast. Grid sizes of None keep the spec's own.
SIZES = {
    "full": {
        "hot-read": {"records": 400, "ops": 40000},
        "cold-write": {"records": 8192, "ops": 4096},
        "grid": {"records": None, "ops": None},
    },
    "tiny": {
        "hot-read": {"records": 64, "ops": 400},
        "cold-write": {"records": 256, "ops": 300},
        "grid": {"records": 96, "ops": 64},
    },
}

#: cold-write geometry: the LLC shrunk to 64 KiB and the device's HBM
#: to a few hundred lines, so the record set (>= 4x the LLC at the full
#: size) misses through to the device and PM.
COLD_LLC_BYTES = 64 * 1024
COLD_LLC_WAYS = 16
COLD_HBM_LINES = 256
#: cold-write commits a snapshot after every this many puts.
PERSIST_EVERY = 64

#: Per-op latency percentiles (and hot-read's throughput) are taken over
#: windows of this many consecutive ops (40 ops beyond p99), and the
#: quietest window counts.
WINDOW_OPS = 4000

#: Tracebacks kept per sample (the first failures explain the rest).
MAX_ERRORS = 3

_clock = time.perf_counter


def crash_points(ops):
    """Fixed cold-write crash indices, never on a persist boundary."""
    return (ops // 3 + 13, 2 * ops // 3 + 29)


class Client:
    """One closed-loop client with a shadow map of every put.

    An operation fails if it raises or if a ``get`` returns anything but
    the shadow value; failures are counted, never propagated.
    """

    def __init__(self, backend, shadow):
        self.backend = backend
        self.shadow = shadow
        self.starts = []
        self.latencies = []
        self.ended = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message=None):
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message or traceback.format_exc())

    def run(self, ops):
        """Issue ``ops`` (``(is_get, key, value)``) one after another."""
        backend = self.backend
        shadow = self.shadow
        began = self.starts.append
        record = self.latencies.append
        clock = _clock
        for is_get, key, value in ops:
            self.attempted += 1
            start = clock()
            began(start)
            try:
                if is_get:
                    got = backend.get(key)
                else:
                    backend.put(key, value)
            except Exception:      # a failed op is data, not a crash
                record(clock() - start)
                self.fail()
                continue
            record(clock() - start)
            if is_get:
                if got != shadow.get(key):
                    self.fail("get(%#x) returned %r, expected %r"
                              % (key, got, shadow.get(key)))
            else:
                shadow[key] = value
        self.ended = clock()

    def verify(self, expected):
        """Compare the backend's whole map with ``expected``.

        Every key compared counts as one attempted op, and each one that
        is missing, wrong or unexpected as one failed op.
        """
        try:
            actual = self.backend.to_dict()
        except Exception:
            self.attempted += len(expected)
            self.failed += len(expected) - 1
            self.fail()
            return
        for key in set(expected) | set(actual):
            self.attempted += 1
            if actual.get(key) != expected.get(key):
                self.fail("after restart key %#x holds %r, persisted %r"
                          % (key, actual.get(key), expected.get(key)))


class Timed:
    """Host and simulated time of a timed phase, paused around checks.

    While running, the tracer (if any) records into phase ``"timed"``
    and the ledger counts. The garbage collector runs once before the
    first start; with ``gc_off`` it then stays off while the phase runs,
    so it owes nothing to the phase (the single-backend workloads).
    """

    def __init__(self, tracer=None, ledger=None, sim_now=None, gc_off=True):
        self.tracer = tracer
        self.ledger = ledger
        self.sim_now = sim_now
        self.gc_off = gc_off
        self.wall_s = 0.0
        self.sim_ns = 0
        self.started = None
        self._wall0 = None
        self._sim0 = 0

    def start(self, backend=None):
        if self.ledger is not None:
            self.ledger.resume(backend)
        if self.tracer is not None:
            self.tracer.phase = "timed"
        if self.started is None:
            gc.collect()
        if self.gc_off:
            gc.disable()
        self._sim0 = self.sim_now() if self.sim_now else 0
        self._wall0 = _clock()
        if self.started is None:
            self.started = self._wall0

    def stop(self):
        self.wall_s += _clock() - self._wall0
        if self.sim_now:
            self.sim_ns += self.sim_now() - self._sim0
        gc.enable()
        if self.tracer is not None:
            self.tracer.phase = None
        if self.ledger is not None:
            self.ledger.pause()


def _ops(trace):
    return [(op.kind == "get", op.key, op.value) for op in trace]


def _ycsb(mix, size, distribution, seed):
    from repro.workloads.ycsb import YcsbWorkload
    workload = YcsbWorkload(mix, record_count=size["records"],
                            op_count=size["ops"], distribution=distribution,
                            seed=seed)
    load = [(op.key, op.value) for op in workload.load_trace()]
    return load, _ops(workload.run_trace())


def _digest_backend(backend):
    from repro.replay.equivalence import fingerprint
    items = sorted(fingerprint(backend).items())
    return hashlib.sha256(repr(items).encode()).hexdigest()


def _windows(values):
    """``values`` cut into whole ``WINDOW_OPS`` windows (or one short one)."""
    cuts = range(0, len(values) - WINDOW_OPS + 1, WINDOW_OPS)
    return [values[i:i + WINDOW_OPS] for i in cuts] or [values]


def _percentiles(latencies):
    """(p50, p99) in microseconds of the quietest ``WINDOW_OPS`` window.

    On a shared machine other tenants disturb a 20 us Python call in
    bursts; the lowest per-window percentile is what repeats from run
    to run.
    """
    windows = _windows(latencies)
    p50 = min(statistics.median(window) for window in windows)
    p99 = min(statistics.quantiles(window, n=100, method="inclusive")[98]
              for window in windows)
    return p50 * 1e6, p99 * 1e6


def _window_throughput(client):
    """Ops per second of the quietest window of one uninterrupted run."""
    starts = client.starts + [client.ended]
    return max(len(window) / (starts[i + len(window)] - starts[i])
               for i, window in zip(range(0, len(starts), WINDOW_OPS),
                                    _windows(client.latencies)))


def _load(make_backend, load):
    """Build the backend and run the load phase; returns it and its shadow."""
    backend = make_backend()
    shadow = {}
    for key, value in load:
        backend.put(key, value)
        shadow[key] = value
    backend.persist()
    return backend, shadow


def _client_result(name, setup_s, timed, client, ops, sim_ns, digest,
                   ops_per_s):
    p50, p99 = _percentiles(client.latencies)
    return {
        "workload": name,
        "setup_s": setup_s,
        "timed_s": timed.wall_s,
        "ops": ops,
        "ops_per_s": ops_per_s,
        "attempted": client.attempted,
        "failed": client.failed,
        "errors": client.errors,
        "sim_ns": sim_ns,
        "digest": digest,
        "op_us_p50": p50,
        "op_us_p99": p99,
        "latency_samples": len(client.latencies),
    }


def hot_read(seed, size, tracer=None, make_backend=None):
    """YCSB-B (95% get / 5% update), zipfian, over records that fit L1/L2.

    Set-up loads the records and commits them. No persist happens in the
    timed phase. Afterwards a persist, crash and restart must bring back
    exactly the shadow map.
    """
    from repro.perfbench import build_backend
    load, ops = _ycsb("B", size, "zipfian", seed)
    make_backend = make_backend or (lambda: build_backend("pax"))
    start = _clock()
    backend, shadow = _load(make_backend, load)
    setup_s = _clock() - start

    ledger = Ledger() if tracer is not None else None
    timed = Timed(tracer, ledger, lambda: backend.now_ns)
    client = Client(backend, shadow)
    timed.start(backend)
    client.run(ops)
    timed.stop()

    if tracer is not None:
        tracer.phase = "epilogue"
    try:
        backend.persist()
        backend.crash()
        backend.restart()
    except Exception:
        client.fail()
    if tracer is not None:
        tracer.phase = None
    client.verify(shadow)
    # The timed phase is one uninterrupted run, so its throughput can be
    # taken per window like its latencies.
    result = _client_result("hot-read", setup_s, timed, client, len(ops),
                            timed.sim_ns, _digest_backend(backend),
                            _window_throughput(client))
    if tracer is not None:
        result["layers"] = fold(tracer, ledger, len(ops), timed.wall_s)
    return result


def _cold_backend():
    from repro.cache.cache import CacheConfig
    from repro.perfbench import build_backend
    return build_backend(
        "pax", llc_config=CacheConfig(size_bytes=COLD_LLC_BYTES,
                                      ways=COLD_LLC_WAYS),
        hbm_lines=COLD_HBM_LINES)


def cold_write(seed, size, tracer=None, make_backend=None):
    """YCSB-W, uniform, over a record set larger than the LLC.

    ``persist()`` after every 64 puts; at two fixed points the machine
    crashes and restarts, and the recovered map must equal the last
    persisted snapshot. Persists and crash/restart count toward the timed
    phase but not toward its op count; the checks are not timed.
    """
    load, ops = _ycsb("W", size, "uniform", seed)
    make_backend = make_backend or _cold_backend
    start = _clock()
    backend, shadow = _load(make_backend, load)
    setup_s = _clock() - start

    snapshot = dict(shadow)
    crashes = crash_points(len(ops))
    ledger = Ledger() if tracer is not None else None
    timed = Timed(tracer, ledger, lambda: backend.now_ns)
    client = Client(backend, shadow)
    timed.start(backend)
    done = 0
    for stop in sorted(set(range(PERSIST_EVERY, len(ops) + 1, PERSIST_EVERY))
                       | set(crashes) | {len(ops)}):
        client.run(ops[done:stop])
        done = stop
        if done % PERSIST_EVERY == 0:
            try:
                backend.persist()
            except Exception:
                client.fail()
            timed.stop()
            snapshot = dict(shadow)
            timed.start(backend)
        if done in crashes:
            try:
                backend.crash()
                backend.restart()
            except Exception:
                client.fail()
            timed.stop()
            client.verify(snapshot)
            shadow.clear()
            shadow.update(snapshot)
            timed.start(backend)
    timed.stop()
    # Output checks pause the phase, so throughput is the whole sample's.
    result = _client_result("cold-write", setup_s, timed, client, len(ops),
                            timed.sim_ns, _digest_backend(backend),
                            len(ops) / timed.wall_s)
    if tracer is not None:
        result["layers"] = fold(tracer, ledger, len(ops), timed.wall_s)
    return result


def grid(seed, size, tracer=None, make_backend=None):
    """The benchmark's reduced sweep grid, recorded once, replayed per cell.

    Set-up records one trace per (workload, backend) pair; the timed
    phase is one ``run_sweep``. A cell whose fingerprint spot check
    fails counts all of its replayed ops as failed.
    """
    import repro.perfbench as perfbench
    import repro.sweep as sweep
    if make_backend is not None:
        raise ValueError("grid builds its backends from its spec")
    spec = sweep.load_spec(GRID_SPEC)
    spec["seed"] = seed
    if size["ops"] is not None:
        spec["ops"] = size["ops"]
        spec["records"] = size["records"]
    cell_ops = spec["ops"] + spec["records"]
    pairs = sorted({(cell["workload"], cell["backend"])
                    for cell in sweep.expand_grid(spec)})

    record = perfbench.record_cell_trace
    if tracer is not None:
        record = tracer.span("sweep.record", record)
        tracer.phase = "setup"
    start = _clock()
    for workload, backend_name in pairs:
        record(workload, backend_name, spec["ops"], spec["records"], seed)
    setup_s = _clock() - start

    ledger = None
    build_cell_backend = sweep.build_cell_backend
    if tracer is not None:
        tracer.phase = None
        ledger = Ledger()

        def build_and_watch(spec_, cell):
            backend = build_cell_backend(spec_, cell)
            ledger.add(backend)
            return backend
        sweep.build_cell_backend = build_and_watch
    stamps = []
    # The sweep builds a backend per cell; with the collector off their
    # reference cycles would pile up, so it stays on here.
    timed = Timed(tracer, ledger, gc_off=False)
    timed.start()
    try:
        report = sweep.run_sweep(spec, progress=lambda row: stamps.append(
            _clock()))
    finally:
        timed.stop()
        sweep.build_cell_backend = build_cell_backend

    rows = report["cells"]
    failed = sum(cell_ops for row in rows if row["verified"] is False)
    attempted = cell_ops * len(rows)
    errors = ["spot check failed: %s/%s %s (%d mismatches)"
              % (f["workload"], f["backend"], f["variant"],
                 f["mismatch_count"])
              for f in report["verification"]["failures"][:MAX_ERRORS]]
    if len(rows) != len(sweep.expand_grid(spec)):
        failed = attempted
        errors.append("sweep returned %d cells" % len(rows))
    starts = [timed.started] + stamps[:-1]
    body = {key: value for key, value in report.items()
            if key != "spec_source"}
    result = {
        "workload": "grid",
        "setup_s": setup_s,
        "timed_s": timed.wall_s,
        "ops": attempted,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "sim_ns": sum(row["sim_ns"] for row in rows),
        "digest": hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()).hexdigest(),
        # Wall time of each cell in grid order (the cells partition the
        # sweep), and whether it was spot-checked.
        "cell_s": [end - begin for begin, end in zip(starts, stamps)],
        "cell_checked": [row["verified"] is not None for row in rows],
        "cell_ops": cell_ops,
        "cells": len(rows),
        "fast_cells": sum(1 for row in rows if row["engine"] == "fast"),
    }
    if tracer is not None:
        result["layers"] = fold(tracer, ledger, attempted, timed.wall_s,
                                rows)
    return result


RUNNERS = {"hot-read": hot_read, "cold-write": cold_write, "grid": grid}


def run_sample(workload, seed, traced=False, size="full", make_backend=None):
    """Run ``workload`` once; returns the sample's result dict.

    With ``traced`` the layer wrappers are installed before anything is
    built and removed afterwards, and the result carries ``layers``.
    """
    runner = RUNNERS[workload]
    sizing = SIZES[size][workload]
    if not traced:
        result = runner(seed, sizing, make_backend=make_backend)
    else:
        from tracing import SpanTracer, install
        tracer = SpanTracer()
        uninstall = install(tracer)
        try:
            result = runner(seed, sizing, tracer=tracer,
                            make_backend=make_backend)
        finally:
            uninstall()
    result["seed"] = seed
    result["traced"] = bool(traced)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss * 1024 / 1e6)
    result["env"] = {
        "python": platform.python_version(),
        # Replay's trace decode and histogram settle take other paths
        # without numpy.
        "numpy": importlib.util.find_spec("numpy") is not None,
        "gc": "thresholds %s, collected before the timed phase and %s "
              "during it" % (gc.get_threshold(),
                             "on" if workload == "grid" else "off"),
    }
    return result
