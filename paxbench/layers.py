"""Metric catalogue, simulator counter deltas, and the per-layer fold.

``END_TO_END`` and ``PER_LAYER`` map each metric the benchmark prints to
its unit; ``BENCHMARK.json`` at the checkout root lists the same names
(the self-tests hold the two together).
"""

import statistics

END_TO_END = {
    "ops_per_s": "1/s",
    "op_us_p50": "us",
    "op_us_p99": "us",
    "sim_ns_per_op": "ns",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "structures.self_us_per_op": "us",
    "structures.mem_calls_per_op": "count",
    "mem.self_us_per_op": "us",
    "libpax.self_us_per_op": "us",
    "libpax.persist_us_p50": "us",
    "libpax.restart_ms": "ms",
    "cache.calls_per_op": "count",
    "cache.self_us_per_op": "us",
    "cache.l1_hit_ratio": "ratio",
    "cache.llc_hit_ratio": "ratio",
    "cache.fetches_per_op": "count",
    "cache.mech_hit_ratio": "ratio",
    "sim.advance_calls_per_op": "count",
    "sim.advance_self_us_per_op": "us",
    "core.tick_calls_per_op": "count",
    "core.tick_self_us_per_op": "us",
    "core.msg_calls_per_op": "count",
    "core.msg_self_us_per_op": "us",
    "core.lines_logged_per_op": "count",
    "core.stalled_evicts": "count",
    "core.hbm_hit_ratio": "ratio",
    "core.persist_self_us_p50": "us",
    "cxl.calls_per_op": "count",
    "cxl.self_us_per_op": "us",
    "cxl.snoops_per_persist": "count",
    "pm.read_calls_per_op": "count",
    "pm.self_us_per_op": "us",
    "pm.write_bytes_per_user_byte": "ratio",
    "baselines.self_us_per_op": "us",
    "baselines.wal_appends_per_op": "count",
    "replay.events_per_s": "1/s",
    "replay.fast_cell_share": "ratio",
    "sweep.record_s": "s",
    "sweep.verify_s": "s",
    "trace.self_share": "ratio",
    "trace.overhead_x": "x",
}

#: Per-layer metrics that are exact counts or ratios of counts: they
#: must repeat exactly between samples of one seed.
DETERMINISTIC = tuple(name for name, unit in PER_LAYER.items()
                      if unit in ("count", "ratio")
                      and name not in ("trace.self_share",))

#: Bytes of user data per put (8 B key + 8 B value).
USER_BYTES_PER_PUT = 16
CACHE_LINE = 64


class Ledger:
    """Counter deltas over the timed phase, across rebuilt components.

    A restart replaces the hierarchy and the PAX device, and a sweep
    builds one backend per cell, so deltas are summed over every stat
    group seen. ``pause``/``resume`` bracket the output checks, whose
    simulated accesses must not count.
    """

    def __init__(self):
        self._groups = {}       # id -> (kind, group, baseline dict)
        self._paused = None

    @staticmethod
    def _kinds(backend):
        machine = backend.machine
        device = getattr(machine, "device", None)
        pm = getattr(machine, "pm", None) or getattr(machine, "memory", None)
        yield "ops", backend.stats
        yield "hier", machine.hierarchy.stats
        if pm is not None:
            yield "pm", pm.stats
        if device is not None:
            yield "dev", device.stats
            yield "hbm", device.hbm.stats

    def add(self, backend):
        """Watch ``backend``'s current components from their present counts."""
        for kind, group in self._kinds(backend):
            if id(group) not in self._groups:
                self._groups[id(group)] = (kind, group,
                                           dict(group.counters()))

    def pause(self):
        """Freeze the deltas (an output check is about to run)."""
        self._paused = {key: dict(group.counters())
                        for key, (_k, group, _b) in self._groups.items()}

    def resume(self, backend=None):
        """Discount everything counted since :meth:`pause`."""
        if self._paused is not None:
            for key, frozen in self._paused.items():
                _kind, group, baseline = self._groups[key]
                for name, value in group.counters().items():
                    baseline[name] = (baseline.get(name, 0)
                                      + value - frozen.get(name, 0))
            self._paused = None
        if backend is not None:
            self.add(backend)

    def delta(self, kind, name):
        """Summed timed-phase change of counter ``name`` over ``kind``."""
        total = 0
        for group_kind, group, baseline in self._groups.values():
            if group_kind == kind:
                total += group.get(name) - baseline.get(name, 0)
        return total


def _ratio(num, den):
    return num / den if den else 0.0


def fold(tracer, ledger, ops, wall_s, rows=()):
    """Per-layer metrics of one traced sample.

    ``ops`` is the sample's logical op count, ``wall_s`` its traced
    timed-phase wall time, ``rows`` the sweep report's cells (grid).
    Per-op times and counts cover the timed phase; persist and restart
    percentiles also take the spans after it (the hot-read durability
    check is the only place hot-read persists or restarts).
    """
    t = tracer
    per_op_us = 1e6 / ops
    run = ("timed", "epilogue")
    c = ledger.delta

    def median_of(name, field):
        values = [pair[field] for pair in t.kept(name, run)]
        return statistics.median(values) if values else 0.0

    llc_hits = c("hier", "llc_hits")
    mech_hits = c("hier", "mech_hits")
    fetches = c("hier", "memory_fetches")
    hbm_hits = c("hbm", "hits")
    return {
        "structures.self_us_per_op": t.self_s("structures") * per_op_us,
        "structures.mem_calls_per_op": t.calls("mem") / ops,
        "mem.self_us_per_op": t.self_s("mem") * per_op_us,
        "libpax.self_us_per_op": t.self_s("libpax.access") * per_op_us,
        "libpax.persist_us_p50": median_of("libpax.persist", 1) * 1e6,
        "libpax.restart_ms": median_of("libpax.restart", 1) * 1e3,
        "cache.calls_per_op": t.calls("cache.access") / ops,
        "cache.self_us_per_op": t.self_s("cache") * per_op_us,
        "cache.l1_hit_ratio": _ratio(c("hier", "l1_hits"),
                                     c("hier", "loads") + c("hier", "stores")),
        "cache.llc_hit_ratio": _ratio(llc_hits, llc_hits + mech_hits + fetches),
        "cache.fetches_per_op": fetches / ops,
        "cache.mech_hit_ratio": _ratio(mech_hits, mech_hits + fetches),
        "sim.advance_calls_per_op": t.calls("sim") / ops,
        "sim.advance_self_us_per_op": t.self_s("sim") * per_op_us,
        "core.tick_calls_per_op": t.calls("core.tick") / ops,
        "core.tick_self_us_per_op": t.self_s("core.tick") * per_op_us,
        "core.msg_calls_per_op": t.calls("core.msg") / ops,
        "core.msg_self_us_per_op": t.self_s("core.msg") * per_op_us,
        "core.lines_logged_per_op": c("dev", "lines_logged") / ops,
        "core.stalled_evicts": c("dev", "stalled_evicts"),
        "core.hbm_hit_ratio": _ratio(hbm_hits, hbm_hits + c("hbm", "misses")),
        "core.persist_self_us_p50": median_of("core.persist", 0) * 1e6,
        "cxl.calls_per_op": t.calls("cxl") / ops,
        "cxl.self_us_per_op": t.self_s("cxl") * per_op_us,
        "cxl.snoops_per_persist": _ratio(t.calls("cxl.snoop", run),
                                         t.calls("core.persist", run)),
        "pm.read_calls_per_op": t.calls("pm.read") / ops,
        "pm.self_us_per_op": t.self_s("pm") * per_op_us,
        "pm.write_bytes_per_user_byte": _ratio(
            c("pm", "lines_written") * CACHE_LINE,
            c("ops", "puts") * USER_BYTES_PER_PUT),
        "baselines.self_us_per_op": t.self_s("baselines") * per_op_us,
        "baselines.wal_appends_per_op": t.calls("baselines.wal") / ops,
        "replay.events_per_s": _ratio(t.units("replay"), t.total_s("replay")),
        "replay.fast_cell_share": _ratio(
            sum(1 for row in rows if row["engine"] == "fast"), len(rows)),
        "sweep.record_s": t.total_s("sweep.record", ("setup",)),
        "sweep.verify_s": t.total_s("sweep.verify"),
        "trace.self_share": _ratio(t.self_s(""), wall_s),
    }
