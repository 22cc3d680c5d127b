"""Declarative experiment-matrix harness (``python -m repro.sweep``).

A sweep takes a spec file (:mod:`repro.sweep.spec`) describing a grid —
backends x workloads x miss-path mechanisms x LLC sizes x replacement
policies x device mechanisms — and produces one result cell per grid
point, using the record-once / replay-many strategy:

1. For each (workload, backend) pair the per-access engine runs **once**
   at the default perfbench configuration, recording the machine-seam
   trace (:func:`repro.perfbench.record_cell_trace`). The seam event
   stream depends on structure logic and data values, not on cache
   geometry or mechanisms, so one recording serves every variant.
2. Every cell replays that trace against a backend built with the cell's
   variant configuration (:func:`repro.replay.replay_trace`). The
   hierarchy and device below the seams re-simulate, so each cell's
   ``sim_ns`` reflects its own config.
3. ``spot_check`` cells are additionally re-run through the per-access
   engine on an identically configured backend and compared with
   :func:`repro.replay.equivalence.fingerprint` — replay must be
   indistinguishable from the executable spec, cell by cell.

Reports (schema :data:`SCHEMA`) contain only deterministic quantities —
simulated nanoseconds and stat counters, never wall-clock — so two runs
of the same spec at the same seed produce byte-identical JSON; CI's
``sweep-smoke`` job enforces exactly that with ``cmp``. This module must
therefore never import :mod:`time` (the determinism lint agrees).
"""

from repro.cache.cache import CacheConfig
from repro.errors import ConfigError
from repro.perfbench import _run_ops, build_backend, record_cell_trace
from repro.replay import replay_trace
from repro.replay.equivalence import diff, fingerprint
from repro.sim.rng import DeterministicRng
from repro.sweep.spec import (DEFAULTS, PAX_BACKENDS, SPEC_SCHEMA,
                              load_spec)

#: Report format identifier, bumped on incompatible layout changes.
SCHEMA = "repro.sweep/1"

#: Spot-check RNG domain separator: keeps cell selection independent of
#: the workload stream, which uses the bare seed.
_SPOT_SALT = 0x53D0


def expand_grid(spec):
    """The spec's cell list, in deterministic grid order.

    One dict per cell with the axis values spelled out. Two pruning
    rules keep the grid free of duplicate configurations:

    * ``device_mechanisms`` entries other than ``"none"`` apply only to
      PAX-family backends — nothing else has a device to mechanize;
    * the ``policies`` axis only multiplies cells that configure at
      least one mechanism, because the policy lives *inside* mechanism
      buffers and a mechanism-free cell is identical under every policy.
    """
    cells = []
    first_policy = spec["policies"][0]
    for workload in spec["workloads"]:
        for backend in spec["backends"]:
            for mech in spec["mechanisms"]:
                for dev_mech in spec["device_mechanisms"]:
                    if dev_mech != "none" and backend not in PAX_BACKENDS:
                        continue
                    for kib in spec["llc_sizes_kib"]:
                        for policy in spec["policies"]:
                            if (mech == "none" and dev_mech == "none"
                                    and policy != first_policy):
                                continue
                            cells.append({
                                "workload": workload,
                                "backend": backend,
                                "mechanisms": mech,
                                "device_mechanisms": dev_mech,
                                "llc_kib": kib,
                                "policy": policy,
                            })
    return cells


def variant_id(cell):
    """One string naming a cell's full variant configuration; distinct
    for every cell of one workload and backend."""
    return "%s|dev=%s|llc=%dKiB|policy=%s" % (
        cell["mechanisms"], cell["device_mechanisms"], cell["llc_kib"],
        cell["policy"])


def build_cell_backend(spec, cell):
    """A fresh backend configured exactly as ``cell`` prescribes."""
    llc = CacheConfig(size_bytes=cell["llc_kib"] * 1024,
                      ways=spec["llc_ways"])
    mech = None if cell["mechanisms"] == "none" else cell["mechanisms"]
    dev = (None if cell["device_mechanisms"] == "none"
           else cell["device_mechanisms"])
    hbm = spec["hbm_lines"]
    if hbm == 0 or cell["backend"] not in PAX_BACKENDS:
        hbm = None
    return build_backend(cell["backend"], llc_config=llc, mechanisms=mech,
                         mech_policy=cell["policy"], device_mechanisms=dev,
                         hbm_lines=hbm)


def _drive_access(spec, cell, backend):
    """Run the cell's workload through the per-access path (no timing)."""
    rng = DeterministicRng(spec["seed"])
    records = spec["records"]
    for i in range(records):
        backend.put(i, i)
    _run_ops(backend, cell["workload"], spec["ops"], records - 1, rng)


def _select_spot_checks(spec, count):
    """Indices of the cells to fingerprint-verify, per ``spot_check``."""
    spot = spec["spot_check"]
    if spot == "all":
        return set(range(count))
    if spot == "none" or spot == 0 or count == 0:
        return set()
    if spot >= count:
        return set(range(count))
    rng = DeterministicRng(spec["seed"] ^ _SPOT_SALT)
    chosen = set()
    while len(chosen) < spot:
        chosen.add(rng.randint(0, count - 1))
    return chosen


def _cell_counters(backend):
    """Deterministic mechanism accounting for one finished cell."""
    machine = backend.machine
    hier = machine.hierarchy
    out = {
        "host_mech_hits": hier.stats.get("mech_hits"),
        "host_mech_prefetch_fetches": hier.stats.get("mech_prefetch_fetches"),
    }
    device = getattr(machine, "device", None)
    if device is not None:
        out["dev_mech_hits"] = device.stats.get("mech_hits")
        out["dev_mech_prefetch_reads"] = device.stats.get(
            "mech_prefetch_reads")
        out["dev_pm_line_reads"] = device.stats.get("pm_line_reads")
    return out


def _run_cell(spec, cell, spot_checked):
    """Replay one cell (and spot-check it); returns ``(row, failure)``.

    ``failure`` is the verification failure entry, or None. Every
    backend this builds dies with its locals on return, so a sweep holds
    one cell's machines at a time.
    """
    trace, _default_sim = record_cell_trace(
        cell["workload"], cell["backend"], spec["ops"], spec["records"],
        spec["seed"])
    backend = build_cell_backend(spec, cell)
    outcome = replay_trace(trace, backend)
    row = dict(cell)
    row["variant"] = variant_id(cell)
    row["engine"] = "generic"
    row["sim_ns"] = outcome.sim_ns
    row["sim_ns_timed"] = outcome.sim_ns_timed
    row["counters"] = _cell_counters(backend)
    row["verified"] = None
    if not spot_checked:
        return row, None
    golden = build_cell_backend(spec, cell)
    _drive_access(spec, cell, golden)
    mismatches = diff(fingerprint(golden), fingerprint(backend))
    row["verified"] = not mismatches
    if not mismatches:
        return row, None
    return row, {
        "workload": cell["workload"],
        "backend": cell["backend"],
        "variant": row["variant"],
        "mismatches": [
            {"key": key, "access": repr(a), "replay": repr(b)}
            for key, a, b in mismatches[:8]],
        "mismatch_count": len(mismatches),
    }


def run_sweep(spec, progress=None):
    """Run the whole grid; returns the report dict (schema :data:`SCHEMA`).

    ``progress``, when given, is called with each finished cell dict;
    by then that cell's backends are gone. The report is fully
    deterministic for a fixed spec — no wall-clock quantity ever enters
    it — and carries a ``verification`` section summarizing the
    fingerprint spot checks; ``verification["failed"]`` must be zero for
    the sweep to count as reproduced.
    """
    cells = expand_grid(spec)
    spot_indices = _select_spot_checks(spec, len(cells))
    results = []
    failures = []
    recorded = set()
    for index, cell in enumerate(cells):
        row, failure = _run_cell(spec, cell, index in spot_indices)
        recorded.add((cell["workload"], cell["backend"]))
        if failure is not None:
            failures.append(failure)
        results.append(row)
        if progress is not None:
            progress(row)
    report = {
        "schema": SCHEMA,
        "spec": {key: spec[key] for key in DEFAULTS},
        "spec_schema": spec.get("schema", SPEC_SCHEMA),
        "spec_source": spec.get("source", ""),
        "cells": results,
        "traces_recorded": len(recorded),
        "verification": {
            "checked": len(spot_indices),
            "passed": len(spot_indices) - len(failures),
            "failed": len(failures),
            "failures": failures,
        },
    }
    return report


__all__ = [
    "SCHEMA", "ConfigError", "build_cell_backend", "expand_grid",
    "load_spec", "run_sweep", "variant_id",
]
