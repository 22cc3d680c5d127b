"""Command line interface for ``python -m repro.obs``.

Subcommands:

* ``summarize TRACE`` — per-category event counts and span-latency
  percentiles (simulated ns), plus the epoch-commit timeline.
* ``convert TRACE --to chrome -o OUT`` — re-export a JSONL trace as
  Chrome ``trace_event`` JSON for chrome://tracing / Perfetto.
* ``validate PATH`` — schema-check a trace file (JSONL or Chrome JSON);
  what CI runs on every exported artifact.
* ``overhead`` — measure what tracing costs: runs the perfbench
  store-heavy microworkload untraced, with a disabled tracer attached,
  and recording, then asserts the disabled-tracer regime stays within
  tolerance of untraced and that simulated time is identical across all
  three (the "tracing never perturbs the simulation" guarantee).

Exit codes follow the repro CLI contract shared with
``repro.staticcheck``: 0 success, 1 findings/failures, 2 usage or I/O
errors surfaced as :class:`~repro.errors.ConfigError`.
"""

import argparse
import json
import sys

from repro.errors import ConfigError
from repro.obs.export import (read_jsonl, validate_chrome_trace,
                              write_chrome_trace, write_jsonl)
from repro.obs.tracer import DEFAULT_CAPACITY, EVENT_SPAN, ObsTracer

#: Percentiles printed per category by ``summarize``.
_PERCENTILES = (50.0, 99.0)

#: Epoch-commit timeline rows printed before truncation.
_TIMELINE_LIMIT = 24


def _percentile(ordered, p):
    """Linear-interpolated percentile of a sorted list (0..100)."""
    if not ordered:
        return 0.0
    if p <= 0:
        return float(ordered[0])
    if p >= 100:
        return float(ordered[-1])
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = lo + (rank > lo)
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def summarize_events(events):
    """Aggregate event dicts; returns the summary structure.

    ``categories`` maps category -> {events, spans, and (when spans
    exist) p50/p99/max/total of span ``dur_ns``}; ``epochs`` is the
    commit timeline (ts_ns-ordered ``epoch-commit`` events).
    """
    categories = {}
    epochs = []
    for record in events:
        category = record.get("cat", "misc")
        bucket = categories.setdefault(
            category, {"events": 0, "spans": 0, "durations": []})
        bucket["events"] += 1
        if record.get("ph") == EVENT_SPAN:
            bucket["spans"] += 1
            bucket["durations"].append(record.get("dur_ns", 0))
        if category == "epoch-commit":
            epochs.append(record)
    for bucket in categories.values():
        durations = sorted(bucket.pop("durations"))
        if durations:
            for p in _PERCENTILES:
                bucket["p%g_ns" % p] = round(_percentile(durations, p), 1)
            bucket["max_ns"] = durations[-1]
            bucket["total_ns"] = sum(durations)
    epochs.sort(key=lambda record: (record.get("ts_ns", 0),
                                    record.get("name", "")))
    return {"events": len(events), "categories": categories,
            "epochs": epochs}


def _print_summary(summary, out):
    out.write("%d events\n\n" % summary["events"])
    header = "%-14s %8s %8s %12s %12s %12s" % (
        "category", "events", "spans", "p50(ns)", "p99(ns)", "max(ns)")
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for category in sorted(summary["categories"]):
        bucket = summary["categories"][category]
        if bucket["spans"]:
            out.write("%-14s %8d %8d %12.1f %12.1f %12d\n" % (
                category, bucket["events"], bucket["spans"],
                bucket["p50_ns"], bucket["p99_ns"], bucket["max_ns"]))
        else:
            out.write("%-14s %8d %8d %12s %12s %12s\n" % (
                category, bucket["events"], bucket["spans"],
                "-", "-", "-"))
    epochs = summary["epochs"]
    out.write("\nepoch-commit timeline (%d events" % len(epochs))
    if len(epochs) > _TIMELINE_LIMIT:
        out.write(", last %d shown" % _TIMELINE_LIMIT)
    out.write("):\n")
    for record in epochs[-_TIMELINE_LIMIT:]:
        args = record.get("args") or {}
        detail = " ".join("%s=%s" % (key, args[key]) for key in sorted(args)
                          if key != "ts_ns")
        cell = record.get("cell")
        if cell:
            detail = ("cell=%s " % cell) + detail
        out.write("  %12d ns  %-14s %s\n"
                  % (record.get("ts_ns", 0), record.get("name", "?"),
                     detail.strip()))


def _cmd_summarize(options):
    events = read_jsonl(options.trace)
    summary = summarize_events(events)
    if options.json:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        _print_summary(summary, sys.stdout)
    return 0


def _cmd_convert(options):
    events = read_jsonl(options.trace)
    if options.to == "chrome":
        write_chrome_trace(events, options.output)
    else:                                     # normalized JSONL re-dump
        write_jsonl(events, options.output)
    sys.stdout.write("wrote %s (%d events)\n" % (options.output, len(events)))
    return 0


def _cmd_validate(options):
    path = options.path
    if path.endswith((".jsonl", ".ndjson")):
        events = read_jsonl(path)             # raises ConfigError -> exit 2
        sys.stdout.write("%s: valid %d-event JSONL trace\n"
                         % (path, len(events)))
        return 0
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except ValueError:
        raise ConfigError("%s is not JSON" % path) from None
    problems = validate_chrome_trace(obj)
    for problem in problems:
        sys.stdout.write("%s: %s\n" % (path, problem))
    if problems:
        return 1
    sys.stdout.write("%s: valid Chrome trace (%d events)\n"
                     % (path, len(obj["traceEvents"])))
    return 0


def _cmd_overhead(options):
    from repro.perfbench import run_cell

    def measure(tracer):
        return run_cell(options.workload, options.backend, ops=options.ops,
                        records=options.records, seed=options.seed,
                        repeats=options.repeats, tracer=tracer)

    untraced = measure(None)
    muted_tracer = ObsTracer(capacity=options.capacity)
    muted_tracer.enabled = False
    muted = measure(muted_tracer)
    recording = measure(ObsTracer(capacity=options.capacity))

    sys.stdout.write(
        "%s/%s ops=%d repeats=%d\n"
        % (options.workload, options.backend, options.ops, options.repeats))
    rows = (("untraced", untraced), ("tracer-disabled", muted),
            ("recording", recording))
    for label, cell in rows:
        sys.stdout.write("  %-16s %10.0f ops/s  sim_ns=%d\n"
                         % (label, cell["ops_per_sec"], cell["sim_ns"]))

    failures = []
    for label, cell in rows[1:]:
        if cell["sim_ns"] != untraced["sim_ns"]:
            failures.append(
                "%s changed simulated time: %d != %d ns — tracing perturbed "
                "the simulation" % (label, cell["sim_ns"],
                                    untraced["sim_ns"]))
    floor = untraced["ops_per_sec"] * (1.0 - options.tolerance)
    if muted["ops_per_sec"] < floor:
        overhead = 1.0 - muted["ops_per_sec"] / untraced["ops_per_sec"]
        failures.append(
            "tracer-disabled overhead %.1f%% exceeds %.0f%% budget "
            "(%.0f ops/s vs untraced %.0f)"
            % (overhead * 100, options.tolerance * 100,
               muted["ops_per_sec"], untraced["ops_per_sec"]))
    for failure in failures:
        sys.stdout.write("FAIL: %s\n" % failure)
    if not failures:
        sys.stdout.write("OK: tracer-disabled within %.0f%% of untraced, "
                         "sim_ns identical across all regimes\n"
                         % (options.tolerance * 100))
    return 1 if failures else 0


def build_parser():
    """Build the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect, convert, and validate repro.obs traces.")
    commands = parser.add_subparsers(dest="command", required=True)

    summarize = commands.add_parser(
        "summarize", help="per-category latency percentiles + epoch timeline")
    summarize.add_argument("trace", help="JSONL trace written by --trace")
    summarize.add_argument("--json", action="store_true",
                           help="emit the summary as JSON")
    summarize.set_defaults(func=_cmd_summarize)

    convert = commands.add_parser(
        "convert", help="re-export a JSONL trace in another format")
    convert.add_argument("trace", help="JSONL trace written by --trace")
    convert.add_argument("--to", choices=("chrome", "jsonl"),
                         default="chrome", help="output format")
    convert.add_argument("-o", "--output", required=True,
                         help="output path")
    convert.set_defaults(func=_cmd_convert)

    validate = commands.add_parser(
        "validate", help="schema-check a trace file (JSONL or Chrome JSON)")
    validate.add_argument("path", help="trace file to check")
    validate.set_defaults(func=_cmd_validate)

    overhead = commands.add_parser(
        "overhead",
        help="assert tracing overhead and determinism guarantees")
    overhead.add_argument("--workload", default="store_heavy")
    overhead.add_argument("--backend", default="pax")
    overhead.add_argument("--ops", type=int, default=8000)
    overhead.add_argument("--records", type=int, default=1000)
    overhead.add_argument("--seed", type=int, default=42)
    overhead.add_argument("--repeats", type=int, default=5,
                          help="best-of-N wall-clock per regime")
    overhead.add_argument("--tolerance", type=float, default=0.05,
                          help="allowed tracer-disabled slowdown (fraction)")
    overhead.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY)
    overhead.set_defaults(func=_cmd_overhead)
    return parser


def main(argv=None):
    """Entry point; returns the exit code."""
    parser = build_parser()
    options = parser.parse_args(argv)
    try:
        return options.func(options)
    except (ConfigError, OSError) as error:
        sys.stderr.write("error: %s\n" % error)
        return 2
