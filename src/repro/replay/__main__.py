"""CLI for trace record / inspection / verification.

Examples::

    python -m repro.replay record --workload store_heavy --backend pax \
        --out pax.trace                         # capture one perfbench cell
    python -m repro.replay info pax.trace       # header + footer summary
    python -m repro.replay verify pax.trace     # replay, check the footer

``record`` drives a perfbench workload (perfbench-standard backend
sizing) through the recorder; traces from other sources replay fine as
long as the backend is built the same way it was recorded.

``verify`` replays the trace once onto a fresh backend of the kind its
footer names and checks the replay's final simulated clock against the
footer's recorded ``sim_ns_end``. Exit status: 0 verified, 1 mismatch,
2 malformed trace.

This package feeds simulation state, so it must stay deterministic: no
wall-clock imports here (``replay_trace`` takes an injected stopwatch;
the CLI simply doesn't time anything).
"""

import argparse
import sys

from repro.errors import TraceFormatError, TraceUnsupportedError
from repro.replay.engine import replay_trace
from repro.replay.format import KIND_NAMES, load_trace


def _build_backend(name):
    # Imported lazily so `python -m repro.replay info` on a malformed
    # trace never pays for (or trips over) the baselines package.
    from repro.perfbench import build_backend
    return build_backend(name)


def _cmd_record(args):
    from repro.perfbench import record_cell_trace
    trace, timed_sim = record_cell_trace(
        args.workload, args.backend, args.ops, args.records, args.seed)
    size = trace.save(args.out)
    print("wrote %s: %d events, %d bytes, timed phase %d sim-ns"
          % (args.out, len(trace), size, timed_sim))
    return 0


def _cmd_info(args):
    trace = load_trace(args.trace)
    footer = trace.footer
    print("events:   %d" % len(trace))
    print("payload:  %d bytes" % len(trace.payload))
    print("backend:  %s" % footer.get("backend"))
    print("sim_ns:   %s -> %s"
          % (footer.get("sim_ns_start"), footer.get("sim_ns_end")))
    kinds = {}
    for kind in trace.kinds:
        kinds[kind] = kinds.get(kind, 0) + 1
    for kind in sorted(kinds):
        print("  %-16s %d" % (KIND_NAMES.get(kind, kind), kinds[kind]))
    meta = footer.get("meta")
    if meta:
        print("meta:     %s" % meta)
    return 0


def _cmd_verify(args):
    trace = load_trace(args.trace)
    result = replay_trace(trace, _build_backend(trace.footer["backend"]))
    expected = trace.footer.get("sim_ns_end")
    if expected is not None and result.sim_ns != expected:
        print("MISMATCH: replay ended at %s sim-ns, footer recorded %s"
              % (result.sim_ns, expected), file=sys.stderr)
        return 1
    print("verified %s: %d events, sim_ns %s"
          % (args.trace, result.events, result.sim_ns))
    return 0


def main(argv=None):
    """Dispatch a replay subcommand; return a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.replay",
        description="Record, inspect, and verify simulation traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.perfbench import (BACKENDS, DEFAULT_OPS, DEFAULT_RECORDS,
                                 DEFAULT_SEED, WORKLOADS)
    rec = sub.add_parser("record", help="record one perfbench cell")
    rec.add_argument("--workload", default="store_heavy",
                     choices=WORKLOADS)
    rec.add_argument("--backend", default="pax", choices=BACKENDS)
    rec.add_argument("--ops", type=int, default=DEFAULT_OPS)
    rec.add_argument("--records", type=int, default=DEFAULT_RECORDS)
    rec.add_argument("--seed", type=int, default=DEFAULT_SEED)
    rec.add_argument("--out", required=True, help="trace output path")
    rec.set_defaults(func=_cmd_record)

    info = sub.add_parser("info", help="print trace header and footer")
    info.add_argument("trace")
    info.set_defaults(func=_cmd_info)

    ver = sub.add_parser("verify",
                         help="replay once and check the footer's sim_ns")
    ver.add_argument("trace")
    ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TraceFormatError as exc:
        print("trace format error: %s" % exc, file=sys.stderr)
        return 2
    except TraceUnsupportedError as exc:
        print("trace unsupported: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
