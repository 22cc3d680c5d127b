"""CLI for the wall-clock regression harness.

Examples::

    python -m repro.perfbench                          # full matrix -> BENCH_PR3.json
    python -m repro.perfbench --ops 4000 --out smoke.json
    python -m repro.perfbench --compare BENCH_PR3.json # measure, then grade
    python -m repro.perfbench --engine replay          # trace-replay engine
    python -m repro.perfbench --trace trace.jsonl      # + structured trace

``--compare`` prints a human verdict and also writes the full per-cell
comparison (wall-clock deltas, throughput ratios, sim_ns checks) as JSON
next to the report (``<out>`` with a ``.compare.json`` suffix), for
dashboards and CI artifacts.

Exit status: 0 on success, 1 on a comparison failure — wired for CI.
"""

import argparse
import json
import sys

from repro.perfbench import (BACKENDS, DEFAULT_OPS, DEFAULT_RECORDS,
                             DEFAULT_SEED, WORKLOADS, compare_report,
                             load_report, run_matrix, write_report)


def main(argv=None):
    """Run the benchmark matrix; return a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.perfbench",
        description="Measure simulator wall-clock throughput over a fixed "
                    "workload x backend matrix.")
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS,
                        help="timed operations per cell (default %(default)s)")
    parser.add_argument("--records", type=int, default=DEFAULT_RECORDS,
                        help="records preloaded before timing (default %(default)s)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload RNG seed (default %(default)s)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per cell; best wall-clock wins (default %(default)s)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workload list (default %(default)s)")
    parser.add_argument("--backends", default=",".join(BACKENDS),
                        help="comma-separated backend list (default %(default)s)")
    parser.add_argument("--engine", default="access",
                        help="comma-separated engine list: access, replay "
                             "(default %(default)s)")
    parser.add_argument("--out", default="BENCH_PR3.json",
                        help="report path (default %(default)s)")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="grade this run against a baseline report; "
                             "exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional wall-clock drop vs the "
                             "baseline (default %(default)s)")
    parser.add_argument("--trace", metavar="PATH",
                        help="attach a repro.obs tracer to every cell and "
                             "write the events as a JSONL trace")
    parser.add_argument("--metrics", metavar="PATH",
                        help="dump every cell's stat counters/histograms "
                             "in Prometheus text format")
    args = parser.parse_args(argv)

    def progress(cell):
        print("%-12s %-10s %-7s %8.0f ops/s  (%.3fs wall, %d sim-ns)"
              % (cell["workload"], cell["backend"],
                 cell.get("engine", "access"), cell["ops_per_sec"],
                 cell["wall_s"], cell["sim_ns"]))

    tracer_factory = None
    cell_hook = None
    trace_handle = None
    registry = None
    if args.trace or args.metrics:
        # Imported lazily: an untraced perfbench run never touches obs.
        from repro.obs import MetricsRegistry, ObsTracer
        from repro.obs.export import write_jsonl
        if args.trace:
            trace_handle = open(args.trace, "w")
            write_jsonl((), trace_handle)        # header line only
            tracer_factory = ObsTracer
        if args.metrics:
            registry = MetricsRegistry()

        def cell_hook(cell, backend, tracer):
            label = "%s/%s" % (cell["workload"], cell["backend"])
            if trace_handle is not None:
                write_jsonl(tracer.events(), trace_handle,
                            extra={"cell": label}, header=False)
            if registry is not None:
                registry.register_machine(backend, cell=label)

    try:
        report = run_matrix(workloads=args.workloads.split(","),
                            backends=args.backends.split(","),
                            ops=args.ops, records=args.records,
                            seed=args.seed, repeats=args.repeats,
                            progress=progress,
                            tracer_factory=tracer_factory,
                            cell_hook=cell_hook,
                            engines=args.engine.split(","))
    finally:
        if trace_handle is not None:
            trace_handle.close()
    write_report(report, args.out)
    print("wrote %s" % args.out)
    if args.trace:
        print("wrote %s" % args.trace)
    if registry is not None:
        with open(args.metrics, "w") as handle:
            handle.write(registry.to_prometheus())
        print("wrote %s" % args.metrics)

    if args.compare:
        grade = compare_report(report, load_report(args.compare),
                               tolerance=args.tolerance)
        compare_out = args.out
        if compare_out.endswith(".json"):
            compare_out = compare_out[:-len(".json")]
        compare_out += ".compare.json"
        with open(compare_out, "w") as handle:
            json.dump(grade, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % compare_out)
        if grade["problems"]:
            for problem in grade["problems"]:
                print("REGRESSION: %s" % problem, file=sys.stderr)
            return 1
        print("no regression vs %s (tolerance %d%%)"
              % (args.compare, round(args.tolerance * 100)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
