"""CLI for the wall-clock regression harness.

Examples::

    python -m repro.perfbench --compare BENCH.json  # measure, then grade
    python -m repro.perfbench --out BENCH.json      # re-record the baseline
    python -m repro.perfbench --engine replay       # trace-replay engine
    python -m repro.perfbench --trace trace.jsonl   # + structured trace

The defaults are the configuration ``BENCH.json`` is recorded at; a run
at any other configuration cannot be graded against it.

Exit status: 0 on success, 1 on a comparison failure, 2 when the
baseline is unreadable or ran another configuration — wired for CI.
"""

import argparse
import sys

from repro.errors import ConfigError
from repro.perfbench import (BACKENDS, DEFAULT_OPS, DEFAULT_RECORDS,
                             DEFAULT_REPEATS, DEFAULT_SEED, ENGINES,
                             TOLERANCE, WORKLOADS, check_config, compare,
                             load_report, matrix_config, run_matrix,
                             write_report)


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
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="runs per cell; best wall-clock wins (default %(default)s)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workload list (default %(default)s)")
    parser.add_argument("--backends", default=",".join(BACKENDS),
                        help="comma-separated backend list (default %(default)s)")
    parser.add_argument("--engine", default=",".join(ENGINES),
                        help="comma-separated engine list: access, replay "
                             "(default %(default)s)")
    parser.add_argument("--out", default="perfbench.json",
                        help="report path (default %(default)s)")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="grade this run against a baseline report "
                             "of the same configuration; exit 1 on "
                             "regression")
    parser.add_argument("--trace", metavar="PATH",
                        help="attach a repro.obs tracer to every access "
                             "cell and write the events as a JSONL trace")
    parser.add_argument("--metrics", metavar="PATH",
                        help="dump every access cell's stat counters/"
                             "histograms in Prometheus text format")
    args = parser.parse_args(argv)
    matrix = dict(workloads=args.workloads.split(","),
                  backends=args.backends.split(","), ops=args.ops,
                  records=args.records, seed=args.seed,
                  repeats=args.repeats, engines=args.engine.split(","))
    baseline = None
    if args.compare:
        # A baseline that cannot grade this run fails before the run.
        try:
            baseline = load_report(args.compare)
            check_config(matrix_config(**matrix), baseline)
        except (ConfigError, OSError, ValueError) as exc:
            print("perfbench: %s" % exc, file=sys.stderr)
            return 2

    def progress(cell):
        print("%-12s %-10s %-7s %8.0f ops/s  (%.3fs wall, %d sim-ns)"
              % (cell["workload"], cell["backend"],
                 cell["engine"], cell["ops_per_sec"],
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
            # Replay cells run untraced and end in their access cells'
            # machine state: the access cells are the ones to observe.
            if cell["engine"] != "access":
                return
            label = "%s/%s" % (cell["workload"], cell["backend"])
            if trace_handle is not None:
                write_jsonl(tracer.events(), trace_handle,
                            extra={"cell": label}, header=False)
            if registry is not None:
                registry.register_machine(backend, cell=label)

    try:
        report = run_matrix(progress=progress,
                            tracer_factory=tracer_factory,
                            cell_hook=cell_hook, **matrix)
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

    if baseline is not None:
        problems = compare(report, baseline)
        for problem in problems:
            print("REGRESSION: %s" % problem, file=sys.stderr)
        if problems:
            return 1
        print("no regression vs %s: %d cells, simulated fields exact, "
              "throughput within %d%%"
              % (args.compare, len(report["results"]),
                 round(TOLERANCE * 100)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
