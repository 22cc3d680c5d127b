"""CLI for the experiment-matrix harness: ``python -m repro.sweep``.

Examples::

    python -m repro.sweep specs/full-grid.toml
    python -m repro.sweep specs/smoke-grid.toml --out smoke.json \\
        --markdown smoke.md

Exit codes: 0 every cell replayed and every spot check passed; 1 a
fingerprint spot check failed; 2 the spec was rejected.
"""

import argparse
import sys

from repro.errors import ConfigError, ReproError
from repro.sweep import SCHEMA, load_spec, run_sweep
from repro.sweep.report import to_markdown, write_report


def build_parser():
    """The sweep CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Run a declarative experiment grid (record once, "
                    "replay many, fingerprint-verify) from a spec file.")
    parser.add_argument("spec", help="sweep spec path (.toml or .json)")
    parser.add_argument("--out", default="SWEEP.json",
                        help="report path (default %(default)s)")
    parser.add_argument("--markdown", metavar="PATH",
                        help="also render the report as markdown tables")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    return parser


def main(argv=None):
    """Run one sweep; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        spec = load_spec(args.spec)
    except ConfigError as exc:
        print("sweep: bad spec: %s" % exc, file=sys.stderr)
        return 2

    def progress(cell):
        verified = {None: " ", True: "+", False: "!"}[cell["verified"]]
        print("%s %-11s %-9s %-32s %10d sim-ns  [%s]"
              % (verified, cell["workload"], cell["backend"],
                 cell["variant"], cell["sim_ns_timed"], cell["engine"]))

    try:
        report = run_sweep(spec, progress=None if args.quiet else progress)
    except ReproError as exc:
        print("sweep: %s" % exc, file=sys.stderr)
        return 2
    write_report(report, args.out)
    print("wrote %s (%d cells, schema %s)"
          % (args.out, len(report["cells"]), SCHEMA))
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(to_markdown(report))
        print("wrote %s" % args.markdown)

    verification = report["verification"]
    print("verification: %d checked, %d passed, %d failed"
          % (verification["checked"], verification["passed"],
             verification["failed"]))
    for failure in verification["failures"]:
        print("FINGERPRINT MISMATCH: %s/%s %s (%d key(s))"
              % (failure["workload"], failure["backend"],
                 failure["variant"], failure["mismatch_count"]),
              file=sys.stderr)
    return 1 if verification["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
