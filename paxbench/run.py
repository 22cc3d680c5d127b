"""The repository benchmark.

    python3 paxbench/run.py --workload hot-read --seed 1 --seconds 30 --trace 0

Runs fresh-process samples of one workload (see ``workloads.py``) until
``--seconds`` have passed, at least three of them, and prints every
metric by name with its unit. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (see :func:`end_to_end`).
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of the traced ones plus ``trace.overhead_x``, their
timed-phase wall time over the untraced one.

Every sample of one run uses the same seed, so all must agree exactly on
simulated time and on the model fingerprint digest, traced or not; the
run fails (exit 1, no result) if they do not. It exits 2 when the
checkout holds no simulator sources.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from layers import DETERMINISTIC, END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_SAMPLES = 3
#: No sample starts if it could end past this many seconds of the run.
RUN_LIMIT_S = 150
SAMPLE_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not produce a trustworthy result."""


def run_sample(workload, seed, traced, size):
    """One sample in a fresh interpreter; returns its result dict."""
    cmd = [sys.executable, os.path.join(HERE, "sample.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--size", size]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("sample timed out after %d s: %s"
                         % (SAMPLE_TIMEOUT_S, " ".join(cmd))) from None
    if proc.returncode != 0:
        raise BenchError("sample exited %d:\n%s"
                         % (proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload, seed, seconds, traced, size):
    """Samples until ``seconds`` have passed; returns (plain, traced)."""
    plain, with_trace = [], []
    start = time.monotonic()
    deadline = start + seconds
    longest = 0.0
    while True:
        now = time.monotonic()
        enough = (len(with_trace) >= 1 if traced
                  else len(plain) >= MIN_SAMPLES)
        if enough and (now >= deadline
                       or now + longest > start + RUN_LIMIT_S):
            return plain, with_trace
        plain.append(run_sample(workload, seed, False, size))
        if traced:
            with_trace.append(run_sample(workload, seed, True, size))
        longest = max(longest, time.monotonic() - now)


def check_samples(samples):
    """Same seed, same model: every sample must agree exactly.

    Also holds the traced samples' self times to at most their wall time.
    """
    seen = {(s["sim_ns"], s["digest"]) for s in samples}
    if len(seen) != 1:
        raise BenchError(
            "non-deterministic simulation: samples of one seed disagree on "
            "(sim_ns, fingerprint digest): %s" % sorted(seen))
    traced = [s["layers"] for s in samples if s["traced"]]
    for layers in traced:
        if layers["trace.self_share"] > 1.0:
            raise BenchError("self times sum to %.4f of the traced wall time"
                             % layers["trace.self_share"])
    for name in DETERMINISTIC:
        values = {layers[name] for layers in traced}
        if len(values) > 1:
            raise BenchError("count %s differs between traced samples: %s"
                             % (name, sorted(values)))


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def end_to_end(samples):
    """End-to-end metrics of the untraced samples.

    Host timings come from the least disturbed measurement: on a shared
    machine other tenants slow the CPU in phases lasting seconds, and the
    quietest measurement of a run is what repeats from run to run. For
    hot-read and cold-write that is the highest throughput and the lowest
    p50 and p99 of any window of ``WINDOW_OPS`` calls (cold-write takes
    throughput per sample: its output checks pause the phase). For grid,
    whose samples are a whole sweep long, it is each cell's shortest wall
    time across the samples; the cells partition the sweep, so their sum
    is the sweep's undisturbed wall time. Set-up time and memory are
    medians.
    """
    first = samples[0]
    if first["workload"] == "grid":
        cells = [min(times) for times in zip(*(s["cell_s"] for s in samples))]
        replayed = [wall * 1e6 / first["cell_ops"] for wall, checked
                    in zip(cells, first["cell_checked"]) if not checked]
        ops_per_s = first["ops"] / sum(cells)
        p50 = statistics.median(replayed)
        p99 = statistics.quantiles(replayed, n=100, method="inclusive")[98]
    else:
        ops_per_s = max(s["ops_per_s"] for s in samples)
        p50 = min(s["op_us_p50"] for s in samples)
        p99 = min(s["op_us_p99"] for s in samples)
    return {
        "ops_per_s": ops_per_s,
        "op_us_p50": p50,
        "op_us_p99": p99,
        "sim_ns_per_op": first["sim_ns"] / first["ops"],
        "setup_s": _median(samples, "setup_s"),
        "peak_rss_mb": _median(samples, "peak_rss_mb"),
    }


def per_layer(plain, traced):
    """Per-layer metrics of the traced samples, plus the tracing overhead."""
    out = {name: statistics.median(s["layers"][name] for s in traced)
           for name in PER_LAYER if name != "trace.overhead_x"}
    out["trace.overhead_x"] = (_median(traced, "timed_s")
                               / _median(plain, "timed_s"))
    return out


def describe(args, plain, traced, values, units):
    """Human-readable lines that precede the JSON result."""
    first = plain[0]
    env = first["env"]
    samples = plain + traced
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    lines = [
        "paxbench %s seed=%d: %d untraced + %d traced samples, one fresh "
        "process each, one closed-loop client" % (
            args.workload, args.seed, len(plain), len(traced)),
        "env: python %s, numpy %s, gc %s" % (
            env["python"], "present" if env["numpy"] else "absent",
            env["gc"]),
        "model: sim_ns_per_op %.6f (simulated, unvalidated), digest %s" % (
            first["sim_ns"] / first["ops"], first["digest"]),
        "failed_frac %.6g (%d failed / %d attempted)" % (
            failed / attempted, failed, attempted),
    ]
    if first["workload"] == "grid":
        lines.append("grid: %d cells, %d on the fast replay engine (there "
                     "every layer below replay is inlined, so its time "
                     "counts as replay)" % (first["cells"],
                                            first["fast_cells"]))
    if first["workload"] == "grid":
        lines.append("latency samples: %d replayed cells (spot-checked "
                     "cells left out)" % first["cell_checked"].count(False))
    else:
        lines.append("latency samples per untraced sample: %d put/get "
                     "calls" % first["latency_samples"])
    for name, value in values.items():
        lines.append("  %-32s %16.6f %s" % (name, value, units[name]))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="PAX simulator benchmark (see paxbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("paxbench: no simulator sources under %s/src"
              % ROOT, file=sys.stderr)
        return 2
    try:
        plain, traced = collect(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.size)
        check_samples(plain + traced)
    except BenchError as exc:
        print("paxbench: FAILED: %s" % exc, file=sys.stderr)
        return 1
    if args.trace:
        values, units = per_layer(plain, traced), PER_LAYER
    else:
        values, units = end_to_end(plain), END_TO_END
    for line in describe(args, plain, traced, values, units):
        print(line)
    samples = plain + traced
    for sample in samples:
        for error in sample["errors"]:
            print("paxbench: failed op: %s" % error, file=sys.stderr)
    failed = sum(s["failed"] for s in samples)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
