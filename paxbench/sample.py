"""Run one benchmark sample in this (fresh) process; print it as JSON.

    python3 paxbench/sample.py --workload hot-read --seed 1 [--trace 1]

``run.py`` starts one of these per sample, so nothing is shared between
samples: ``repro.perfbench`` memoizes recorded traces per process (a
second grid sample in one process would skip recording and under-report
``setup_s``), and ``ru_maxrss`` is a per-process high-water mark.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("sample: no simulator sources under %s" % SRC)
    sys.path.insert(0, SRC)
    from workloads import run_sample
    result = run_sample(args.workload, args.seed, traced=bool(args.trace),
                        size=args.size)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
