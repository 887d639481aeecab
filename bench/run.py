#!/usr/bin/env python3
"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload through `tpe-as run` in this process, serially, with BLAS
threads capped at the number of CPUs; checks the search outputs; prints a
details line and then, as the last line, one JSON result.  With --trace 0 the
result holds the end-to-end metrics, with --trace 1 the per-layer ones.
Details, and the spans of a traced run, are also written under .bench_out/.
Exits with status 2, printing no result, when the program's sources are
missing.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tpe_as" / "__init__.py").is_file():
        print(f"error: the tpe_as sources are missing under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # read by the BLAS library when numpy is first imported
        os.environ[var] = str(os.cpu_count() or 1)
    sys.path.insert(0, str(src))
    import measure

    out = measure.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(out["details"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
