#!/usr/bin/env python3
"""Reproduce the headline ablation: adaptive vs conventional TPE.

Runs tpe_as, tpe_conventional, and random_search on the
threshold_hybrid x high_volatility preset over paired seeds, writes all
artifacts under --output-dir, and prints the aggregate report plus the
adaptive/conventional variance and max ratios.
"""

import argparse
from pathlib import Path

from tpe_as.harness import METHODS, ExperimentConfig, report, run_experiment, summary_stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="out/ablation")
    parser.add_argument("--budget", type=int, default=500)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--parallelism", type=int, default=1)
    parser.add_argument("--overwrite", action="store_true")
    args = parser.parse_args()

    status = 0
    for method in METHODS:
        out = Path(args.output_dir) / method
        config = ExperimentConfig(method, "threshold_hybrid", "high_volatility", args.budget, tuple(args.seeds), str(out))
        status |= run_experiment(
            config, overwrite=args.overwrite, parallelism=args.parallelism
        )
        print(report(out / "summary.csv"))

    # each method's summary holds one group: threshold_hybrid x high_volatility
    (adaptive,), (conventional,) = (
        summary_stats(Path(args.output_dir) / method / "summary.csv").values()
        for method in ("tpe_as", "tpe_conventional")
    )
    var_ratio = adaptive["variance_f"][0] / conventional["variance_f"][0]
    max_ratio = adaptive["max_f"][0] / conventional["max_f"][0]
    print(f"\nadaptive/conventional median variance_f ratio: {var_ratio:.3f}")
    print(f"adaptive/conventional median max_f ratio:      {max_ratio:.3f}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
