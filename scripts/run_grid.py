#!/usr/bin/env python3
"""Run the full method x strategy x scenario grid at a modest budget.

Useful as a smoke benchmark; the headline ablation lives in
run_ablation.py. Each cell writes its own subdirectory and the combined
report is printed at the end.
"""

import argparse
from pathlib import Path

from tpe_as.blackbox import SCENARIOS, STRATEGIES
from tpe_as.harness import METHODS, ExperimentConfig, report, run_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="out/grid")
    parser.add_argument("--budget", type=int, default=100)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--parallelism", type=int, default=1)
    parser.add_argument("--overwrite", action="store_true")
    args = parser.parse_args()

    status = 0
    for method in METHODS:
        for strategy in STRATEGIES:
            for scenario in SCENARIOS:
                out = Path(args.output_dir) / f"{method}_{strategy}_{scenario}"
                config = ExperimentConfig(method, strategy, scenario, args.budget, tuple(args.seeds), str(out))
                status |= run_experiment(
                    config, overwrite=args.overwrite, parallelism=args.parallelism
                )
                print(report(out / "summary.csv"))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
