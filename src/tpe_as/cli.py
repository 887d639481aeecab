"""Command-line entry point: run experiments, report summaries, show spaces."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .blackbox import strategy_preset
from .harness import ExperimentConfig, report, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tpe-as")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--output-dir", type=Path, default=None)
    p_run.add_argument("--parallelism", type=int, default=1)
    p_run.add_argument("--overwrite", action="store_true")

    p_report = sub.add_parser("report", help="aggregate a summary CSV")
    p_report.add_argument("summary", type=Path)

    p_show = sub.add_parser("show-space", help="print a strategy's parameter space")
    p_show.add_argument("strategy")

    args = parser.parse_args(argv)

    if args.command == "run":
        config = ExperimentConfig.from_json(args.config.read_text())
        if args.output_dir is not None:
            config = replace(config, output_dir=str(args.output_dir))
        return run_experiment(
            config, overwrite=args.overwrite, parallelism=args.parallelism
        )
    if args.command == "report":
        print(report(args.summary))
        return 0
    print(strategy_preset(args.strategy).param_space.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
