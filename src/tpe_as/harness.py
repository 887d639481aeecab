"""Experiment driver: config loading, grid runs, trial logs, summary tables."""

from __future__ import annotations

import csv
import functools
import json
import math
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .baselines import BASELINE_KINDS, run_baseline
from .blackbox import evaluate, scenario_preset, strategy_preset
from .optimizer import OptimizerConfig, run, summarize
from .space import Config, ParamSpace
from .surrogate import History, TrialRecord

METHODS = ("tpe_as", *BASELINE_KINDS)  # in the order a grid runs them
SUMMARY_HEADER = [
    "method",
    "strategy",
    "scenario",
    "seed",
    "status",
    "max_f",
    "variance_f",
    "mean_step_time",
]


class HarnessError(ValueError):
    """Malformed config or CSV; `from_json` wraps the BlackboxError or OptimizerError of a bad preset or seed."""


@dataclass(frozen=True)
class ExperimentConfig:
    method: str
    strategy: str
    scenario: str
    budget: int
    seeds: tuple
    output_dir: str

    def __post_init__(self):
        if self.method not in METHODS:
            raise HarnessError(f"unknown method {self.method!r}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise HarnessError("seeds must be non-empty and distinct")
        if not isinstance(self.output_dir, str):
            raise HarnessError(f"output_dir must be a string, got {self.output_dir!r}")
        for seed in self.seeds:  # fail fast on a bad budget, seeds and unresolvable presets, before any run starts
            OptimizerConfig(self.budget, seed)
        strategy_preset(self.strategy)
        scenario_preset(self.scenario)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
            opt_doc = dict(doc.get("optimizer", {}))
            opt_doc.pop("mode", None)  # not a field, as the method picks lambda; dropped so old configs load
            opt_doc.pop("seed", None)  # and each cell sets its own seed
            budget = opt_doc.pop("budget")
            if opt_doc:  # such as a constant of the method
                raise HarnessError(f"unknown optimizer keys: {', '.join(map(repr, sorted(opt_doc)))}")
            return cls(
                method=doc["method"],
                strategy=doc["strategy"],
                scenario=doc["scenario"],
                budget=budget,
                seeds=tuple(doc["seeds"]),
                output_dir=doc.get("output_dir", "out"),
            )
        except HarnessError:
            raise
        except KeyError as exc:
            raise HarnessError(f"experiment config lacks key {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise HarnessError(f"malformed experiment config: {exc}") from exc


# trial log key -> TrialRecord field, in the order a log line writes them
LOG_KEYS = {"step": "step", "config": "config", "f": "f_value", "j_score": "j_score",
            "lambda": "lambda_used", "proposal_density": "proposal_density", "flags": "flags"}


def trial_to_json(trial: TrialRecord, space: ParamSpace) -> str:
    doc = {key: getattr(trial, field) for key, field in LOG_KEYS.items()}  # flags, a tuple, dumps as a list
    return json.dumps(doc | {"config": trial.config.as_dict(space)}, separators=(",", ":"))


def history_to_jsonl(history: History, space: ParamSpace) -> str:
    return "\n".join(trial_to_json(t, space) for t in history.trials) + "\n"


def history_from_jsonl(text: str, space: ParamSpace) -> History:
    history = History(space)  # whose append validates each config: a log is outside input
    for i, line in enumerate(text.strip().splitlines(), start=1):
        try:
            doc = json.loads(line)
            fields = {field: doc[key] for key, field in LOG_KEYS.items()}
            fields["config"] = Config.from_dict(space, doc["config"])  # whose SpaceError passes through
        except (KeyError, TypeError, json.JSONDecodeError) as exc:  # a key missing, not an object, not JSON
            raise HarnessError(f"line {i}: not a trial line: {exc!r}") from exc
        if isinstance(fields["flags"], list):  # and TrialRecord refuses anything else, such as a string
            fields["flags"] = tuple(fields["flags"])
        history.append(TrialRecord(**fields))
    return history


def run_name(config: ExperimentConfig, seed: int) -> str:
    return f"{config.method}_{config.strategy}_{config.scenario}_seed{seed}"


def _run_cell(config: ExperimentConfig, seed: int):
    """One grid cell: (history, mean_step_time), or the exception's repr."""
    try:
        kind = strategy_preset(config.strategy)
        spec = scenario_preset(config.scenario, seed=seed)
        blackbox = lambda cfg: evaluate(kind, spec, cfg)
        opt = OptimizerConfig(config.budget, seed)
        start = time.perf_counter()
        if config.method == "tpe_as":
            history = run(opt, blackbox, kind.param_space)
        else:
            history = run_baseline(config.method, opt, blackbox, kind.param_space)
        elapsed = time.perf_counter() - start
        return history, elapsed / opt.budget
    except Exception as exc:  # keep the grid going
        return repr(exc)


def _finished_cells(config: ExperimentConfig, parallelism: int):
    """Yield (seed, cell result) in seed order, each once its cell finishes;
    a cell whose worker process died yields the error's repr, like one that raised."""
    cell = functools.partial(_run_cell, config)
    if config.method != "random_search":
        # what a KDE fit imports, loaded before any cell's timer starts and
        # before a pool forks, so that its workers share it
        import scipy.special  # noqa: F401
    if parallelism == 1:
        for seed in config.seeds:
            yield seed, cell(seed)
        return
    # a fork pool starts all its workers up front, so start no idle ones
    with ProcessPoolExecutor(max_workers=min(parallelism, len(config.seeds))) as pool:
        futures = [pool.submit(cell, seed) for seed in config.seeds]
        for seed, future in zip(config.seeds, futures):
            exc = future.exception()  # BrokenProcessPool when a worker died
            yield seed, future.result() if exc is None else repr(exc)


def run_experiment(
    config: ExperimentConfig, overwrite: bool = False, parallelism: int = 1
) -> int:
    """Run all seeds, persist trial logs, trajectories, and a summary CSV.

    Cells are written in seed order as they finish, so a worker that dies
    loses no finished cell.  A seed that raises, or whose worker process
    dies, gets a `failed: <repr>` summary row, in serial and parallel runs
    alike.  Returns a process exit status: 0 iff every run succeeded.
    """
    if parallelism < 1:
        raise HarnessError(f"parallelism must be at least 1, got {parallelism}")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary_path = out / "summary.csv"
    if summary_path.exists() and not overwrite:
        raise HarnessError(f"{summary_path} exists; pass overwrite to replace it")

    rows = []
    for seed, result in _finished_cells(config, parallelism):
        if isinstance(result, str):
            outcome = [f"failed: {result}", "", "", ""]
        else:
            history, step_time = result
            summary = summarize(history.f_values)
            name = run_name(config, seed)
            (out / f"trials_{name}.jsonl").write_text(history_to_jsonl(history, history.space))
            with (out / f"traj_{name}.csv").open("w", newline="") as tf:
                tw = csv.writer(tf)
                tw.writerow(["step", "f", "j_score"])
                tw.writerows([t.step, repr(t.f_value), repr(t.j_score)] for t in history.trials)
            outcome = ["ok", repr(summary["max_f"]), repr(summary["variance_f"]), f"{step_time:.6f}"]
        rows.append([config.method, config.strategy, config.scenario, seed] + outcome)
    with summary_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        writer.writerows(rows)
    return int(any(row[4] != "ok" for row in rows))


def summary_from_log(log_path) -> dict:
    """Recompute a summary row's metrics straight from its trial log, by `summarize`."""
    fs = []
    for i, line in enumerate(Path(log_path).read_text().strip().splitlines(), start=1):
        try:
            f = json.loads(line)["f"]
            if type(f) not in (int, float):  # summarize would read a bool as a number
                raise TypeError(f"f must be a number, got {f!r}")
        except (KeyError, TypeError, ValueError) as exc:  # also no f, not an object, not JSON
            raise HarnessError(f"{log_path}:{i}: not a trial line: {exc!r}") from exc
        fs.append(f)
    if not fs:
        raise HarnessError(f"no trials in log: {log_path}")
    if not all(abs(f) <= sys.float_info.max for f in fs):  # NaN, inf, or an int beyond float range
        raise HarnessError(f"non-finite f in log: {log_path}")
    return summarize(fs)


def _median_iqr(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    qs = statistics.quantiles(values, n=4)
    return med, qs[2] - qs[0]


def summary_stats(summary_csv) -> dict:
    """Per (method, strategy, scenario) group of a summary CSV's ok rows:
    {"max_f": (median, IQR), "variance_f": (median, IQR)}."""
    path = Path(summary_csv)
    if not path.exists():
        raise HarnessError(f"no such summary file: {path}")
    groups: dict = {}
    with path.open() as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != SUMMARY_HEADER:
            raise HarnessError(f"{path}:1: unexpected header {reader.fieldnames}")
        for i, row in enumerate(reader, start=2):
            if None in row or None in row.values():  # DictReader's key for extra fields, and value for missing ones
                raise HarnessError(f"{path}:{i}: expected {len(SUMMARY_HEADER)} fields")
            if row["status"] != "ok":
                continue
            key = (row["method"], row["strategy"], row["scenario"])
            try:
                max_f, variance_f = float(row["max_f"]), float(row["variance_f"])
            except ValueError as exc:
                raise HarnessError(f"{path}:{i}: {exc}") from exc
            if not (math.isfinite(max_f) and 0 <= variance_f < math.inf):  # no run summarizes to these
                raise HarnessError(f"{path}:{i}: not a run's summary: max_f {max_f!r}, variance_f {variance_f!r}")
            groups.setdefault(key, []).append((max_f, variance_f))
    return {key: dict(zip(("max_f", "variance_f"), map(_median_iqr, zip(*rows)))) for key, rows in groups.items()}


def report(summary_csv) -> str:
    """Format `summary_stats` as one line per group, flagging the best median max and variance."""
    stats = summary_stats(summary_csv)
    best_max = max(stats, key=lambda k: stats[k]["max_f"][0]) if stats else None
    best_var = min(stats, key=lambda k: stats[k]["variance_f"][0]) if stats else None

    lines = [
        f"{'method':<18} {'strategy':<18} {'scenario':<18} "
        f"{'max_f med':>10} {'iqr':>8} {'var_f med':>10} {'iqr':>8}  flags"
    ]
    for key in sorted(stats):
        (max_med, max_iqr), (var_med, var_iqr) = stats[key]["max_f"], stats[key]["variance_f"]
        flags = []
        if key == best_max:
            flags.append("best-max")
        if key == best_var:
            flags.append("best-var")
        lines.append(
            f"{key[0]:<18} {key[1]:<18} {key[2]:<18} "
            f"{max_med:>10.4f} {max_iqr:>8.4f} {var_med:>10.4f} {var_iqr:>8.4f}  "
            + ",".join(flags)
        )
    return "\n".join(lines)
