"""Time searches through `tpe-as run`, gate their outputs, trace the layers.

An untraced run measures the end-to-end metrics: set-up time from fresh
interpreters, then as many searches as fit in the run's seconds (and at
least 500 trials), each one a call of `tpe_as.cli.main(["run", config])` in
this process.  A traced
run repeats the reference search without and then with spans around the
calls into every module, and reports per-layer metrics.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from tpe_as import baselines, blackbox, cli, harness, objective, optimizer, space, surrogate
from tpe_as.optimizer import DEGENERATE_FLAG, FAILURE_FLAG

from tracing import Tracer
from workloads import REFERENCE_SEED

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_TRIAL_SAMPLES = 500  # so that at least ten lie beyond the p98

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "trials/s",
    "best_f": "Sharpe",
    "variance_f": "Sharpe2",
    "ok_trial_frac": "fraction",
    "peak_rss_mb": "MB",
}

DECILES = [f"optimizer.trial_ms_p50.d{d:02d}" for d in range(1, 11)]


def _span(name: str, *keys) -> dict:
    return {f"{name}.{k}": "count" if k == "calls" else "s" for k in keys}


PER_LAYER_UNITS = {
    **_span("space.require_valid", "calls", "busy_s"),
    **_span("space.sample_uniform", "calls", "busy_s"),
    **_span("surrogate.propose_next", "calls", "busy_s", "self_s"),
    **_span("surrogate.split_history", "busy_s"),
    **_span("surrogate.fit_kde", "calls", "busy_s", "self_s"),
    "surrogate.fit_kde.components": "count",
    **_span("surrogate.density", "calls", "busy_s", "self_s"),
    "surrogate.density.kernel_evals": "count",
    **_span("surrogate.sample_from_kde", "calls", "busy_s"),
    **_span("objective.build_g_model", "calls", "busy_s", "self_s"),
    **_span("objective.windowed_variance", "calls", "busy_s", "self_s"),
    **_span("objective.density", "calls", "busy_s"),
    "objective.importance_weight.clipped_frac": "fraction",
    **_span("optimizer.run", "busy_s", "self_s"),
    "optimizer.trials": "count",
    "optimizer.flagged_failure": "count",
    "optimizer.flagged_degenerate": "count",
    **{name: "ms" for name in DECILES},
    **_span("baselines.run_baseline", "self_s"),
    **_span("blackbox.evaluate", "calls", "busy_s", "self_s"),
    **_span("blackbox.generate_scenario", "calls", "busy_s"),
    "blackbox.scenario_cache.hit_ratio": "fraction",
    **_span("blackbox.run_strategy", "busy_s"),
    **_span("blackbox.raw_positions", "busy_s"),
    **_span("blackbox.apply_stop_loss", "busy_s"),
    **_span("blackbox.sharpe_annualized", "busy_s"),
    "blackbox.asset_days": "count",
    **_span("harness.run_experiment", "self_s"),
    **_span("harness.history_to_jsonl", "busy_s"),
    "harness.bytes_written": "B",
    **_span("cli.main", "self_s"),
    "share.surrogate": "fraction",
    "share.objective": "fraction",
    "share.blackbox": "fraction",
    "trace.overhead_frac": "fraction",
}


def _components(args, result):
    return len(args[0])


def _kernel_evals(args, result):
    return args[0].n_components * args[0].space.m


def _clipped(args, result):
    return float(result != args[0] / args[1])


def _asset_days(args, result):
    return args[2].prices.size


# (namespace, name bound there, span name, counters): every module that
# imported a traced function gets its own binding wrapped
TRACE_POINTS = (
    (surrogate, "require_valid", "space.require_valid", None),
    (blackbox, "require_valid", "space.require_valid", None),
    (optimizer, "sample_uniform", "space.sample_uniform", None),
    (baselines, "sample_uniform", "space.sample_uniform", None),
    (optimizer, "propose_next", "surrogate.propose_next", None),
    (surrogate, "split_history", "surrogate.split_history", None),
    (surrogate, "fit_kde", "surrogate.fit_kde", {"components": _components}),
    (objective, "fit_kde", "surrogate.fit_kde", {"components": _components}),
    (surrogate, "density", "surrogate.density", {"kernel_evals": _kernel_evals}),
    (objective, "density", "objective.density", {"kernel_evals": _kernel_evals}),
    (surrogate, "sample_from_kde", "surrogate.sample_from_kde", None),
    (optimizer, "build_g_model", "objective.build_g_model", None),
    (optimizer, "windowed_variance", "objective.windowed_variance", None),
    (objective, "importance_weight", "objective.importance_weight", {"clipped": _clipped}),
    (harness, "run", "optimizer.run", None),
    (baselines, "run", "optimizer.run", None),
    (harness, "run_baseline", "baselines.run_baseline", None),
    (harness, "evaluate", "blackbox.evaluate", None),
    (blackbox, "generate_scenario", "blackbox.generate_scenario", None),
    (blackbox, "run_strategy", "blackbox.run_strategy", {"asset_days": _asset_days}),
    (blackbox, "_raw_positions", "blackbox.raw_positions", None),
    (blackbox, "_apply_stop_loss", "blackbox.apply_stop_loss", None),
    (blackbox, "sharpe_annualized", "blackbox.sharpe_annualized", None),
    (cli, "run_experiment", "harness.run_experiment", None),
    (harness, "history_to_jsonl", "harness.history_to_jsonl", None),
)


class TrialClock:
    """Stamps the start of every black-box call the harness makes in a search."""

    def __init__(self):
        self.stamps = None  # a list while a search runs

    def install(self):
        """Rebind harness.evaluate; returns the original, for the caller to restore."""
        original = harness.evaluate

        @functools.wraps(original)
        def evaluate(*args, **kwargs):
            if self.stamps is not None:
                self.stamps.append(time.perf_counter())
            return original(*args, **kwargs)

        harness.evaluate = evaluate
        return original


def trial_intervals_ms(stamps) -> list:
    """Time from the search's start to the first black-box call, then between
    successive calls: each covers one proposal, and all but the first also
    the evaluation and scoring of the trial before it."""
    return [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]


def decile_medians(searches) -> list:
    """Median trial time per tenth of the step index, pooled over searches."""
    pooled = [[] for _ in range(10)]
    for intervals in searches:
        n = len(intervals)
        for i, ms in enumerate(intervals):
            pooled[i * 10 // n].append(ms)
    return [statistics.median(p) for p in pooled]


def check_search(workload, config_path: Path, status: int) -> dict:
    """The correctness gate for one search; errors empty means it passed."""
    errors = []
    out = {"errors": errors}
    if status != 0:
        errors.append(f"tpe-as run exited with status {status}")
    try:
        config = harness.ExperimentConfig.from_json(config_path.read_text())
        seed = config.seeds[0]
        out_dir = Path(config.output_dir)
        space_ = blackbox.strategy_preset(config.strategy).param_space
        with (out_dir / "summary.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        log_path = out_dir / f"trials_{harness.run_name(config, seed)}.jsonl"
        log_bytes = log_path.read_bytes()
        text = log_bytes.decode()
        trials = [json.loads(line) for line in text.splitlines()]

        out["trial_log_sha256"] = hashlib.sha256(log_bytes).hexdigest()
        out["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
        out["trials"] = len(trials)
        out["flagged_failure"] = sum(FAILURE_FLAG in t["flags"] for t in trials)
        out["flagged_degenerate"] = sum(DEGENERATE_FLAG in t["flags"] for t in trials)
        out["failed_trials"] = sum(
            FAILURE_FLAG in t["flags"]
            or not (math.isfinite(t["f"]) and math.isfinite(t["j_score"]))
            for t in trials
        )

        if len(rows) != 1 or rows[0]["status"] != "ok" or int(rows[0]["seed"]) != seed:
            errors.append(f"summary rows {rows!r} are not one ok row for seed {seed}")
        else:
            out["best_f"] = float(rows[0]["max_f"])
            out["variance_f"] = float(rows[0]["variance_f"])
            recomputed = harness.summary_from_log(log_path)
            for key in ("max_f", "variance_f"):
                row_value = float(rows[0][key])
                if row_value != recomputed[key] and not (
                    math.isnan(row_value) and math.isnan(recomputed[key])
                ):
                    errors.append(f"summary {key} {rows[0][key]} != log {recomputed[key]!r}")
        if harness.history_to_jsonl(harness.history_from_jsonl(text, space_), space_) != text:
            errors.append("trial log does not round-trip through history_from_jsonl")
        if [t["step"] for t in trials] != list(range(1, workload.budget + 1)):
            errors.append(f"trial steps are not 1..{workload.budget}")
        for t in trials:
            finite = math.isfinite(t["f"]) and math.isfinite(t["j_score"])
            if not finite and not t["flags"]:
                errors.append(f"step {t['step']}: non-finite f or j_score without a flag")
            if not workload.adaptive and (t["j_score"] != t["f"] or t["lambda"] != 0.0):
                errors.append(f"step {t['step']}: j_score != f or lambda != 0 with lambda-free search")
        if workload.adaptive and trials and trials[-1]["lambda"] != 1.0:
            errors.append(f"lambda at step = budget is {trials[-1]['lambda']!r}, not 1.0")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errors.append(f"could not read the search's outputs: {exc!r}")
    return out


def warm_up(workload, seed: int) -> None:
    """One black-box call, so the scenario cache holds this seed's market."""
    kind = blackbox.strategy_preset(workload.strategy)
    spec = blackbox.scenario_preset(workload.scenario, seed=seed)
    harness.evaluate(kind, spec, space.sample_uniform(kind.param_space, np.random.default_rng(seed)))


def run_search(workload, seed: int, work_dir: Path, clock: TrialClock, main=cli.main) -> dict:
    """One timed `tpe-as run` of a single-seed config, then its checks.

    The caller warms the scenario cache for the seed first.
    """
    out_dir = work_dir / f"seed{seed}"
    config_path = work_dir / f"config_seed{seed}.json"
    config_path.write_text(json.dumps(workload.experiment_config(seed, str(out_dir))))
    t0 = time.perf_counter()
    clock.stamps = [t0]
    status = main(["run", str(config_path)])
    wall = time.perf_counter() - t0
    stamps, clock.stamps = clock.stamps, None
    record = {"seed": seed, "budget": workload.budget, "wall_s": wall}
    record.update(check_search(workload, config_path, status))
    record["trial_ms"] = trial_intervals_ms(stamps)
    shutil.rmtree(out_dir)
    return record


def measure_setup(workload, seed: int, work_dir: Path) -> list:
    """Wall time of fresh interpreters that import, load the config and warm up."""
    config_path = work_dir / "setup_config.json"
    config_path.write_text(json.dumps(workload.experiment_config(seed, str(work_dir / "unused"))))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config_path)],
            check=True,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return times


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _attempted_failed(records):
    """Trials attempted, and trials failed: flagged or non-finite, or all of a
    search that failed its checks."""
    attempted = sum(r["budget"] for r in records)
    failed = sum(r["budget"] if r["errors"] else r["failed_trials"] for r in records)
    return attempted, failed


def _search_summary(records) -> list:
    keys = ("seed", "wall_s", "best_f", "variance_f", "trial_log_sha256", "errors")
    return [{k: r.get(k) for k in keys} for r in records]


def end_to_end(workload, seed: int, seconds: float, work_dir: Path, clock: TrialClock):
    setup = measure_setup(workload, REFERENCE_SEED, work_dir)
    records = []
    t_start = time.perf_counter()
    for s in workload.search_seeds(seed):
        warm_up(workload, s)
        records.append(run_search(workload, s, work_dir, clock))
        samples = sum(len(r["trial_ms"]) for r in records)
        next_end = (time.perf_counter() - t_start) * (len(records) + 1) / len(records)
        if samples >= MIN_TRIAL_SAMPLES and next_end > seconds:
            break
    intervals = [ms for r in records for ms in r["trial_ms"]]
    p98 = statistics.quantiles(intervals, n=50)[-1]
    attempted, failed = _attempted_failed(records)
    ref = records[0]
    metrics = {
        "setup_s": statistics.median(setup),
        "trials_per_s": attempted / sum(r["wall_s"] for r in records),
        # 0 when the reference search failed its checks, and correct is false
        "best_f": ref.get("best_f", 0.0),
        "variance_f": ref.get("variance_f", 0.0),
        "ok_trial_frac": 1.0 - failed / attempted,
        "peak_rss_mb": _peak_rss_mb(),
    }
    details = {
        "setup_s_samples": setup,
        "trial_ms_p50": statistics.median(intervals),
        "trial_ms_p98": p98,
        "trial_samples": len(intervals),
        "trial_samples_above_p98": sum(ms > p98 for ms in intervals),
        "trial_ms_p50_by_decile": decile_medians([r["trial_ms"] for r in records]),
        "searches": _search_summary(records),
    }
    return metrics, records, details


def traced(workload, work_dir: Path, clock: TrialClock):
    seed = REFERENCE_SEED
    warm_up(workload, seed)
    plain = run_search(workload, seed, work_dir, clock)

    tracer = Tracer()
    blackbox._scenario_cache.clear()  # the traced warm-up generates the market again
    for namespace, attr, span_name, counters in TRACE_POINTS:
        tracer.patch(namespace, attr, span_name, counters)
    try:
        main = tracer.wrap("cli.main", cli.main)
        tracer.search_id = -1
        warm_up(workload, seed)
        tracer.search_id = 0
        record = run_search(workload, seed, work_dir, clock, main=main)
    finally:
        tracer.unpatch_all()
    return plain, record, tracer


def layer_metrics(plain, record, tracer) -> dict:
    search = tracer.summarize(lambda s: s >= 0)
    every = tracer.summarize(lambda s: True)
    counts = tracer.counts
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    metrics = {}
    for name in PER_LAYER_UNITS:
        span, _, key = name.rpartition(".")
        if key in ("calls", "busy_s", "self_s"):
            metrics[name] = search.get(span, zero)[key]
    metrics["surrogate.fit_kde.components"] = counts["surrogate.fit_kde.components"]
    metrics["surrogate.density.kernel_evals"] = counts["surrogate.density.kernel_evals"]
    weights = search.get("objective.importance_weight", zero)["calls"]
    metrics["objective.importance_weight.clipped_frac"] = (
        counts["objective.importance_weight.clipped"] / weights if weights else 0.0
    )
    for key in ("trials", "flagged_failure", "flagged_degenerate"):
        metrics[f"optimizer.{key}"] = record.get(key, 0)
    metrics["harness.bytes_written"] = record.get("bytes_written", 0)
    generated = every.get("blackbox.generate_scenario", zero)
    metrics["blackbox.generate_scenario.calls"] = generated["calls"]
    metrics["blackbox.generate_scenario.busy_s"] = generated["busy_s"]
    metrics["blackbox.scenario_cache.hit_ratio"] = (
        1.0 - generated["calls"] / every["blackbox.evaluate"]["calls"]
    )
    metrics["blackbox.asset_days"] = counts["blackbox.run_strategy.asset_days"]
    wall = search["cli.main"]["busy_s"]
    metrics["share.surrogate"] = search.get("surrogate.propose_next", zero)["busy_s"] / wall
    metrics["share.objective"] = (
        search.get("objective.build_g_model", zero)["busy_s"]
        + search.get("objective.windowed_variance", zero)["busy_s"]
    ) / wall
    metrics["share.blackbox"] = search["blackbox.evaluate"]["busy_s"] / wall
    metrics["trace.overhead_frac"] = record["wall_s"] / plain["wall_s"] - 1.0
    for name, ms in zip(DECILES, decile_medians([record["trial_ms"]])):
        metrics[name] = ms
    return metrics


def run(workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one benchmark invocation; returns the result and its details."""
    out_root = root / ".bench_out"
    (out_root / "results").mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()[0]
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=out_root))
    clock = TrialClock()
    original_evaluate = clock.install()
    try:
        if trace:
            plain, record, tracer = traced(workload, work_dir, clock)
            metrics, units = layer_metrics(plain, record, tracer), PER_LAYER_UNITS
            records = [plain, record]
            details = {"searches": _search_summary(records)}
        else:
            metrics, records, details = end_to_end(workload, seed, seconds, work_dir, clock)
            units = END_TO_END_UNITS
    finally:
        harness.evaluate = original_evaluate
        shutil.rmtree(work_dir, ignore_errors=True)

    stem = str(out_root / "results" / f"{workload.name}-seed{seed}-trace{int(trace)}")
    if trace:
        tracer.write_spans(stem + ".spans.csv.gz")
    attempted, failed = _attempted_failed(records)
    result = {
        "correct": not any(r["errors"] for r in records),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    details.update(
        workload=workload.name,
        seed=seed,
        trace=trace,
        environment=environment(),
        loadavg_1m_before=load_before,
        loadavg_1m_after=os.getloadavg()[0],
    )
    Path(stem + ".json").write_text(json.dumps({"result": result, "details": details}, indent=1))
    return {"result": result, "details": details}
