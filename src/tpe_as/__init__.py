"""TPE search with an adaptive weighted Lagrangian objective, plus a synthetic
portfolio black-box and experiment harness."""

from .space import Config, ParamDomain, ParamSpace, require_valid, sample_uniform, uniform_density
from .surrogate import History, KdeModel, TrialRecord, acquisition, density, fit_kde, propose_next, split_history
from .objective import (
    build_g_model,
    importance_weight,
    lagrangian_score,
    lambda_schedule,
    windowed_variance,
)
from .blackbox import (
    PriceSeries,
    ScenarioSpec,
    StrategyKind,
    evaluate,
    generate_scenario,
    run_strategy,
    scenario_preset,
    sharpe_annualized,
    strategy_preset,
)
from .optimizer import OptimizerConfig, RunSummary, run, summarize
from .baselines import run_baseline

__all__ = [
    "Config", "ParamDomain", "ParamSpace", "require_valid", "sample_uniform", "uniform_density",
    "History", "KdeModel", "TrialRecord", "acquisition", "density", "fit_kde",
    "propose_next", "split_history",
    "build_g_model", "importance_weight", "lagrangian_score", "lambda_schedule",
    "windowed_variance",
    "PriceSeries", "ScenarioSpec", "StrategyKind", "evaluate", "generate_scenario",
    "run_strategy", "scenario_preset", "sharpe_annualized", "strategy_preset",
    "OptimizerConfig", "RunSummary", "run", "summarize", "run_baseline",
]
