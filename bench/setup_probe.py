"""One set-up, timed from outside by the benchmark: python3 setup_probe.py CONFIG

Imports the CLI and its modules, loads the experiment config, builds the
strategy and scenario presets, and makes one black-box call, which fills
the scenario cache the way the first trial of a search would.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from tpe_as import cli  # noqa: E402,F401  (the user's entry point and its imports)
from tpe_as.blackbox import evaluate, scenario_preset, strategy_preset  # noqa: E402
from tpe_as.harness import ExperimentConfig  # noqa: E402
from tpe_as.space import sample_uniform  # noqa: E402

if __name__ == "__main__":
    config = ExperimentConfig.from_json(Path(sys.argv[1]).read_text())
    seed = config.seeds[0]
    kind = strategy_preset(config.strategy)
    spec = scenario_preset(config.scenario, seed=seed)
    evaluate(kind, spec, sample_uniform(kind.param_space, np.random.default_rng(seed)))
