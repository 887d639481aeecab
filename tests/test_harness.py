import csv
import dataclasses
import functools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

from conftest import MIXED_SPACE
from tpe_as import cli, harness
from tpe_as.blackbox import BlackboxError
from tpe_as.harness import (
    ExperimentConfig,
    HarnessError,
    history_from_jsonl,
    history_to_jsonl,
    report,
    run_experiment,
    run_name,
    summary_from_log,
    summary_stats,
)
from tpe_as.objective import EPSILON, WINDOW
from tpe_as.optimizer import N_INIT, OptimizerConfig, run
from tpe_as.space import ParamSpace, SpaceError
from tpe_as.surrogate import K, N_CANDIDATES, SurrogateError

import numpy as np


BASE_DOC = {
    "method": "tpe_as",
    "strategy": "trend_following",
    "scenario": "stable_bull",
    "optimizer": {"budget": 30},
    "seeds": [0, 1],
}

# bytes that are not UTF-8: 0xff can start no UTF-8 sequence
UNDECODABLE = bytes(np.random.default_rng(0).integers(0, 256, 64, dtype=np.uint8)) + b"\xff"

REMOVED_OPTIMIZER_KEYS = {"k": K, "epsilon": EPSILON, "window": WINDOW, "n_init": N_INIT, "n_candidates": N_CANDIDATES}
MALFORMED_CONFIGS = {
    "not-json": "{",
    "not-an-object": "[]",
    "unknown-optimizer-key": json.dumps(dict(BASE_DOC, optimizer={"budget": 30, "warmup": 5})),
    # the method's settings are constants, so a config that sets one, even to its value, is refused
    **{
        f"removed-{key}": json.dumps(dict(BASE_DOC, optimizer={"budget": 30, key: value}))
        for key, value in REMOVED_OPTIMIZER_KEYS.items()
    },
    "ill-typed-budget": json.dumps(dict(BASE_DOC, optimizer={"budget": "30"})),
    "fractional-budget": json.dumps(dict(BASE_DOC, optimizer={"budget": 30.5})),
    "output-dir-not-a-string": json.dumps(dict(BASE_DOC, output_dir=5)),
    "n_init-not-below-budget": json.dumps(dict(BASE_DOC, optimizer={"budget": 20})),
    "seeds-not-a-list": json.dumps(dict(BASE_DOC, seeds=3)),
    "unknown-strategy": json.dumps(dict(BASE_DOC, strategy="momentum_carry")),
    **{
        f"missing-{key}": json.dumps({k: v for k, v in BASE_DOC.items() if k != key})
        for key in ("method", "strategy", "scenario", "seeds")
    },
}


def summary_csv(*rows):
    """A summary CSV's text: the header, then each row's fields."""
    return "\n".join(",".join(map(str, row)) for row in (harness.SUMMARY_HEADER, *rows)) + "\n"


# a stub monkeypatched into the harness reaches pool workers only by fork
FORK_ONLY = pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="needs fork workers")


def make_config(tmp_path, **overrides):
    doc = dict(BASE_DOC, output_dir=str(tmp_path / "out"))
    doc.update(overrides)
    return ExperimentConfig.from_json(json.dumps(doc))


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = make_config(tmp_path)
        assert cfg.method == "tpe_as"
        assert cfg.budget == 30
        assert cfg.seeds == (0, 1)

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(HarnessError):
            make_config(tmp_path, method="grid_search")

    def test_unknown_preset_rejected_before_running(self, tmp_path):
        with pytest.raises(Exception):
            make_config(tmp_path, strategy="momentum_carry")

    def test_duplicate_seeds_rejected(self, tmp_path):
        with pytest.raises(HarnessError):
            make_config(tmp_path, seeds=[3, 3])

    @pytest.mark.parametrize("seed", [-1, 1.5, "a", True])
    def test_bad_seed_rejected(self, tmp_path, seed):
        with pytest.raises(HarnessError):
            make_config(tmp_path, seeds=[0, seed])

    @pytest.mark.parametrize(
        "field, value",
        [("strategy", "momentum_carry"), ("scenario", "sideways_crash"), ("seeds", (0, -1)), ("seeds", (0, True)),
         ("budget", N_INIT)],
        ids=["unknown-strategy", "unknown-scenario", "seed--1", "seed-True", "budget-N_INIT"],
    )
    def test_config_built_in_code_checks_itself(self, tmp_path, field, value):
        # the constructor checks what from_json checks, so `replace` cannot get round it
        with pytest.raises(ValueError):
            dataclasses.replace(make_config(tmp_path), **{field: value})

    @pytest.mark.parametrize("text", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
    def test_malformed_config_rejected(self, text):
        with pytest.raises(HarnessError):
            ExperimentConfig.from_json(text)

    def test_mode_key_ignored(self, tmp_path):
        # the method picks lambda; a config from before that still loads
        cfg = make_config(tmp_path, optimizer={"budget": 30, "mode": "conventional"})
        assert cfg == make_config(tmp_path, optimizer={"budget": 30})

    def test_optimizer_seed_key_ignored(self, tmp_path):
        # each cell runs under its own seed from `seeds`
        cfg = make_config(tmp_path, optimizer={"budget": 30, "seed": 7})
        assert cfg == make_config(tmp_path, optimizer={"budget": 30})

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["run", "input"], MALFORMED_CONFIGS["ill-typed-budget"]),
            (["run", "input"], MALFORMED_CONFIGS["fractional-budget"]),
            (["run", "input"], MALFORMED_CONFIGS["unknown-optimizer-key"]),
            *((["run", "input"], MALFORMED_CONFIGS[f"removed-{key}"]) for key in REMOVED_OPTIMIZER_KEYS),
            (["report", "input"], json.dumps(BASE_DOC)),
            (["run", "input"], None),
            (["run", "--parallelism", "0", "input"], json.dumps(BASE_DOC)),
            (["show-space", "momentum_farm"], None),
            (["run", "input"], UNDECODABLE),
            (["report", "input"], UNDECODABLE),
            (["run", "input"], b"\xff\xfe" + json.dumps(BASE_DOC).encode()),
            (["report", "input"], summary_csv(["tpe_as", "trend_following", "stable_bull", 0, "ok"])),
            # no run summarizes to these; each would print as nan or inf and could be flagged best
            (["report", "input"], summary_csv(["tpe_as", "trend_following", "stable_bull", 0, "ok", "nan", 0.5, 0.01])),
            (["report", "input"], summary_csv(["tpe_as", "trend_following", "stable_bull", 0, "ok", 1.5, "inf", 0.01])),
            (["report", "input"], summary_csv(["tpe_as", "trend_following", "stable_bull", 0, "ok", 1.5, -0.5, 0.01])),
        ],
        ids=[
            "run-malformed",
            "run-fractional-budget",
            "run-unknown-optimizer-key",
            *(f"run-removed-{key}" for key in REMOVED_OPTIMIZER_KEYS),
            "report-malformed",
            "run-missing-file",
            "run-parallelism-0",
            "show-space-unknown",
            "run-undecodable",
            "report-undecodable",
            "run-undecodable-prefix",
            "report-short-row",
            "report-nan-max",
            "report-infinite-variance",
            "report-negative-variance",
        ],
    )
    def test_cli_reports_bad_input_in_one_line(self, tmp_path, monkeypatch, capsys, argv, text):
        monkeypatch.chdir(tmp_path)  # "input" is read, and a config without output_dir writes, here
        if isinstance(text, bytes):
            (tmp_path / "input").write_bytes(text)
        elif text is not None:
            (tmp_path / "input").write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("tpe-as: error: ")
        assert sum(line.startswith("tpe-as: error: ") for line in err.splitlines()) == 1
        assert "Traceback" not in err
        if isinstance(text, bytes):  # a decode error does not name the file by itself
            assert err.splitlines()[-1].startswith("tpe-as: error: input: ")
        elif argv[0] == "report":  # a bad summary names its line
            assert re.match(r"tpe-as: error: input:\d+: ", err.splitlines()[-1])


# a JSON number beyond float range, which json.loads reads as an exact int
BEYOND_FLOAT = pytest.param("1" * 400, id="400-digits")


@functools.cache
def shared_log() -> tuple:
    """The lines of one budget-21 search's trial log on MIXED_SPACE; the reader tests edit copies of it."""
    history = run(OptimizerConfig(budget=21, seed=0), lambda cfg: 0.0, MIXED_SPACE)
    return tuple(history_to_jsonl(history, MIXED_SPACE).splitlines())


def read_edited(edit, line=2, space=MIXED_SPACE):
    """history_from_jsonl of the shared log with its line at index `line` replaced by edit(that line)."""
    lines = list(shared_log())
    lines[line] = edit(lines[line])
    return history_from_jsonl("\n".join(lines), space)


def setting(key, value):
    """A line edit that sets the trial line's `key` to `value`."""
    return lambda line: json.dumps(json.loads(line) | {key: value})


class TestTrialLogs:
    @pytest.mark.parametrize(
        "name, value, kind",
        [
            ("n", 1_000_000, "integer"),
            ("n", float("inf"), "integer"),
            ("x", -1e9, "continuous"),
            ("c", "never", "categorical"),
            ("n", 5.0, "integer"),  # in bounds, but no writer puts a float there
        ],
    )
    def test_out_of_domain_line_rejected(self, name, value, kind):
        # History.append, which encodes the config, is the check a log passes
        config = json.loads(shared_log()[2])["config"] | {name: value}
        with pytest.raises(SpaceError, match=rf"^{name}: value .* outside {kind} domain$"):
            read_edited(setting("config", config))

    def test_unknown_keys_rejected(self):
        # a log read under a space that lacks some of its dims names their keys, rather than dropping them
        with pytest.raises(SpaceError, match="^unknown keys for this space: 'c', 'n'$"):
            history_from_jsonl("\n".join(shared_log()), ParamSpace(MIXED_SPACE.domains[:1]))

    def test_missing_key_rejected(self):
        with pytest.raises(SpaceError, match="^missing value for n$"):
            read_edited(setting("config", {"x": 0.5, "c": "A"}))

    # json.loads reads NaN and Infinity, so a log can carry them; a log line is
    # the only outside source of a TrialRecord, so these are its refusals
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "0.0", "-1.0", "true", '"0.5"', BEYOND_FLOAT])
    def test_nonfinite_density_line_rejected(self, literal):
        value = json.loads(literal)
        with pytest.raises(SurrogateError, match=f"^proposal_density must be positive and finite, got {re.escape(repr(value))}$"):
            read_edited(setting("proposal_density", value))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "true", '"0.5"', "-Infinity", BEYOND_FLOAT])
    @pytest.mark.parametrize("key, field", [("f", "f_value"), ("j_score", "j_score"), ("lambda", "lambda_used")])
    def test_nonfinite_score_line_rejected(self, key, field, literal):
        value = json.loads(literal)
        with pytest.raises(SurrogateError, match=f"^{field} must be finite, got {re.escape(repr(value))}$"):
            read_edited(setting(key, value))

    @pytest.mark.parametrize(
        "line, key, value, message",
        [
            (0, "step", True, "step must be an int, got True"),
            (2, "step", 3.0, "step must be an int, got 3.0"),
            (2, "flags", "blackbox_failure", "flags must be a tuple of strings, got 'blackbox_failure'"),
            (2, "flags", [1], r"flags must be a tuple of strings, got \(1,\)"),
        ],
        ids=["step-true", "step-whole-float", "flags-string", "flags-not-strings"],
    )
    def test_ill_typed_step_or_flags_line_rejected(self, line, key, value, message):
        # each would load as a record that history_to_jsonl writes back differently
        with pytest.raises(SurrogateError, match=f"^{message}$"):
            read_edited(setting(key, value), line)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda line: line[:-1],
            lambda line: "[0.5]",
            lambda line: re.sub(r',"lambda":[^,]*', "", line),
            lambda line: re.sub(r'"config":\{[^}]*\}', '"config":5', line),
        ],
        ids=["not-json", "not-an-object", "no-lambda", "config-not-an-object"],
    )
    def test_bad_line_named(self, edit):
        with pytest.raises(HarnessError, match="^line 3: not a trial line: "):
            read_edited(edit)


class TestRunExperiment:
    @pytest.mark.parametrize("method", harness.METHODS)
    def test_method_decides_lambda(self, tmp_path, method):
        cfg = ExperimentConfig(method, "threshold_hybrid", "high_volatility", 21, (0,), str(tmp_path))
        assert run_experiment(cfg) == 0
        log = tmp_path / f"trials_{run_name(cfg, 0)}.jsonl"
        trials = [json.loads(line) for line in log.read_text().splitlines()]
        if method == "tpe_as":
            assert trials[-1]["lambda"] == 1.0
        else:
            assert all(t["lambda"] == 0 and t["j_score"] == t["f"] for t in trials)

    def test_artifact_cardinality(self, tmp_path):
        cfg = make_config(tmp_path)
        status = run_experiment(cfg)
        assert status == 0
        out = tmp_path / "out"
        assert len((out / "summary.csv").read_text().splitlines()) == 3  # the header and a row per seed
        assert len(list(out.glob("trials_*.jsonl"))) == 2
        assert len(list(out.glob("traj_*.csv"))) == 2

    def test_trajectory_csv_rows_come_from_trial_log(self, tmp_path):
        cfg = make_config(tmp_path, seeds=[0])
        assert run_experiment(cfg) == 0
        out = tmp_path / "out"
        name = run_name(cfg, 0)
        trials = [json.loads(line) for line in (out / f"trials_{name}.jsonl").read_text().splitlines()]
        with (out / f"traj_{name}.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "f", "j_score"]
        assert rows[1:] == [[str(t["step"]), repr(t["f"]), repr(t["j_score"])] for t in trials]
        assert any(t["f"] != t["j_score"] for t in trials)  # the columns are told apart

    @pytest.mark.parametrize("parallelism, workers", [(2, 2), (3, 3), (64, 3)])
    def test_pool_has_no_more_workers_than_seeds(self, tmp_path, monkeypatch, parallelism, workers):
        started = []

        class InlinePool:  # records its size and runs each cell at once, in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        cfg = make_config(tmp_path, optimizer={"budget": 21}, seeds=[0, 1, 2])
        assert run_experiment(cfg, parallelism=parallelism) == 0
        assert started == [workers]
        assert len(list((tmp_path / "out").glob("trials_*.jsonl"))) == 3

    def test_refuses_overwrite_by_default(self, tmp_path):
        cfg = make_config(tmp_path)
        run_experiment(cfg)
        with pytest.raises(HarnessError):
            run_experiment(cfg)
        run_experiment(cfg, overwrite=True)

    def test_reruns_byte_identical(self, tmp_path):
        # criterion 8 compares the reruns' trial logs; this compares their summaries
        cfg_a = make_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = make_config(tmp_path, output_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        # summary matches except the wall-clock timing column
        strip = lambda p: [row[:-1] for row in csv.reader(p.read_text().splitlines())]
        assert strip(tmp_path / "a" / "summary.csv") == strip(tmp_path / "b" / "summary.csv")

    @pytest.mark.parametrize("text", ["", "\n"])
    def test_summary_of_empty_log_names_it(self, tmp_path, text):
        log = tmp_path / "trials_empty.jsonl"
        log.write_text(text)
        with pytest.raises(HarnessError, match=f"^no trials in log: {re.escape(str(log))}$"):
            summary_from_log(log)

    @pytest.mark.parametrize(
        "bad",
        ['{"j_score":0.5}', "not json", "[0.5]", '{"f":"0.5"}', '{"f":true}'],
        ids=["no-f", "not-json", "not-an-object", "f-string", "f-bool"],
    )
    def test_summary_of_bad_line_names_the_log_and_line(self, tmp_path, bad):
        log = tmp_path / "trials_bad.jsonl"
        log.write_text(f'{{"f":0.5}}\n{bad}\n')
        with pytest.raises(HarnessError, match=f"^{re.escape(str(log))}:2: not a trial line: "):
            summary_from_log(log)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", BEYOND_FLOAT])
    def test_summary_of_nonfinite_f_names_the_log(self, tmp_path, literal):
        # json.loads reads these literals, and max and var would carry them into the row
        log = tmp_path / "trials_nonfinite.jsonl"
        log.write_text(f'{{"f":0.5}}\n{{"f":{literal}}}\n')
        with pytest.raises(HarnessError, match=f"^non-finite f in log: {re.escape(str(log))}$"):
            summary_from_log(log)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            # the squared-price sums, and a market switch between the seeds of one serial run
            dict(method="random_search", strategy="mean_reversion", scenario="range_bound_short",
                 optimizer={"budget": 100}),
        ],
        ids=["tpe_as-trend-stable_bull", "random_search-mean_reversion-range_bound_short"],
    )
    def test_parallel_matches_serial(self, tmp_path, overrides):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        run_experiment(make_config(tmp_path, **overrides, output_dir=str(serial)), parallelism=1)
        run_experiment(make_config(tmp_path, **overrides, output_dir=str(parallel)), parallelism=2)
        # step timings differ between processes; compare everything else
        strip = lambda path: [row[:-1] for row in csv.reader(path.read_text().splitlines())]
        assert strip(serial / "summary.csv") == strip(parallel / "summary.csv")
        names = sorted(p.name for pattern in ("trials_*.jsonl", "traj_*.csv") for p in serial.glob(pattern))
        assert len(names) == 4  # a trial log and a trajectory per seed
        for name in names:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name

    @FORK_ONLY
    def test_failed_seed_reported_alike_serial_and_parallel(self, tmp_path, monkeypatch):
        real_preset = harness.scenario_preset

        def preset_or_raise(kind, seed=0):  # seed 1's cell fails; seed 0's and the config's checks do not
            if seed == 1:
                raise BlackboxError(f"no market for seed {seed}")
            return real_preset(kind, seed=seed)

        monkeypatch.setattr(harness, "scenario_preset", preset_or_raise)
        rows = {}
        for parallelism in (1, 2):
            out = tmp_path / f"p{parallelism}"
            cfg = make_config(tmp_path, output_dir=str(out))
            assert run_experiment(cfg, parallelism=parallelism) == 1
            assert (out / f"trials_{run_name(cfg, 0)}.jsonl").exists()
            text = (out / "summary.csv").read_text()
            rows[parallelism] = [row[:-1] for row in csv.reader(text.splitlines())]
        assert rows[1] == rows[2]
        assert rows[1][1][4] == "ok"
        assert rows[1][2][4].startswith("failed: ")

    @FORK_ONLY
    def test_dead_worker_fails_only_its_seed(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        seed0_log = out / f"trials_{run_name(cfg, 0)}.jsonl"
        real_run = harness.run

        def run_or_die(opt, blackbox, space):
            if opt.seed == 1:  # die once seed 0's artifacts are on disk
                deadline = time.monotonic() + 60
                while not seed0_log.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                os._exit(3)
            return real_run(opt, blackbox, space)

        monkeypatch.setattr(harness, "run", run_or_die)
        assert run_experiment(cfg, parallelism=2) == 1
        with (out / "summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["seed"] for row in rows] == ["0", "1"]
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("failed: BrokenProcessPool(")
        assert float(rows[0]["max_f"]) == summary_from_log(seed0_log)["max_f"]
        assert not (out / f"trials_{run_name(cfg, 1)}.jsonl").exists()


class TestReport:
    def test_report_medians(self, tmp_path):
        out = tmp_path / "out"
        cfg = make_config(tmp_path, seeds=[0, 1, 2])
        run_experiment(cfg)
        with (out / "summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        expected_max = float(np.median([float(r["max_f"]) for r in rows]))
        text = report(out / "summary.csv")
        line = [l for l in text.splitlines() if l.startswith("tpe_as")][0]
        assert f"{expected_max:.4f}" in line
        assert "best-max" in line and "best-var" in line

    def test_failed_rows_left_out(self, tmp_path):
        path = tmp_path / "summary.csv"
        group = ("tpe_as", "trend_following", "stable_bull")
        path.write_text(summary_csv([*group, 0, "ok", 1.5, 0.5, 0.01], [*group, 1, "failed: RuntimeError()", "", "", ""]))
        assert summary_stats(path) == {group: {"max_f": (1.5, 0.0), "variance_f": (0.5, 0.0)}}

    def test_report_missing_file(self, tmp_path):
        with pytest.raises(HarnessError):
            report(tmp_path / "nope.csv")

    def test_report_bad_header(self, tmp_path):
        bad = tmp_path / "summary.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(HarnessError):
            report(bad)

    @pytest.mark.parametrize("max_f, variance_f", [("nan", 0.5), ("inf", 0.5), ("-inf", 0.5), (1.5, "nan"), (1.5, "inf"), (1.5, -0.5)])
    def test_report_rejects_a_row_no_run_summarizes_to(self, tmp_path, max_f, variance_f):
        path = tmp_path / "summary.csv"  # the bad row follows a good one, and the error names its line
        group = ["tpe_as", "trend_following", "stable_bull"]
        path.write_text(summary_csv([*group, 0, "ok", 1.5, 0.5, 0.01], [*group, 1, "ok", max_f, variance_f, 0.01]))
        with pytest.raises(HarnessError, match=f"^{re.escape(str(path))}:3: not a run's summary: "):
            report(path)

    @pytest.mark.parametrize("max_f, variance_f", [("", 0.5), (1.5, "n/a")])
    def test_report_rejects_an_ok_row_without_numbers(self, tmp_path, max_f, variance_f):
        path = tmp_path / "summary.csv"
        path.write_text(summary_csv(["tpe_as", "trend_following", "stable_bull", 0, "ok", max_f, variance_f, 0.01]))
        with pytest.raises(HarnessError, match=f"^{re.escape(str(path))}:2: could not convert string to float: "):
            report(path)


# runs each argv of the JSON list in sys.argv[1] through cli.main, then prints
# whether scipy.special was imported
FRESH_CLI = """
import json, sys
from tpe_as import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print("scipy.special" in sys.modules)
"""


def fresh_cli_imports_scipy_special(*argvs) -> bool:
    """Run each argv through cli.main in a new interpreter, which, unlike
    this one, has not imported scipy.special yet; say whether it got loaded."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", FRESH_CLI, json.dumps(argvs)], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return {"True": True, "False": False}[out.stdout.splitlines()[-1]]


class TestFreshProcess:
    def test_random_search_report_and_show_space_leave_scipy_special_unloaded(self, tmp_path):
        # only fit_kde needs scipy.special, and none of these fits a KDE
        config = tmp_path / "random.json"
        config.write_text(json.dumps(dict(BASE_DOC, method="random_search", seeds=[0], output_dir=str(tmp_path / "out"))))
        assert not fresh_cli_imports_scipy_special(
            ["show-space", "threshold_hybrid"],
            ["run", str(config)],
            ["report", str(tmp_path / "out" / "summary.csv")],
        )

    def test_tpe_run_loads_scipy_special_and_logs_as_in_process(self, tmp_path):
        doc = dict(BASE_DOC, method="tpe_conventional", optimizer={"budget": 25}, seeds=[0])
        for name in ("fresh", "here"):
            (tmp_path / f"{name}.json").write_text(json.dumps(dict(doc, output_dir=str(tmp_path / name))))
        assert fresh_cli_imports_scipy_special(["run", str(tmp_path / "fresh.json")])
        assert cli.main(["run", str(tmp_path / "here.json")]) == 0
        log = "trials_tpe_conventional_trend_following_stable_bull_seed0.jsonl"
        assert (tmp_path / "fresh" / log).read_bytes() == (tmp_path / "here" / log).read_bytes()

    def test_pooled_tpe_run_loads_scipy_special_before_forking(self, tmp_path):
        # the pool's workers then share the import, and no cell's timer includes it
        doc = dict(BASE_DOC, method="tpe_conventional", optimizer={"budget": 25}, seeds=[0])
        (tmp_path / "run.json").write_text(json.dumps(dict(doc, output_dir=str(tmp_path / "out"))))
        assert fresh_cli_imports_scipy_special(["run", "--parallelism", "2", str(tmp_path / "run.json")])
