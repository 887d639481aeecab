"""The scripts under scripts/, run in-process at a small budget."""

import csv
import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, n_cells", [("run_ablation.py", 3), ("run_grid.py", 36)])
def test_script_runs_every_cell(tmp_path, monkeypatch, capsys, script, n_cells):
    argv = [script, "--budget", "25", "--seeds", "0", "--output-dir", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exit_info.value.code == 0
    summaries = sorted(tmp_path.glob("*/summary.csv"))
    assert len(summaries) == n_cells  # one directory per method (x strategy x scenario)
    for path in summaries:
        with path.open() as fh:
            assert [row["status"] for row in csv.DictReader(fh)] == ["ok"], path
    if script == "run_ablation.py":
        out = capsys.readouterr().out
        for axis in ("variance_f", "max_f"):
            assert re.search(rf"^adaptive/conventional median {axis} ratio: +\d+\.\d{{3}}$", out, re.M), axis
