"""The README's Layout is a map of the package: its names must exist."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
MODULES = sorted(p.stem for p in (ROOT / "src" / "tpe_as").glob("*.py") if p.name != "__init__.py")
FILE_SUFFIXES = ("py", "toml", "json", "jsonl", "csv", "md")


def backticked_names(text):
    """Each backticked dotted name outside fenced code, a call's arguments
    dropped, leaving out file names such as `space.py`."""
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    names = [m.group(1) for m in map(re.compile(r"(\w+(?:\.\w+)+)(?:\(.*\))?").fullmatch, spans) if m]
    return [name for name in names if name.rsplit(".", 1)[1] not in FILE_SUFFIXES]


def test_every_module_name_resolves():
    names = backticked_names(README)
    assert names  # the pattern still finds the map's names
    unresolved = []
    for name in names:
        module, *attrs = name.removeprefix("tpe_as.").split(".")
        if module not in MODULES:
            unresolved.append(name)
            continue
        target = importlib.import_module(f"tpe_as.{module}")
        for attr in attrs:
            target = getattr(target, attr, None)
        if target is None:
            unresolved.append(name)
    assert not unresolved, f"README names that are not in tpe_as: {unresolved}"


def test_layout_lists_every_module():
    layout = README.split("## Layout", 1)[1].split("\n## ", 1)[0]
    assert [name for name in MODULES if f"`{name}.py`" not in layout] == []
