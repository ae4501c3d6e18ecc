"""The README's library quick start runs against the current API, and the
constants it names hold the values it gives."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import eprjoint

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert not namespace["report"].satisfied
    assert namespace["worst"] < 1e-10
    assert not namespace["ok"] and namespace["witness"] is None


def test_named_constants_hold_their_values():
    # each `NAME = value` in the README, e.g. `MAX_SAMPLES = 10**8`
    named = re.findall(r"`([A-Z][A-Z0-9_]*) = ([^`]+)`", README.read_text())
    assert len(named) >= 2
    modules = [importlib.import_module(f"eprjoint.{info.name}")
               for info in pkgutil.iter_modules(eprjoint.__path__)]
    for name, text in named:
        values = {vars(module)[name] for module in modules if name in vars(module)}
        assert values == {eval(text, {"__builtins__": {}})}, (name, text, values)
