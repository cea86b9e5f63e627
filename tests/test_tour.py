"""The README's library tour runs as written, and every public name resolves."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import pwlearn

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(pwlearn.__path__))


def test_the_library_tour_runs_as_written():
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library quick tour")) + len("```python\n")
    code = text[start:text.index("```", start)]
    # Blank lines in front keep a traceback's line numbers those of the README.
    exec(compile("\n" * text.count("\n", 0, start) + code, str(README), "exec"), {})


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_module_all_resolves(name):
    module = importlib.import_module(f"pwlearn.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_the_modules_that_declare_all_are_found():
    declared = [n for n in MODULES if hasattr(importlib.import_module(f"pwlearn.{n}"), "__all__")]
    assert declared == ["adversary", "bounds", "harness", "learner", "pwl"]
