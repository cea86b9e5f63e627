"""The benchmark's layer trace must still find every function it wraps."""

import importlib.util
import sys
from pathlib import Path

from pwlearn import adversary, cli, harness, learner, pwl

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _load_run_py():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up while the file executes.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_trace_target_resolves_in_its_owner():
    modules = {"cli": cli, "harness": harness, "adversary": adversary, "learner": learner, "pwl": pwl}
    targets = _load_run_py().TRACE_TARGETS
    assert targets
    missing = []
    for owner_path, attr, _layer, _after in targets:
        module, _, cls = owner_path.partition(".")
        owner = modules[module]
        if cls:
            owner = vars(owner).get(cls)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{owner_path}.{attr}")
    assert missing == [], f"perfbench would trace nothing for {missing}"
