"""Every exported and every traced name resolves."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import panshuffle

MODULES = ["panshuffle"] + [
    f"panshuffle.{m.name}" for m in pkgutil.iter_modules(panshuffle.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_traced_names_resolve():
    # bench/tracer.py wraps these at install time; a missing one crashes trace runs
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr in tracer.TRACED:
        owner = importlib.import_module(f"panshuffle.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    assert missing == []
