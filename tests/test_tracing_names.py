"""Every name the benchmark's tracer wraps still resolves in the package.

``perfbench/tracing.py`` wraps functions by module and attribute name, so
renaming or deleting one of them would break a traced benchmark run
without failing any other test.  The file is executed from its path
(no bytecode is written next to it).
"""

import importlib
import runpy
from pathlib import Path

import pytest

from nmrbaker.lindblad import EvolutionEngine

TRACING = runpy.run_path(
    str(Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
)


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in TRACING["FUNCTIONS"]])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module("nmrbaker." + module), attr))


@pytest.mark.parametrize("attr", [a for a, _ in TRACING["METHODS"]])
def test_traced_engine_method_resolves(attr):
    assert callable(getattr(EvolutionEngine, attr))
