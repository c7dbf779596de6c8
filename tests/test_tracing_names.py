"""Every name the benchmark's tracer wraps still resolves in the package,
and the entropy and check spans see the work of a run.

``perfbench/tracing.py`` wraps functions by module and attribute name, so
renaming or deleting one of them would break a traced benchmark run
without failing any other test.  The file is executed from its path
(no bytecode is written next to it).
"""

import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import nmrbaker
from nmrbaker.lindblad import EvolutionEngine

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
TRACING = runpy.run_path(str(TRACING_PATH))

# installing a tracer rebinds module globals, so a child process runs the
# traced jobs: job 0 a fig5 hypersensitivity run, job 1 a fig2 entropy run
TRACED_JOBS = """
import json, runpy, sys
from collections import Counter
from nmrbaker import chaos, cli  # install wraps names in every module, cli's too
from nmrbaker.chaos import ExperimentConfig
tracing = runpy.run_path(sys.argv[1])
tracer = tracing["Tracer"]()
tracing["install"](tracer)
chaos.hypersensitivity_experiment(ExperimentConfig.preset("fig5"))
tracer.job = 1
chaos.entropy_experiment(ExperimentConfig.preset("fig2"))
calls = Counter(f"{job} {name}" for name, _, _, _, job in tracer.spans)
print(json.dumps(calls))
"""


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in TRACING["FUNCTIONS"]])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module("nmrbaker." + module), attr))


@pytest.mark.parametrize("attr", [a for a, _ in TRACING["METHODS"]])
def test_traced_engine_method_resolves(attr):
    assert callable(getattr(EvolutionEngine, attr))


def test_entropy_and_check_spans_count_the_run_path():
    env = dict(os.environ, PYTHONPATH=str(Path(nmrbaker.__file__).resolve().parent.parent),
               PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.run([sys.executable, "-c", TRACED_JOBS, str(TRACING_PATH)],
                           env=env, capture_output=True, text=True, check=True)
    calls = json.loads(child.stdout)
    # one stacked check per run; the hyper run diagonalises its subset table
    assert calls.get("0 qstate.defects") == 1
    assert calls.get("0 qstate.entropy", 0) >= 1
    assert calls.get("1 qstate.defects") == 1
