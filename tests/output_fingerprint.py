"""Output fingerprint: every output of seeds 0-1 of the three benchmark workloads.

    python tests/output_fingerprint.py > after.json
    cmp before.json after.json

It prints one JSON object that maps each job of the ``entropy_sweep``,
``hyper_sweep`` and ``cli_cold`` workloads, seeds 0 and 1, to its outputs.
In-process results have every float written by ``float.hex``, so a
one-ulp move shows.  Each ``cli_cold`` argv runs through ``cli.run`` in
this process, and its exit code and stdout are recorded.  The job lists
come from ``perfbench/workloads.py``; nothing under ``perfbench/`` is
written.  Run it before and after a change that must move no output and
compare the two files byte for byte.  pytest does not collect this file
(its name does not start with ``test_``).
"""

import os

# before numpy loads, as perfbench/run.py pins them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from nmrbaker import cli  # noqa: E402
from workloads import WORKLOADS, job_label, run_job  # noqa: E402

SEEDS = (0, 1)


def hexed(value):
    """``value`` as JSON data, with every float written by ``float.hex``."""
    if isinstance(value, float):  # np.float64 included
        return float.hex(value)
    if isinstance(value, np.ndarray):
        return hexed(value.tolist())
    if dataclasses.is_dataclass(value):
        return {f.name: hexed(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


def outputs(job):
    if not job.cold:
        return hexed(run_job(job))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.run(list(job.argv))
    return {"exit": code, "stdout": stdout.getvalue()}


def main() -> None:
    fingerprint = {}
    for name in ("entropy_sweep", "hyper_sweep", "cli_cold"):
        for seed in SEEDS:
            for i, job in enumerate(WORKLOADS[name].make_jobs(seed)):
                fingerprint[f"{name} seed={seed} #{i}: {job_label(job)}"] = outputs(job)
    json.dump(fingerprint, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
