"""Regenerate reference.json: the output fingerprint of every default-seed job.

    python3 perfbench/make_reference.py

Run it only when a change to nmrbaker is meant to change its outputs; the
benchmark compares default-seed runs against this file at round-off
tolerance.  CLI jobs are run in-process here, with the same arguments the
benchmark passes to its child processes.
"""

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import json  # noqa: E402

import checks  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Child, run_cli_in_process, run_job  # noqa: E402


def fingerprint(job):
    raw = (Child(0, run_cli_in_process(job.argv), "", 0.0, 0.0) if job.cold
           else run_job(job))
    out = checks.normalise(job, raw)
    found = checks.problems(job, out)
    if found:
        raise SystemExit(f"refusing to store a reference that fails its invariants: {found}")
    return checks.fingerprint(out)


def main():
    # one job per line, so a changed output shows as a changed line
    blocks = []
    for name, wl in WORKLOADS.items():
        rows = [json.dumps(fingerprint(job), separators=(",", ":"))
                for job in wl.make_jobs(DEFAULT_SEED)]
        blocks.append(f'{json.dumps(name)}: [\n' + ",\n".join(rows) + "\n]")
    checks.REFERENCE_PATH.write_text(
        f'{{"seed": {DEFAULT_SEED}, "workloads": {{\n' + ",\n".join(blocks) + "\n}}\n")
    print(f"wrote {checks.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
