"""Output fingerprint: every output of seeds 0-1 of the three benchmark workloads.

    python tests/output_fingerprint.py > after.json
    cmp before.json after.json
    python tests/output_fingerprint.py --compare before.json
    python tests/output_fingerprint.py --workload hyper_sweep > hyper.json

It prints one JSON object that maps each job of the ``entropy_sweep``,
``hyper_sweep`` and ``cli_cold`` workloads, seeds 0 and 1, to its outputs.
In-process results have every float written by ``float.hex``, so a
one-ulp move shows; a frontier curve is written as its ``delta_s`` and
``i_min`` arrays.  Each ``cli_cold`` argv runs through ``cli.run`` in
this process, and its exit code and stdout are recorded.  The job lists
come from ``perfbench/workloads.py``; nothing under ``perfbench/`` is
written.  Run it before and after a change that must move no output and
compare the two files byte for byte.  ``--workload NAME``, which may be
repeated, keeps only the named workloads (all three by default), so a
change confined to one workload can be checked in a fraction of the time;
with ``--compare``, only the named workloads' entries of BEFORE.json are
compared.  pytest does not collect this file (its name does not start with
``test_``).

For a change that may move outputs at round-off, ``--compare BEFORE.json``
computes the outputs of this checkout and, in place of the fingerprint,
reports per workload the entries that moved and the largest absolute drift
of any float, including the numbers printed in a CLI job's stdout.  Every
change of shape is listed too: a list of another length (a hyper frontier
or its greedy points), a stdout with another number of lines, or any other
non-numeric difference, a NaN against a number included; two NaNs are
equal.  It exits 1 when there is one.
"""

import os

# before numpy loads, as perfbench/run.py pins them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from nmrbaker import cli  # noqa: E402
from nmrbaker.chaos import HypersensitivityCurve  # noqa: E402
from workloads import WORKLOADS, job_label, run_job  # noqa: E402

SEEDS = (0, 1)
WORKLOAD_NAMES = ("entropy_sweep", "hyper_sweep", "cli_cold")
# a decimal number as the CLI prints it; ``seed=0`` and ``fig5`` match too, and compare equal;
# ``nan`` and ``inf`` only as whole words, not inside ``provenance`` or ``info``
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")


def hexed(value):
    """``value`` as JSON data, with every float written by ``float.hex``."""
    if isinstance(value, float):  # np.float64 included
        return float.hex(value)
    if isinstance(value, np.ndarray):
        return hexed(value.tolist())
    if isinstance(value, HypersensitivityCurve):  # by its public arrays, whatever it stores
        return {"delta_s": hexed(value.delta_s), "i_min": hexed(value.i_min)}
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


def fingerprint(names=WORKLOAD_NAMES) -> dict:
    return {f"{name} seed={seed} #{i}: {job_label(job)}": outputs(job)
            for name in names for seed in SEEDS
            for i, job in enumerate(WORKLOADS[name].make_jobs(seed))}


def hex_float(value):
    """The float a :func:`hexed` string holds, or None for any other value."""
    try:
        return float.fromhex(value) if isinstance(value, str) else None
    except ValueError:
        return None


def differences(before, after, path=""):
    """Yield ``(path, drift, change)`` for each difference of ``after`` from
    ``before``: a moved float has its absolute drift and no change; a change
    of shape has drift None and says what changed."""
    if isinstance(before, dict) and isinstance(after, dict) and before.keys() == after.keys():
        for key in before:
            yield from differences(before[key], after[key], f"{path}.{key}")
    elif isinstance(before, list) and isinstance(after, list):
        if len(before) != len(after):
            yield path, None, f"length {len(before)} -> {len(after)}"
        else:
            for i, (b, a) in enumerate(zip(before, after)):
                yield from differences(b, a, f"{path}[{i}]")
    elif before == after:
        return
    elif hex_float(before) is not None and hex_float(after) is not None:
        yield path, abs(hex_float(after) - hex_float(before)), None
    elif isinstance(before, str) and isinstance(after, str):
        lines = before.splitlines(), after.splitlines()
        if len(lines[0]) != len(lines[1]):
            yield path, None, f"{len(lines[0])} -> {len(lines[1])} lines"
            return
        for n, (b, a) in enumerate(zip(*lines), 1):
            numbers = [list(map(float, NUMBER.findall(line))) for line in (b, a)]
            pairs = [(x, y) for x, y in zip(*numbers) if x != y and not (math.isnan(x) and math.isnan(y))]
            if (NUMBER.split(b) != NUMBER.split(a) or len(numbers[0]) != len(numbers[1])
                    or any(math.isnan(x) or math.isnan(y) for x, y in pairs)):  # NaN against a number
                yield f"{path}:{n}", None, f"{b!r} -> {a!r}"
            elif pairs:
                yield f"{path}:{n}", max(abs(x - y) for x, y in pairs), None
    else:
        yield path, None, f"{json.dumps(before)[:60]} -> {json.dumps(after)[:60]}"


def compare(before: dict, after: dict, names=WORKLOAD_NAMES) -> int:
    """Print what moved from ``before`` to ``after`` in workloads ``names``;
    1 if any entry changed shape or the two hold different entries of those
    workloads, else 0."""
    before = {label: value for label, value in before.items() if label.split(" ", 1)[0] in names}
    shape_changed = before.keys() != after.keys()
    if shape_changed:
        print(f"entries differ: {len(before.keys() - after.keys())} only before,"
              f" {len(after.keys() - before.keys())} only after")
    for name in names:
        labels = [label for label in after if label.startswith(name + " ") and label in before]
        n_moved, moved, changes, largest = 0, [], [], 0.0
        for label in labels:
            found = list(differences(before[label], after[label]))
            drifts = [drift for _, drift, _ in found if drift is not None]
            changes += [f"  changed  {label}  at {path}: {change}" for path, _, change in found if change]
            n_moved += bool(found)
            if drifts:
                moved.append(f"  moved {max(drifts):.2g}  {label}")
                largest = max(largest, *drifts)
        print(f"{name}: {n_moved} of {len(labels)} entries moved, largest drift {largest:.2g},"
              f" {len(changes)} changes of shape")
        for line in moved + changes:
            print(line)
        shape_changed = shape_changed or bool(changes)
    return 1 if shape_changed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="BEFORE.json",
                        help="report what moved from this fingerprint instead of printing one")
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="only this workload; repeat for more (default: all three)")
    args = parser.parse_args()
    names = [name for name in WORKLOAD_NAMES if name in (args.workload or WORKLOAD_NAMES)]
    if args.compare:
        with open(args.compare) as f:
            return compare(json.load(f), fingerprint(names), names)
    json.dump(fingerprint(names), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
