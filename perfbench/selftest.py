"""Self-test of the benchmark harness, at one block of jobs per workload.

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, prints each metric of
BENCHMARK.json with its unit and no failures; that deliberately corrupted
outputs are counted as failed jobs (the numerator of fail_frac); and that
the benchmark refuses to run without the package sources.  Takes about a
minute.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, Child, run_cli_in_process, run_job  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_metrics_emitted():
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            assert all(type(m["value"]) in (int, float) for m in result["metrics"].values())
            assert "fail_frac=0" in lines[0], lines[0]
            if trace == 0 and workload == "cli_cold":
                text = proc.stdout
                assert all(f"{c}_p50_ms" in text for c in run.COMMANDS)
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def test_corruption_counted():
    entropy = WORKLOADS["entropy_sweep"].make_jobs(0)[0]
    hyper = WORKLOADS["hyper_sweep"].make_jobs(0)[0]
    cli = {job.kind: job for job in WORKLOADS["cli_cold"].make_jobs(0)}
    good_entropy = run_job(entropy)
    good_hyper = run_job(hyper)
    stdout = {kind: run_cli_in_process(job.argv) for kind, job in cli.items()}

    def child(text, code=0):
        return Child(code, text, "", 0.0, 0.0)

    verify_lines = stdout["verify"].splitlines()
    n = len(verify_lines) - 2
    compile_lines = stdout["compile"].splitlines()
    first_delay = next(ln for ln in compile_lines if ln.startswith("U "))
    cases = [  # (job, raw output, should fail)
        (entropy, good_entropy, False),
        (entropy, [(0, 0.5)] + good_entropy[1:], True),
        (hyper, good_hyper, False),
        (hyper, dataclasses.replace(good_hyper, greedy_points=[(good_hyper.frontier.delta_s[-1], 0.0)]),
         True),
        (cli["verify"], child(stdout["verify"]), False),
        (cli["verify"], child("\n".join(verify_lines[:-1] + [f"{n - 1}/{n} checks passed"])), True),
        (cli["compile"], child(stdout["compile"]), False),
        (cli["compile"], child("\n".join(ln for ln in compile_lines if ln != first_delay)), True),
        (cli["entropy"], child(stdout["entropy"], code=1), True),
        (cli["hyper"], RuntimeError("job raised"), True),
    ]
    jobs = [job for job, _, _ in cases]
    records = [(i, 0.0, raw) for i, (_, raw, _) in enumerate(cases)]
    failed = run.check_records(jobs, records, expected=None)
    assert failed == {i for i, (*_, bad) in enumerate(cases) if bad}, failed
    print(f"ok  {len(failed)} corrupted outputs of {len(cases)} counted as failed")


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(tmp, "entropy_sweep", 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  no result and a nonzero exit without src/")


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    test_corruption_counted()
    test_refuses_without_sources()
    test_metrics_emitted()
    print("selftest passed")
