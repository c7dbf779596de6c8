"""Seeded inputs and job runners for the three benchmark workloads.

Every workload is a list of jobs built from the seed alone and grouped
into balanced blocks: each block holds one job of every kind whose cost
differs a lot (map x Hamiltonian, or CLI subcommand), so any whole number
of blocks has the same mix whatever the seed.  The timed loop cycles
through the list and stops on a block boundary.
"""

from __future__ import annotations

import contextlib
import io
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from nmrbaker import chaos, cli

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
COMBOS = tuple((m, h) for m in ("chaotic", "regular") for h in ("noxy", "full"))
INV_GAMMA_RANGE = (0.2, 10.0)  # seconds; the span of the fig2-fig5 presets
CHILD_TIMEOUT_S = 120.0
# the console script is not installed and `python -m nmrbaker.cli` warns
# (runpy re-imports an already imported module), so call main() directly
CLI_LAUNCH = "from nmrbaker.cli import main; main()"


@dataclass(frozen=True)
class Job:
    kind: str     # entropy | hyper | verify | compile
    cold: bool    # True: a fresh `nmrbaker` process; False: an in-process call
    config: chaos.ExperimentConfig | None = None
    argv: tuple = ()


@dataclass(frozen=True)
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float


def _inv_gammas(rng) -> dict:
    lo, hi = np.log(INV_GAMMA_RANGE[0]), np.log(INV_GAMMA_RANGE[1])
    t = np.exp(rng.uniform(lo, hi, size=3))
    return dict(inv_gamma_h=float(t[0]), inv_gamma_c1=float(t[1]), inv_gamma_c2=float(t[2]))


def entropy_jobs(seed: int) -> list[Job]:
    """96 configs: every (map, Hamiltonian) with every step count 1..24 once,
    noise drawn log-uniform, the artificial perturbation on 24 of them."""
    rng = np.random.default_rng([seed, 1])
    steps = [rng.permutation(np.arange(1, 25)) for _ in COMBOS]
    perturbed = set(rng.choice(96, size=24, replace=False).tolist())
    jobs = []
    for block in range(24):
        for c in rng.permutation(len(COMBOS)):
            map_variant, hamiltonian = COMBOS[c]
            cfg = chaos.ExperimentConfig(
                map_variant=map_variant, hamiltonian=hamiltonian,
                steps=int(steps[c][block]),
                artificial_perturbation=len(jobs) in perturbed,
                **_inv_gammas(rng))
            jobs.append(Job("entropy", False, config=cfg))
    return jobs


def hyper_jobs(seed: int) -> list[Job]:
    """32 three-step configs: 8 blocks of the four (map, Hamiltonian) pairs,
    noise drawn log-uniform, a fresh greedy seed each."""
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for _ in range(8):
        for c in rng.permutation(len(COMBOS)):
            map_variant, hamiltonian = COMBOS[c]
            cfg = chaos.ExperimentConfig(
                map_variant=map_variant, hamiltonian=hamiltonian, steps=3,
                seed=int(rng.integers(2**31)), **_inv_gammas(rng))
            jobs.append(Job("hyper", False, config=cfg))
    return jobs


def cli_jobs(seed: int) -> list[Job]:
    """48 cold processes: 8 blocks of entropy (three times), hyper, verify
    and compile.  With entropy the most common command, the median job falls
    inside the cluster of short processes instead of between two clusters."""
    rng = np.random.default_rng([seed, 3])
    presets = ("fig2", "fig3", "fig4", "fig5")

    def pick(options):
        return options[int(rng.integers(len(options)))]

    jobs = []
    for _ in range(8):
        for kind in rng.permutation(["entropy"] * 3 + ["hyper", "verify", "compile"]):
            kind = str(kind)
            if kind == "entropy":
                # one map and 4-8 steps: the run stays a small share of the
                # process, so the seed hardly moves its cost
                argv = ["entropy", "--preset", pick(presets),
                        "--steps", str(int(rng.integers(4, 9))),
                        "--map", pick(("chaotic", "regular")),
                        "--hamiltonian", pick(("noxy", "full"))]
            elif kind == "hyper":
                # 3 steps: the largest history ensemble the exact scan accepts
                argv = ["hyper", "--preset", pick(presets), "--steps", "3",
                        "--map", pick(("chaotic", "regular")),
                        "--hamiltonian", pick(("noxy", "full")),
                        "--seed", str(int(rng.integers(2**31)))]
            elif kind == "verify":
                argv = ["verify"]
            else:
                argv = ["compile", "--hamiltonian", pick(("noxy", "full", "simplified")),
                        "--convention", pick(("angular", "cycles"))]
            jobs.append(Job(kind, True, argv=tuple(argv)))
    return jobs


def _warm_entropy():
    for map_variant, hamiltonian in COMBOS:
        chaos.entropy_experiment(chaos.ExperimentConfig(
            map_variant=map_variant, hamiltonian=hamiltonian, steps=1,
            artificial_perturbation=True))


def _warm_hyper():
    for map_variant, hamiltonian in COMBOS:
        chaos.hypersensitivity_experiment(chaos.ExperimentConfig(
            map_variant=map_variant, hamiltonian=hamiltonian), n_steps=1)


def _warm_cli():
    # the harness's own use of the CLI code; children stay cold by design
    for argv in (["compile"], ["entropy", "--steps", "1"]):
        run_cli_in_process(argv)


@dataclass(frozen=True)
class Workload:
    name: str
    make_jobs: Callable[[int], list]
    warm_up: Callable[[], None]   # seed-independent, so set-up cost is too
    block: int                    # jobs per balanced block
    trace_jobs: int               # fixed job count of a traced run (whole blocks)


WORKLOADS = {
    w.name: w for w in (
        Workload("entropy_sweep", entropy_jobs, _warm_entropy, 4, 96),
        Workload("hyper_sweep", hyper_jobs, _warm_hyper, 4, 4),
        Workload("cli_cold", cli_jobs, _warm_cli, 6, 12),
    )
}


def run_cli_in_process(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(list(argv))
    if code != 0:
        raise RuntimeError(f"nmrbaker {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd) -> Child:
    """Run one process to completion; wall time and peak RSS are its own."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=child_env())
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + CHILD_TIMEOUT_S - time.perf_counter()
            if remaining <= 0:
                proc.kill()
            for key, _ in sel.select(max(remaining, 0.1)):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    # wait4 instead of wait(): the child's own rusage gives its peak RSS
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode,
                 b"".join(chunks[proc.stdout]).decode(),
                 b"".join(chunks[proc.stderr]).decode(),
                 time.perf_counter() - start,
                 usage.ru_maxrss / 1024)


def run_job(job: Job, child_prefix=(sys.executable, "-c", CLI_LAUNCH)):
    """Run one job; returns its raw output (a Child for cold jobs)."""
    if job.cold:
        return run_child([*child_prefix, *job.argv])
    if job.kind == "entropy":
        return chaos.entropy_experiment(job.config)
    return chaos.hypersensitivity_experiment(job.config, n_steps=3)


def job_label(job: Job) -> str:
    if job.cold:
        return "nmrbaker " + " ".join(job.argv)
    c = job.config
    return (f"{job.kind} map={c.map_variant} hamiltonian={c.hamiltonian} steps={c.steps}"
            f" perturb={c.artificial_perturbation} seed={c.seed}"
            f" inv_gamma=({c.inv_gamma_h:.4g},{c.inv_gamma_c1:.4g},{c.inv_gamma_c2:.4g})")

