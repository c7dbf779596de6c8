"""nmrbaker benchmark: seeded, single-process, closed-loop workloads.

    python3 perfbench/run.py --workload entropy_sweep --seed 0 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  One caller runs one job at a time and starts the next when
the previous one returns; at most one child process exists at a time.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace
1`` a separate traced run with the per-layer metrics.  Human-readable
lines come first; the last line of stdout is the JSON result.
"""

import os

# before numpy loads; every child inherits the pinned environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
# setup_s is reported at the host speed where ReferenceKernel takes 3 ms
# (about its median on the 2-CPU machine this benchmark was tuned on)
NOMINAL_KERNEL_S = 0.003
COMMANDS = ("entropy", "hyper", "verify", "compile")
_IMPORT_TIME = re.compile(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="internal: set up, report readiness and exit (one set-up sample)")
    return p.parse_args(argv)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "commit": git_commit(),
    }


def setup_probe(args, importtime: bool):
    """One set-up sample: a fresh benchmark process, from spawn until it is
    ready for its first timed job (interpreter, imports, inputs, warm-up)."""
    from workloads import run_child
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(HERE / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    start = time.monotonic()
    child = run_child(cmd)
    lines = child.stdout.split()
    if child.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
        raise RuntimeError(f"set-up probe failed ({child.returncode}): {child.stderr[-500:]}")
    return float(lines[1]) - start, import_times(child.stderr)


def import_times(stderr: str) -> dict:
    """Cumulative seconds of the first `nmrbaker` and `scipy.linalg` imports
    in `python -X importtime` output (0 when never imported)."""
    found = {"nmrbaker": 0.0, "scipy.linalg": 0.0}
    for line in stderr.splitlines():
        m = _IMPORT_TIME.match(line)
        if m and m.group(2) in found and not found[m.group(2)]:
            found[m.group(2)] = int(m.group(1)) / 1e6
    return found


def run_one(job, run_job):
    """(wall_s, raw) of one job; raw is its output or the exception it raised."""
    start = time.perf_counter()
    try:
        raw = run_job(job)
    except Exception as exc:  # a failed job is counted, the loop goes on
        traceback.print_exc(file=sys.stderr)
        raw = exc
    # a cold job's own wall time ends when its process is reaped
    return getattr(raw, "wall_s", time.perf_counter() - start), raw


def run_pass(jobs, run_job, on_job=lambda idx: None):
    """Each job once, in order: [(index, wall_s, raw)]."""
    records = []
    for idx, job in enumerate(jobs):
        on_job(idx)
        records.append((idx, *run_one(job, run_job)))
    return records


class ReferenceKernel:
    """A fixed piece of work that uses nothing from nmrbaker, in two parts
    shaped like the package's hot paths: lifting 2x2 operators to 8x8 by
    Kronecker product and axis permutation (pulse algebra), and
    diagonalising 8x8 mixtures gathered from a 256-matrix table (entropy
    evaluations and the partition scan).

    The speed of a shared host swings by up to 2x within seconds.  Timed
    right before and right after each job, on the same pinned CPU, this
    kernel swings with it, so a job's wall time divided by the mean of the
    two is a cost in kernel units that varies far less between runs than
    the wall time does.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(2024)
        m = rng.normal(size=(256, 8, 8)) + 1j * rng.normal(size=(256, 8, 8))
        self.table = m + m.conj().transpose(0, 2, 1)
        self.picks = rng.integers(0, 256, size=(60, 3)).tolist()
        self.ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        self.np = np

    def __call__(self) -> float:
        np, table = self.np, self.table
        eye = np.eye(4, dtype=complex)
        start = time.perf_counter()
        for k in range(40):
            perm = [(k + j) % 3 for j in range(3)]
            lifted = np.kron(self.ops[k % 3], eye).reshape([2] * 6)
            u = np.ascontiguousarray(lifted.transpose(perm + [p + 3 for p in perm]).reshape(8, 8))
            float(np.trace(u @ u.conj().T).real)
        for a, b, c in self.picks:
            mix = (table[a] + table[b] + table[c]) / 3
            np.linalg.eigvalsh(mix)
            table[a] += 1e-12 * mix  # keep writing, as the scan fills its subset table
        return time.perf_counter() - start


def timed_loop(wl, jobs, seconds, run_job, probe):
    """Closed loop for `seconds` of job time, ending on a block boundary.

    The SETUP_SAMPLES set-up samples are spread evenly over the window,
    between jobs, and each is bracketed by the reference kernel like a job;
    the deadline moves by the time they take.  Returns the job records, per
    job the mean kernel time around it, and the set-up samples as
    (wall_s, mean kernel time around it).
    """
    kernel = ReferenceKernel()
    records, around, setups = [], [], []

    def sample_setup():
        before = kernel()
        wall = probe()
        setups.append((wall, (before + kernel()) / 2))

    every = seconds / SETUP_SAMPLES
    start = time.perf_counter()
    paused = 0.0  # time spent in set-up samples
    i = 0
    while i % wl.block or time.perf_counter() < start + seconds + paused:
        if len(setups) * every <= time.perf_counter() - start - paused:
            t0 = time.perf_counter()
            sample_setup()
            paused += time.perf_counter() - t0
            before = kernel()
        idx = i % len(jobs)
        records.append((idx, *run_one(jobs[idx], run_job)))
        after = kernel()
        around.append((before + after) / 2)
        before = after
        i += 1
    while len(setups) < SETUP_SAMPLES:
        sample_setup()
    return records, around, setups


def check_records(jobs, records, expected):
    """Indices of failed records; every problem is reported on stderr.
    ``expected`` holds the reference fingerprint of each job, or is None."""
    import checks
    from workloads import job_label
    first_seen: dict = {}
    failed = set()
    for n, (idx, _wall, raw) in enumerate(records):
        found = checks.check(jobs[idx], raw, expected[idx] if expected else None,
                             first_seen, idx)
        if found:
            failed.add(n)
            print(f"FAILED {job_label(jobs[idx])}: {'; '.join(found)}", file=sys.stderr)
    return failed


def p90_if_supported(values):
    """90th percentile when at least ten samples lie beyond it, else None."""
    n = len(values)
    if n - math.ceil(0.9 * n) < 10:
        return None
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(wl, jobs, seconds, probe, expected):
    """End-to-end metrics of a timed closed loop, plus informational figures."""
    from workloads import run_job
    records, around, setups = timed_loop(wl, jobs, seconds, run_job, probe)
    failed = check_records(jobs, records, expected)
    ok = [(idx, wall, raw, ref) for n, ((idx, wall, raw), ref) in enumerate(zip(records, around))
          if n not in failed]
    walls = [wall for _, wall, _, _ in ok] or [math.nan]
    costs = [wall / ref for _, wall, _, ref in ok] or [math.nan]
    if wl.name == "cli_cold":
        peak = max((raw.maxrss_mb for _, _, raw, _ in ok), default=math.nan)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(wall / ref for wall, ref in setups) * NOMINAL_KERNEL_S,
        "jobs_per_kref": 1e3 * len(costs) / math.fsum(costs),
        "job_p50_ref": statistics.median(costs),
        "peak_rss_mb": peak,
    }
    p90 = p90_if_supported(walls)
    info = {"setup_wall_s": statistics.median(wall for wall, _ in setups),
            "jobs_per_s": len(ok) / math.fsum(walls),
            "job_p50_ms": statistics.median(walls) * 1e3,
            "job_p90_ms": p90 and p90 * 1e3,
            "reference_kernel_ms": statistics.median(around) * 1e3,
            "n": len(walls)}
    if wl.name == "cli_cold":
        for command in COMMANDS:
            mine = [wall for idx, wall, _, _ in ok if jobs[idx].kind == command]
            info[f"{command}_p50_ms"] = statistics.median(mine) * 1e3 if mine else None
    return metrics, info, len(records), len(failed)


def traced(wl, jobs, probes, expected):
    """Per-layer figures of a fixed job set, run untraced and then traced."""
    import tracing
    from workloads import run_job
    sample = jobs[:wl.trace_jobs]
    # untraced pass first: its wall time is the base of the tracing overhead
    plain = run_pass(sample, run_job)
    tracer = tracing.Tracer()
    children = []
    if wl.name == "cli_cold":
        launch = ("import nmrbaker.cli, sys; "
                  f"sys.path.insert(0, {str(HERE)!r}); import tracing; tracing.cli_main()")
        prefix = (sys.executable, "-X", "importtime", "-c", launch)
        deep = run_pass(sample, lambda job: run_job(job, child_prefix=prefix))
        children = [raw for _, _, raw in deep if not isinstance(raw, Exception)]
    else:
        tracing.install(tracer)
        deep = run_pass(sample, run_job, lambda idx: setattr(tracer, "job", idx))
    failed = check_records(sample, plain, expected) | {
        n + len(plain) for n in check_records(sample, deep, expected)}

    values = defaultdict(float, tracing.totals(tracer))  # every layer, 0 if never entered
    values["cli.process_overhead_s"] = 0.0
    for child in children:
        data = {}
        for line in child.stderr.splitlines():
            if line.startswith(tracing.TRACE_MARKER):
                data = json.loads(line[len(tracing.TRACE_MARKER):])
        for key, value in data.items():
            values[key] += value
        values["cli.process_overhead_s"] += (
            child.wall_s - import_times(child.stderr)["nmrbaker"]
            - data.get("run_s", 0.0) - data.get("trace_s", 0.0))
    values["import.nmrbaker_s"] = statistics.median(p["nmrbaker"] for p in probes)
    values["import.scipy_linalg_s"] = statistics.median(p["scipy.linalg"] for p in probes)
    calls = values["lindblad.propagator.calls"]
    values["lindblad.propagator.hit_ratio"] = (
        (calls - values["lindblad.propagator.builds"]) / calls if calls else 0.0)
    values["chaos.greedy.assignments"] = values["chaos.greedy.calls"]
    values["chaos.greedy.distinct_ratio"] = (
        values["chaos.greedy.distinct"] / values["chaos.greedy.calls"]
        if values["chaos.greedy.calls"] else 0.0)
    for command in COMMANDS:
        mine = [wall for idx, wall, _ in plain if jobs[idx].cold and jobs[idx].kind == command]
        values[f"{command}_p50_ms"] = statistics.median(mine) * 1e3 if mine else 0.0
    values["trace.jobs"] = len(sample)
    values["trace.overhead_s"] = (math.fsum(w for _, w, _ in deep)
                                  - math.fsum(w for _, w, _ in plain))
    return values, 2 * len(sample), len(failed)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nmrbaker" / "__init__.py").is_file():
        print(f"error: nmrbaker sources not found under {SRC}", file=sys.stderr)
        return 2
    # one CPU for this process and its children: the reference kernel must
    # run where the jobs run (a shared host's CPUs drift apart)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import nmrbaker  # noqa: F401  (first heavy import: -X importtime charges numpy and scipy to it)
    import checks
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    jobs = wl.make_jobs(args.seed)
    wl.warm_up()
    if args.setup_only:
        print(f"ready {time.monotonic()!r}", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = checks.load_reference(wl.name, args.seed)
    if args.trace:
        imports = [setup_probe(args, importtime=True)[1] for _ in range(SETUP_SAMPLES)]
        values, attempted, failed = traced(wl, jobs, imports, expected)
        wanted = spec["per_layer"]
        info = {}
    else:
        values, info, attempted, failed = end_to_end(
            wl, jobs, args.seconds, lambda: setup_probe(args, importtime=False)[0], expected)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload={wl.name} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} fail_frac={failed / attempted:.6g}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for name, value in info.items():
        shown = "n/a (fewer than 10 samples beyond it)" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} (informational)")
    print("# env " + json.dumps(environment(args), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
