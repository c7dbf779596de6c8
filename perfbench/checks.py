"""Output checks: invariants for any seed, reference values for the default seed.

In-process results and CLI stdout are first normalised to one form, so the
same invariants and fingerprints apply to both.  A fingerprint is a short
structural string plus a list of numbers; the reference file stores the
fingerprint of every job of the default seed, compared at round-off
tolerance.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

from nmrbaker import nmr

from workloads import DEFAULT_SEED, Job

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
PARTITIONS_3_STEPS = 4140  # Bell(8): set partitions of the 2**3 histories
MAX_ENTROPY_BITS = 3.0     # three qubits
ROUNDOFF = 1e-9            # slack on the physical bounds
RTOL, ATOL = 1e-9, 1e-12   # reference comparison
DELAY_TAU1 = {"t_odd": 7.0, "t_even": 14.0, "t_regular": 10.5}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf)")


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------

def normalise(job: Job, raw) -> dict:
    """Common form of one job's output; raises ValueError on malformed text."""
    if not job.cold:
        if job.kind == "entropy":
            return {"kind": "entropy", "series": {job.config.map_variant: list(raw)}}
        return {"kind": "hyper", "s_bar_max": raw.s_bar_max, "slope": raw.slope,
                "partitions": raw.n_partitions, "frontier": raw.frontier.points(),
                "greedy": list(raw.greedy_points)}
    if raw.returncode != 0:
        raise ValueError(f"exit code {raw.returncode}: {raw.stderr.strip()[-300:]}")
    return {"entropy": _parse_entropy, "hyper": _parse_hyper,
            "verify": _parse_verify, "compile": _parse_compile}[job.kind](raw.stdout)


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"missing CSV header {header!r}")
    return [ln.split(",") for ln in lines[1:]]


def _parse_entropy(text: str) -> dict:
    series: dict = {}
    for step, variant, bits in _csv_rows(text, "step,variant,entropy_bits"):
        series.setdefault(variant, []).append((int(step), float(bits)))
    return {"kind": "entropy", "series": series}


def _parse_hyper(text: str) -> dict:
    head = dict(kv.split("=", 1) for ln in text.splitlines() if ln.startswith("# s_bar_max")
                for kv in ln[2:].split())
    out = {"kind": "hyper", "s_bar_max": float(head["s_bar_max_bits"]),
           "slope": float(head["frontier_slope"]), "partitions": int(head["partitions"]),
           "frontier": [], "greedy": []}
    for d, i, provenance in _csv_rows(text, "delta_s_bits,i_min_bits,provenance"):
        out["frontier" if provenance == "exhaustive" else "greedy"].append((float(d), float(i)))
    return out


def _parse_verify(text: str) -> dict:
    lines = text.splitlines()
    rows = []
    for ln in lines[1:-1]:
        m = re.match(r"(.+?)\s+(\S+)\s+(\S+)\s+(PASS|FAIL)$", ln)
        if not m:
            raise ValueError(f"malformed verify row {ln!r}")
        rows.append((m.group(1), float(m.group(2)), m.group(3), m.group(4)))
    m = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1] if lines else "")
    if not m:
        raise ValueError("missing verify summary line")
    return {"kind": "verify", "rows": rows, "passed": int(m.group(1)), "total": int(m.group(2))}


def _parse_compile(text: str) -> dict:
    blocks: list[list[str]] = []
    for ln in text.splitlines():
        if ln.startswith("# "):
            blocks.append([])
        if ln:
            if not blocks:
                raise ValueError("compile output does not start with a header")
            blocks[-1].append(ln)
    return {"kind": "compile", "blocks": ["\n".join(b) + "\n" for b in blocks]}


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def problems(job: Job, out: dict) -> list[str]:
    """Invariant violations of one normalised output (empty when valid)."""
    return {"entropy": _entropy_problems, "hyper": _hyper_problems,
            "verify": _verify_problems, "compile": _compile_problems}[out["kind"]](job, out)


def _entropy_problems(job: Job, out: dict) -> list[str]:
    if job.cold:
        args = dict(zip(job.argv[1::2], job.argv[2::2]))
        steps = int(args["--steps"])
        variants = [args["--map"]] if "--map" in args else ["chaotic", "regular"]
    else:
        steps, variants = job.config.steps, [job.config.map_variant]
    found = []
    if sorted(out["series"]) != sorted(variants):
        found.append(f"variants {sorted(out['series'])} != {sorted(variants)}")
    for variant, series in out["series"].items():
        if [n for n, _ in series] != list(range(steps + 1)):
            found.append(f"{variant}: steps are not 0..{steps}")
        if not series or abs(series[0][1]) > ROUNDOFF:
            found.append(f"{variant}: entropy at step 0 is not 0")
        if any(not (-ROUNDOFF <= s <= MAX_ENTROPY_BITS + ROUNDOFF) for _, s in series):
            found.append(f"{variant}: entropy outside [0, 3] bits")
    return found


def _hyper_problems(job: Job, out: dict) -> list[str]:
    found = []
    if out["partitions"] != PARTITIONS_3_STEPS:
        found.append(f"{out['partitions']} partitions scanned, expected {PARTITIONS_3_STEPS}")
    frontier = out["frontier"]
    if not frontier:
        found.append("empty frontier")
    for (d0, i0), (d1, i1) in zip(frontier, frontier[1:]):
        if not (d1 > d0 and i1 >= i0 - 1e-12):
            found.append(f"frontier decreases between {d0:.6g} and {d1:.6g}")
            break
    for d, i in out["greedy"]:
        feasible = [fi for fd, fi in frontier if fd >= d - 1e-12]
        if feasible and i < min(feasible) - 1e-12:
            found.append(f"greedy point ({d:.6g}, {i:.6g}) lies below the frontier")
            break
    return found


def _verify_problems(_job: Job, out: dict) -> list[str]:
    n = len(out["rows"])
    if not (n and out["passed"] == out["total"] == n):
        return [f"verify reports {out['passed']}/{out['total']} for {n} checks"]
    if any(status != "PASS" for *_, status in out["rows"]):
        return ["a verify row failed"]
    return []


def _compile_problems(job: Job, out: dict) -> list[str]:
    args = dict(zip(job.argv[1::2], job.argv[2::2]))
    convention = args.get("--convention", "angular")
    model = nmr.HamiltonianModel(variant=args.get("--hamiltonian", "noxy"),
                                 convention=convention)
    found, delays = [], {}
    for block in out["blocks"]:
        if block.startswith("# gates"):
            continue
        seq = nmr.parse_sequence(block)
        if nmr.dump_sequence(seq, convention) != block:
            found.append(f"{seq.name} does not round-trip through parse_sequence")
        delays[seq.name] = seq.total_delay
    for name, multiple in DELAY_TAU1.items():
        if name not in delays:
            found.append(f"{name} missing")
        elif not math.isclose(delays[name], multiple * model.tau1, rel_tol=1e-12):
            found.append(f"{name} total delay {delays[name]!r} != {multiple} tau1")
    return found


# ---------------------------------------------------------------------------
# fingerprints and the reference file
# ---------------------------------------------------------------------------

def fingerprint(out: dict) -> dict:
    kind = out["kind"]
    if kind == "entropy":
        variants = sorted(out["series"])
        return {"shape": f"entropy {variants} x{len(out['series'][variants[0]])}",
                "numbers": [s for v in variants for _, s in out["series"][v]]}
    if kind == "hyper":
        # point sets can hold hundreds of points: keep their first two moments
        moments = [math.fsum(p[k] ** power for p in points)
                   for points in (out["frontier"], out["greedy"])
                   for k in (0, 1) for power in (1, 2)]
        return {"shape": f"hyper {len(out['frontier'])}+{len(out['greedy'])} points",
                "numbers": [out["s_bar_max"], out["slope"], out["partitions"], *moments]}
    if kind == "verify":
        return {"shape": "verify " + "|".join(f"{n}:{t}:{s}" for n, _, t, s in out["rows"]),
                "numbers": [d for _, d, _, _ in out["rows"]]}
    text = "".join(out["blocks"])
    return {"shape": "compile " + hashlib.sha256(_NUMBER.sub("#", text).encode()).hexdigest(),
            "numbers": [float(x) for x in _NUMBER.findall(text)]}


def matches(a: dict, b: dict) -> bool:
    """Same shape and every number equal at round-off tolerance (nan == nan)."""
    if a["shape"] != b["shape"] or len(a["numbers"]) != len(b["numbers"]):
        return False
    return all((math.isnan(x) and math.isnan(y))
               or abs(x - y) <= ATOL + RTOL * abs(y)
               for x, y in zip(a["numbers"], b["numbers"]))


def load_reference(workload: str, seed: int) -> list | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE_PATH.read_text())["workloads"][workload]


def check(job: Job, raw, reference: dict | None, first_seen: dict, index: int) -> list[str]:
    """All problems of one job: malformed output, invariants, reference and
    determinism (a repeated job must reproduce its first output exactly)."""
    if isinstance(raw, BaseException):
        return [f"{type(raw).__name__}: {raw}"]
    try:
        out = normalise(job, raw)
        found = problems(job, out)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    fp = fingerprint(out)
    if reference is not None and not matches(fp, reference):
        found.append("differs from the reference output")
    exact = json.dumps(fp)  # nan-safe bitwise comparison
    if first_seen.setdefault(index, exact) != exact:
        found.append("differs from this job's earlier output")
    return found
