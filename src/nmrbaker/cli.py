"""Batch front end: run experiments, verify the build, dump programs.

Subcommands
-----------
entropy   entropy-growth curves as CSV (step,variant,entropy_bits)
hyper     hypersensitivity frontier as CSV (delta_s_bits,i_min_bits,provenance)
verify    run the invariant checks and print a pass/fail table
compile   dump the gate sequences and the canned pulse programs

Every output embeds the fully resolved configuration in '#' header
lines, floats carry 17 significant digits, and lines end with LF, so a
rerun with the same arguments is byte-identical.

Exit codes: 0 success, 1 verification failure, 2 bad arguments,
3 physics violation during a run, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace
from itertools import product

import numpy as np

from . import baker, chaos, lindblad, nmr, qstate
from .chaos import ExperimentConfig
from .lindblad import PhysicsError


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# the header's keys after preset= and map=: every ExperimentConfig field but
# map_variant, in print order
_HEADER_FIELDS = ("hamiltonian", "convention", "steps", "seed", "inv_gamma_h",
                  "inv_gamma_c1", "inv_gamma_c2", "artificial_perturbation")


def _config_header(cfg: ExperimentConfig, preset: str, map_choice: str) -> str:
    settings = {"preset": preset, "map": map_choice,
                **{name: getattr(cfg, name) for name in _HEADER_FIELDS}}
    return "# " + " ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}"
                           for k, v in settings.items())


# ---------------------------------------------------------------------------
# invariant checks for the `verify` subcommand
# ---------------------------------------------------------------------------

_REF = nmr.HamiltonianModel().compiler_reference()  # exact 2:1 coupling ratio
_MEASURED = nmr.HamiltonianModel(variant="simplified")
_Q = nmr.QUBIT


def _compiled(programs, gates, model=_REF) -> float:
    """Worst distance of pulse programs from one gate list on ``nmr.QUBIT``."""
    return max(nmr.compiled_distance(p, gates, model) for p in programs)


def _shift_error(variant: str) -> float:
    """Worst 1 - fidelity of the map's shift action over the 8 bit strings."""
    u = baker.baker_unitary(3) if variant == "full" else baker.simplified_baker_unitary()
    states = (baker.shift_states(bits, variant) for bits in product([0, 1], repeat=3))
    return max(1 - qstate.state_fidelity(image, u @ domain) for domain, image in states)


def _dephasing_error() -> float:
    engine, rho0 = ExperimentConfig.preset("fig2").engine(), chaos.initial_density()
    t = 0.05
    evolved = lindblad._evolve(rho0, ((engine.delay_propagator(t), None),))
    return abs(abs(evolved[0, 4]) - abs(rho0[0, 4]) * np.exp(-2 * engine.noise.gamma_h * t))


def _semigroup_error() -> float:
    prop = ExperimentConfig.preset("fig2").engine().delay_propagator
    return np.max(np.abs(prop(0.02) @ prop(0.01) - prop(0.03)))


def _rk4_error() -> float:
    engine = ExperimentConfig.preset("fig2").engine()
    m = engine.model
    return max(np.max(np.abs(engine.delay_propagator(t) - engine._rk4_propagator(t)))
               for t in (m.tau1, m.tau2, 1.5 * m.tau3, 2.5 * m.tau3, m.tau4))


def _trace_drift() -> float:
    states, _ = chaos.entropy_run(ExperimentConfig.preset("fig2"))  # six unperturbed steps
    return max(abs(np.trace(rho).real - 1.0) for rho in states)


def _convention_error() -> float:
    ang, cyc = (nmr.HamiltonianModel(variant="simplified", j2=203 / 2, convention=c)
                for c in ("angular", "cycles"))
    return qstate.phase_invariant_distance(nmr.sequence_unitary(nmr.t_odd(ang), ang),
                                           nmr.sequence_unitary(nmr.t_odd(cyc), cyc))


# The one registry of invariant checks, in the order `verify` prints it: a
# row passes when distance() < tolerance; tests evaluate rows through check().
CHECKS = (
    ("baker gate product vs closed form", 1e-10,
     lambda: qstate.phase_invariant_distance(
         baker.gate_sequence_unitary(baker.baker_gate_sequence(), 3), baker.baker_unitary(3))),
    ("shift property, full map (1 - fidelity)", 1e-10, lambda: _shift_error("full")),
    ("shift property, simplified map (1 - fidelity)", 1e-10, lambda: _shift_error("simplified")),
    ("z-rotation pulse variants", 1e-12,
     lambda: _compiled([nmr.z_rotation_pulses("C1", 0.9, v) for v in (1, 2, 3, 4)],
                       [baker.z_rotation(_Q["C1"], 0.9)])),
    ("hadamard pulse variants", 1e-12,
     lambda: _compiled([nmr.hadamard_pulses("H", v) for v in (1, 2)], [baker.hadamard(_Q["H"])])),
    ("phase gate C1-H", 1e-8,
     lambda: _compiled([nmr.phase_gate_pulses(("C1", "H"), np.pi / 2, _REF)],
                       [baker.phase(_Q["C1"], _Q["H"], -np.pi / 2)])),
    ("phase gate C1-C2 (offset corrected)", 1e-8,
     lambda: _compiled([nmr.phase_gate_pulses(("C1", "C2"), np.pi / 2, _REF)],
                       [baker.phase(_Q["C1"], _Q["C2"], -np.pi / 2)])),
    ("swap C1-H from three CNOTs", 1e-8,
     lambda: _compiled([nmr.swap_pulses(("C1", "H"), _REF)], [baker.swap(_Q["C1"], _Q["H"])])),
    ("swap applied twice is identity", 1e-7,
     lambda: _compiled([nmr.swap_pulses(("C1", "C2"), _REF) + nmr.swap_pulses(("C1", "C2"), _REF)],
                       [])),
    ("t_odd vs ideal gate product", 1e-8, lambda: _compiled([nmr.t_odd(_REF)], nmr.ideal_t_odd())),
    ("t_even vs ideal gate product", 1e-8,
     lambda: _compiled([nmr.t_even(_REF)], nmr.ideal_t_even())),
    ("t_regular vs offset rotation", 1e-10,
     lambda: _compiled([nmr.t_regular(_MEASURED)], nmr.ideal_t_regular(_MEASURED), _MEASURED)),
    ("full baker program vs ideal gate product", 1e-7,
     lambda: _compiled([nmr.full_baker_appendix(_REF)], nmr.ideal_full_baker())),
    ("total delay t_odd = 7 tau1", 1e-15,
     lambda: abs(nmr.t_odd(_MEASURED).total_delay - 7 * _MEASURED.tau1)),
    ("total delay t_even = 14 tau1", 1e-15,
     lambda: abs(nmr.t_even(_MEASURED).total_delay - 14 * _MEASURED.tau1)),
    ("total delay t_regular = 10.5 tau1", 1e-15,
     lambda: abs(nmr.t_regular(_MEASURED).total_delay - 10.5 * _MEASURED.tau1)),
    ("analytic dephasing decay exp(-2*Gamma*t)", 1e-8, _dephasing_error),
    ("delay propagator semigroup", 1e-9, _semigroup_error),
    ("rk4 integrator vs exact exponential", 1e-6, _rk4_error),
    ("trace drift over six noisy steps", 1e-9, _trace_drift),
    ("frequency-convention invariance of t_odd", 1e-10, _convention_error),
)


@dataclass(frozen=True)
class VerifyReport:
    """One evaluated :data:`CHECKS` row."""

    name: str
    distance: float
    tolerance: float
    passed: bool


def check(name: str) -> VerifyReport:
    """Evaluate the :data:`CHECKS` row called ``name``."""
    tolerance, distance = {row: (tol, fn) for row, tol, fn in CHECKS}[name]
    value = float(distance())
    return VerifyReport(name, value, tolerance, value < tolerance)


def standard_checks() -> list[VerifyReport]:
    """Evaluate every :data:`CHECKS` row, in order."""
    return [check(name) for name, _, _ in CHECKS]


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _resolve_config(args) -> ExperimentConfig:
    """The preset, overridden by every flag given (each flag's dest is its field)."""
    return ExperimentConfig.preset(args.preset, **{
        f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
        if getattr(args, f.name, None) is not None})


def _run_entropy(args) -> str:
    cfg0 = _resolve_config(args)
    lines = [
        _config_header(cfg0, args.preset, args.map_variant or "both"),
        "step,variant,entropy_bits",
    ]
    for variant in [args.map_variant] if args.map_variant else chaos.MAP_VARIANTS:
        cfg = replace(cfg0, map_variant=variant)
        for n, s in chaos.entropy_experiment(cfg):
            lines.append(f"{n},{variant},{_fmt(s)}")
    return "\n".join(lines) + "\n"


def _run_hyper(args) -> str:
    # the history ensemble never averages in the artificial perturbation
    # channel, so the header reports it off whatever the preset says
    cfg = replace(_resolve_config(args), artificial_perturbation=False)
    result = chaos.hypersensitivity_experiment(cfg)
    lines = [
        _config_header(cfg, args.preset, cfg.map_variant),
        f"# s_bar_max_bits={_fmt(result.s_bar_max)} frontier_slope={_fmt(result.slope)}"
        f" partitions={result.n_partitions}",
        "delta_s_bits,i_min_bits,provenance",
    ]
    for d, i in result.frontier.points():
        lines.append(f"{_fmt(d)},{_fmt(i)},exhaustive")
    for d, i in result.greedy_points:
        lines.append(f"{_fmt(d)},{_fmt(i)},greedy")
    return "\n".join(lines) + "\n"


def _run_verify() -> tuple[str, bool]:
    checks = standard_checks()
    width = max(len(c.name) for c in checks)
    lines = [f"{'check':<{width}}  {'distance':>12}  {'tolerance':>10}  result"]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{c.name:<{width}}  {c.distance:>12.3e}  {c.tolerance:>10.0e}  {status}")
    ok = all(c.passed for c in checks)
    lines.append(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n", ok


def _dump_gate_sequence(name: str, gates) -> str:
    lines = [f"# gates name={name} n_qubits=3 order=execution"]
    for g in gates:
        fields = [g.kind, *map(str, g.qubits)]
        if g.theta is not None:
            fields.append(_fmt(g.theta))
        if g.control_value != 1:
            fields.append(f"control={g.control_value}")
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def _run_compile(args) -> str:
    model = nmr.HamiltonianModel(
        variant=args.hamiltonian, convention=args.convention
    )
    blocks = [
        _dump_gate_sequence("baker_full", baker.baker_gate_sequence()),
        _dump_gate_sequence("baker_simplified", baker.simplified_baker_gate_sequence()),
        nmr.dump_sequence(nmr.t_odd(model), args.convention),
        nmr.dump_sequence(nmr.t_even(model), args.convention),
        nmr.dump_sequence(nmr.t_regular(model), args.convention),
        nmr.dump_sequence(nmr.full_baker_appendix(model), args.convention),
    ]
    return "\n".join(blocks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmrbaker",
        description="Simulate the quantum baker's map on a three-spin NMR register.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_physics=True):
        p.add_argument("--out", help="output path (default: stdout)")
        if with_physics:
            p.add_argument("--preset", default="fig2", choices=sorted(chaos.PRESETS))
            p.add_argument("--steps", type=int)
            p.add_argument("--seed", type=int)
            for spin in nmr.SPINS:
                p.add_argument(f"--gamma-{spin.lower()}", dest=f"inv_gamma_{spin.lower()}",
                               metavar=f"GAMMA_{spin}", type=float,
                               help=f"1/Gamma_{spin} in seconds")
            p.add_argument("--map", dest="map_variant", choices=chaos.MAP_VARIANTS)
        p.add_argument("--hamiltonian", choices=nmr.VARIANTS, default="noxy",
                       help=None if with_physics else "no effect on the output: the pulse"
                       " programs read only j1, the C2 offset and the convention")
        p.add_argument("--convention", choices=nmr.CONVENTIONS, default="angular")
        return p

    add_common(sub.add_parser("entropy", help="entropy-growth experiment"))
    # 3 steps, 8 histories: the longest ensemble the exhaustive scan takes
    add_common(sub.add_parser("hyper", help="hypersensitivity experiment")).set_defaults(steps=3)
    verify_p = sub.add_parser("verify", help="run the invariant checks")
    verify_p.add_argument("--out", help="output path (default: stdout)")
    add_common(sub.add_parser("compile", help="dump gate and pulse programs"),
               with_physics=False)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.out is not None:  # an unwritable target fails before any work; no byte of it moves
            new = not os.path.exists(args.out)  # a dangling link names a new file
            open(args.out, "a").close()
            if new:
                os.remove(os.path.realpath(args.out))  # the file opening created, not a link to it
        runners = {"entropy": _run_entropy, "hyper": _run_hyper, "compile": _run_compile}
        text, ok = _run_verify() if args.command == "verify" else (runners[args.command](args), True)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", newline="\n") as fh:
                fh.write(text)
        return 0 if ok else 1
    except PhysicsError as exc:
        print(f"physics violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, MemoryError) as exc:  # MemoryError: a stack past memory, before any step
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
