"""Three-spin NMR machine model and the gate-to-pulse compiler.

The register is the proton and the two carbons of trichloroethylene,
labelled ``H``, ``C1``, ``C2``.  Matrices use the fixed physical order
(H, C1, C2) with H the most significant tensor factor; gate-level
targets are ``baker.GateSpec`` lists on the qubits given by ``QUBIT``.
The drift Hamiltonian couples neighbouring spins only (H-C1 and C1-C2
carry the large couplings), so two-qubit gates between H and C2 require
swaps through the central spin.

Pulse programs are sequences of instantaneous RF rotations and timed
delays.  ``X(theta)`` multiplies the state by exp(i*theta*X/2), ``Y``
likewise, and ``U(t)`` lets the drift Hamiltonian act for ``t``
seconds.  Sequences are stored in EXECUTION order (first instruction
applied first); the conventional right-to-left operator notation is
reversed on construction.

Compiled gates are correct up to a global phase.  The compiler assumes
the simplified drift Hamiltonian (``simplified`` variant) and the exact
coupling ratio j2 = j1/2; simulation against measured couplings shows a
small, quantifiable error instead.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from . import baker, qstate
from .qstate import ID2, PAULI_X, PAULI_Y, PAULI_Z

SPIN_H = "H"
SPIN_C1 = "C1"
SPIN_C2 = "C2"
SPINS = (SPIN_H, SPIN_C1, SPIN_C2)  # register order, most significant first
# gate qubit of each spin for baker.GateSpec targets (qubit 0 least significant)
QUBIT = {SPIN_H: 2, SPIN_C1: 1, SPIN_C2: 0}

# only these pairs are coupled strongly enough to run gates on
NEIGHBOR_PAIRS = ((SPIN_C1, SPIN_H), (SPIN_C1, SPIN_C2))

VARIANTS = ("full", "noxy", "simplified")
CONVENTIONS = ("angular", "cycles")


def _check_spin(spin: str) -> str:
    if spin not in SPINS:
        raise ValueError(f"unknown spin label {spin!r}; expected one of {SPINS}")
    return spin


@dataclass(frozen=True)
class HamiltonianModel:
    """Drift Hamiltonian of the three-spin register.

    ``j1`` (H-C1), ``j2`` (C1-C2), ``j3`` (H-C2) and the offset ``delta``
    are the measured values for trichloroethylene.  Under the default
    ``angular`` convention the printed magnitudes are used directly as
    rad/s, so products like j1*tau are exactly the dimensionless angles
    the pulse timings are derived from; the ``cycles`` convention
    multiplies all four by 2*pi at matrix-construction time (delays then
    shrink by the same factor, leaving every noiseless gate unchanged up
    to a global phase, but changing how much dephasing fits into one
    map iteration).

    Variants: ``full`` keeps the XX+YY exchange terms of the C1-C2
    coupling, ``noxy`` drops them (the default for noisy simulation),
    and ``simplified`` additionally drops the small j3 coupling (used
    for pulse-sequence design and verification only).
    """

    variant: str = "noxy"
    j1: float = 203.0
    j2: float = 102.0
    j3: float = 10.0
    delta: float = -905.0
    convention: str = "angular"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown Hamiltonian variant {self.variant!r}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown frequency convention {self.convention!r}")

    @property
    def _scale(self) -> float:
        return 2 * np.pi if self.convention == "cycles" else 1.0

    @property
    def j1_eff(self) -> float:
        return self.j1 * self._scale

    @property
    def j2_eff(self) -> float:
        return self.j2 * self._scale

    @property
    def j3_eff(self) -> float:
        return self.j3 * self._scale

    @property
    def delta_eff(self) -> float:
        return self.delta * self._scale

    # pulse-program timescales, all derived from the H-C1 coupling
    @property
    def tau1(self) -> float:
        return np.pi / (2 * self.j1_eff)

    @property
    def tau2(self) -> float:
        return 2 * self.tau1

    @property
    def tau3(self) -> float:
        return self.tau1 / 2

    @property
    def tau4(self) -> float:
        return 21 * self.tau1 / 16

    def matrix(self) -> np.ndarray:
        """8x8 Hermitian drift Hamiltonian in rad/s."""
        zz_hc1 = qstate.kron(PAULI_Z, PAULI_Z, ID2)
        zz_c1c2 = qstate.kron(ID2, PAULI_Z, PAULI_Z)
        z_c2 = qstate.kron(ID2, ID2, PAULI_Z)
        h = self.j1_eff / 4 * zz_hc1 + self.j2_eff / 4 * zz_c1c2 + self.delta_eff / 2 * z_c2
        if self.variant == "full":
            h = h + self.j2_eff / 4 * (
                qstate.kron(ID2, PAULI_X, PAULI_X) + qstate.kron(ID2, PAULI_Y, PAULI_Y)
            )
        if self.variant in ("full", "noxy"):
            h = h + self.j3_eff / 4 * qstate.kron(PAULI_Z, ID2, PAULI_Z)
        return h

    def compiler_reference(self) -> "HamiltonianModel":
        """Simplified variant with the exact 2:1 coupling ratio the pulse
        constructions assume."""
        return replace(self, variant="simplified", j2=self.j1 / 2)


@dataclass(frozen=True)
class PulseInstruction:
    """One program step: an ``X``/``Y`` rotation on one spin, or a delay ``U``."""

    op: str  # "X" | "Y" | "U"
    spin: str | None
    value: float  # angle in radians, or delay in seconds

    def __post_init__(self):
        if self.op not in ("X", "Y", "U"):
            raise ValueError(f"unknown instruction {self.op!r}")
        if self.op == "U":
            if self.spin is not None:
                raise ValueError("delays do not address a spin")
            if not (math.isfinite(self.value) and self.value >= 0):
                raise ValueError("delay duration must be finite and >= 0")
        else:
            _check_spin(self.spin)
            if not math.isfinite(self.value):
                raise ValueError("rotation angle must be finite")


def rot_x(spin: str, angle: float) -> PulseInstruction:
    return PulseInstruction("X", spin, angle)


def rot_y(spin: str, angle: float) -> PulseInstruction:
    return PulseInstruction("Y", spin, angle)


def delay(duration: float) -> PulseInstruction:
    return PulseInstruction("U", None, duration)


@dataclass(frozen=True)
class PulseSequence:
    """Immutable pulse program in execution order."""

    name: str
    instructions: tuple

    @property
    def total_delay(self) -> float:
        """Sum of all delay durations, recomputed on access."""
        return math.fsum(i.value for i in self.instructions if i.op == "U")

    def __add__(self, other: "PulseSequence") -> "PulseSequence":
        return PulseSequence(self.name, self.instructions + other.instructions)


def _seq(name: str, instructions) -> PulseSequence:
    return PulseSequence(name, tuple(instructions))


def pulse_unitary(instruction: PulseInstruction, model: HamiltonianModel) -> np.ndarray:
    """8x8 unitary of a single instruction under the model's drift Hamiltonian."""
    if instruction.op == "U":
        return qstate.expm_hermitian(model.matrix(), instruction.value)
    half = instruction.value / 2
    axis = PAULI_X if instruction.op == "X" else PAULI_Y
    u2 = math.cos(half) * ID2 + 1j * math.sin(half) * axis  # exp(i*theta*axis/2)
    return qstate.embed(u2, [instruction.spin], SPINS)


def sequence_unitary(seq: PulseSequence, model: HamiltonianModel) -> np.ndarray:
    """Noiseless product of the pulse unitaries, first instruction applied first."""
    u = np.eye(8, dtype=complex)
    for ins in seq.instructions:
        u = pulse_unitary(ins, model) @ u
    return u


# ---------------------------------------------------------------------------
# one- and two-spin gate constructions
# ---------------------------------------------------------------------------

def z_rotation_pulses(spin: str, angle: float, variant: int = 1) -> PulseSequence:
    """Z(theta) = exp(i*theta*Z/2) from three x/y pulses.

    All four variants are exactly equal (not just up to phase); having a
    choice lets adjacent pulses cancel when gates are chained.
    """
    _check_spin(spin)
    half_pi = np.pi / 2
    if variant == 1:
        body = [rot_x(spin, half_pi), rot_y(spin, angle), rot_x(spin, -half_pi)]
    elif variant == 2:
        body = [rot_x(spin, -half_pi), rot_y(spin, -angle), rot_x(spin, half_pi)]
    elif variant == 3:
        body = [rot_y(spin, -half_pi), rot_x(spin, angle), rot_y(spin, half_pi)]
    elif variant == 4:
        body = [rot_y(spin, half_pi), rot_x(spin, -angle), rot_y(spin, -half_pi)]
    else:
        raise ValueError("z-rotation variant must be 1..4")
    return _seq(f"z_{spin}", body)


def hadamard_pulses(spin: str, variant: int = 1) -> PulseSequence:
    """Hadamard from an x and a y rotation, up to a global phase."""
    _check_spin(spin)
    if variant == 1:
        body = [rot_x(spin, np.pi), rot_y(spin, np.pi / 2)]
    elif variant == 2:
        body = [rot_y(spin, -np.pi / 2), rot_x(spin, -np.pi)]
    else:
        raise ValueError("hadamard variant must be 1 or 2")
    return _seq(f"hadamard_{spin}", body)


def _pair_key(pair) -> tuple:
    pair = tuple(pair)
    if len(pair) != 2:
        raise ValueError("a spin pair has exactly two labels")
    for s in pair:
        _check_spin(s)
    for a, b in NEIGHBOR_PAIRS:
        if set(pair) == {a, b}:
            return (a, b)
    raise ValueError(
        f"spins {pair} are not coupled; only C1-H and C1-C2 gates are available"
    )


def phase_gate_pulses(pair, angle: float, model: HamiltonianModel) -> PulseSequence:
    """Inverse phase gate B(-theta) for theta > 0 on a coupled pair.

    The ZZ part comes from two refocused delays of tau = theta/(2 j):
    a pi pulse on the spectator spin between (and after) the delays
    flips every Hamiltonian term containing that spin, cancelling it
    and leaving exp(-i*theta*ZZ/4).  Z(theta/2) rotations on both
    actors complete the gate.  For the C1-C2 pair the offset term
    delta*Z_C2/2 survives the refocusing and is undone by folding an
    extra 2*delta*tau into the C2 z-rotation.
    """
    (a, b) = _pair_key(pair)
    if angle == 0:
        return _seq(f"phase_{a}{b}", [])
    if angle < 0 or not math.isfinite(angle):
        raise ValueError("phase-gate pulse construction needs a finite angle > 0")
    if set((a, b)) == {SPIN_C1, SPIN_H}:
        spectator = SPIN_C2
        tau = angle / (2 * model.j1_eff)
        extra_b = 0.0
    else:
        spectator = SPIN_H
        tau = angle / (2 * model.j2_eff)
        extra_b = 2 * model.delta_eff * tau  # undo the surviving delta Z_C2 term
    body = [delay(tau), rot_x(spectator, np.pi), delay(tau), rot_x(spectator, np.pi)]
    seq = _seq(f"phase_{a}{b}", body)
    seq = seq + z_rotation_pulses(a, angle / 2)
    seq = seq + z_rotation_pulses(b, angle / 2 + extra_b)
    return _seq(f"phase_{a}{b}", seq.instructions)


def cnot_pulses(control: str, target: str, model: HamiltonianModel) -> PulseSequence:
    """CNOT as a pi phase gate conjugated by Hadamards on the target."""
    pair = _pair_key((control, target))
    seq = hadamard_pulses(target)
    seq = seq + phase_gate_pulses(pair, np.pi, model)
    seq = seq + hadamard_pulses(target)
    return _seq(f"cnot_{control}_{target}", seq.instructions)


def swap_pulses(pair, model: HamiltonianModel) -> PulseSequence:
    """Swap of a coupled pair from three alternating CNOTs."""
    (a, b) = _pair_key(pair)
    seq = cnot_pulses(b, a, model)
    seq = seq + cnot_pulses(a, b, model)
    seq = seq + cnot_pulses(b, a, model)
    return _seq(f"swap_{a}{b}", seq.instructions)


# ---------------------------------------------------------------------------
# canned step programs
# ---------------------------------------------------------------------------
# The rotation lists below are written in right-to-left operator order (the
# rightmost entry acts first) and reversed into execution order, so they can
# be checked symbol by symbol against the program listings they implement.

def t_odd(model: HamiltonianModel) -> PulseSequence:
    """Pulse program for an odd iteration of the simplified baker's map.

    Logical qubits (0, 1, 2) sit on (C1, H, C2); the trailing relabel
    swaps logical 1 and 2 instead of a physical swap, so even steps use
    :func:`t_even`.  Total delay 7*tau1: both controlled phases share
    refocused tau1 periods thanks to the 2:1 coupling ratio.
    """
    t1 = model.tau1
    d = model.delta_eff
    ops = [
        rot_x(SPIN_H, -3 * np.pi / 2),
        rot_y(SPIN_H, -np.pi / 2),
        rot_y(SPIN_C1, np.pi / 2),
        rot_x(SPIN_C1, -np.pi / 2),
        rot_y(SPIN_C1, -np.pi / 2),
        delay(t1),
        rot_x(SPIN_C2, np.pi),
        delay(t1),
        rot_x(SPIN_H, -3 * np.pi / 2),
        rot_x(SPIN_C1, -3 * np.pi / 2),
        rot_y(SPIN_H, -np.pi / 2),
        rot_y(SPIN_C1, -np.pi / 2),
        delay(t1),
        rot_x(SPIN_C2, np.pi),
        delay(t1),
        rot_x(SPIN_H, -3 * np.pi / 2),
        rot_x(SPIN_C1, -3 * np.pi / 2),
        rot_y(SPIN_H, -np.pi / 2),
        rot_y(SPIN_C1, -np.pi / 2),
        delay(t1),
        rot_x(SPIN_C2, np.pi),
        delay(t1),
        rot_x(SPIN_C2, np.pi / 2),
        rot_y(SPIN_C2, d * t1 - np.pi / 8),
        rot_x(SPIN_C2, np.pi / 2),
        rot_x(SPIN_H, -5 * np.pi / 4),
        rot_y(SPIN_H, -np.pi / 2),
        rot_x(SPIN_C1, -11 * np.pi / 8),
        rot_y(SPIN_C1, -np.pi / 2),
        delay(t1),
    ]
    return _seq("t_odd", reversed(ops))


def t_even(model: HamiltonianModel) -> PulseSequence:
    """Pulse program for an even iteration (logical 1 on C2, logical 2 on H).

    Like :func:`t_odd` it ends in a relabel: after this step logical
    qubits 1 and 2 exchange physical spins.

    Twice as slow as the odd step (total delay exactly 14*tau1): with the
    roles of the two couplings interchanged, the controlled phases no
    longer share delays, and the carbon swap cannot be relabelled away.
    The program is assembled from the verified gate constructions:

    * both controlled phases ride a single 4*tau3 period whose inner pi
      pulse on H sits off-centre (5*tau3/2 vs 3*tau3/2), so the H-C1
      coupling acts net for tau3 while the C1-C2 coupling acts for the
      whole period;
    * z rotations finish the two phase gates (logical convention,
      matching :func:`phase_gate_pulses`) and absorb the offset phase
      picked up by C2;
    * a Hadamard on C1 and the three-CNOT carbon swap (delays tau2)
      complete the step.
    """
    t3 = model.tau3
    d = model.delta_eff
    seq = _seq(
        "t_even",
        [delay(5 * t3 / 2), rot_x(SPIN_H, np.pi), delay(3 * t3 / 2), rot_x(SPIN_H, np.pi)],
    )
    seq = seq + z_rotation_pulses(SPIN_H, np.pi / 8)
    seq = seq + z_rotation_pulses(SPIN_C1, 3 * np.pi / 8)
    seq = seq + z_rotation_pulses(SPIN_C2, np.pi / 4 + 4 * d * t3)
    seq = seq + hadamard_pulses(SPIN_C1)
    # delays are timed off the j1 clock (tau2 = 2*tau1), as if j2 = j1/2
    # held exactly; running against the measured j2 leaves the small
    # coupling-ratio error quantified by compiled_distance.
    seq = seq + swap_pulses((SPIN_C1, SPIN_C2), replace(model, j2=model.j1 / 2))
    return _seq("t_even", seq.instructions)


def t_regular(model: HamiltonianModel) -> PulseSequence:
    """Reference map for the chaos comparisons: do (almost) nothing.

    Eight refocused delays of tau4 cancel every coupling involving C1,
    leaving only the offset rotation exp(-4i*delta*tau4*Z_C2).  tau4 is
    chosen so one iteration takes the same wall-clock time, 10.5*tau1,
    as the average odd/even baker step, hence the same dephasing.
    """
    t4 = model.tau4
    ops = []
    for _ in range(8):
        ops += [rot_x(SPIN_C1, np.pi), delay(t4)]
    return _seq("t_regular", reversed(ops))


def full_baker_appendix(model: HamiltonianModel) -> PulseSequence:
    """Pulse program for one iteration of the full baker's map.

    Uses the nearest-neighbour-only form of the gate sequence in which a
    qubit relabeling absorbs one swap per iteration (the leftover swaps
    commute out to the ends of the run); logical qubits (0, 1, 2) sit on
    (H, C1, C2) and stay there.  The base delay is tau = tau1/2.
    """
    t = model.tau3  # tau1 / 2
    d = model.delta_eff
    ops = [
        rot_y(SPIN_C1, np.pi / 2),
        rot_x(SPIN_H, np.pi),
        rot_x(SPIN_C1, np.pi),
        delay(4 * t),
        rot_x(SPIN_H, np.pi),
        delay(4 * t),
        rot_y(SPIN_C2, np.pi / 2),
        rot_x(SPIN_C2, 8 * t * d),
        rot_y(SPIN_C2, 8 * t * d - np.pi / 2),
        rot_x(SPIN_C1, np.pi / 2),
        rot_x(SPIN_C2, np.pi / 2),
        delay(4 * t),
        rot_x(SPIN_H, np.pi),
        delay(4 * t),
        rot_y(SPIN_C1, np.pi / 2),
        rot_y(SPIN_C2, np.pi / 2),
        rot_x(SPIN_C1, np.pi),
        rot_x(SPIN_C2, np.pi),
        delay(4 * t),
        rot_x(SPIN_H, np.pi),
        delay(4 * t),
        rot_x(SPIN_C1, -np.pi / 2),
        rot_x(SPIN_C2, -np.pi / 2),
        rot_y(SPIN_C1, -3 * np.pi / 4),
        rot_x(SPIN_C1, np.pi / 2),
        rot_y(SPIN_C2, 8 * d * t - np.pi / 2),
        rot_x(SPIN_C2, -np.pi / 2),
        delay(t),
        rot_x(SPIN_C2, np.pi),
        delay(t),
        rot_x(SPIN_C1, np.pi / 2),
        rot_x(SPIN_H, np.pi / 2),
        rot_y(SPIN_H, np.pi / 4),
        rot_x(SPIN_H, np.pi / 2),
        rot_y(SPIN_C1, np.pi / 8),
        rot_x(SPIN_C1, -np.pi / 2),
        delay(t),
        rot_x(SPIN_H, np.pi),
        delay(t),
        rot_x(SPIN_C2, np.pi / 2),
        rot_y(SPIN_C2, np.pi / 8 - 2 * d * t),
        rot_x(SPIN_C2, np.pi / 2),
        delay(2 * t),
        rot_x(SPIN_C2, np.pi),
        delay(2 * t),
        rot_x(SPIN_C1, np.pi / 2),
        rot_x(SPIN_H, np.pi / 2),
        delay(2 * t),
        rot_x(SPIN_C2, np.pi),
        delay(2 * t),
        rot_x(SPIN_H, -3 * np.pi / 2),
        rot_y(SPIN_H, -np.pi / 2),
        rot_x(SPIN_C1, -3 * np.pi / 2),
        rot_y(SPIN_C1, -np.pi / 2),
        delay(2 * t),
        rot_x(SPIN_C2, np.pi),
        delay(2 * t),
        rot_y(SPIN_H, np.pi / 2),
        delay(2 * t),
        rot_x(SPIN_H, np.pi),
        delay(2 * t),
        rot_y(SPIN_C2, np.pi / 2),
        rot_x(SPIN_C2, 4 * d * t - np.pi / 4),
        rot_x(SPIN_C1, -np.pi / 2),
        rot_y(SPIN_C1, -np.pi / 4),
        rot_x(SPIN_C1, -5 * np.pi / 4),
        rot_y(SPIN_C1, -np.pi / 2),
        delay(3 * t),
        rot_x(SPIN_C2, np.pi),
        delay(3 * t),
        rot_y(SPIN_H, np.pi / 2),
        rot_x(SPIN_H, np.pi / 4),
    ]
    return _seq("full_baker", reversed(ops))


# ---------------------------------------------------------------------------
# ideal gate-level targets for the canned programs
# ---------------------------------------------------------------------------
# Targets are baker.GateSpec lists in execution order, on the gate qubits
# given by QUBIT.

_H, _C1, _C2 = (QUBIT[s] for s in SPINS)


def ideal_t_odd() -> list[baker.GateSpec]:
    """Gate-level odd baker step (with the trailing swap relabelled away).

    Uses the machine-native phase-gate convention (``control_value=0``);
    see :class:`baker.GateSpec`.
    """
    return [
        baker.phase(_C1, _H, -np.pi / 2, control_value=0),
        baker.phase(_C1, _C2, -np.pi / 4, control_value=0),
        baker.hadamard(_C1),
        baker.swap(_C1, _H),
    ]


def ideal_t_even() -> list[baker.GateSpec]:
    """Gate-level even baker step (couplings' roles interchanged).

    Unlike the odd program, the even program completes its phase gates
    in the logical convention, so this target uses ``control_value=1``.
    """
    return [
        baker.phase(_C1, _C2, -np.pi / 2),
        baker.phase(_C1, _H, -np.pi / 4),
        baker.hadamard(_C1),
        baker.swap(_C1, _C2),
    ]


def ideal_t_regular(model: HamiltonianModel) -> list[baker.GateSpec]:
    """exp(-4i*delta*tau4*Z_C2): all that survives the refocusing."""
    return [baker.z_rotation(_C2, -8 * model.delta_eff * model.tau4)]


def ideal_full_baker() -> list[baker.GateSpec]:
    """Gate-level full baker iteration on physical spins (logical qubit
    0 = H, 1 = C1, 2 = C2), with one swap per iteration relabelled away.

    With logical-convention phase gates this sequence equals the closed
    form of the map conjugated by the absorbed swap; the machine-native
    form used here differs from that by fixed z rotations.
    """
    return [
        baker.hadamard(_H),
        baker.phase(_C1, _H, np.pi / 2, control_value=0),
        baker.hadamard(_C1),
        baker.hadamard(_C2),
        baker.phase(_C1, _C2, -np.pi / 2, control_value=0),
        baker.swap(_C1, _H),
        baker.hadamard(_H),
        baker.phase(_C1, _C2, -np.pi / 4, control_value=0),
        baker.phase(_C1, _H, -np.pi / 2, control_value=0),
        baker.hadamard(_C1),
        baker.swap(_C1, _C2),
    ]


def compiled_distance(seq: PulseSequence, gates, model: HamiltonianModel) -> float:
    """Distance of a pulse program from a gate list (execution order) up to
    global phase, as :func:`qstate.phase_invariant_distance`."""
    target = baker.gate_sequence_unitary(gates, len(SPINS))
    return qstate.phase_invariant_distance(sequence_unitary(seq, model), target)


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(
    r"#\s*name=(\S+)\s+convention=(angular|cycles)\s+total_delay=(\S+)\s*$"
)


def dump_sequence(seq: PulseSequence, convention: str = "angular") -> str:
    """One instruction per line, execution order, 17 significant digits."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown frequency convention {convention!r}")
    lines = [
        f"# name={seq.name} convention={convention} total_delay={seq.total_delay:.17g}"
    ]
    for ins in seq.instructions:
        if ins.op == "U":
            lines.append(f"U {ins.value:.17g}")
        else:
            lines.append(f"{ins.op} {ins.spin} {ins.value:.17g}")
    return "\n".join(lines) + "\n"


def parse_sequence(text: str) -> PulseSequence:
    """Inverse of :func:`dump_sequence`; bit-exact for round trips."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty pulse-sequence text")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ValueError(f"malformed header line: {lines[0]!r}")
    name = m.group(1)
    instructions = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "U" and len(parts) == 2:
            instructions.append(delay(float(parts[1])))
        elif parts[0] in ("X", "Y") and len(parts) == 3:
            instructions.append(PulseInstruction(parts[0], parts[1], float(parts[2])))
        else:
            raise ValueError(f"malformed instruction line: {ln!r}")
    return _seq(name, instructions)
