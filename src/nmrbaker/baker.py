"""Quantized baker's map on a register of qubits.

The map is T = F_N^{-1} (I (x) F_{N-1}) on N qubits, where the partial
Fourier transform acts on the N-1 least significant qubits and the
identity on the most significant one.  Because T shifts the qubit string
one place (the most significant qubit of the argument becomes the least
significant qubit of the image), it admits a symbolic-dynamics check:
for every bit string there is a product "domain" state that T sends to a
product "image" state.  A simplified variant T_M with the same shift
structure but different internal phases needs far fewer gates and is the
map actually iterated in the experiments.

Gate sequences are stored and serialized in EXECUTION order: the first
element of a sequence is applied first.  This is the reverse of the
right-to-left operator-product notation, where the rightmost factor acts
first; every dump emitted by the CLI records the order explicitly.

Qubit index 0 is the least significant bit of the basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qstate

HADAMARD_KIND = "H"
PHASE_KIND = "PHASE"
SWAP_KIND = "SWAP"
Z_KIND = "Z"


@dataclass(frozen=True)
class GateSpec:
    """One gate: a Hadamard, a z rotation, a two-qubit controlled phase, or a swap.

    ``Z(theta)`` is exp(i*theta*Z/2).  A phase gate multiplies by
    exp(i*theta) the basis states whose two bits both equal
    ``control_value``: 1 is the logical gate of the map constructions,
    0 phases the |00> branch, which is the form the machine's
    refocused-delay construction natively produces.  The two differ by
    Z(theta) on both qubits.
    """

    kind: str
    qubits: tuple
    theta: float | None = None
    control_value: int = 1

    def __post_init__(self):
        if self.kind not in (HADAMARD_KIND, PHASE_KIND, SWAP_KIND, Z_KIND):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind in (HADAMARD_KIND, Z_KIND):
            if len(self.qubits) != 1:
                raise ValueError(f"{self.kind} acts on exactly one qubit")
        else:
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("two-qubit gate needs two distinct qubits")
        if self.kind in (PHASE_KIND, Z_KIND):
            if self.theta is None or not math.isfinite(self.theta):
                raise ValueError(f"{self.kind} gate needs a finite angle")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} gate takes no angle")
        if self.control_value not in (0, 1) or (
            self.control_value == 0 and self.kind != PHASE_KIND
        ):
            raise ValueError("only a phase gate takes a control value, and it is 0 or 1")


def hadamard(m: int) -> GateSpec:
    return GateSpec(HADAMARD_KIND, (m,))


def z_rotation(m: int, theta: float) -> GateSpec:
    """Z(theta) = exp(i*theta*Z/2) on qubit m."""
    return GateSpec(Z_KIND, (m,), theta)


def phase(m: int, n: int, theta: float, control_value: int = 1) -> GateSpec:
    """Phase gate: multiplies a basis state by exp(i*theta) iff bits m and n
    both equal ``control_value``."""
    return GateSpec(PHASE_KIND, (m, n), theta, control_value)


def swap(m: int, n: int) -> GateSpec:
    return GateSpec(SWAP_KIND, (m, n))


def gate_unitary(gate: GateSpec, n_qubits: int) -> np.ndarray:
    """Dense matrix of ``gate`` on an ``n_qubits`` register."""
    for q in gate.qubits:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit index {q} out of range for {n_qubits} qubits")
    dim = 2**n_qubits
    if gate.kind == HADAMARD_KIND:
        order = range(n_qubits - 1, -1, -1)  # most significant first
        return qstate.embed(qstate.HADAMARD, gate.qubits[0], order)
    j = np.arange(dim)
    if gate.kind == Z_KIND:
        up = ((j >> gate.qubits[0]) & 1) == 0
        return np.diag(np.where(up, np.exp(1j * gate.theta / 2), np.exp(-1j * gate.theta / 2)))
    if gate.kind == PHASE_KIND:
        m, n = gate.qubits
        c = gate.control_value
        both = (((j >> m) & 1) == c) & (((j >> n) & 1) == c)
        return np.diag(np.where(both, np.exp(1j * gate.theta), 1.0 + 0j))
    # swap: permutation of basis indices exchanging bits m and n
    m, n = gate.qubits
    bm = (j >> m) & 1
    bn = (j >> n) & 1
    swapped = j ^ ((bm ^ bn) << m) ^ ((bm ^ bn) << n)
    u = np.zeros((dim, dim), dtype=complex)
    u[swapped, j] = 1.0
    return u


def gate_sequence_unitary(gates, n_qubits: int) -> np.ndarray:
    """Product of a gate sequence given in execution order (first applied first)."""
    u = np.eye(2**n_qubits, dtype=complex)
    for g in gates:
        u = gate_unitary(g, n_qubits) @ u
    return u


def baker_unitary(n_qubits: int) -> np.ndarray:
    """Closed-form baker's map F_N^{-1} (I (x) F_{N-1})."""
    if n_qubits < 2:
        raise ValueError("the baker's map needs at least two qubits")
    f_full = qstate.dft_matrix(2**n_qubits)
    f_half = qstate.dft_matrix(2 ** (n_qubits - 1))
    return f_full.conj().T @ np.kron(qstate.ID2, f_half)


def baker_gate_sequence() -> list[GateSpec]:
    """Gate realization of the full three-qubit baker's map, execution order.

    Only the three-qubit decomposition is known in closed form here; the
    general map is available as a matrix via :func:`baker_unitary`.
    """
    return [
        hadamard(1),
        phase(0, 1, np.pi / 2),
        hadamard(0),
        swap(0, 1),
        hadamard(2),
        phase(1, 2, -np.pi / 2),
        hadamard(1),
        phase(0, 2, -np.pi / 4),
        phase(0, 1, -np.pi / 2),
        hadamard(0),
        swap(0, 2),
    ]


def simplified_baker_gate_sequence() -> list[GateSpec]:
    """Gate realization of the three-qubit simplified map T_M, execution order."""
    return [
        phase(0, 1, -np.pi / 2),
        phase(0, 2, -np.pi / 4),
        hadamard(0),
        swap(0, 2),
        swap(0, 1),
    ]


def simplified_baker_unitary() -> np.ndarray:
    return gate_sequence_unitary(simplified_baker_gate_sequence(), 3)


def _binary_fraction(bits) -> float:
    """0.b0 b1 b2 ... for the given bit list (first bit is the 1/2 place)."""
    return sum(b / 2 ** (k + 1) for k, b in enumerate(bits))


def _phase_qubit(fraction: float) -> np.ndarray:
    """(|0> + exp(-2*pi*i*fraction)|1>)/sqrt(2)."""
    return np.array([1.0, np.exp(-2j * np.pi * fraction)], dtype=complex) / np.sqrt(2)


def _basis_qubit(bit: int) -> np.ndarray:
    return np.array([1.0 - bit, bit], dtype=complex)


def _product_state(factors) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def shift_domain_state(bits, map_variant: str = "full") -> np.ndarray:
    """Product state the map acts on, for symbolic-dynamics verification.

    ``bits`` lists a_{N-1} ... a_0, most significant first.  Each binary
    superposition factor carries an explicit 1/sqrt(2), so the result is
    normalized.

    For the full map the most significant qubit holds |a_{N-1}> and the
    lower qubits hold phase factors exp(-2*pi*i*0.a_{p-1}...a_0).  The
    simplified map T_M keeps bit 0 as the "working" qubit (that is where
    its Hadamard and controlled phases act), so its basis factor |a_{N-1}>
    sits on the LEAST significant qubit and the phase factors, fractions
    written forward as 0.a_p a_{p+1} ... a_{N-2}, fill the rest.
    """
    a = _significance_indexed(bits)
    n = len(a)
    if map_variant == "full":
        factors = [_basis_qubit(a[n - 1])]
        # position p >= 1 carries the fraction 0.a_{p-1} a_{p-2} ... a_0
        for p in range(1, n):
            factors.append(_phase_qubit(_binary_fraction([a[k] for k in range(p - 1, -1, -1)])))
    elif map_variant == "simplified":
        # position p <= N-2 carries the fraction 0.a_p a_{p+1} ... a_{N-2}
        factors = [
            _phase_qubit(_binary_fraction([a[k] for k in range(p, n - 1)]))
            for p in range(n - 1)
        ]
        factors.append(_basis_qubit(a[n - 1]))
    else:
        raise ValueError(f"unknown map variant {map_variant!r}")
    return _product_state(factors)


def shift_image_state(bits, map_variant: str = "full") -> np.ndarray:
    """Image of :func:`shift_domain_state` under the (simplified) baker's map."""
    a = _significance_indexed(bits)
    n = len(a)
    if map_variant == "full":
        # position p carries the fraction 0.a_p a_{p-1} ... a_0
        factors = [
            _phase_qubit(_binary_fraction([a[k] for k in range(p, -1, -1)]))
            for p in range(n)
        ]
    elif map_variant == "simplified":
        # the shifted-in bit a_{N-1} lands on the most significant qubit;
        # position p >= 1 carries the fraction 0.a_{p-1} a_p ... a_{N-1}
        factors = [_phase_qubit(_binary_fraction([a[n - 1]]))]
        for p in range(1, n):
            factors.append(_phase_qubit(_binary_fraction([a[k] for k in range(p - 1, n)])))
    else:
        raise ValueError(f"unknown map variant {map_variant!r}")
    return _product_state(factors)


def _significance_indexed(bits) -> list[int]:
    """Reindex a most-significant-first bit list so a[k] is the 2**k bit."""
    bits = list(bits)
    if not bits or any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be a non-empty sequence of 0/1")
    return bits[::-1]
