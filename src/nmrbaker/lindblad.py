"""Open-system evolution: dephasing master equation for pulse programs.

Between pulses the state evolves under

    drho/dt = -i [H, rho] + sum_s Gamma_s (Z_s rho Z_s - rho),

the standard trace-preserving dephasing generator with one rate per
spin (Gamma is proportional to 1/T2).  RF pulses are instantaneous
unitaries that interrupt the continuous evolution.

Delay propagators are built by exponentiating the 64x64 generator in
vectorized (row-stacked) form, once per distinct duration, which is
exact and deterministic.  Under the ``noxy`` and ``simplified``
Hamiltonians the generator is diagonal and is exponentiated elementwise
in numpy; only the ``full`` variant's generator, which is not, loads
``scipy.linalg`` for ``expm``, so other runs never import scipy.  A
``full`` delay exactly twice one already built is that propagator
squared, not a further ``expm`` (see :class:`EvolutionEngine`).  A
fixed-step RK4 solution of the same generator
(``EvolutionEngine._rk4_propagator``) is kept only as the cross-check
that ``nmrbaker verify`` runs.  The tests add a second, statistical
cross-check: a quantum-trajectory unraveling (Z jumps as Poisson
processes) in ``tests/oracles.py``.

Each operator is built once, where every user can share it: the
commutator half of the generator once per Hamiltonian model
(:func:`_commutator`), each spin's dephasing term at import
(:data:`_DEPHASING`), one pair (u, u^dag) per run of back-to-back pulses
and model (:func:`_pulses`), and each delay propagator once per engine.
Every shared operator is read-only.  :func:`_evolve` only applies a
resolved program to a state or stack; the states are checked once per
run, after it has evolved them all, by one stacked :func:`_check_evolved`
call that also returns their spectra.  :func:`run_sequence`, the public
entry, checks its input states, evolves them and checks its output states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from . import qstate
from .nmr import (LIFTED_PAULI, SPINS, HamiltonianModel, PulseInstruction, PulseSequence,
                  pulse_unitary)

DIM = 8


class PhysicsError(RuntimeError):
    """A simulated state broke a physical invariant beyond tolerance."""


@dataclass(frozen=True)
class NoiseModel:
    """Per-spin dephasing rates in 1/s."""

    gamma_h: float = 0.0
    gamma_c1: float = 0.0
    gamma_c2: float = 0.0

    def __post_init__(self):
        for name, g in self.items():
            if not (math.isfinite(g) and g >= 0):
                raise ValueError(f"dephasing rate for {name} must be finite and >= 0")

    @classmethod
    def from_inverse_times(cls, t_h: float, t_c1: float, t_c2: float) -> "NoiseModel":
        """Build from 1/Gamma times in seconds (math.inf means no dephasing)."""
        def rate(t):
            if t <= 0:
                raise ValueError("1/Gamma times must be positive")
            return 0.0 if math.isinf(t) else 1.0 / t

        return cls(rate(t_h), rate(t_c1), rate(t_c2))

    def items(self):
        return zip(SPINS, (self.gamma_h, self.gamma_c1, self.gamma_c2))


# Z kron Z^T - I of each spin, its dephasing generator at unit rate
_DEPHASING = {spin: np.kron(z, z.T) - np.eye(DIM * DIM)
              for spin in SPINS for z in [LIFTED_PAULI["Z", spin]]}
for _op in _DEPHASING.values():
    _op.flags.writeable = False


@lru_cache(maxsize=64)
def _commutator(model: HamiltonianModel) -> np.ndarray:
    """-i (H kron I - I kron H^T), once per distinct (frozen, hashable) model."""
    h = model.matrix()
    eye = np.eye(DIM)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    gen.flags.writeable = False
    return gen


def liouvillian(model: HamiltonianModel, noise: NoiseModel) -> np.ndarray:
    """64x64 generator acting on row-stacked rho (C-order flatten).

    vec(A rho B) = (A kron B^T) vec(rho), so the commutator part is
    -i (H kron I - I kron H^T) and each dephasing channel contributes
    Gamma (Z kron Z - I).  Both parts are built once and shared, so a
    call adds rates times constants and runs no ``np.kron``.
    """
    gen = _commutator(model).copy()
    for spin, g in noise.items():
        if g:
            gen += g * _DEPHASING[spin]
    return gen


@lru_cache(maxsize=1024)
def _pulses(run: tuple[PulseInstruction, ...], model: HamiltonianModel) -> tuple:
    """(u, u^dag) of a run of back-to-back X/Y rotations: u is the product
    of their :func:`nmr.pulse_unitary` matrices, first pulse applied first,
    starting from the first pulse's own matrix, so a one-pulse run is that
    pulse's pair.  Read-only, as every engine that runs the run shares it."""
    first, *rest = run
    u = pulse_unitary(first, model)
    for instruction in rest:
        u = pulse_unitary(instruction, model) @ u
    uh = u.conj().T
    u.flags.writeable = uh.flags.writeable = False
    return u, uh


def apply_superoperator(propagator: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``propagator`` applied to a density matrix or to each of a
    (..., 8, 8) stack: one stacked matmul over the row-stacked states, each
    product equal to the product on its state alone."""
    rho = np.asarray(rho, dtype=complex)
    return (propagator @ rho.reshape(-1, DIM * DIM, 1)).reshape(rho.shape)


class EvolutionEngine:
    """Holds the model, the noise and one cache: the delay propagators,
    keyed by duration.

    Pulse programs use only a handful of distinct delay durations, so
    each 64x64 propagator is built exactly once per engine.  The cache is a
    thread-safe memo: racing threads may each build an entry, but all
    get the first one stored, so independent evolutions may run
    concurrently.  The module-level ``lru_cache``s (:func:`_commutator`,
    :func:`_pulses`) may hand racing threads equal, not identical, arrays.

    A generator with no nonzero off-diagonal entry (every variant but
    ``full``) is exponentiated elementwise, the expression
    ``scipy.linalg.expm`` itself evaluates for a diagonal matrix, so the
    result is the same to the bit; only a non-diagonal generator imports
    ``scipy.linalg``.

    On the non-diagonal path a duration whose half is cached is built as
    ``half @ half``.  ``expm`` is scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)), so where it takes the same Pade
    degree for both and one more squaring for the longer, that product is
    its last step and the result is ``expm``'s to the bit.  That holds
    for every preset program: ``t_even``'s 2 tau1 is ``t_odd``'s tau1
    squared, and a chaotic ``full`` engine runs ``expm`` three times, not
    four.  Not in general: for short durations scipy may take a lower
    degree or no scaling, and the square then differs from ``expm`` at
    round-off (up to about 1.2e-15 for 1e-6 to 0.1 s).  The diagonal path
    never squares, as squared ``np.exp`` entries would move their bits.
    """

    def __init__(self, model: HamiltonianModel, noise: NoiseModel):
        self.model = model
        self.noise = noise
        self._generator = liouvillian(model, noise)
        diagonal = np.diag(self._generator)
        self._diagonal = (diagonal if np.array_equal(self._generator, np.diag(diagonal))
                          else None)
        self._cache: dict[float, np.ndarray] = {}

    def delay_propagator(self, duration: float) -> np.ndarray:
        """Completely positive trace-preserving map for one delay."""
        if not (math.isfinite(duration) and duration >= 0):
            raise ValueError("delay duration must be finite and >= 0")
        key = float(duration)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self._diagonal is not None:
            prop = np.diag(np.exp(self._diagonal * key))
        elif (half := self._cache.get(key / 2)) is not None and key / 2 * 2 == key:
            prop = half @ half  # expm's own last squaring step; see the class docstring
        else:
            import scipy.linalg  # 0.25 s to import, so only a non-diagonal generator pays it

            prop = scipy.linalg.expm(self._generator * key)
        prop.flags.writeable = False  # operator lists share it
        # one atomic step (float keys hash and compare in C): threads that
        # raced to build the same duration all get the first one stored
        return self._cache.setdefault(key, prop)

    def operators(self, seq: PulseSequence) -> tuple:
        """``seq`` resolved into what :func:`_evolve` applies, in order: one
        :func:`_pulses` pair (u, u^dag) per run of back-to-back pulses and
        ``(propagator, None)`` for each delay."""
        operators = []
        for pulses, run in groupby(seq.instructions, key=lambda ins: ins.op != "U"):
            if pulses:
                operators.append(_pulses(tuple(run), self.model))
            else:
                operators.extend((self.delay_propagator(ins.value), None) for ins in run)
        return tuple(operators)

    def _rk4_propagator(self, duration: float) -> np.ndarray:
        """Fixed-step RK4 cross-check of :meth:`delay_propagator`: on this
        linear equation one step of size h is the polynomial
        I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, raised to the step count."""
        # tau1/200 keeps the RK4 cross-check well below 1e-6 error
        steps = max(1, math.ceil(duration / (self.model.tau1 / 200)))
        hl = self._generator * (duration / steps)
        eye = np.eye(DIM * DIM)
        step = eye + hl @ (eye + hl / 2 @ (eye + hl / 3 @ (eye + hl / 4)))
        return np.linalg.matrix_power(step, steps)


def _evolve(rho: np.ndarray, operators: tuple) -> np.ndarray:
    """Apply ``operators`` (:meth:`EvolutionEngine.operators`) to a complex
    state or (..., 8, 8) stack, each state exactly as alone.  It checks
    nothing: each run checks the states it evolved with one
    :func:`_check_evolved` call."""
    for a, b in operators:
        rho = apply_superoperator(a, rho) if b is None else a @ rho @ b
    return rho


def _check_evolved(states: np.ndarray) -> np.ndarray:
    """The spectra of ``states``, one matrix or a stack, from one
    :func:`qstate.density_matrix_spectra` call, or :class:`PhysicsError`
    with the defects of its first invalid state (positivity repair is
    deliberately not attempted: a violation indicates a bug, not noise).
    A run that stacks its states in step order reports the state its
    first bad step produced, as a check after each step would."""
    defects, spectra = qstate.density_matrix_spectra(states)
    if defects:
        raise PhysicsError("evolution produced an invalid state: " + "; ".join(defects))
    return spectra


def run_sequence(rho0: np.ndarray, seq: PulseSequence, engine: EvolutionEngine) -> np.ndarray:
    """Evolve a density matrix, or each of a (..., 8, 8) stack, through a
    pulse program with dephasing: every input state is checked
    (``ValueError``), :func:`_evolve` applies the program, and every output
    state is checked (:class:`PhysicsError`).
    """
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape[-2:] != (DIM, DIM):
        raise ValueError(f"expected ({DIM}, {DIM}) density matrices, got shape {rho.shape}")
    qstate.check_density_matrix(rho)
    rho = _evolve(rho, engine.operators(seq))
    _check_evolved(rho)
    return rho
