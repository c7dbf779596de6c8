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
fixed-step RK4 solution of the same generator
(``EvolutionEngine._rk4_propagator``) is kept only as the cross-check
that ``nmrbaker verify`` runs.  The tests add a second, statistical
cross-check: a quantum-trajectory unraveling (Z jumps as Poisson
processes) in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qstate
from .nmr import LIFTED_PAULI, SPINS, HamiltonianModel, PulseSequence, pulse_unitary

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


def liouvillian(model: HamiltonianModel, noise: NoiseModel) -> np.ndarray:
    """64x64 generator acting on row-stacked rho (C-order flatten).

    vec(A rho B) = (A kron B^T) vec(rho), so the commutator part is
    -i (H kron I - I kron H^T) and each dephasing channel contributes
    Gamma (Z kron Z - I).
    """
    h = model.matrix()
    eye = np.eye(DIM)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for spin, g in noise.items():
        if g:
            z = LIFTED_PAULI["Z", spin]
            gen += g * (np.kron(z, z.T) - np.eye(DIM * DIM))
    return gen


def apply_superoperator(propagator: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return (propagator @ np.asarray(rho, dtype=complex).reshape(-1)).reshape(DIM, DIM)


class EvolutionEngine:
    """Holds the model, noise, and a propagator cache keyed by duration.

    Pulse programs use only a handful of distinct delay durations, so
    each 64x64 exponential is computed exactly once.  The cache is a
    thread-safe memo: the same duration always yields the identical
    propagator, and independent evolutions may run concurrently.

    A generator with no nonzero off-diagonal entry (every variant but
    ``full``) is exponentiated elementwise, the expression
    ``scipy.linalg.expm`` itself evaluates for a diagonal matrix, so the
    result is the same to the bit; only a non-diagonal generator imports
    ``scipy.linalg``.
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
        else:
            import scipy.linalg  # 0.25 s to import, so only a non-diagonal generator pays it

            prop = scipy.linalg.expm(self._generator * key)
        # one atomic step (float keys hash and compare in C): threads that
        # raced to build the same duration all get the first one stored
        return self._cache.setdefault(key, prop)

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


def _require_physical(rho: np.ndarray) -> np.ndarray:
    defects = qstate.density_matrix_defects(rho)
    if defects:
        raise PhysicsError("evolution produced an invalid state: " + "; ".join(defects))
    return rho


def run_sequence(
    rho0: np.ndarray, seq: PulseSequence, engine: EvolutionEngine
) -> np.ndarray:
    """Evolve a density matrix through a pulse program with dephasing.

    Rotations act as unitary conjugations; delays apply the cached
    master-equation propagator.  The output is checked against the
    density-matrix invariants (positivity repair is deliberately not
    attempted: a violation indicates a bug, not noise).
    """
    qstate.check_density_matrix(rho0)
    rho = np.asarray(rho0, dtype=complex)
    for ins in seq.instructions:
        if ins.op == "U":
            rho = apply_superoperator(engine.delay_propagator(ins.value), rho)
        else:
            u = pulse_unitary(ins, engine.model)
            rho = u @ rho @ u.conj().T
    return _require_physical(rho)

