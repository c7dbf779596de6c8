"""Open-system evolution: dephasing master equation for pulse programs.

Between pulses the state evolves under

    drho/dt = -i [H, rho] + sum_s Gamma_s (Z_s rho Z_s - rho),

the standard trace-preserving dephasing generator with one rate per
spin (Gamma is proportional to 1/T2).  RF pulses are instantaneous
unitaries that interrupt the continuous evolution.

Delay propagators are built by exponentiating the 64x64 generator in
vectorized (row-stacked) form, once per distinct duration, which is
exact and deterministic; a fixed-step RK4 solution of the same generator
(``EvolutionEngine._rk4_propagator``) is kept only as the cross-check
that ``nmrbaker verify`` runs.  A quantum-trajectory unraveling (Z jumps
as Poisson processes) provides a second, statistical cross-check.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import qstate
from .nmr import SPINS, HamiltonianModel, PulseSequence, pulse_unitary
from .qstate import PAULI_Z

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


def _z_operator(spin: str) -> np.ndarray:
    return qstate.embed(PAULI_Z, [spin], SPINS)


def dissipator(rho: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """sum_s Gamma_s (Z_s rho Z_s - rho); traceless and Hermitian."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for spin, g in noise.items():
        if g:
            z = _z_operator(spin)
            out += g * (z @ rho @ z - rho)
    return out


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
            z = _z_operator(spin)
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
    """

    def __init__(self, model: HamiltonianModel, noise: NoiseModel):
        self.model = model
        self.noise = noise
        self._generator = liouvillian(model, noise)
        self._cache: dict[float, np.ndarray] = {}
        self._lock = threading.Lock()

    def delay_propagator(self, duration: float) -> np.ndarray:
        """Completely positive trace-preserving map for one delay."""
        if duration < 0:
            raise ValueError("delay duration must be >= 0")
        key = float(duration)
        with self._lock:
            cached = self._cache.get(key)
        if cached is not None:
            return cached
        if key == 0.0:
            prop = np.eye(DIM * DIM, dtype=complex)
        else:
            prop = scipy.linalg.expm(self._generator * key)
        with self._lock:
            self._cache.setdefault(key, prop)
            return self._cache[key]

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


def apply_perturbation(rho: np.ndarray, spin: str) -> np.ndarray:
    """Average of perturbed and unperturbed branches: (rho + Z rho Z)/2.

    Idempotent and unital; kills every matrix element connecting
    opposite Z eigenspaces of the chosen spin.
    """
    z = _z_operator(spin)
    return (np.asarray(rho, dtype=complex) + z @ rho @ z) / 2


def perturbation_unitary(spin: str) -> np.ndarray:
    """The perturbing kick exp(i*pi*Z/2) = i*Z on one spin."""
    return qstate.embed(1j * PAULI_Z, [spin], SPINS)


# ---------------------------------------------------------------------------
# quantum-trajectory cross-check
# ---------------------------------------------------------------------------

def trajectory_run(
    psi0: np.ndarray,
    seq: PulseSequence,
    engine: EvolutionEngine,
    n_traj: int,
    seed: int,
    with_stats: bool = False,
):
    """Jump unraveling of the dephasing master equation.

    Each spin jumps (acquires a Z) as a Poisson process of rate Gamma_s
    during delays; since Z^dag Z = 1, the no-jump evolution is purely
    Hamiltonian and every trajectory stays normalized.  Returns the
    average projector over ``n_traj`` trajectories (optionally with the
    per-entry standard error).  Trajectory i draws all its randomness
    from substream i of the seed, so results do not depend on how
    trajectories are partitioned across workers.
    """
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    psi0 = qstate.normalize(psi0)
    streams = np.random.SeedSequence(seed).spawn(n_traj)
    h = engine.model.matrix()
    if np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-14:
        outer = _trajectories_diagonal(psi0, seq, engine, streams, np.diag(h).real)
    else:
        outer = _trajectories_general(psi0, seq, engine, streams, h)
    mean = outer.mean(axis=2)
    if not with_stats:
        return mean
    var = (np.abs(outer) ** 2).mean(axis=2) - np.abs(mean) ** 2
    stderr = np.sqrt(np.maximum(var, 0.0) / n_traj)
    return mean, stderr


def _jump_parities(streams, delays, rates):
    """Pre-draw the per-trajectory jump parities for the diagonal fast path.

    With a diagonal Hamiltonian the Z jumps commute with the delay
    evolution, so only the parity of each spin's jump count matters:
    odd with probability (1 - exp(-2*Gamma*t))/2.
    """
    p_odd = (1.0 - np.exp(-2.0 * np.outer(delays, rates))) / 2.0
    flips = np.empty((len(streams), len(delays), len(rates)), dtype=bool)
    for i, stream in enumerate(streams):
        u = np.random.default_rng(stream).random((len(delays), len(rates)))
        flips[i] = u < p_odd
    return flips


def _trajectories_diagonal(psi0, seq, engine, streams, h_diag):
    delays = [ins.value for ins in seq.instructions if ins.op == "U"]
    rates = np.array([g for _, g in engine.noise.items()])
    flips = _jump_parities(streams, delays, rates)
    z_signs = np.stack([np.diag(_z_operator(s)).real for s in SPINS])
    n = len(streams)
    psi = np.tile(psi0.reshape(DIM, 1), (1, n)).astype(complex)
    k = 0
    for ins in seq.instructions:
        if ins.op == "U":
            psi *= np.exp(-1j * h_diag * ins.value)[:, None]
            for s in range(3):
                cols = flips[:, k, s]
                if cols.any():
                    psi[:, cols] *= z_signs[s][:, None]
            k += 1
        else:
            psi = pulse_unitary(ins, engine.model) @ psi
    return psi[:, None, :] * psi.conj()[None, :, :]


def _trajectories_general(psi0, seq, engine, streams, h):
    w, v = np.linalg.eigh(h)
    z_ops = [_z_operator(s) for s in SPINS]
    rates = [g for _, g in engine.noise.items()]

    def evolve(psi, dt):
        return (v * np.exp(-1j * w * dt)) @ (v.conj().T @ psi)

    outer = np.empty((DIM, DIM, len(streams)), dtype=complex)
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        psi = psi0.copy()
        for ins in seq.instructions:
            if ins.op == "U":
                events = []
                for s in range(3):
                    count = rng.poisson(rates[s] * ins.value)
                    events.extend((t, s) for t in rng.random(count) * ins.value)
                events.sort()
                t_prev = 0.0
                for t_jump, s in events:
                    psi = evolve(psi, t_jump - t_prev)
                    psi = z_ops[s] @ psi
                    t_prev = t_jump
                psi = evolve(psi, ins.value - t_prev)
            else:
                psi = pulse_unitary(ins, engine.model) @ psi
        outer[:, :, i] = np.outer(psi, psi.conj())
    return outer
