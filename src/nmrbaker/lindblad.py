"""Open-system evolution: dephasing master equation for pulse programs.

Between pulses the state evolves under

    drho/dt = -i [H, rho] + sum_s Gamma_s (Z_s rho Z_s - rho),

the standard trace-preserving dephasing generator with one rate per
spin (Gamma is proportional to 1/T2).  RF pulses are instantaneous
unitaries that interrupt the continuous evolution.

Delay propagators are built by exponentiating the 64x64 generator in
vectorized (row-stacked) form, once per distinct duration, which is
exact and deterministic.  Under the ``noxy`` and ``simplified``
Hamiltonians the generator is diagonal: an engine sums only its 64
diagonal entries and exponentiates them elementwise in numpy.  Only the
``full`` variant's generator, which is not, is built dense and goes
through :func:`_expm`, ``scipy.linalg.expm``'s own compiled kernels loaded
without ``scipy.linalg`` itself; a ``full`` delay exactly twice one
already built is that propagator squared (see :class:`EvolutionEngine`).  A
fixed-step RK4 solution (``EvolutionEngine._rk4_propagator``) is kept
only as the cross-check that ``nmrbaker verify`` runs; the tests add a
quantum-trajectory unraveling in ``tests/oracles.py``.

Each operator is built once, where every user can share it: the
commutator half of the generator, and whether it is diagonal, once per
Hamiltonian model (:func:`_commutator`), each spin's dephasing term at
import (:data:`_DEPHASING`), each program's :func:`_plan` once per model,
and each delay propagator once per engine.  Every shared operator is
read-only.  :func:`_evolve` only applies a resolved program to a state or
stack, through ``np.ndarray.dot`` for one state and ``np.matmul`` for a
stack (the same BLAS calls).  The states are checked once per run, after
it has evolved them all, by one stacked :func:`_check_evolved` call, whose
:func:`qstate.density_matrix_defects` also returns their spectra.
:func:`run_sequence`, the public entry, checks its input states, evolves
them and checks its output states.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby

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


# Z kron Z^T - I of each spin, its dephasing generator at unit rate
_DEPHASING = {spin: np.kron(z, z.T) - np.eye(DIM * DIM)
              for spin in SPINS for z in [LIFTED_PAULI["Z", spin]]}
for _op in _DEPHASING.values():
    _op.flags.writeable = False
_DEPHASING_DIAGONAL = {spin: np.diag(op) for spin, op in _DEPHASING.items()}  # read-only views


@lru_cache(maxsize=64)
def _commutator(model: HamiltonianModel) -> tuple:
    """-i (H kron I - I kron H^T) and, if it is diagonal (every variant but
    ``full``), a view of its diagonal, else None: once per distinct model."""
    h, eye = model.matrix(), np.eye(DIM)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    gen.flags.writeable = False
    return gen, np.diag(gen) if np.array_equal(gen, np.diag(np.diag(gen))) else None


def _rated(commutator: np.ndarray, dephasing: dict, noise: NoiseModel) -> np.ndarray:
    """``commutator`` plus each nonzero rate times its spin's ``dephasing`` term, added in place
    in spin order: the dense generator from dense parts, its diagonal's bits from diagonals."""
    gen = commutator.copy()
    for spin, g in noise.items():
        if g:
            gen += g * dephasing[spin]
    return gen


def liouvillian(model: HamiltonianModel, noise: NoiseModel) -> np.ndarray:
    """64x64 generator acting on row-stacked rho (C-order flatten).

    vec(A rho B) = (A kron B^T) vec(rho), so the commutator part is
    -i (H kron I - I kron H^T) and each dephasing channel contributes
    Gamma (Z kron Z - I).  Both parts are built once and shared, so a
    call adds rates times constants and runs no ``np.kron``.
    """
    return _rated(_commutator(model)[0], _DEPHASING, noise)


@lru_cache(maxsize=256)
def _plan(seq: PulseSequence, model: HamiltonianModel) -> tuple:
    """``seq`` under ``model``: a pair (u, u^dag) per run of back-to-back X/Y rotations, u the
    product of their :func:`nmr.pulse_unitary` matrices from the first pulse's own, and
    ``(duration, None)`` per delay, in order.  Read-only: every engine of the model shares it."""
    plan = []
    for pulses, run in groupby(seq.instructions, key=lambda ins: ins.op != "U"):
        if not pulses:
            plan.extend((ins.value, None) for ins in run)
            continue
        first, *rest = run
        u = pulse_unitary(first, model)
        for instruction in rest:
            u = pulse_unitary(instruction, model) @ u
        uh = u.conj().T
        u.flags.writeable = uh.flags.writeable = False
        plan.append((u, uh))
    return tuple(plan)


_PADE = "scipy.linalg._matfuncs_expm"


@lru_cache(maxsize=1)
def _pade_kernels() -> tuple:
    """``pick_pade_structure`` and ``pade_UV_calc``, the compiled kernels of
    ``scipy.linalg.expm``.  Their extension module is loaded once per process
    by its path, so neither ``scipy``'s nor ``scipy.linalg``'s ``__init__``
    runs (together about 0.3 s, most of it cloning the numpy namespace), and
    is registered in ``sys.modules``, where a later ``import scipy.linalg``
    finds it: both share one module."""
    module = sys.modules.get(_PADE)
    if module is None and (scipy := importlib.util.find_spec("scipy")) is not None:
        spec = importlib.machinery.PathFinder.find_spec(
            _PADE, [os.path.join(path, "linalg") for path in scipy.submodule_search_locations])
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            module = sys.modules.setdefault(_PADE, module)
    try:
        return module.pick_pade_structure, module.pade_UV_calc
    except AttributeError:
        from importlib import metadata

        try:
            found = f"scipy {metadata.version('scipy')}"
        except metadata.PackageNotFoundError:
            found = "no scipy"
        raise ImportError(f"{_PADE} has no compiled expm kernels here ({found} is installed);"
                          " nmrbaker needs scipy >= 1.17") from None


def _expm(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm(a)`` to the bit, for a square matrix that is
    diagonal or not triangular, as a ``full`` generator times a duration
    always is (its pattern is symmetric).  A diagonal ``a``, duration 0
    among them, takes scipy's diagonal branch, the elementwise ``np.exp``.
    Any other runs scipy's generic branch: the compiled kernels of
    :func:`_pade_kernels` pick a Pade degree and ``s`` scalings and leave
    the approximant in the workspace's first slot (Al-Mohy & Higham, SIAM
    J. Matrix Anal. Appl. 31, 970 (2009)), which is squared ``s`` times."""
    if np.count_nonzero(a) == np.count_nonzero(a.diagonal()):
        return np.diag(np.exp(np.diag(a)))
    pick_pade_structure, pade_uv_calc = _pade_kernels()
    work = np.empty((5, *a.shape), a.dtype)
    work[0] = a
    degree, squarings = pick_pade_structure(work)
    if degree < 0 or pade_uv_calc(work, degree):
        raise RuntimeError(f"scipy's expm kernels failed (degree {degree})")
    e = work[0].copy()  # not a view that keeps the whole workspace
    for _ in range(squarings):
        e = e @ e
    return e


class EvolutionEngine:
    """Holds the model, the noise and one cache: the delay propagators,
    keyed by duration.

    Pulse programs use only a handful of distinct delay durations, so
    each 64x64 propagator is built exactly once per engine.  The cache is a
    thread-safe memo: racing threads may each build an entry, but all
    get the first one stored, so independent evolutions may run
    concurrently.  The module-level ``lru_cache``s (:func:`_commutator`,
    :func:`_plan`) may hand racing threads equal, not identical, arrays.

    A diagonal generator (every variant but ``full``) is held as its 64
    diagonal entries, summed as :func:`liouvillian` sums the dense one, and
    exponentiated elementwise, the expression ``scipy.linalg.expm`` itself
    evaluates for a diagonal matrix, so the result is the same to the bit.
    The dense generator is built on first use, by a ``full`` engine's first
    :func:`_expm` (only it loads scipy's kernels) or :meth:`_rk4_propagator`.

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
        diagonal = _commutator(model)[1]
        self._diagonal = None if diagonal is None else _rated(diagonal, _DEPHASING_DIAGONAL, noise)
        self._cache: dict[float, np.ndarray] = {}

    @cached_property
    def _generator(self) -> np.ndarray:  # the dense generator, on first use
        return liouvillian(self.model, self.noise)

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
            prop = _expm(self._generator * key)
        prop.flags.writeable = False  # operator lists share it
        # one atomic step (float keys hash and compare in C): threads that
        # raced to build the same duration all get the first one stored
        return self._cache.setdefault(key, prop)

    def operators(self, seq: PulseSequence) -> tuple:
        """``seq`` resolved into what :func:`_evolve` applies: its
        :func:`_plan`, each delay's duration replaced by its propagator."""
        return tuple(step if step[1] is not None else (self.delay_propagator(step[0]), None)
                     for step in _plan(seq, self.model))

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
    state or (..., 8, 8) stack, each state exactly as alone: a delay times
    the row-stacked state (a 64-vector, or a stack of 64x1 columns), a pulse
    pair (u, u^dag) as ``(u rho) u^dag``.  One state goes through the
    unbound ``np.ndarray.dot`` (operators must be ndarrays), which skips
    ``np.dot``'s Python-level dispatcher, a stack through ``np.matmul``: the
    same BLAS calls, so the same bits.  It checks nothing: each run checks
    the states it evolved with one :func:`_check_evolved` call."""
    shape = rho.shape
    product, flat = (np.ndarray.dot, DIM * DIM) if rho.ndim == 2 else (np.matmul, (-1, DIM * DIM, 1))
    for a, b in operators:
        rho = product(a, rho.reshape(flat)).reshape(shape) if b is None else product(product(a, rho), b)
    return rho


def _check_evolved(states: np.ndarray) -> np.ndarray:
    """The spectra of ``states``, one matrix or a stack, from one
    :func:`qstate.density_matrix_defects` call, or :class:`PhysicsError`
    with the defects of its first invalid state (positivity repair is
    deliberately not attempted: a violation indicates a bug, not noise).
    A run that stacks its states in step order reports the state its
    first bad step produced, as a check after each step would."""
    defects, spectra = qstate.density_matrix_defects(states)
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
    defects = qstate.density_matrix_defects(rho)[0]
    if defects:
        raise ValueError("invalid density matrix: " + "; ".join(defects))
    rho = _evolve(rho, engine.operators(seq))
    _check_evolved(rho)
    return rho
