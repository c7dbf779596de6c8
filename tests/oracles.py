"""Test-only oracles: independent implementations the tests compare the
package against, such as the quantum-trajectory unraveling of the master
equation.  None of them runs in the CLI."""

from __future__ import annotations

import math

import numpy as np

from nmrbaker import qstate
from nmrbaker.chaos import (HypersensitivityCurve, _frontier_from_scan, partition_scan, set_partitions,
                            subset_entropies)
from nmrbaker.lindblad import DIM, EvolutionEngine, NoiseModel, _z_operator
from nmrbaker.nmr import SPINS, PulseInstruction, PulseSequence, pulse_unitary
from nmrbaker.qstate import ID2, PAULI_X, PAULI_Y


def normalize(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("cannot normalize the zero vector")
    return psi / norm


def is_unitary(u, tol: float = 1e-10) -> bool:
    u = np.asarray(u)
    return bool(
        np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= tol
    )


def embedded_rotation(instruction: PulseInstruction) -> np.ndarray:
    """An X/Y rotation evaluated on its 2x2 factor and then lifted to the
    register with ``qstate.embed``; ``nmr.pulse_unitary`` must equal it
    entry for entry."""
    half = instruction.value / 2
    axis = PAULI_X if instruction.op == "X" else PAULI_Y
    u2 = math.cos(half) * ID2 + 1j * math.sin(half) * axis  # exp(i*theta*axis/2)
    return qstate.embed(u2, [instruction.spin], SPINS)


def dissipator(rho: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """sum_s Gamma_s (Z_s rho Z_s - rho); traceless and Hermitian."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for spin, g in noise.items():
        if g:
            z = _z_operator(spin)
            out += g * (z @ rho @ z - rho)
    return out


def exhaustive_imin(rhos) -> HypersensitivityCurve:
    """Exact I_min(delta_s) frontier from the full set-partition scan.

    I_min(x) = min{ I : partition achieves delta_s >= x }, evaluated on
    the grid of all achieved delta_s values; nondecreasing by
    construction.
    """
    delta_s, info, _ = partition_scan(subset_entropies(rhos))
    return _frontier_from_scan(delta_s, info)


def _score(assignment, entropies) -> tuple[float, float]:
    """(S-bar, I) of one partition (a group label per state), looked up in
    its ``chaos.subset_entropies`` table on its own, with no partition
    layout.  S-bar is one dot product over the groups in first-appearance
    order, the ``ddot`` that ``chaos.partition_scan`` batches, so the scan
    and ``chaos.grouping_stats`` must equal it bit for bit."""
    masks: dict = {}
    for idx, g in enumerate(assignment):
        masks[g] = masks.get(g, 0) | (1 << idx)
    n = len(assignment)
    probs = np.array([mask.bit_count() / n for mask in masks.values()])
    # 0.0 - x rather than -x: one group costs +0.0 bits, not -0.0
    return (float(probs @ entropies[list(masks.values())]),
            float(0.0 - probs @ np.log2(probs)))


def scored_partition_scan(entropies) -> tuple[np.ndarray, np.ndarray, float]:
    """``chaos.partition_scan`` one partition at a time: every restricted-
    growth string scored by :func:`_score`.  The batched scan must equal
    it bit for bit."""
    n = len(entropies).bit_length() - 1
    # taking S_bar_max from the same table keeps the trivial one-group
    # partition at delta_s = 0 exactly
    s_max = float(entropies[-1])
    delta_s, info = [], []
    for assignment in set_partitions(n):
        s_bar, inf = _score(assignment, entropies)
        delta_s.append(s_max - s_bar)
        info.append(inf)
    return np.array(delta_s), np.array(info), s_max


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
    psi0 = normalize(psi0)
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
