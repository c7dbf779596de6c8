"""Test-only oracles: independent implementations the tests compare the
package against, such as the quantum-trajectory unraveling of the master
equation.  None of them runs in the CLI."""

from __future__ import annotations

import math
from itertools import groupby

import numpy as np

from nmrbaker import chaos, qstate
from nmrbaker.chaos import (GREEDY_RESTARTS, HypersensitivityCurve, _frontier_from_scan, _pareto_points,
                            history_ensemble, initial_density, js_distance, partition_scan, set_partitions,
                            subset_entropies, subset_means)
from nmrbaker.lindblad import DIM, EvolutionEngine, NoiseModel, PhysicsError
from nmrbaker.nmr import (LIFTED_PAULI, SPIN_C2, SPIN_H, SPINS, PulseInstruction, PulseSequence, pulse_unitary,
                          t_even, t_odd, t_regular)
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


def single_state_defects(rho) -> list[str]:
    """``qstate.density_matrix_defects(rho)[0]`` of one matrix, test by test; the
    stacked check must give its messages.  The eigenvalue test diagonalises
    the matrix itself (``eigvalsh`` reads its lower triangle) and applies
    only to a matrix that passes the hermiticity test."""
    rho = np.asarray(rho)
    if not np.isfinite(rho).all():
        return [f"non-finite entries ({np.count_nonzero(~np.isfinite(rho))} of {rho.size})"]
    defects = []
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > qstate.HERMITICITY_TOL:
        defects.append(f"hermiticity violated by {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > qstate.TRACE_TOL:
        defects.append(f"trace {tr:.12g} deviates from 1 by {abs(tr - 1.0):.3e}")
    wmin = np.linalg.eigvalsh(rho).min()
    if herm <= qstate.HERMITICITY_TOL and wmin < -qstate.EIG_CLAMP:
        defects.append(f"negative eigenvalue {wmin:.3e}")
    return defects


def embedded_rotation(instruction: PulseInstruction) -> np.ndarray:
    """An X/Y rotation evaluated on its 2x2 factor and then lifted to the
    register with ``qstate.embed``; ``nmr.pulse_unitary`` must equal it
    entry for entry."""
    half = instruction.value / 2
    axis = PAULI_X if instruction.op == "X" else PAULI_Y
    u2 = math.cos(half) * ID2 + 1j * math.sin(half) * axis  # exp(i*theta*axis/2)
    return qstate.embed(u2, instruction.spin, SPINS)


def dissipator(rho: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """sum_s Gamma_s (Z_s rho Z_s - rho); traceless and Hermitian."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for spin, g in noise.items():
        if g:
            z = LIFTED_PAULI["Z", spin]
            out += g * (z @ rho @ z - rho)
    return out


def kron_liouvillian(model, noise: NoiseModel) -> np.ndarray:
    """``lindblad.liouvillian`` built from scratch with ``np.kron`` on every
    call, as it was before its parts were cached: the cached build must
    equal it bit for bit."""
    h = model.matrix()
    eye = np.eye(DIM)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for spin, g in noise.items():
        if g:
            z = LIFTED_PAULI["Z", spin]
            gen += g * (np.kron(z, z.T) - np.eye(DIM * DIM))
    return gen


def matmul_evolve(rho, operators) -> np.ndarray:
    """``lindblad._evolve`` spelled out with ``@`` alone, on one state as on
    a stack: each delay ``(a @ rho.reshape(-1, 64, 1))`` reshaped back, each
    pulse pair ``a @ rho @ b``.  The package, which takes ``np.ndarray.dot``
    for one state, must equal it byte for byte."""
    for a, b in operators:
        rho = (a @ rho.reshape(-1, DIM * DIM, 1)).reshape(rho.shape) if b is None else a @ rho @ b
    return rho


def groupby_operators(seq: PulseSequence, engine: EvolutionEngine) -> tuple:
    """``engine.operators(seq)`` as it was resolved on every call before
    programs were planned once per model: ``seq`` split by ``groupby``, each
    run of back-to-back pulses one pair (u, u^dag), u the product of its
    ``pulse_unitary`` matrices with the first pulse applied first, and each
    delay ``(engine.delay_propagator(duration), None)``."""
    operators = []
    for pulses, run in groupby(seq.instructions, key=lambda ins: ins.op != "U"):
        if pulses:
            first, *rest = run
            u = pulse_unitary(first, engine.model)
            for ins in rest:
                u = pulse_unitary(ins, engine.model) @ u
            operators.append((u, u.conj().T))
        else:
            operators.extend((engine.delay_propagator(ins.value), None) for ins in run)
    return tuple(operators)


def per_instruction_program(rho, seq: PulseSequence, engine: EvolutionEngine) -> np.ndarray:
    """``seq`` applied to one state one instruction at a time: each pulse
    as u rho u^dag with its own ``nmr.pulse_unitary`` u, each delay as its
    ``engine.delay_propagator``.  ``EvolutionEngine.operators`` composes
    each run of back-to-back pulses into one pair, so its results equal
    these at round-off, and bit for bit where no two pulses are adjacent
    (``t_regular``)."""
    for ins in seq.instructions:
        if ins.op == "U":
            rho = matmul_evolve(rho, ((engine.delay_propagator(ins.value), None),))
        else:
            u = pulse_unitary(ins, engine.model)
            rho = u @ rho @ u.conj().T
    return rho


def _map_steps(config, n_steps) -> list[tuple[PulseSequence, np.ndarray]]:
    """(program, Z of the kicked spin) of steps 1..n_steps, from the map's
    schedule: the chaotic map alternates ``t_odd`` (kick H) and ``t_even``
    (kick C2), the regular map repeats ``t_regular`` (kick H)."""
    model = config.model()
    cycle = ([(t_odd(model), SPIN_H), (t_even(model), SPIN_C2)] if config.map_variant == "chaotic"
             else [(t_regular(model), SPIN_H)])
    return [(seq, LIFTED_PAULI["Z", spin]) for seq, spin in (cycle[n % len(cycle)] for n in range(n_steps))]


def per_instruction_history_ensemble(config, n_steps) -> list[np.ndarray]:
    """``chaos.history_ensemble`` with each history evolved from the start
    on its own by :func:`per_instruction_program`, kicked as Z rho Z after
    step k when its bit k (most significant first) is set."""
    engine = config.engine()
    steps = _map_steps(config, n_steps)
    out = []
    for history in range(2**n_steps):
        rho = initial_density()
        for k, (seq, z) in enumerate(steps):
            rho = per_instruction_program(rho, seq, engine)
            if history >> (n_steps - 1 - k) & 1:
                rho = z @ rho @ z
        out.append(rho)
    return out


def per_instruction_entropy_series(config) -> list[tuple[int, float]]:
    """``chaos.entropy_experiment`` with each step applied by
    :func:`per_instruction_program`."""
    engine = config.engine()
    rho = initial_density()
    series = [(0, qstate.von_neumann_entropy_bits(rho))]
    for n, (seq, z) in enumerate(_map_steps(config, config.steps), start=1):
        rho = per_instruction_program(rho, seq, engine)
        if config.artificial_perturbation:
            rho = (rho + z @ rho @ z) / 2
        series.append((n, qstate.von_neumann_entropy_bits(rho)))
    return series


def per_step_entropy_series(config) -> list[tuple[int, float]]:
    """``chaos.entropy_experiment`` as a loop over ``chaos._steps`` that,
    after each step, checks the evolved state alone and then takes the
    entropy of the series state alone: the package checks a run's evolved
    states and scores its series in one call each, and must equal this
    by ``float.hex`` and raise the same :class:`lindblad.PhysicsError` text."""
    engine = config.engine()
    rho = initial_density()
    series = [(0, qstate.von_neumann_entropy_bits(rho))]
    for n, (operators, z) in enumerate(chaos._steps(config, engine, config.steps), start=1):
        rho = matmul_evolve(rho, operators)
        defects = qstate.density_matrix_defects(rho)[0]
        if defects:
            raise PhysicsError("evolution produced an invalid state: " + "; ".join(defects))
        if config.artificial_perturbation:
            rho = (rho + z @ rho @ z) / 2
        series.append((n, qstate.von_neumann_entropy_bits(rho)))
    return series


def exhaustive_imin(rhos) -> HypersensitivityCurve:
    """Exact I_min(delta_s) frontier from the full set-partition scan.

    I_min(x) = min{ I : partition achieves delta_s >= x }, evaluated on
    the grid of all achieved delta_s values; nondecreasing by
    construction.
    """
    delta_s, info, _ = partition_scan(subset_entropies(subset_means(rhos)))
    return _frontier_from_scan(delta_s, info)


def running_minimum_frontier(delta_s, info) -> tuple[np.ndarray, np.ndarray]:
    """(delta_s, I_min) of ``chaos._frontier_from_scan`` as two full arrays,
    I_min stored at every point: one point per run of descending delta_s
    values each within 1e-12 of the one before, holding the run's first
    delta_s and the running minimum I at its last member, ascending."""
    order = np.argsort(delta_s)[::-1]
    d_sorted = delta_s[order]
    i_suffix = np.minimum.accumulate(info[order])
    starts = np.flatnonzero(np.abs(np.diff(d_sorted, prepend=np.inf)) > 1e-12)
    ends = np.append(starts[1:], len(d_sorted)) - 1
    return d_sorted[starts][::-1], i_suffix[ends][::-1]


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
    growth string, each row of ``set_partitions`` as a list, scored by
    :func:`_score`.  The batched scan must equal it bit for bit."""
    n = len(entropies).bit_length() - 1
    # taking S_bar_max from the same table keeps the trivial one-group
    # partition at delta_s = 0 exactly
    s_max = float(entropies[-1])
    delta_s, info = [], []
    for assignment in set_partitions(n).tolist():
        s_bar, inf = _score(assignment, entropies)
        delta_s.append(s_max - s_bar)
        info.append(inf)
    return np.array(delta_s), np.array(info), s_max


def seed_masks(draws, width=None) -> np.ndarray:
    """Member draws as the seed masks ``chaos.greedy_groupings`` takes: row
    ``r`` holds ``1 << member`` for each member of ``draws[r]`` in order,
    then zeros up to ``width`` columns (the longest draw's length unless
    given), one Python shift per member."""
    draws = [list(draw) for draw in draws]
    width = max(map(len, draws), default=0) if width is None else width
    return np.array([[1 << member for member in draw] + [0] * (width - len(draw)) for draw in draws],
                    dtype=np.int64).reshape(len(draws), width)


def reference_greedy_grouping(rhos, seeds) -> list[int]:
    """Greedy clustering one draw at a time, with no memo: group ``g``
    starts as ``rhos[seeds[g]]``, each other state in list order joins the
    first group closest in :func:`chaos.js_distance` to its running mean,
    and every entropy is diagonalised afresh."""
    rhos = list(rhos)
    assignment = [-1] * len(rhos)
    sums, counts = [], []
    for g, idx in enumerate(seeds):
        assignment[idx] = g
        sums.append(rhos[idx].copy())
        counts.append(1)
    for idx in range(len(rhos)):
        if assignment[idx] >= 0:
            continue
        dists = [js_distance(total / count, rhos[idx]) for total, count in zip(sums, counts)]
        g = int(np.argmin(dists))
        assignment[idx] = g
        sums[g] += rhos[idx]
        counts[g] += 1
    return assignment


def plain_subset_entropies(means) -> np.ndarray:
    """``chaos.subset_entropies`` as one plain ``qstate.von_neumann_entropy_bits``
    batch over every nonempty subset's mean, repeats included.  The
    package diagonalises each distinct mean once when members repeat a
    state, and must equal this by ``float.hex``."""
    entropies = np.zeros(len(means))
    entropies[1:] = qstate.von_neumann_entropy_bits(means[1:])
    return entropies


def plain_greedy_groupings(means, entropies, draws) -> list[list[int]]:
    """``chaos.greedy_groupings`` one draw at a time with no memo: each
    placement diagonalises the placed state's mixture with every group,
    one-member groups included, in one plain batch, repeats included, and
    takes the package's distance expression and first-of-equal ``argmin``.
    The package's rows must equal these."""
    n = len(entropies).bit_length() - 1
    rows = []
    for draw in draws:
        labels, masks = [-1] * n, [1 << seed for seed in draw]
        for g, seed in enumerate(draw):
            labels[seed] = g
        for idx in range(n):
            if labels[idx] < 0:
                mixed = qstate.von_neumann_entropy_bits(np.array([(means[m] + means[1 << idx]) / 2 for m in masks]))
                dists = np.maximum(mixed - (entropies[masks] + entropies[1 << idx]) / 2, 0.0)
                labels[idx] = g = int(dists.argmin())
                masks[g] |= 1 << idx
        rows.append(labels)
    return rows


def first_appearance(labels) -> tuple:
    """``labels`` relabelled by first appearance: its restricted-growth
    string, a row of :func:`chaos.set_partitions` as a tuple."""
    first: dict = {}
    return tuple(first.setdefault(g, len(first)) for g in labels)


def drawn_greedy_points(config, n_steps) -> list[tuple[float, float]]:
    """The greedy points of ``chaos.hypersensitivity_experiment`` with every
    group count 1..n drawn and run one draw at a time by
    :func:`reference_greedy_grouping`, each grouping read from the scan row
    at its index among the rows of ``chaos.set_partitions``.  The experiment
    answers one and n groups from the first and the last scan row without
    drawing and runs the others in lockstep, so its points must equal these
    exactly."""
    rhos = history_ensemble(config, n_steps)
    delta_s, info, _ = partition_scan(subset_entropies(subset_means(rhos)))
    strings = list(map(tuple, set_partitions(len(rhos)).tolist()))
    greedy = {}
    for n_groups in range(1, len(rhos) + 1):
        for trial in range(GREEDY_RESTARTS):
            rng = np.random.default_rng([config.seed, n_groups, trial])
            draw = tuple(rng.choice(len(rhos), size=n_groups, replace=False).tolist())
            if draw not in greedy:
                pos = strings.index(first_appearance(reference_greedy_grouping(rhos, draw)))
                greedy[draw] = (float(delta_s[pos]), float(info[pos]))
    return _pareto_points(greedy.values())


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
    z_signs = np.stack([np.diag(LIFTED_PAULI["Z", s]).real for s in SPINS])
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
    z_ops = [LIFTED_PAULI["Z", s] for s in SPINS]
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
