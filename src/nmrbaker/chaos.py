"""The two quantum-chaos experiments on the simulated NMR machine.

Entropy growth: starting from the pure product state with every spin
along +y, iterate the simplified baker's map (alternating odd/even
pulse programs) or the do-nothing reference map through the dephasing
master equation and record the von Neumann entropy after each step.
Optionally an artificial perturbation channel is averaged in after
every step.

Hypersensitivity: apply, over n steps, all 2^n perturbation histories
(at each step either the plain map or the map followed by a z kick on
one spin), collect the 2^n final density matrices, and ask how many
bits of information about the history are needed to reduce the entropy
of the averaged state by a given amount.  The exact answer enumerates
every set partition of the history ensemble; a greedy clustering on a
Jensen-Shannon-type distance approximates it; its points are scan rows.

Perturbation schedule: the kick acts on H after odd steps and on C2
after even steps of the chaotic map (the same logical qubit, since the
labels alternate), and on H after every step of the reference map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import nmr, qstate
from .lindblad import EvolutionEngine, NoiseModel, apply_perturbation, perturbation_unitary, run_sequence
from .nmr import SPIN_C2, SPIN_H, HamiltonianModel

MAP_VARIANTS = ("chaotic", "regular")
MAX_SCAN_STATES = 10  # Bell(10) = 115975 partitions

# noise presets: 1/Gamma in seconds per spin (H, C1, C2)
PRESETS = {
    "fig2": dict(inv_gamma_h=4.0, inv_gamma_c1=0.7, inv_gamma_c2=0.4,
                 steps=6, artificial_perturbation=False),
    "fig3": dict(inv_gamma_h=10.0, inv_gamma_c1=10.0, inv_gamma_c2=0.2,
                 steps=6, artificial_perturbation=False),
    "fig4": dict(inv_gamma_h=10.0, inv_gamma_c1=10.0, inv_gamma_c2=10.0,
                 steps=6, artificial_perturbation=True),
    "fig5": dict(inv_gamma_h=4.0, inv_gamma_c1=0.7, inv_gamma_c2=0.4,
                 steps=3, artificial_perturbation=False),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment run."""

    map_variant: str = "chaotic"
    hamiltonian: str = "noxy"
    inv_gamma_h: float = 4.0
    inv_gamma_c1: float = 0.7
    inv_gamma_c2: float = 0.4
    steps: int = 6
    artificial_perturbation: bool = False
    convention: str = "angular"
    seed: int = 0

    def __post_init__(self):
        if self.map_variant not in MAP_VARIANTS:
            raise ValueError(f"unknown map variant {self.map_variant!r}")
        if self.steps < 1:
            raise ValueError("need at least one step")

    @classmethod
    def preset(cls, name: str, **overrides) -> "ExperimentConfig":
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
        params = dict(PRESETS[name])
        params.update(overrides)
        return cls(**params)

    def noise(self) -> NoiseModel:
        return NoiseModel.from_inverse_times(
            self.inv_gamma_h, self.inv_gamma_c1, self.inv_gamma_c2
        )

    def model(self) -> HamiltonianModel:
        return HamiltonianModel(variant=self.hamiltonian, convention=self.convention)

    def engine(self) -> EvolutionEngine:
        return EvolutionEngine(self.model(), self.noise())


def initial_state() -> np.ndarray:
    """All three spins along +y: ((|0> + i|1>)/sqrt(2))^(x3)."""
    plus_y = np.array([1.0, 1.0j]) / np.sqrt(2)
    return np.kron(np.kron(plus_y, plus_y), plus_y)


def initial_density() -> np.ndarray:
    psi = initial_state()
    return np.outer(psi, psi.conj())


def _step_sequences(config: ExperimentConfig):
    model = config.model()
    if config.map_variant == "chaotic":
        odd, even = nmr.t_odd(model), nmr.t_even(model)
        return lambda n: odd if n % 2 else even
    regular = nmr.t_regular(model)
    return lambda n: regular


def _perturbed_spin(config: ExperimentConfig, step: int) -> str:
    """Kick H after odd chaotic steps and C2 after even ones (the same
    logical qubit under the alternating labels); always H for the
    reference map."""
    if config.map_variant == "chaotic" and step % 2 == 0:
        return SPIN_C2
    return SPIN_H


def entropy_experiment(config: ExperimentConfig) -> list[tuple[int, float]]:
    """Entropy in bits after 0..steps iterations of the chosen map."""
    engine = config.engine()
    seq_for = _step_sequences(config)
    rho = initial_density()
    series = [(0, qstate.von_neumann_entropy_bits(rho))]
    for n in range(1, config.steps + 1):
        rho = run_sequence(rho, seq_for(n), engine)
        if config.artificial_perturbation:
            rho = apply_perturbation(rho, _perturbed_spin(config, n))
        series.append((n, qstate.von_neumann_entropy_bits(rho)))
    return series


def history_ensemble(config: ExperimentConfig, n_steps: int) -> list[np.ndarray]:
    """Final states of all 2**n perturbation histories, in binary order.

    History bit k (most significant first) says whether the kick
    unitary was applied after step k+1.  The all-zero history is the
    unperturbed run.  Histories that share a prefix share its
    evolution: step n is applied once to each of the 2**(n-1) distinct
    states before it, 2**n - 1 step applications in all.
    """
    if n_steps < 1:
        raise ValueError("a history ensemble needs at least one step")
    if n_steps > 6:
        raise ValueError("history ensembles beyond 6 steps are impractical (2^n runs)")
    engine = config.engine()
    seq_for = _step_sequences(config)
    states = [initial_density()]
    for n in range(1, n_steps + 1):
        k = perturbation_unitary(_perturbed_spin(config, n))
        children = []
        for rho in states:
            rho = run_sequence(rho, seq_for(n), engine)
            children += [rho, k @ rho @ k.conj().T]
        states = children
    return states


def subset_entropies(rhos) -> np.ndarray:
    """S(mean of the members in ``mask``) in bits for every nonempty subset.

    Entry ``mask`` scores the states whose indices are the set bits of
    ``mask``; entry 0 is unused.  :func:`partition_scan` scores every
    partition of the ensemble, exhaustive or greedy, on this one table.
    """
    rhos = list(rhos)
    n = len(rhos)
    if not 1 <= n <= MAX_SCAN_STATES:
        raise ValueError(f"subset tables take 1 to {MAX_SCAN_STATES} states, not {n}")
    shape = rhos[0].shape
    if any(r.shape != shape for r in rhos):
        raise ValueError("ensemble members must share a dimension")
    sums = np.zeros((2**n, *shape), dtype=complex)
    for mask in range(1, 2**n):
        # Add members in ascending index order (strip the highest bit),
        # as sum(members) / k does for a group.  The frontier and the
        # Pareto filter compare scores at round-off, so another order
        # moves greedy point counts.  The means are diagonalised in one
        # batch, each exactly as on its own.
        top = mask.bit_length() - 1
        sums[mask] = sums[mask ^ (1 << top)] + rhos[top]
    sizes = np.array([mask.bit_count() for mask in range(1, 2**n)])
    entropies = np.zeros(2**n)
    entropies[1:] = qstate.von_neumann_entropies_bits(sums[1:] / sizes[:, None, None])
    return entropies


@dataclass(frozen=True)
class GroupingStats:
    """The two scores of one partition of a history ensemble, with
    p_r = N_r / N and S_r the entropy of group r in bits."""

    mean_conditional_entropy: float  # S-bar = sum p_r S_r
    information: float              # I = -sum p_r log2 p_r


# grouping_stats and js_distance stay public though the pipeline calls
# neither: perfbench/tracing.py wraps both by name.
def grouping_stats(assignment, entropies) -> GroupingStats:
    """Mean conditional entropy and information cost of ``assignment``
    (a group label per state), scored on the :func:`subset_entropies`
    table of its ensemble: its row of :func:`partition_scan`."""
    assignment = list(assignment)
    n = len(assignment)
    if not 1 <= n <= MAX_SCAN_STATES or 2**n != len(entropies):
        raise ValueError(f"need 1 to {MAX_SCAN_STATES} labels, one per ensemble state")
    by_size, information, _ = _partition_layout(n)
    pos = _partition_position(assignment)
    positions, masks, probs = by_size[len(set(assignment)) - 1]
    row = [np.searchsorted(positions, pos)]
    s_bar = _dots(probs[row], entropies[masks[row]])[0]
    return GroupingStats(float(s_bar), float(information[pos]))


def js_distance(a: np.ndarray, b: np.ndarray) -> float:
    """S((a+b)/2) - (S(a)+S(b))/2 in bits; nonnegative by concavity."""
    if a.shape != b.shape:
        raise ValueError("states must share a dimension")
    s_mix = qstate.von_neumann_entropy_bits((a + b) / 2)
    s_avg = (
        qstate.von_neumann_entropy_bits(a) + qstate.von_neumann_entropy_bits(b)
    ) / 2
    return max(s_mix - s_avg, 0.0)


def greedy_grouping(rhos, entropies, seeds, memo=None) -> list[int]:
    """Nearly optimal grouping into ``len(seeds)`` clusters.

    Group ``g`` starts as the single member ``seeds[g]``; each remaining
    state, in list order, joins the group whose running average is
    closest in :func:`js_distance` (the first of equal distances, as
    ``np.argmin`` picks).  ``entropies`` is the :func:`subset_entropies`
    table of ``rhos``: entry ``1 << i`` is S(rhos[i]).  A group's entropy
    is recomputed when it gains a member (except on the last placement,
    which nothing reads), and each distance equals :func:`js_distance`.

    A group's running sum is ``rhos[seed]`` plus its other members in
    ascending order, so an entropy depends only on the seed, the member
    mask and, for a candidate mixture, the index of the state placed.
    ``memo`` maps those keys, ``(seed, mask, idx)`` for a mixture and
    ``(seed, mask)`` for a grown group, to entropies in bits.  Runs on
    the same ensemble may share one dict; it changes no result, and
    only its misses are diagonalised, the mixtures of one placement in
    one batched ``eigvalsh``.
    """
    rhos = list(rhos)
    n = len(rhos)
    n_groups = len(seeds)
    if 2**n != len(entropies):
        raise ValueError("the entropy table must have 2**n entries for n states")
    if not seeds or len(set(seeds)) != n_groups or not set(seeds) <= set(range(n)):
        raise ValueError("seeds must be distinct member indices, at least one")
    memo = {} if memo is None else memo
    assignment = [-1] * n
    for g, idx in enumerate(seeds):
        assignment[idx] = g
    sums = np.array([rhos[idx] for idx in seeds])
    counts = np.ones(n_groups)
    masks = [1 << idx for idx in seeds]
    group_entropies = [float(entropies[mask]) for mask in masks]
    pending = [idx for idx in range(n) if assignment[idx] < 0]
    for idx in pending:
        s_rho = float(entropies[1 << idx])
        keys = [(seed, mask, idx) for seed, mask in zip(seeds, masks)]
        misses = [g for g, key in enumerate(keys) if key not in memo]
        if misses:
            mixed = (sums[misses] / counts[misses, None, None] + rhos[idx]) / 2
            memo.update(zip([keys[g] for g in misses], qstate.von_neumann_entropies_bits(mixed)))
        # js_distance's own expression, so each distance equals it bit for bit
        dists = [max(memo[key] - (s_g + s_rho) / 2, 0.0) for key, s_g in zip(keys, group_entropies)]
        g = dists.index(min(dists))
        assignment[idx] = g
        sums[g] += rhos[idx]
        counts[g] += 1
        masks[g] |= 1 << idx
        if idx != pending[-1]:  # nothing reads the entropy after the last placement
            key = (seeds[g], masks[g])
            if key not in memo:
                memo[key] = qstate.von_neumann_entropy_bits(sums[g] / counts[g])
            group_entropies[g] = memo[key]
    return assignment


def set_partitions(n: int):
    """All partitions of range(n) as restricted-growth strings.

    a[k] is the group of element k, with a[k] <= 1 + max(a[:k]); the
    number of strings is the Bell number B(n).
    """
    if n < 1:
        raise ValueError("need at least one element")
    a = [0] * n
    b = [1] * n  # b[k] = 1 + max(a[:k])
    while True:
        yield tuple(a)
        j = n - 1
        while j > 0 and a[j] == b[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        top = max(b[j], a[j] + 1)
        for k in range(j + 1, n):
            a[k] = 0
            b[k] = top


@dataclass(frozen=True)
class HypersensitivityCurve:
    """Minimum information vs entropy reduction, from the exhaustive scan."""

    delta_s: np.ndarray
    i_min: np.ndarray

    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.delta_s.tolist(), self.i_min.tolist()))


@lru_cache(maxsize=MAX_SCAN_STATES)
def _partition_layout(n: int):
    """Every set partition of range(n), grouped by its number of groups k.

    Returns ``(by_size, information, keys)``.  ``by_size`` holds, for
    each k, the partitions' positions in :func:`set_partitions` order,
    their (count, k) group masks in first-appearance order and the
    matching group probabilities N_r / n; ``information`` is I of every
    partition in that order, which depends on its shape alone; ``keys``
    reads each string in base n, ascending as the strings are in
    lexicographic order.  Built on first use and read-only, since every
    scan of an n-state ensemble shares it.
    """
    strings = np.array(list(set_partitions(n)))
    keys = strings @ n ** np.arange(n - 1, -1, -1)  # < n**n <= 10**10, fits int64
    sizes = strings.max(axis=1) + 1
    bits = 1 << np.arange(n)
    by_size = []
    information = np.empty(len(strings))
    for k in range(1, n + 1):
        positions = np.flatnonzero(sizes == k)
        members = strings[positions, None, :] == np.arange(k)[:, None]  # (count, k, n)
        masks = members @ bits
        probs = members.sum(axis=2) / n
        information[positions] = 0.0 - _dots(probs, np.log2(probs))
        by_size.append((positions, masks, probs))
    for array in (information, keys, *(a for group in by_size for a in group)):
        array.flags.writeable = False
    return tuple(by_size), information, keys


def _partition_position(assignment) -> int:
    """Position in :func:`set_partitions` order of ``assignment`` (a group
    label per state), relabelled by first appearance as those strings are."""
    labels: dict = {}
    n = len(assignment)
    key = 0
    for g in assignment:
        key = key * n + labels.setdefault(g, len(labels))
    return int(np.searchsorted(_partition_layout(n)[2], key))


def _dots(a, b) -> np.ndarray:
    """Row-wise dot products, each the ``ddot`` of ``a[i] @ b[i]``
    (an ``einsum`` or ``.sum`` would round differently)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def partition_scan(entropies) -> tuple[np.ndarray, np.ndarray, float]:
    """(delta_s, information, S_bar_max) over every set partition of the
    ensemble whose :func:`subset_entropies` table is ``entropies``, in
    :func:`set_partitions` order; S-bar of each is the ``ddot`` of its
    group probabilities and entropies in first-appearance order."""
    n = len(entropies).bit_length() - 1
    # taking S_bar_max from the same table keeps the trivial one-group
    # partition at delta_s = 0 exactly
    s_max = float(entropies[-1])
    by_size, information, _ = _partition_layout(n)
    delta_s = np.empty(len(information))
    for positions, masks, probs in by_size:
        delta_s[positions] = s_max - _dots(probs, entropies[masks])
    return delta_s, information.copy(), s_max


def _frontier_from_scan(delta_s, info) -> HypersensitivityCurve:
    """I_min(x) = min{ I : partition achieves delta_s >= x }, on the grid of
    all achieved delta_s values; nondecreasing by construction."""
    order = np.argsort(delta_s)[::-1]  # descending delta_s
    d_sorted = delta_s[order]
    i_suffix = np.minimum.accumulate(info[order])
    # keep one point per distinct delta_s (the running minimum I)
    grid, imin = [], []
    for d, i in zip(d_sorted, i_suffix):
        if grid and math.isclose(d, grid[-1], rel_tol=0, abs_tol=1e-12):
            imin[-1] = i
        else:
            grid.append(d)
            imin.append(i)
    return HypersensitivityCurve(delta_s=np.array(grid[::-1]), i_min=np.array(imin[::-1]))


def _pareto_points(points) -> list[tuple[float, float]]:
    """Keep the nondominated (delta_s high, information low) corner."""
    best = []
    for d, i in sorted(points, key=lambda p: (-p[0], p[1])):
        if not best or i < best[-1][1] - 1e-12:
            best.append((d, i))
    return best[::-1]


def frontier_slope(curve: HypersensitivityCurve) -> float:
    """Least-squares slope of I_min vs delta_s over the interior of the
    achieved range, 20-80 % of its maximum (the saturated ends are excluded)."""
    lo = curve.delta_s.max() * 0.2
    hi = curve.delta_s.max() * 0.8
    mask = (curve.delta_s >= lo) & (curve.delta_s <= hi)
    if mask.sum() < 2:
        return float("nan")
    return float(np.polyfit(curve.delta_s[mask], curve.i_min[mask], 1)[0])


@dataclass(frozen=True)
class HyperResult:
    s_bar_max: float
    frontier: HypersensitivityCurve
    slope: float
    greedy_points: list
    n_partitions: int


GREEDY_RESTARTS = 64


def hypersensitivity_experiment(config: ExperimentConfig, n_steps: int = 3) -> HyperResult:
    """Full pipeline: ensemble, exact frontier, slope, greedy comparison.

    The greedy pass draws :data:`GREEDY_RESTARTS` seedings per group
    count and keeps the nondominated (delta_s, information) points.
    Restarts that draw the same seed members in the same order give the
    same grouping, so :func:`greedy_grouping` runs once per distinct
    ordered draw, and all runs share one entropy memo; each grouping is a
    set partition, read from the scan at its :func:`_partition_position`.
    """
    if n_steps < 1:
        raise ValueError("the experiment needs at least one step")
    if 2**n_steps > MAX_SCAN_STATES:
        raise ValueError(
            f"{n_steps} steps give {2**n_steps} histories; the exhaustive"
            f" partition scan is limited to {MAX_SCAN_STATES} states"
        )
    rhos = history_ensemble(config, n_steps)
    entropies = subset_entropies(rhos)
    delta_s, info, s_max = partition_scan(entropies)
    frontier = _frontier_from_scan(delta_s, info)
    slope = frontier_slope(frontier)
    # sorted draws would not do: argmin breaks exact ties by group order
    greedy, memo = {}, {}
    for n_groups in range(1, len(rhos) + 1):
        for trial in range(GREEDY_RESTARTS):
            rng = np.random.default_rng([config.seed, n_groups, trial])
            draw = tuple(rng.choice(len(rhos), size=n_groups, replace=False).tolist())
            if draw not in greedy:
                pos = _partition_position(greedy_grouping(rhos, entropies, draw, memo))
                greedy[draw] = (float(delta_s[pos]), float(info[pos]))
    return HyperResult(
        s_bar_max=s_max,
        frontier=frontier,
        slope=slope,
        greedy_points=_pareto_points(greedy.values()),
        n_partitions=len(delta_s),
    )
