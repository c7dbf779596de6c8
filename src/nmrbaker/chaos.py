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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import nmr, qstate
from .lindblad import EvolutionEngine, NoiseModel, run_sequence
from .nmr import LIFTED_PAULI, SPIN_C2, SPIN_H, HamiltonianModel, PulseSequence

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
    """Everything needed to reproduce one experiment run; each CLI flag
    sets the field its destination names."""

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
        if self.seed < 0:
            raise ValueError(f"the greedy seed must be >= 0, got seed={self.seed}")

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


def _steps(config: ExperimentConfig, n_steps: int) -> list[tuple[PulseSequence, np.ndarray]]:
    """(program, Z of the kicked spin) for each of steps 1..n_steps: the
    chaotic map alternates ``t_odd`` and ``t_even`` and kicks H after odd
    steps and C2 after even ones (the same logical qubit, since the labels
    alternate); the reference map runs ``t_regular`` and kicks H."""
    model = config.model()
    if config.map_variant == "chaotic":
        odd = nmr.t_odd(model), LIFTED_PAULI["Z", SPIN_H]
        even = nmr.t_even(model), LIFTED_PAULI["Z", SPIN_C2]
        return [odd if n % 2 else even for n in range(1, n_steps + 1)]
    return [(nmr.t_regular(model), LIFTED_PAULI["Z", SPIN_H])] * n_steps


def _averaged_kick(rho: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(rho + Z rho Z)/2, the average of the kicked and unkicked branches:
    idempotent and unital, it kills every matrix element connecting
    opposite Z eigenspaces of the kicked spin."""
    return (rho + z @ rho @ z) / 2


def entropy_experiment(config: ExperimentConfig) -> list[tuple[int, float]]:
    """Entropy in bits after 0..steps iterations of the chosen map."""
    engine = config.engine()
    rho = initial_density()
    series = [(0, qstate.von_neumann_entropy_bits(rho))]
    for n, (program, z) in enumerate(_steps(config, config.steps), start=1):
        rho = run_sequence(rho, program, engine)
        if config.artificial_perturbation:
            rho = _averaged_kick(rho, z)
        series.append((n, qstate.von_neumann_entropy_bits(rho)))
    return series


def history_ensemble(config: ExperimentConfig, n_steps: int) -> list[np.ndarray]:
    """Final states of all 2**n perturbation histories, in binary order.

    History bit k (most significant first) says whether the kick
    Z rho Z was applied after step k+1.  The all-zero history is the
    unperturbed run.  Histories that share a prefix share its
    evolution: step n is applied once to each of the 2**(n-1) distinct
    states before it, 2**n - 1 step applications in all.
    """
    if n_steps < 1:
        raise ValueError("a history ensemble needs at least one step")
    if n_steps > 6:
        raise ValueError("history ensembles beyond 6 steps are impractical (2^n runs)")
    engine = config.engine()
    states = [initial_density()]
    for program, z in _steps(config, n_steps):
        children = []
        for rho in states:
            rho = run_sequence(rho, program, engine)
            children += [rho, z @ rho @ z]
        states = children
    return states


def subset_means(rhos) -> np.ndarray:
    """The (2**n, d, d) table of member means: entry ``mask`` averages the
    states whose indices are the set bits of ``mask``; entry 0 is zero.

    Members are added in ascending index order (a mask with highest bit
    ``top`` is its rest plus ``rhos[top]``), as sum(members) / k does for a
    group: the frontier and the Pareto filter compare scores at round-off,
    so another order moves greedy point counts.
    """
    rhos = list(rhos)
    n = len(rhos)
    if not 1 <= n <= MAX_SCAN_STATES:
        raise ValueError(f"subset tables take 1 to {MAX_SCAN_STATES} states, not {n}")
    shape = rhos[0].shape
    if any(r.shape != shape for r in rhos):
        raise ValueError("ensemble members must share a dimension")
    means = np.zeros((2**n, *shape), dtype=complex)
    for top, rho in enumerate(rhos):
        means[1 << top:2 << top] = means[:1 << top] + rho
    means[1:] /= np.array([mask.bit_count() for mask in range(1, 2**n)])[:, None, None]
    return means


def subset_entropies(means) -> np.ndarray:
    """S(``means[mask]``) in bits for every nonempty subset of the
    :func:`subset_means` table, diagonalised in one batch, each exactly as
    on its own; entry 0 is unused.  :func:`partition_scan` scores every
    partition of the ensemble, exhaustive or greedy, on this one table.
    """
    n = len(means).bit_length() - 1
    if not 1 <= n <= MAX_SCAN_STATES or 2**n != len(means):
        raise ValueError(f"need a table of 2**n means for 1 to {MAX_SCAN_STATES} states")
    entropies = np.zeros(2**n)
    entropies[1:] = qstate.von_neumann_entropies_bits(means[1:])
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
    pos = _partition_positions([assignment])[0]
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


def greedy_groupings(means, entropies, draws, table=None) -> np.ndarray:
    """Nearly optimal groupings of an ensemble, one row of labels per draw.

    ``means`` and ``entropies`` are the :func:`subset_means` and
    :func:`subset_entropies` tables of the ensemble's n states.  Each row
    of ``draws`` seeds ``k`` groups: group ``g`` starts as the single
    member ``draw[g]``.  Each remaining state, in list order, joins the
    group closest to it in :func:`js_distance` (the first of equal
    distances, as ``np.argmin`` picks).  A group is its member mask: its
    state is ``means[mask]`` and its entropy ``entropies[mask]``.  The
    draws run in lockstep, one placement at a time for all rows.

    The entropy of a candidate mixture ``(means[mask] + means[1 << idx]) / 2``
    depends only on ``mask`` and the index of the state placed.  ``table``
    (2**n, n), NaN where unknown, holds it in bits at ``[mask, idx]``.
    Runs on the same ensemble may share one table; it changes no result,
    and each placement diagonalises its distinct misses in one batched
    ``eigvalsh``.
    """
    means, entropies = np.asarray(means), np.asarray(entropies)
    n = len(entropies).bit_length() - 1
    if 2**n != len(entropies) or len(means) != len(entropies):
        raise ValueError("the mean and entropy tables must have 2**n entries for n states")
    draws = np.asarray(draws)
    if (draws.ndim != 2 or not draws.shape[1] or not np.issubdtype(draws.dtype, np.integer)
            or (draws < 0).any() or (draws >= n).any()
            or (np.diff(np.sort(draws, axis=1), axis=1) == 0).any()):
        raise ValueError("seeds must be distinct member indices, at least one")
    if table is None:
        table = np.full((2**n, n), np.nan)
    if table.shape != (2**n, n) or not table.flags.c_contiguous:
        raise ValueError("the entropy memo must be a C-contiguous (2**n, n) array")
    flat = table.reshape(-1)
    runs, k = draws.shape
    run = np.arange(runs)
    labels = np.full((runs, n), -1)
    labels[run[:, None], draws] = np.arange(k)
    pending = np.nonzero(labels < 0)[1].reshape(runs, n - k)  # ascending in each run
    bits = 1 << np.arange(n)
    masks = bits[draws]
    for step in range(n - k):
        idx = pending[:, step]
        keys = masks * n + idx[:, None]
        new = np.unique(keys[np.isnan(flat[keys])])
        if len(new):
            mask, placed = np.divmod(new, n)
            flat[new] = qstate.von_neumann_entropies_bits((means[mask] + means[bits[placed]]) / 2)
        # js_distance's own expression, so each distance equals it bit for bit
        dists = np.maximum(flat[keys] - (entropies[masks] + entropies[bits[idx]][:, None]) / 2, 0.0)
        g = dists.argmin(axis=1)
        labels[run, idx] = g
        masks[run, g] |= bits[idx]
    return labels


def greedy_grouping(means, entropies, seeds, table=None) -> list[int]:
    """Nearly optimal grouping into ``len(seeds)`` clusters, group ``g``
    seeded by ``seeds[g]``: the one-draw :func:`greedy_groupings`, its row
    as a list of group labels."""
    return greedy_groupings(means, entropies, [seeds], table)[0].tolist()


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


def _partition_positions(labels) -> np.ndarray:
    """Position in :func:`set_partitions` order of each row of ``labels``
    (a group label per state), relabelled by first appearance as those
    strings are."""
    labels = np.asarray(labels)
    n = labels.shape[1]
    first = (labels[:, :, None] == labels[:, None, :]).argmax(axis=2)  # first equal label
    strings = np.take_along_axis(np.cumsum(first == np.arange(n), axis=1) - 1, first, axis=1)
    return np.searchsorted(_partition_layout(n)[2], strings @ n ** np.arange(n - 1, -1, -1))


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
    if not 1 <= n <= MAX_SCAN_STATES or 2**n != len(entropies):
        raise ValueError(f"need a table of 2**n entries for 1 to {MAX_SCAN_STATES} states")
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
    # one point per run of delta_s values each within 1e-12 of the one
    # before: the run's first delta_s, with the running minimum I at its end
    starts = np.flatnonzero(np.abs(np.diff(d_sorted, prepend=np.inf)) > 1e-12)
    ends = np.append(starts[1:], len(d_sorted)) - 1
    return HypersensitivityCurve(delta_s=d_sorted[starts][::-1], i_min=i_suffix[ends][::-1])


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


def hypersensitivity_experiment(config: ExperimentConfig, n_steps: int | None = None) -> HyperResult:
    """Full pipeline: ensemble, exact frontier, slope, greedy comparison.

    The history ensemble runs ``n_steps`` steps, ``config.steps`` unless
    given; 2**n_steps histories must fit the exhaustive scan.

    The greedy pass draws :data:`GREEDY_RESTARTS` seedings for each of 2
    to n-1 groups (1 and n give the first and the last scan row whatever
    the seeds) and keeps the nondominated (delta_s, information) points.
    The distinct ordered draws of one group count, in draw order, run in
    lockstep through one :func:`greedy_groupings` call.  The exhaustive
    scan and greedy read one :func:`subset_means` table and its
    :func:`subset_entropies`; every group count shares one memo of mixture
    entropies, and each grouping is the scan row at its
    :func:`_partition_positions`.
    """
    n_steps = config.steps if n_steps is None else n_steps
    if n_steps < 1:
        raise ValueError("the experiment needs at least one step")
    if 2**n_steps > MAX_SCAN_STATES:
        raise ValueError(
            f"{n_steps} steps give {2**n_steps} histories; the exhaustive"
            f" partition scan is limited to {MAX_SCAN_STATES} states"
        )
    means = subset_means(history_ensemble(config, n_steps))
    entropies = subset_entropies(means)
    delta_s, info, s_max = partition_scan(entropies)
    frontier = _frontier_from_scan(delta_s, info)
    slope = frontier_slope(frontier)
    first, last = ((float(delta_s[pos]), float(info[pos])) for pos in (0, -1))
    n = 2**n_steps  # histories
    points, table = [first], np.full((2**n, n), np.nan)
    for n_groups in range(2, n):
        # sorted draws would not do: argmin breaks exact ties by group order
        draws = dict.fromkeys(
            tuple(np.random.default_rng([config.seed, n_groups, trial])
                  .choice(n, size=n_groups, replace=False).tolist())
            for trial in range(GREEDY_RESTARTS))
        pos = _partition_positions(greedy_groupings(means, entropies, list(draws), table))
        points += zip(delta_s[pos].tolist(), info[pos].tolist())
    return HyperResult(
        s_bar_max=s_max,
        frontier=frontier,
        slope=slope,
        greedy_points=_pareto_points([*points, last]),
        n_partitions=len(delta_s),
    )
