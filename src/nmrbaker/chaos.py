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

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import nmr, qstate
from .lindblad import DIM, EvolutionEngine, NoiseModel, _check_evolved, _evolve
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
        # operator.index raises TypeError on a float or other non-integral
        # value here, before any engine is built
        if operator.index(self.steps) < 1:
            raise ValueError("need at least one step")
        if operator.index(self.seed) < 0:
            raise ValueError(f"the greedy seed must be >= 0, got seed={self.seed}")
        if not isinstance(self.artificial_perturbation, (bool, np.bool_)):  # it sizes entropy_run's stack
            raise ValueError(f"artificial_perturbation must be a bool, got {self.artificial_perturbation!r}")

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
    """|psi><psi| of :func:`initial_state`: a copy of the one built at import."""
    return _INITIAL_DENSITY.copy()


_INITIAL_DENSITY = np.outer(initial_state(), initial_state().conj())
_INITIAL_DENSITY.flags.writeable = False  # every run starts from it


@lru_cache(maxsize=64)
def _programs(model: HamiltonianModel) -> tuple[PulseSequence, PulseSequence, PulseSequence]:
    """(``t_odd``, ``t_even``, ``t_regular``) of one model, built once:
    programs are immutable, and engines resolve each once by value."""
    return nmr.t_odd(model), nmr.t_even(model), nmr.t_regular(model)


def _steps(config: ExperimentConfig, engine: EvolutionEngine, n_steps: int) -> list[tuple]:
    """(operators, Z of the kicked spin) for each of steps 1..n_steps: the
    chaotic map alternates ``t_odd`` and ``t_even`` and kicks H after odd
    steps and C2 after even ones (the same logical qubit, since the labels
    alternate); the reference map runs ``t_regular`` and kicks H.  Only
    the programs used are resolved, once: a ``full`` engine pays expm."""
    t_odd, t_even, t_regular = _programs(engine.model)
    cycle = ([(t_odd, SPIN_H), (t_even, SPIN_C2)][:n_steps] if config.map_variant == "chaotic"
             else [(t_regular, SPIN_H)])
    resolved = [(engine.operators(program), LIFTED_PAULI["Z", spin]) for program, spin in cycle]
    return [resolved[n % len(resolved)] for n in range(n_steps)]


def _averaged_kick(rho: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(rho + Z rho Z)/2, the average of the kicked and unkicked branches:
    idempotent and unital, it kills every matrix element connecting
    opposite Z eigenspaces of the kicked spin.  Neither kick of a valid rho
    needs a check: Z rho Z (Z a +-1 diagonal) has rho's trace, hermiticity
    defect and spectrum, and the average is a convex mix of the two."""
    return (rho + z @ rho @ z) / 2


def entropy_run(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """``(states, spectra)``: each step's evolved state, then in a perturbed
    run each step's averaged kick, in one stack allocated first (a step count
    past memory fails at once), and the eigenvalues of the one
    :func:`lindblad._check_evolved` call that checks it, evolved states first,
    so a defect shows before a kick could average it away."""
    states = np.empty(((1 + config.artificial_perturbation) * config.steps, DIM, DIM), dtype=complex)
    rho = _INITIAL_DENSITY
    # past a bad step the state may overflow; the check reports that step
    with np.errstate(over="ignore", invalid="ignore"):
        for n, (operators, z) in enumerate(_steps(config, config.engine(), config.steps)):
            states[n] = rho = _evolve(rho, operators)
            if config.artificial_perturbation:
                states[config.steps + n] = rho = _averaged_kick(rho, z)
    return states, _check_evolved(states)


@lru_cache(maxsize=1)  # on first use: at import every process would pay its eigvalsh
def _initial_entropy() -> float:
    return qstate.von_neumann_entropy_bits(_INITIAL_DENSITY)


def entropy_experiment(config: ExperimentConfig) -> list[tuple[int, float]]:
    """Entropy in bits after 0..steps iterations of the chosen map: S(rho_0),
    then each of the last ``steps`` :func:`entropy_run` rows' from its spectra."""
    spectra = entropy_run(config)[1][-config.steps:]
    return list(enumerate([_initial_entropy(), *qstate.spectrum_entropies_bits(spectra).tolist()]))


def history_ensemble(config: ExperimentConfig, n_steps: int) -> list[np.ndarray]:
    """Final states of all 2**n perturbation histories, in binary order.

    History bit k (most significant first) says whether the kick
    Z rho Z was applied after step k+1.  The all-zero history is the
    unperturbed run.  Histories that share a prefix share its
    evolution: step n is applied once to each of the 2**(n-1) distinct
    states before it, 2**n - 1 step applications in all, as one stacked
    :func:`lindblad._evolve` per step followed by one stacked kick.  The
    evolved states of every step are then checked in one
    :func:`lindblad._check_evolved` call, step by step in order.
    """
    n_steps = operator.index(n_steps)  # a float or a string raises TypeError before any engine
    if n_steps < 1:
        raise ValueError("a history ensemble needs at least one step")
    if n_steps > 6:
        raise ValueError("history ensembles beyond 6 steps are impractical (2^n runs)")
    engine = config.engine()
    evolved = np.empty((2**n_steps - 1, DIM, DIM), dtype=complex)  # step k's at 2**k - 1
    states = _INITIAL_DENSITY[None]
    with np.errstate(over="ignore", invalid="ignore"):  # as in entropy_experiment
        for k, (operators, z) in enumerate(_steps(config, engine, n_steps)):
            states = evolved[2**k - 1:2**(k + 1) - 1] = _evolve(states, operators)
            # each state, then its kicked copy: the children in binary order
            states = np.stack([states, z @ states @ z], axis=1).reshape(-1, *states.shape[1:])
    _check_evolved(evolved)
    return list(states)


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


def _distinct_means(means) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, first)`` of a :func:`subset_means` table: ``ids[mask]``
    numbers the distinct nonempty means by their exact bytes from 1, mask 0
    alone has id 0, and ``first[id]`` is the lowest mask holding each.  When
    the members are distinct by their bytes (the chaotic map), both are
    ``arange``: distinct means are not looked for.  When members repeat a
    state (the regular map's ensemble is two states), equal means are found
    by one sort of the nonempty means' bytes and one compare of neighbours,
    which takes under half the time of a dict keyed by each mean's
    ``tobytes()`` on a fig5 regular table.
    """
    n = len(means).bit_length() - 1
    if len({member.tobytes() for member in means[1 << np.arange(n)]}) == n:
        return np.arange(len(means)), np.arange(len(means))
    flat = np.ascontiguousarray(means).reshape(len(means), -1)
    order = 1 + np.argsort(flat.view(f"V{flat[0].nbytes}")[1:, 0], kind="stable")  # equal bytes ascending by mask
    sorted_bytes = flat[order].view(np.int64)
    new = np.append(True, (sorted_bytes[1:] != sorted_bytes[:-1]).any(axis=1))
    ids = np.zeros(len(means), np.int64)
    ids[order] = np.cumsum(new)
    return ids, np.append(0, order[new])


@lru_cache(maxsize=MAX_SCAN_STATES)
def _flip_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, first)`` of the orbits of the masks of ``n`` members under
    the flip that swaps members 2i and 2i + 1, in :func:`_distinct_means`'
    form: ``ids[mask]`` numbers each orbit from 1 by its lowest mask, mask 0
    alone has id 0, and ``first[id]`` is that lowest mask.  8 members give
    15 nonempty masks the flip fixes and 120 pairs: 135 orbits.

    :func:`history_ensemble` puts each final state rho_2i's kicked copy
    rho_2i+1 = Z rho_2i Z right after it, with Z the last step's kick, a
    +-1 diagonal, so Z Z = 1 and the flip maps rho_i to Z rho_i Z.  A
    subset S of k members and its flip S' then have the means M(S') =
    sum_{i in S} Z rho_i Z / k = Z M(S) Z, a unitary conjugate of M(S) with
    its spectrum and entropy.  Only this i <-> i XOR 1 symmetry is used.  A
    flipped mean is summed in another member order, so its own entropy
    differs from its orbit's at round-off (at most 2.2e-15 bits on the
    chaotic tables of 1 to 3 steps).  ``n`` = 2**steps is even.  Built on
    first use and read-only, as :func:`_partition_layout` is.
    """
    members = np.arange(n)
    masks = np.arange(2**n)
    flipped = (masks[:, None] >> members & 1) @ (1 << (members ^ 1))
    first = np.flatnonzero(masks <= flipped)  # the lowest mask of each orbit, ascending
    ids = np.searchsorted(first, np.minimum(masks, flipped))
    for array in (ids, first):
        array.flags.writeable = False
    return ids, first


def subset_entropies(means) -> np.ndarray:
    """S(``means[mask]``) in bits for every nonempty subset of the
    :func:`subset_means` table, diagonalised in one batch, each exactly as
    on its own; entry 0 is 0.  When members repeat a state, each distinct
    mean (:func:`_distinct_means`) is diagonalised once and its entropy
    copied to every mask that holds it: 24 of 255 for the regular map's 8
    histories at fig5 noise.  ``eigvalsh`` handles each matrix of a stack on
    its own, so every entropy, and every error, is the plain batch's.
    :func:`partition_scan` scores every partition of the ensemble,
    exhaustive or greedy, on this one table.  An arbitrary table has no
    flip symmetry, so this never reads :func:`_flip_classes`; only
    :func:`hypersensitivity_experiment`, whose table is a history
    ensemble's, does.
    """
    n = len(means).bit_length() - 1
    if not 1 <= n <= MAX_SCAN_STATES or 2**n != len(means):
        raise ValueError(f"need a table of 2**n means for 1 to {MAX_SCAN_STATES} states")
    return _subset_entropies(means, *_distinct_means(means))


def _subset_entropies(means, ids, first) -> np.ndarray:
    """:func:`subset_entropies` of a valid table whose :func:`_distinct_means` are ``ids, first``."""
    return np.append(0.0, qstate.von_neumann_entropies_bits(means[first[1:]]))[ids]


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
    (a group label per state, any distinct values), scored on the
    :func:`subset_entropies` table of its ensemble: its row of
    :func:`partition_scan`, found from the member mask of each label as
    greedy's rows are (:func:`_scan_positions`)."""
    assignment = list(assignment)
    n = len(assignment)
    if not 1 <= n <= MAX_SCAN_STATES or 2**n != len(entropies):
        raise ValueError(f"need 1 to {MAX_SCAN_STATES} labels, one per ensemble state")
    groups = np.unique(assignment, return_inverse=True)[1]
    pos = _scan_positions(np.bincount(groups, 1 << np.arange(n)).astype(np.int64)[None], n)[0]
    by_size, information, _, _ = _partition_layout(n)
    positions, masks, probs = by_size[groups.max()]
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


def _unique(values) -> np.ndarray:
    """``np.unique`` of integers (numpy 2.4's imports ``numpy.ma``): sorted, each that differs from the last."""
    values = np.sort(values, axis=None)
    return np.concatenate([values[:1], values[1:][values[1:] != values[:-1]]])


def greedy_groupings(means, entropies, seeds) -> np.ndarray:
    """Nearly optimal groupings of an ensemble, one row of group masks per seed row.

    ``means`` and ``entropies`` are the :func:`subset_means` and
    :func:`subset_entropies` tables of the ensemble's n states.  ``seeds``
    is a (runs, groups) integer array of one-member masks, 0 for an unused
    slot, as :func:`greedy_draws` returns: group ``g`` of a run starts as
    mask ``seeds[run, g]``.  Each remaining state, in list order, joins the
    group closest to it in :func:`js_distance` (the first of equal
    distances, as ``np.argmin`` picks).  A group is its member mask: its
    state is ``means[mask]`` and its entropy ``entropies[mask]``.  The runs
    grow a copy of ``seeds`` in lockstep, one placement at a time for every
    run with a state left to place; unused slots read distance +inf, so no
    state joins them.  The grown masks are returned: an unused slot stays 0.

    The entropy of a candidate mixture ``(means[mask] + means[1 << idx]) / 2``
    depends only on the bytes of its two terms.  So a memo holds it in bits
    at ``[ids[mask], cls[idx]]``: the id of the group's mean among the
    distinct means of the table (:func:`_distinct_means`) and the class of
    the placed state, the lowest member with its bytes.  For distinct
    members both are the mask and the index themselves.  Each candidate is
    one read.  A one-member group starts as ``entropies[mask | 1 << idx]``,
    the same matrix summed in the same order, and mask 0 as a placeholder;
    the rest are NaN until a placement diagonalises its distinct misses in
    one batched ``eigvalsh``, each built from the lowest mask of its id and
    the lowest member of its class.  So each key is diagonalised at most
    once per call, and every entropy is its matrix's own.
    """
    means, entropies = np.asarray(means), np.asarray(entropies)
    n = len(entropies).bit_length() - 1
    if 2**n != len(entropies) or len(means) != len(entropies):
        raise ValueError("the mean and entropy tables must have 2**n entries for n states")
    bad_seeds = "seeds must be a 2-D integer array of one-member masks, distinct and at least one per row"
    masks = np.asarray(seeds)
    if masks.ndim != 2 or not len(masks) or not np.issubdtype(masks.dtype, np.integer):
        raise ValueError(bad_seeds)
    masks = masks.astype(np.int64, copy=False)
    union = np.bitwise_or.reduce(masks, axis=1)
    if (((masks < 0) | (masks >= 1 << n) | ((masks & (masks - 1)) != 0)).any() or not union.all()
            or (masks.sum(axis=1) != union).any()):  # a repeated member: a row sums past its OR
        raise ValueError(bad_seeds)
    return _greedy_groupings(means, entropies, masks, *_distinct_means(means))


def _greedy_groupings(means, entropies, seeds, ids, first) -> np.ndarray:
    """:func:`greedy_groupings` of valid int64 ``seeds`` on a table whose
    :func:`_distinct_means` are ``ids, first``; ``seeds`` is not written."""
    n = len(entropies).bit_length() - 1
    masks = seeds.copy()  # the groups grow in place
    union = np.bitwise_or.reduce(masks, axis=1)
    bits = 1 << np.arange(n)
    cls = (ids[bits][:, None] == ids[bits]).argmax(axis=1)  # the lowest member with each one's bytes
    memo = np.full((len(first), n), np.nan)
    memo[0] = 0.0  # mask 0, an unused slot: its distance is forced to +inf
    memo[ids[bits][:, None], cls] = entropies[bits[:, None] | bits]
    memo = memo.reshape(-1)  # at id * n + class
    sizes = (masks != 0).sum(axis=1)
    pending = np.argsort((union[:, None] & bits) != 0, axis=1, kind="stable")  # unplaced states first
    for step in range(n - sizes.min()):
        rows = np.flatnonzero(sizes < n - step)  # the runs with a state left to place
        idx = pending[rows, step]
        m = masks[rows]
        keys = ids[m] * n + cls[idx][:, None]
        new = _unique(keys[np.isnan(memo[keys])])
        if len(new):
            mean, member = np.divmod(new, n)
            memo[new] = qstate.von_neumann_entropies_bits((means[first[mean]] + means[bits[member]]) / 2)
        # js_distance's own expression, so each distance equals it bit for bit
        dists = np.maximum(memo[keys] - (entropies[m] + entropies[bits[idx]][:, None]) / 2, 0.0)
        dists[m == 0] = np.inf
        masks[rows, dists.argmin(axis=1)] |= bits[idx]
    return masks


def greedy_grouping(means, entropies, seeds) -> list[int]:
    """Nearly optimal grouping into ``len(seeds)`` clusters, group ``g``
    seeded by member ``seeds[g]``: the one-row :func:`greedy_groupings`,
    each state labelled by the slot of the grown mask that holds it."""
    masks = greedy_groupings(means, entropies, [[1 << operator.index(seed) for seed in seeds]])[0]
    return (masks[:, None] >> np.arange(len(entropies).bit_length() - 1) & 1).argmax(axis=0).tolist()


def set_partitions(n: int) -> np.ndarray:
    """All partitions of range(n) as the (B(n), n) int64 array of their
    restricted-growth strings, in lexicographic order.

    a[k] is the group of element k, with a[k] <= 1 + max(a[:k]); B(n) is
    the Bell number.  Each string of the first k elements is followed by
    itself extended with 0 .. max + 1, one prefix level at a time.
    """
    if n < 1:
        raise ValueError("need at least one element")
    if n > MAX_SCAN_STATES:  # the array is built whole: Bell(13) strings take 2.9 GB
        raise ValueError(f"the exhaustive partition scan is limited to {MAX_SCAN_STATES} states, not {n}")
    strings = np.zeros((1, n), np.int64)
    for k in range(1, n):
        children = strings[:, :k].max(axis=1) + 2
        strings = strings.repeat(children, axis=0)
        strings[:, k] = np.arange(len(strings)) - np.repeat(np.cumsum(children) - children, children)
    return strings


@dataclass(frozen=True)
class HypersensitivityCurve:
    """Minimum information vs entropy reduction, from the exhaustive scan.

    I_min is a nondecreasing staircase over the ascending ``delta_s`` grid
    with one level per partition shape at most (22 for 8 histories), so
    the curve keeps its ``levels`` and the grid position ``starts`` where
    each begins.  The only reason for this form is that the benchmark
    harness (``perfbench/run.py``) keeps every job's result until its
    timed window ends, so its peak RSS grows with each kept curve; once it
    checks each result as it returns, ``i_min`` can be a plain field again.
    """

    delta_s: np.ndarray
    levels: np.ndarray
    starts: np.ndarray

    @property
    def i_min(self) -> np.ndarray:
        """I_min at each ``delta_s``."""
        return np.repeat(self.levels, np.diff(self.starts, append=len(self.delta_s)))

    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.delta_s.tolist(), self.i_min.tolist()))


@lru_cache(maxsize=MAX_SCAN_STATES)
def _partition_layout(n: int):
    """Every set partition of range(n), grouped by its number of groups k.

    Returns ``(by_size, information, keys, weights)``.  ``by_size`` holds,
    for each k, the partitions' positions in :func:`set_partitions` order,
    their (count, k) group masks in first-appearance order and the
    matching group probabilities N_r / n; ``information`` is I of every
    partition in that order, which depends on its shape alone.  Entry
    ``mask`` of the (2**n,) ``weights`` is the mask's lowest member times
    the sum of n**(n - 1 - k) over its members k, 0 for mask 0.  Summed
    over a partition's groups it reads, in base n, the string naming each
    state's group by its lowest member: that string orders partitions as
    their restricted-growth strings do, so ``keys``, each partition's sum,
    ascend in :func:`set_partitions` order; both are below n**n <= 10**10.
    Built on first use and read-only, since every scan of an n-state
    ensemble shares it.
    """
    strings = set_partitions(n)
    sizes = strings.max(axis=1) + 1
    bits = 1 << np.arange(n)
    subsets = (np.arange(2**n)[:, None] & bits) != 0  # (2**n, n) members of each mask
    weights = subsets.argmax(axis=1) * (subsets @ n ** np.arange(n - 1, -1, -1))
    keys = np.empty(len(strings), np.int64)
    by_size = []
    information = np.empty(len(strings))
    for k in range(1, n + 1):
        positions = np.flatnonzero(sizes == k)
        members = strings[positions, None, :] == np.arange(k)[:, None]  # (count, k, n)
        masks = members @ bits
        probs = members.sum(axis=2) / n
        information[positions] = 0.0 - _dots(probs, np.log2(probs))
        keys[positions] = weights[masks].sum(axis=1)
        by_size.append((positions, masks, probs))
    for array in (information, keys, weights, *(a for group in by_size for a in group)):
        array.flags.writeable = False
    return tuple(by_size), information, keys, weights


def _scan_positions(masks, n: int) -> np.ndarray:
    """Position in :func:`set_partitions` order of the partition of ``n``
    states each row of group ``masks`` holds, in any slot order, 0 for an
    unused slot: one gather and one ``searchsorted`` (:func:`_partition_layout`)."""
    _, _, keys, weights = _partition_layout(n)
    return np.searchsorted(keys, weights[masks].sum(axis=1))


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
    by_size, information, _, _ = _partition_layout(n)
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
    i_min = i_suffix[ends][::-1]
    rises = np.flatnonzero(np.diff(i_min, prepend=-np.inf))
    # arrays that own their data, as results are kept: flatnonzero returns
    # a view of an (m, 1) array, and a reversed slice keeps its base alive
    return HypersensitivityCurve(delta_s=d_sorted[starts[::-1]], levels=i_min[rises], starts=rises.copy())


def _pareto_points(points) -> list[tuple[float, float]]:
    """Keep the nondominated (delta_s high, information low) corner."""
    best = []
    for d, i in sorted(points, key=lambda p: (-p[0], p[1])):
        if not best or i < best[-1][1] - 1e-12:
            best.append((d, i))
    return best[::-1]


def frontier_slope(curve: HypersensitivityCurve) -> float:
    """Least-squares slope of I_min vs delta_s over the interior of the
    achieved range, 20-80 % of its maximum (the saturated ends are excluded):
    x~ @ y~ / (x~ @ x~) of the centred points, x~ = x - mean(x) and
    y~ = y - mean(y), in closed form.  The grid's points are distinct, so
    two or more give x~ @ x~ > 0; under two the slope is NaN."""
    lo = curve.delta_s.max() * 0.2
    hi = curve.delta_s.max() * 0.8
    mask = (curve.delta_s >= lo) & (curve.delta_s <= hi)
    if mask.sum() < 2:
        return float("nan")
    x, y = curve.delta_s[mask], curve.i_min[mask]
    x, y = x - x.mean(), y - y.mean()
    return float(x @ y / (x @ x))


@dataclass(frozen=True)
class HyperResult:
    s_bar_max: float
    frontier: HypersensitivityCurve
    slope: float
    greedy_points: list
    n_partitions: int


GREEDY_RESTARTS = 64
_M32 = 0xFFFFFFFF
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # M, PCG64's 128-bit LCG multiplier


@lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash constants, shape (2, count, 1): hash i xors in constant i, multiplies by i + 1."""
    consts = np.array(list(accumulate(range(count), lambda c, _: c * mult & _M32, initial=init)), np.uint32)
    return np.stack([consts[:-1], consts[1:]])[..., None]


def _hashmix(value, consts):
    value = (value ^ consts[0]) * consts[1]
    return value ^ value >> 16


def _seed_state(words) -> np.ndarray:
    """numpy's ``SeedSequence(words).generate_state(4, np.uint64)`` for each lane (column)
    of uint32 entropy ``words``, as rows: the pool hashes four words in, mixes each
    into the other three, then each word past it into all four."""
    def mix(x, y):
        x = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return x ^ x >> 16

    consts = _hash_constants(0x43B0D7E5, 0x931E8875, 16 + 4 * len(words[4:]))
    pool = _hashmix(np.vstack([words[:4], np.zeros((4, words.shape[1]), np.uint32)])[:4], consts[:, :4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], _hashmix(pool[src], consts[:, 4 + 3 * src:7 + 3 * src]))
    for hashed in _hashmix(words[4:, None], consts[:, 16:].reshape(2, -1, 4, 1)):
        pool = mix(pool, hashed)
    out = _hashmix(np.concatenate([pool, pool]), _hash_constants(0x8B51F9DD, 0x58F38DED, 8)).astype(np.uint64)
    return out[::2] | out[1::2] << 32


@lru_cache(maxsize=None)
def _jump(count: int) -> np.ndarray:
    """High, then low words of M**(t+1) and (M**(t+2) - 1) / (M - 1) mod 2**128, t = 1 .. ``count``."""
    powers = list(accumulate(range(count + 1), lambda p, _: p * _MULT % 2**128, initial=1))
    pairs = powers[2:], list(accumulate(powers, lambda a, b: (a + b) % 2**128))[2:]
    words = [[[v >> shift & 2**64 - 1 for v in row] for row in pairs] for shift in (64, 0)]
    return np.array(words, np.uint64)[..., None]


def _pcg_words(seeded, start: int, stop: int) -> np.ndarray:
    """Outputs ``start`` + 1 .. ``stop`` of numpy's ``PCG64`` seeded by each lane of ``seeded``, as uint32
    words in uint64 rows, low half first.  Seeded with state s and increment c, its t-th state is
    M**(t+1) s + (M**(t+2) - 1) / (M - 1) c (Brown 1994), output by XSL-RR (O'Neill 2014)."""
    s_hi, s_lo, i_hi, i_lo = seeded
    x_hi, x_lo = np.stack([s_hi, i_hi << 1 | i_lo >> 63])[:, None], np.stack([s_lo, i_lo << 1 | 1])[:, None]
    c_hi, c_lo = _jump(stop)[:, :, start:]
    u0, u1, v0, v1 = c_lo & _M32, c_lo >> 32, x_lo & _M32, x_lo >> 32
    w = u1 * v0 + (u0 * v0 >> 32)  # c_lo * x_lo's high word from 32-bit limbs (Hacker's Delight 8-2)
    p_hi = u1 * v1 + (w >> 32) + ((w & _M32) + u0 * v1 >> 32) + c_hi * x_lo + c_lo * x_hi
    p_lo = c_lo * x_lo
    lo = p_lo[0] + p_lo[1]
    hi = p_hi[0] + p_hi[1] + (lo < p_lo[1])
    x, rot = hi ^ lo, hi >> 58
    x = x >> rot | x << (64 - rot & 63)
    return np.stack([x & _M32, x >> 32], axis=1).reshape(-1, x.shape[1])


def _bounded(seeded, tops) -> np.ndarray:
    """numpy's bounded integer on [0, top] for each of ``tops`` (a row per draw, a column per lane,
    zero past a lane's last draw) by Lemire's method (2019): the high word of a word times top + 1,
    where a low word under 2**32 mod (top + 1) rejects the word and moves the lane on one word."""
    excl, lanes = tops.astype(np.uint64) + 1, tops.shape[1]
    at = np.arange(tops.size).reshape(tops.shape)  # each draw's word in the flat stream
    words = _pcg_words(seeded, 0, -(-len(tops) // 2)).reshape(-1)
    while True:
        if at.max() >= words.size:  # extend the stream
            words = np.append(words, _pcg_words(seeded, words.size // lanes // 2, at.max() // lanes // 2 + 1))
        m = words[at] * excl
        rejected = (m & _M32) < excl  # 2**32 mod (top + 1) is under top + 1
        rejected[rejected] = (m[rejected] & _M32) < (1 << 32) % excl[rejected]
        if not rejected.any():
            return (m >> 32).astype(np.int64)
        at = at + lanes * np.maximum.accumulate(rejected, axis=0)


@lru_cache(maxsize=None)
def _draw_plan(n: int):
    """Per lane of ``n`` states: words past the seed, draw tops (Floyd's, the shuffle's), shuffle draws."""
    k = np.repeat(np.arange(2, n), GREEDY_RESTARTS)
    t, s = np.arange(2 * n - 3)[:, None], np.arange(n - 2)[:, None]
    plan = (np.stack([k, np.tile(np.arange(GREEDY_RESTARTS), n - 2)]).astype(np.uint32),
            np.where(t < k, n - k + t, np.maximum(2 * k - 1 - t, 0)), (k + s) * len(k) + np.arange(len(k)))
    for array in plan:  # every call for n shares it
        array.flags.writeable = False
    return plan


def greedy_draws(seed: int, n: int) -> np.ndarray:
    """(lanes, n - 1) seed masks for :func:`greedy_groupings`: row (k - 2) * :data:`GREEDY_RESTARTS` +
    trial holds ``1 << member`` for each member ``np.random.default_rng([seed, k, trial]).choice(n,
    size=k, replace=False)`` draws, in draw order, then zeros, for each trial < :data:`GREEDY_RESTARTS`
    and 2 <= k <= n - 1 (no rows for n <= 2), as numpy 2.4 draws them: Floyd's selection draws j = n-k ..
    n-1, a repeat becoming j, and a shuffle swaps each i = k-1 .. 1 with a draw on [0, i].  Each restart
    is a lane; the seeding, the words and all draws take a fixed number of array passes."""
    seed = operator.index(seed)  # a float seed raises TypeError, as in numpy
    if seed < 0 or not 1 <= n <= MAX_SCAN_STATES:
        raise ValueError(f"need seed >= 0 and 1 <= n <= {MAX_SCAN_STATES}, not seed={seed}, n={n}")
    if n <= 2:
        return np.zeros((0, n - 1), np.int64)
    tail, tops, at = _draw_plan(n)
    lanes = tail.shape[1]
    words = np.array([[seed >> bit & _M32] for bit in range(0, max(seed.bit_length(), 1), 32)], np.uint32)
    drawn = _bounded(_seed_state(np.concatenate([words.repeat(lanes, axis=1), tail])), tops)
    chosen = np.zeros((n - 1, lanes), np.int64)  # member masks; a lane's sum is what it has chosen
    for t in range(n - 1):  # Floyd's selection
        chosen[t] = np.where(chosen.sum(axis=0) >> drawn[t] & 1, 1 << tops[t], 1 << drawn[t])
    flat = chosen.reshape(-1)
    for i, j in zip(*(a.reshape(-1)[at] * lanes + at % lanes for a in (tops, drawn))):
        flat[i], flat[j] = flat[j], flat[i]  # the shuffle; a zero top swaps a slot with itself
    return np.where(np.arange(n - 1)[:, None] < tail[0], chosen, 0).T  # a lane's k members


def hypersensitivity_experiment(config: ExperimentConfig, n_steps: int | None = None) -> HyperResult:
    """Full pipeline: ensemble, exact frontier, slope, greedy comparison.

    The history ensemble runs ``n_steps`` steps, ``config.steps`` unless
    given; 2**n_steps histories must fit the exhaustive scan.

    The greedy pass takes the :func:`greedy_draws` of ``config.seed``,
    :data:`GREEDY_RESTARTS` seedings for each of 2 to n-1 groups (1 and n
    give the first and the last scan row whatever the seeds), and keeps
    the nondominated (delta_s, information) points.  Its seed masks, every
    restart of every count in draw order, run in lockstep through one
    :func:`greedy_groupings` call, so every count shares one memo of
    mixture entropies; a repeated draw reads the same memo keys and lands
    on the same partition.  The exhaustive scan and greedy read one
    :func:`subset_means` table and its :func:`subset_entropies`, which also
    gives every mixture of two states.  The table's distinct means
    (:func:`_distinct_means`) are found once per job and serve both.  When
    the histories repeat a state, as the regular map's two-state ensemble
    does, the table diagonalises each distinct mean once, and greedy's
    memo, keyed by the table's distinct means, each mixture of a distinct
    mean and a distinct member once; every output keeps its bits.  When
    the histories are distinct by their bytes (the chaotic map), the table
    diagonalises the lowest mask of each :func:`_flip_classes` orbit, 135
    of 255 for 8 histories, and gives its flip partner the same entropy,
    which moves that partner's at round-off from :func:`subset_entropies`;
    greedy's memo still reads ``distinct``, whose keys keep partners
    apart.  Each grouping is the scan row its grown masks name
    (:func:`_scan_positions`), and the Pareto filter reads each distinct
    row once.
    """
    n_steps = operator.index(config.steps if n_steps is None else n_steps)  # as in history_ensemble
    if n_steps < 1:
        raise ValueError("the experiment needs at least one step")
    if n_steps >= MAX_SCAN_STATES.bit_length():  # 2**n_steps > MAX_SCAN_STATES, without the power
        raise ValueError(
            f"{n_steps} steps give 2**{n_steps} histories; the exhaustive"
            f" partition scan is limited to {MAX_SCAN_STATES} states"
        )
    means = subset_means(history_ensemble(config, n_steps))
    distinct = _distinct_means(means)  # once per job: the table's and greedy's
    # members distinct by their bytes (the chaotic map): a mean and its
    # flip share a spectrum, so one of each flip orbit is diagonalised
    classes = _flip_classes(2**n_steps) if len(distinct[1]) == len(means) else distinct
    entropies = _subset_entropies(means, *classes)
    delta_s, info, s_max = partition_scan(entropies)
    frontier = _frontier_from_scan(delta_s, info)
    slope = frontier_slope(frontier)
    seeds = greedy_draws(config.seed, 2**n_steps)  # in draw order: argmin breaks exact ties by group order
    pos = [0, len(delta_s) - 1]  # one group, and one per state, whatever the seeds
    if len(seeds):
        pos += _scan_positions(_greedy_groupings(means, entropies, seeds, *distinct), 2**n_steps).tolist()
    pos = _unique(pos)
    return HyperResult(
        s_bar_max=s_max,
        frontier=frontier,
        slope=slope,
        greedy_points=_pareto_points(zip(delta_s[pos].tolist(), info[pos].tolist())),
        n_partitions=len(delta_s),
    )
