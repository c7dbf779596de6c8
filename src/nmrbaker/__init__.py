"""Pulse-level simulation of the quantum baker's map on a three-spin
NMR register (proton + two carbons of trichloroethylene), with
dephasing noise, and the two chaos experiments built on top of it:
entropy growth under decoherence and hypersensitivity to perturbation.
"""

# not cli: `python -m nmrbaker.cli` warns if the package already imported it
from . import baker, chaos, lindblad, nmr, qstate
from .baker import (
    baker_gate_sequence,
    baker_unitary,
    gate_sequence_unitary,
    gate_unitary,
    shift_domain_state,
    shift_image_state,
    simplified_baker_gate_sequence,
    simplified_baker_unitary,
)
from .chaos import (
    ExperimentConfig,
    entropy_experiment,
    greedy_grouping,
    grouping_stats,
    history_ensemble,
    hypersensitivity_experiment,
    initial_density,
    initial_state,
    js_distance,
    subset_entropies,
)
from .lindblad import (
    EvolutionEngine,
    NoiseModel,
    PhysicsError,
    apply_perturbation,
    perturbation_unitary,
    run_sequence,
)
from .nmr import (
    HamiltonianModel,
    PulseInstruction,
    PulseSequence,
    compiled_distance,
    dump_sequence,
    full_baker_appendix,
    parse_sequence,
    sequence_unitary,
    t_even,
    t_odd,
    t_regular,
)
from .qstate import phase_invariant_distance, von_neumann_entropy_bits

__version__ = "0.1.0"
