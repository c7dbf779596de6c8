"""From gates to RF pulses: the compiler and its verification.

Single-qubit z rotations and Hadamards come from short x/y pulse
combinations; two-qubit phase gates use refocused delays (a pi pulse on
the spectator spin cancels every coupling involving it); CNOTs and
swaps stack on top.  Each construction is compared against its target,
a gate list on the qubits ``nmr.QUBIT`` assigns to the spins, up to a
global phase, under the simplified drift Hamiltonian
with the exact 2:1 coupling ratio the timings assume, and then against
the measured couplings to expose the approximation error.
"""

import numpy as np

from nmrbaker import nmr
from nmrbaker.baker import hadamard, phase, swap, z_rotation

q = nmr.QUBIT
reference = nmr.HamiltonianModel().compiler_reference()
measured = nmr.HamiltonianModel(variant="simplified")

print("compiled primitives (exact coupling ratio)")
print("------------------------------------------")
checks = [
    ("z rotation Z(0.9) on C1",
     nmr.z_rotation_pulses("C1", 0.9), [z_rotation(q["C1"], 0.9)]),
    ("hadamard on H", nmr.hadamard_pulses("H"), [hadamard(q["H"])]),
    ("phase gate B(-pi/2) on C1-H",
     nmr.phase_gate_pulses(("C1", "H"), np.pi / 2, reference),
     [phase(q["C1"], q["H"], -np.pi / 2)]),
    ("phase gate B(-pi/2) on C1-C2",
     nmr.phase_gate_pulses(("C1", "C2"), np.pi / 2, reference),
     [phase(q["C1"], q["C2"], -np.pi / 2)]),
    ("swap C1-H (three CNOTs)",
     nmr.swap_pulses(("C1", "H"), reference), [swap(q["C1"], q["H"])]),
]
for name, seq, target in checks:
    d = nmr.compiled_distance(seq, target, reference)
    print(f"  {name:32s} {len(seq.instructions):3d} pulses  distance {d:.1e}")

print()
print("canned step programs")
print("--------------------")
t1 = reference.tau1
for build, ideal in [
    (nmr.t_odd, nmr.ideal_t_odd()),
    (nmr.t_even, nmr.ideal_t_even()),
    (nmr.t_regular, nmr.ideal_t_regular(reference)),
    (nmr.full_baker_appendix, nmr.ideal_full_baker()),
]:
    seq = build(reference)
    exact = nmr.compiled_distance(seq, ideal, reference)
    # the physical couplings are not exactly 2:1, so the same pulse
    # timings leave a small coherent error
    seq_m = build(measured)
    ideal_m = nmr.ideal_t_regular(measured) if seq.name == "t_regular" else ideal
    real = nmr.compiled_distance(seq_m, ideal_m, measured)
    print(f"  {seq.name:12s} delay {seq.total_delay / t1:5.2f} tau1   "
          f"ideal ratio: {exact:.1e}   measured j2: {real:.1e}")

print()
print("pulse program text format (first lines of t_odd):")
for line in nmr.dump_sequence(nmr.t_odd(measured)).splitlines()[:5]:
    print("  " + line)
print("  ...")
