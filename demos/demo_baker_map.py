"""Quantized baker's map on three qubits: construction and shift structure.

The map T = F_3^{-1} (I (x) F_2) can be written either as a closed-form
matrix of Fourier transforms or as a product of Hadamard, controlled
phase, and swap gates.  Because T acts as a shift on the qubit string,
there is a family of product states it maps to other product states;
checking all of them pins every sign and ordering convention at once.
"""

from itertools import product

import numpy as np

from nmrbaker import baker, qstate

print("closed form vs gate decomposition")
print("---------------------------------")
t_closed = baker.baker_unitary(3)
t_gates = baker.gate_sequence_unitary(baker.baker_gate_sequence(), 3)
dist = qstate.phase_invariant_distance(t_closed, t_gates)
print(f"11-gate product vs Fourier closed form: distance {dist:.2e}")

print()
print("the map as a shift on the qubit string")
print("--------------------------------------")
print("bits    full-map fidelity   simplified-map fidelity")
t_simple = baker.simplified_baker_unitary()
for bits in product([0, 1], repeat=3):
    dom, img = baker.shift_states(bits, "full")
    f_full = qstate.state_fidelity(img, t_closed @ dom)
    dom, img = baker.shift_states(bits, "simplified")
    f_simple = qstate.state_fidelity(img, t_simple @ dom)
    print(f"{''.join(map(str, bits))}     1 - {1 - f_full:.1e}          1 - {1 - f_simple:.1e}")

print()
print("gate counts: full map", len(baker.baker_gate_sequence()),
      "gates, simplified map", len(baker.simplified_baker_gate_sequence()), "gates")
print("(the simplified variant is what the pulse programs implement;")
print(" it has the same shift structure but different internal phases)")

print()
print("one simplified-map example, all-zero bits:")
dom, _ = baker.shift_states((0, 0, 0), "simplified")
img = t_simple @ dom
print("  domain:", np.round(dom, 3))
print("  image: ", np.round(img, 3), " (uniform superposition)")
