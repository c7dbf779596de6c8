from itertools import product

import numpy as np
import pytest

import oracles
from nmrbaker import baker, qstate
from nmrbaker.baker import hadamard, phase, swap, z_rotation


class TestGateUnitary:
    def test_phase_gate_acts_only_on_both_ones(self):
        u = baker.gate_unitary(phase(0, 1, np.pi / 2), 3)
        diag = np.diag(u)
        for j in range(8):
            if (j >> 0) & 1 and (j >> 1) & 1:
                assert diag[j] == pytest.approx(1j)
            else:
                assert diag[j] == pytest.approx(1.0)

    def test_hadamard_is_involution(self):
        u = baker.gate_unitary(hadamard(1), 3)
        np.testing.assert_allclose(u @ u, np.eye(8), atol=1e-14)

    def test_swap_on_basis_state(self):
        u = baker.gate_unitary(swap(0, 1), 2)
        # |01> (index 1) -> |10> (index 2)
        assert u[2, 1] == 1.0

    def test_phase_gates_commute_exactly(self):
        a = baker.gate_unitary(phase(0, 1, 0.3), 3)
        b = baker.gate_unitary(phase(1, 2, -1.1), 3)
        np.testing.assert_array_equal(a @ b, b @ a)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            baker.gate_unitary(hadamard(3), 3)

    def test_bad_gate_specs(self):
        with pytest.raises(ValueError):
            phase(0, 0, 1.0)
        with pytest.raises(ValueError):
            phase(0, 1, float("nan"))
        with pytest.raises(ValueError):
            baker.GateSpec("rotation", (0,))
        with pytest.raises(ValueError):
            phase(0, 1, 1.0, control_value=2)
        with pytest.raises(ValueError):
            baker.GateSpec(baker.SWAP_KIND, (0, 1), control_value=0)
        with pytest.raises(ValueError):
            baker.GateSpec(baker.Z_KIND, (0,))
        with pytest.raises(ValueError):
            z_rotation(0, float("inf"))

    def test_z_rotation_on_qubit(self):
        # Z(theta) = exp(i*theta*Z/2) on the qubit that is bit 1 of the index
        diag = np.diag(baker.gate_unitary(z_rotation(1, 0.6), 3))
        for j in range(8):
            assert diag[j] == pytest.approx(np.exp(0.3j if (j >> 1) & 1 == 0 else -0.3j))

    def test_control_value_zero_phases_the_zero_branch(self):
        # it differs from the logical gate by Z(theta) on both qubits
        native = baker.gate_unitary(phase(0, 2, 0.7, control_value=0), 3)
        assert np.diag(native)[0] == pytest.approx(np.exp(0.7j))
        logical = [phase(0, 2, 0.7), z_rotation(0, 0.7), z_rotation(2, 0.7)]
        np.testing.assert_allclose(
            baker.gate_sequence_unitary(logical, 3), native, atol=1e-15
        )


class TestBakerUnitary:
    def test_gate_sequence_matches_closed_form(self):
        t_gates = baker.gate_sequence_unitary(baker.baker_gate_sequence(), 3)
        assert qstate.phase_invariant_distance(t_gates, baker.baker_unitary(3)) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unitarity(self, n):
        assert oracles.is_unitary(baker.baker_unitary(n), tol=1e-12)

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            baker.baker_unitary(1)

    def test_sequence_lengths(self):
        assert len(baker.baker_gate_sequence()) == 11
        assert len(baker.simplified_baker_gate_sequence()) == 5

    def test_every_gate_factor_unitary(self):
        for g in baker.baker_gate_sequence():
            assert oracles.is_unitary(baker.gate_unitary(g, 3), tol=1e-12)


class TestShiftStates:
    @pytest.mark.parametrize("variant", ["full", "simplified"])
    def test_states_normalized(self, variant):
        for bits in product([0, 1], repeat=3):
            assert np.linalg.norm(
                baker.shift_domain_state(bits, variant)
            ) == pytest.approx(1.0)
            assert np.linalg.norm(
                baker.shift_image_state(bits, variant)
            ) == pytest.approx(1.0)

    def test_all_zero_full_domain(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        expected = np.kron(np.diag([1, 0]), np.eye(4)) @ np.kron(
            np.array([1.0, 0]), np.kron(plus, plus))
        np.testing.assert_allclose(
            baker.shift_domain_state((0, 0, 0), "full"), expected, atol=1e-15
        )

    def test_binary_fraction_phase(self):
        # bits 001: least significant domain factor is (|0> - i|1>)/sqrt(2),
        # so the |001> amplitude of the product state is -i/2
        psi = baker.shift_domain_state((0, 0, 1), "full")
        assert psi[1] == pytest.approx(-0.5j)

    def test_all_zero_simplified_image_is_uniform(self):
        np.testing.assert_allclose(
            baker.shift_image_state((0, 0, 0), "simplified"),
            np.full(8, 1 / (2 * np.sqrt(2))),
            atol=1e-15,
        )

    def test_full_map_shift_property(self):
        t = baker.baker_unitary(3)
        for bits in product([0, 1], repeat=3):
            fid = qstate.state_fidelity(
                baker.shift_image_state(bits, "full"),
                t @ baker.shift_domain_state(bits, "full"),
            )
            assert fid > 1 - 1e-10

    def test_simplified_map_shift_property(self):
        t_m = baker.simplified_baker_unitary()
        for bits in product([0, 1], repeat=3):
            fid = qstate.state_fidelity(
                baker.shift_image_state(bits, "simplified"),
                t_m @ baker.shift_domain_state(bits, "simplified"),
            )
            assert fid > 1 - 1e-10

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            baker.shift_domain_state((0, 2, 0))
        with pytest.raises(ValueError):
            baker.shift_domain_state(())

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            baker.shift_domain_state((0, 0, 0), "saraceno")
