import numpy as np
import pytest

import oracles
from nmrbaker import qstate
from nmrbaker.qstate import ID2, PAULI_X, PAULI_Y, PAULI_Z

SPINS = ("H", "C1", "C2")


class TestKron:
    def test_identity_tensor_z(self):
        np.testing.assert_allclose(
            qstate.kron(ID2, PAULI_Z), np.diag([1, -1, 1, -1]).astype(complex)
        )

    def test_trivial_identity_factor(self):
        a = np.array([[1, 2j], [3, 4]], dtype=complex)
        np.testing.assert_allclose(qstate.kron(a, np.eye(1)), a)

    def test_xx_squares_to_identity(self):
        xx = qstate.kron(PAULI_X, PAULI_X)
        np.testing.assert_allclose(xx @ xx, np.eye(4), atol=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            qstate.kron(np.ones((2, 3)), ID2)


class TestEmbed:
    def test_single_spin_placement(self):
        expected = qstate.kron(ID2, ID2, PAULI_Z)
        np.testing.assert_allclose(qstate.embed(PAULI_Z, ["C2"], SPINS), expected)

    def test_disjoint_supports_commute(self):
        a = qstate.embed(PAULI_X, ["H"], SPINS)
        b = qstate.embed(PAULI_Y, ["C2"], SPINS)
        np.testing.assert_allclose(a @ b, b @ a, atol=1e-14)

    def test_swap_permutes_basis_states(self):
        # |011> (H=0, C1=1, C2=1) -> |101> under a swap of H and C1
        swap2 = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        u = qstate.embed(swap2, ["H", "C1"], SPINS)
        assert u[5, 3] == 1.0
        assert abs(u[:, 3]).sum() == 1.0

    def test_target_order_matters(self):
        # a non-symmetric two-spin operator placed as (H, C1) vs (C1, H)
        op = qstate.kron(PAULI_Z, PAULI_X)
        a = qstate.embed(op, ["H", "C1"], SPINS)
        b = qstate.embed(qstate.kron(PAULI_X, PAULI_Z), ["C1", "H"], SPINS)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            qstate.embed(PAULI_Z, ["N"], SPINS)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            qstate.embed(np.eye(4), ["H"], SPINS)


class TestExpmHermitian:
    def test_zero_hamiltonian(self):
        np.testing.assert_allclose(
            qstate.hermitian_propagator(np.zeros((4, 4)))(2.7), np.eye(4), atol=1e-14
        )

    def test_diagonal_case(self):
        u = qstate.hermitian_propagator(PAULI_Z)(np.pi / 2)
        np.testing.assert_allclose(
            u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-14
        )

    def test_commuting_diagonal_factors(self):
        # exp(-i t (c1 A + c2 B + c3 C)) for commuting diagonal terms equals
        # the elementwise product of the closed-form diagonal exponentials.
        j1, j2, delta = 203.0, 101.5, -905.0
        t = np.pi / (2 * j1)
        zz_hc1 = np.diag(qstate.kron(PAULI_Z, PAULI_Z, ID2)).real
        zz_c1c2 = np.diag(qstate.kron(ID2, PAULI_Z, PAULI_Z)).real
        z_c2 = np.diag(qstate.kron(ID2, ID2, PAULI_Z)).real
        h = np.diag(j1 / 4 * zz_hc1 + j2 / 4 * zz_c1c2 + delta / 2 * z_c2)
        expected = np.diag(
            np.exp(-1j * t * j1 / 4 * zz_hc1)
            * np.exp(-1j * t * j2 / 4 * zz_c1c2)
            * np.exp(-1j * t * delta / 2 * z_c2)
        )
        np.testing.assert_allclose(qstate.hermitian_propagator(h)(t), expected, atol=1e-12)

    def test_result_is_unitary(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = a + a.conj().T
        assert oracles.is_unitary(qstate.hermitian_propagator(h)(0.37), tol=1e-10)

    def test_time_additivity(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = a + a.conj().T
        u = qstate.hermitian_propagator(h)(0.5) @ qstate.hermitian_propagator(h)(0.3)
        np.testing.assert_allclose(u, qstate.hermitian_propagator(h)(0.8), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            qstate.hermitian_propagator(np.array([[0, 1], [0, 0]]))(1.0)


class TestDftMatrix:
    def test_dim_two_is_hadamard(self):
        np.testing.assert_allclose(
            qstate.dft_matrix(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
        )

    def test_columns_orthonormal(self):
        f = qstate.dft_matrix(8)
        np.testing.assert_allclose(f.conj().T @ f, np.eye(8), atol=1e-12)

    def test_dim_four_column_one(self):
        f = qstate.dft_matrix(4)
        np.testing.assert_allclose(f[:, 1], np.array([1, 1j, -1, -1j]) / 2, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_fourth_power_is_identity(self, dim):
        f = qstate.dft_matrix(dim)
        np.testing.assert_allclose(np.linalg.matrix_power(f, 4), np.eye(dim), atol=1e-9)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            qstate.dft_matrix(0)


class TestEntropy:
    def test_pure_state_zero(self):
        psi = oracles.normalize(np.arange(1, 9, dtype=complex))
        rho = np.outer(psi, psi.conj())
        assert qstate.von_neumann_entropy_bits(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_three_bits(self):
        assert qstate.von_neumann_entropy_bits(np.eye(8) / 8) == pytest.approx(3.0)

    def test_equal_two_level_mixture_one_bit(self):
        rho = np.diag([0.5, 0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
        assert qstate.von_neumann_entropy_bits(rho) == pytest.approx(1.0)

    def test_clamp_window(self):
        rho = np.diag([1.0 + 5e-10, -5e-10])
        assert qstate.von_neumann_entropy_bits(rho) == pytest.approx(0.0, abs=1e-7)

    def test_rejects_corrupted_state(self):
        with pytest.raises(ValueError):
            qstate.von_neumann_entropy_bits(np.diag([1.1, -0.1]))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        w = rng.random(8)
        rho = np.diag(w / w.sum()).astype(complex)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        s0 = qstate.von_neumann_entropy_bits(rho)
        s1 = qstate.von_neumann_entropy_bits(q @ rho @ q.conj().T)
        assert s1 == pytest.approx(s0, abs=1e-9)


class TestPhaseInvariantDistance:
    def test_global_phase_is_ignored(self):
        u = qstate.dft_matrix(8)
        assert qstate.phase_invariant_distance(u, np.exp(1.3j) * u) < 1e-12

    def test_traceless_difference(self):
        assert qstate.phase_invariant_distance(ID2, PAULI_Z) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qstate.phase_invariant_distance(np.eye(2), np.eye(4))


class TestDensityChecks:
    def test_valid_density_matrix_passes(self):
        qstate.check_density_matrix(np.eye(8) / 8)

    def test_trace_violation_detected(self):
        defects = qstate.density_matrix_defects(np.eye(8) / 4)
        assert any("trace" in d for d in defects)

    def test_hermiticity_violation_detected(self):
        rho = np.eye(2) / 2 + np.array([[0, 1e-5], [0, 0]])
        assert any("hermiticity" in d for d in qstate.density_matrix_defects(rho))
