import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nmrbaker import baker, cli, nmr, qstate
from nmrbaker.baker import hadamard, phase, swap, z_rotation
from nmrbaker.nmr import (
    QUBIT,
    SPIN_C1,
    SPIN_C2,
    SPIN_H,
    SPINS,
    HamiltonianModel,
    PulseSequence,
    delay,
    rot_x,
    rot_y,
)

Q_H, Q_C1, Q_C2 = QUBIT[SPIN_H], QUBIT[SPIN_C1], QUBIT[SPIN_C2]


@pytest.fixture(scope="module")
def reference():
    """Simplified Hamiltonian with the exact 2:1 coupling ratio."""
    return HamiltonianModel().compiler_reference()


@pytest.fixture(scope="module")
def measured():
    return HamiltonianModel(variant="simplified")


class TestHamiltonianModel:
    def test_noxy_minus_simplified_is_j3_term(self):
        noxy = HamiltonianModel(variant="noxy").matrix()
        simp = HamiltonianModel(variant="simplified").matrix()
        zz_hc2 = np.kron(np.kron(qstate.PAULI_Z, qstate.ID2), qstate.PAULI_Z)
        np.testing.assert_array_equal(noxy - simp, 10.0 / 4 * zz_hc2)

    def test_simplified_is_diagonal(self):
        h = HamiltonianModel(variant="simplified").matrix()
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0

    def test_all_up_diagonal_entry(self):
        m = HamiltonianModel(variant="simplified")
        h = m.matrix()
        assert h[0, 0] == pytest.approx(m.j1 / 4 + m.j2 / 4 + m.delta / 2)

    def test_full_variant_keeps_exchange_terms(self):
        full = HamiltonianModel(variant="full").matrix()
        assert not np.allclose(full, np.diag(np.diag(full)))
        assert qstate.is_hermitian(full, tol=1e-12)

    def test_cycles_convention_scales_couplings(self):
        ang = HamiltonianModel()
        cyc = HamiltonianModel(convention="cycles")
        np.testing.assert_allclose(cyc.matrix(), 2 * np.pi * ang.matrix())
        assert cyc.tau1 == pytest.approx(ang.tau1 / (2 * np.pi))

    def test_default_couplings(self):
        m = HamiltonianModel()
        assert (m.j1, m.j2, m.j3, m.delta) == (203.0, 102.0, 10.0, -905.0)

    def test_only_variant_j2_and_convention_are_settable(self):
        # j2 is the one coupling a caller varies (the compiler reference sets j1/2)
        assert [f.name for f in dataclasses.fields(HamiltonianModel)] == [
            "variant", "j2", "convention"]
        with pytest.raises(TypeError):
            HamiltonianModel(j1=200.0)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            HamiltonianModel(variant="exact")

    @pytest.mark.parametrize("convention", ["bogus", "hertz", "Cycles"])
    def test_rejects_unknown_convention(self, convention):
        with pytest.raises(ValueError, match="frequency convention"):
            HamiltonianModel(convention=convention)

    @pytest.mark.parametrize("j2", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_j2_not_finite_and_positive(self, j2):
        with pytest.raises(ValueError, match="j2"):
            HamiltonianModel(j2=j2)

    @pytest.mark.parametrize("j2", [102.0, 203.0 / 2])
    def test_accepts_measured_and_reference_j2(self, j2):
        assert HamiltonianModel(j2=j2).j2 == j2

    @pytest.mark.parametrize("j2", [102.0, 203.0 / 2])
    @pytest.mark.parametrize("convention", nmr.CONVENTIONS)
    @pytest.mark.parametrize("variant", nmr.VARIANTS)
    def test_matrix_equals_kron_products(self, variant, convention, j2):
        # the drift Hamiltonian as a sum of explicit three-factor Kronecker products
        i, x, y, z = qstate.ID2, qstate.PAULI_X, qstate.PAULI_Y, qstate.PAULI_Z

        def k3(a, b, c):
            return np.kron(np.kron(a, b), c)

        m = HamiltonianModel(variant=variant, j2=j2, convention=convention)
        h = (m.j1_eff / 4 * k3(z, z, i) + m.j2_eff / 4 * k3(i, z, z)
             + m.delta_eff / 2 * k3(i, i, z))
        if variant == "full":
            h = h + m.j2_eff / 4 * (k3(i, x, x) + k3(i, y, y))
        if variant in ("full", "noxy"):
            h = h + m.j3_eff / 4 * k3(z, i, z)
        assert np.array_equal(m.matrix(), h)


class TestPulseUnitary:
    def test_pi_pulse_is_ix(self, reference):
        u = nmr.pulse_unitary(rot_x(SPIN_H, np.pi), reference)
        np.testing.assert_allclose(
            u, qstate.embed(1j * qstate.PAULI_X, SPIN_H, SPINS), atol=1e-15
        )

    def test_rotation_inverse(self, reference):
        u = nmr.pulse_unitary(rot_y(SPIN_C2, 0.813), reference)
        v = nmr.pulse_unitary(rot_y(SPIN_C2, -0.813), reference)
        np.testing.assert_allclose(u @ v, np.eye(8), atol=1e-14)

    def test_delay_equals_spectral_exponential(self, reference):
        t = reference.tau1
        u = nmr.pulse_unitary(delay(t), reference)
        np.testing.assert_allclose(
            u, qstate.hermitian_propagator(reference.matrix())(t), atol=1e-14
        )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(variant=st.sampled_from(nmr.VARIANTS), convention=st.sampled_from(nmr.CONVENTIONS),
           t=st.floats(0, 1e300))
    def test_delay_equals_spectral_exponential_bit_for_bit(self, variant, convention, t):
        # the eigendecomposition is cached per model; every delay still gets
        # exactly the value of a fresh one
        model = HamiltonianModel(variant=variant, convention=convention)
        assert np.array_equal(nmr.pulse_unitary(delay(t), model),
                              qstate.hermitian_propagator(model.matrix())(t))

    def test_standard_checks_diagonalise_each_hamiltonian_once(self, monkeypatch):
        eigh, seen = np.linalg.eigh, []

        def counting_eigh(a):
            seen.append(np.asarray(a).tobytes())
            return eigh(a)

        nmr._drift_propagator.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        cli.standard_checks()
        assert seen
        assert len(seen) == len(set(seen))

    def test_delay_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            delay(-1.0)

    def test_rotation_rejects_unknown_spin(self):
        with pytest.raises(ValueError):
            rot_x("N", 1.0)


class TestPulseSequence:
    def test_hash_is_the_hash_of_its_fields(self, reference):
        a, b = nmr.t_even(reference), nmr.t_even(reference)
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.name, a.instructions))
        assert len({a, b, nmr.t_odd(reference)}) == 2


class TestSequenceUnitary:
    def test_empty_sequence_is_identity(self, reference):
        seq = PulseSequence("empty", ())
        np.testing.assert_array_equal(nmr.sequence_unitary(seq, reference), np.eye(8))

    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    def test_z_rotation_variants(self, reference, variant):
        seq = nmr.z_rotation_pulses(SPIN_C1, 0.7, variant)
        assert nmr.compiled_distance(seq, [z_rotation(Q_C1, 0.7)], reference) < 1e-12

    def test_z_rotation_variants_agree_pairwise(self, reference):
        us = [
            nmr.sequence_unitary(nmr.z_rotation_pulses(SPIN_H, -2.1, v), reference)
            for v in (1, 2, 3, 4)
        ]
        for a in us:
            for b in us:
                assert qstate.phase_invariant_distance(a, b) < 1e-12

    def test_z_rotation_zero_angle(self, reference):
        assert nmr.compiled_distance(nmr.z_rotation_pulses(SPIN_H, 0.0), [], reference) < 1e-12

    def test_z_rotation_variant_one_structure(self):
        seq = nmr.z_rotation_pulses(SPIN_H, 0.4, 1)
        assert [i.op for i in seq.instructions] == ["X", "Y", "X"]
        assert seq.instructions[0].value == pytest.approx(np.pi / 2)
        assert seq.instructions[1].value == pytest.approx(0.4)
        assert seq.instructions[2].value == pytest.approx(-np.pi / 2)

    @pytest.mark.parametrize("variant", [1, 2])
    def test_hadamard_variants(self, reference, variant):
        seq = nmr.hadamard_pulses(SPIN_C2, variant)
        assert len(seq.instructions) == 2
        assert nmr.compiled_distance(seq, [hadamard(Q_C2)], reference) < 1e-12

    def test_hadamard_twice_is_identity(self, reference):
        seq = nmr.hadamard_pulses(SPIN_H) + nmr.hadamard_pulses(SPIN_H)
        assert nmr.compiled_distance(seq, [], reference) < 1e-12

    def test_refocusing_pair_isolates_hc1_coupling(self, reference):
        tau = 0.004
        seq = PulseSequence(
            "refocus",
            (delay(tau), rot_x(SPIN_C2, np.pi), delay(tau), rot_x(SPIN_C2, np.pi)),
        )
        zz = nmr.LIFTED_PAULI["Z", SPIN_H] @ nmr.LIFTED_PAULI["Z", SPIN_C1]
        target = qstate.hermitian_propagator(reference.j1_eff * zz / 2)(tau)
        d = qstate.phase_invariant_distance(
            nmr.sequence_unitary(seq, reference), target
        )
        assert d < 1e-12


class TestPhaseGatePulses:
    def test_matches_logical_gate(self):
        assert cli.check("phase gate C1-H").passed

    def test_c1c2_offset_correction(self, reference):
        seq = nmr.phase_gate_pulses((SPIN_C1, SPIN_C2), np.pi / 4, reference)
        assert nmr.compiled_distance(seq, [phase(Q_C1, Q_C2, -np.pi / 4)], reference) < 1e-8

    def test_total_delay(self, reference):
        theta = 1.3
        seq = nmr.phase_gate_pulses((SPIN_C1, SPIN_H), theta, reference)
        assert seq.total_delay == pytest.approx(theta / reference.j1_eff, rel=1e-15)

    def test_spectator_refocused(self, reference):
        # the compiled gate commutes with Z on the spectator spin
        u = nmr.sequence_unitary(
            nmr.phase_gate_pulses((SPIN_C1, SPIN_H), np.pi / 2, reference), reference
        )
        z_spec = qstate.embed(qstate.PAULI_Z, SPIN_C2, SPINS)
        assert np.max(np.abs(u @ z_spec - z_spec @ u)) < 1e-10

    def test_zero_angle_empty(self, reference):
        assert nmr.phase_gate_pulses((SPIN_C1, SPIN_H), 0.0, reference).instructions == ()

    def test_negative_angle_rejected(self, reference):
        with pytest.raises(ValueError):
            nmr.phase_gate_pulses((SPIN_C1, SPIN_H), -0.1, reference)

    def test_uncoupled_pair_rejected(self, reference):
        with pytest.raises(ValueError):
            nmr.phase_gate_pulses((SPIN_H, SPIN_C2), np.pi, reference)


class TestCnotAndSwap:
    def test_cnot_is_controlled_not(self, reference):
        u = nmr.sequence_unitary(
            nmr.cnot_pulses(SPIN_C1, SPIN_H, reference), reference
        )
        # control C1, target H: |C1=1> rows flip H
        expected = np.zeros((8, 8), dtype=complex)
        for j in range(8):
            a_h, a_c1, a_c2 = (j >> 2) & 1, (j >> 1) & 1, j & 1
            out = j ^ (0b100 if a_c1 else 0)
            expected[out, j] = 1.0
        assert qstate.phase_invariant_distance(u, expected) < 1e-8

    def test_swap_matrix(self):
        assert cli.check("swap C1-H from three CNOTs").passed

    def test_swap_squares_to_identity(self):
        assert cli.check("swap applied twice is identity").passed

    def test_non_neighbor_pair_rejected(self, reference):
        with pytest.raises(ValueError):
            nmr.swap_pulses((SPIN_H, SPIN_C2), reference)


class TestCannedSequences:
    def test_total_delays(self, measured):
        t1 = measured.tau1
        assert abs(nmr.t_odd(measured).total_delay - 7 * t1) < 1e-16
        assert abs(nmr.t_even(measured).total_delay - 14 * t1) < 1e-16
        assert abs(nmr.t_regular(measured).total_delay - 10.5 * t1) < 1e-16

    def test_regular_delay_is_mean_of_odd_and_even(self, measured):
        total_odd = nmr.t_odd(measured).total_delay
        total_even = nmr.t_even(measured).total_delay
        total_reg = nmr.t_regular(measured).total_delay
        assert abs((total_odd + total_even) / 2 - total_reg) < 1e-16

    def test_t_odd_matches_ideal(self):
        assert cli.check("t_odd vs ideal gate product").passed

    def test_t_even_matches_ideal(self):
        assert cli.check("t_even vs ideal gate product").passed

    def test_t_regular_matches_offset_rotation(self):
        assert cli.check("t_regular vs offset rotation").passed

    def test_appendix_matches_ideal(self):
        assert cli.check("full baker program vs ideal gate product").passed

    def test_even_step_is_conjugated_odd_step(self):
        # exchanging the roles of H and C2 turns one step into the other
        s_hc2 = [swap(Q_C1, Q_H), swap(Q_C1, Q_C2), swap(Q_C1, Q_H)]
        # the odd ideal rebuilt in the logical convention for the comparison
        odd_logical = [
            phase(Q_C1, Q_H, -np.pi / 2),
            phase(Q_C1, Q_C2, -np.pi / 4),
            hadamard(Q_C1),
            swap(Q_C1, Q_H),
        ]
        d = qstate.phase_invariant_distance(
            baker.gate_sequence_unitary(nmr.ideal_t_even(), 3),
            baker.gate_sequence_unitary(s_hc2 + odd_logical + s_hc2, 3),
        )
        assert d < 1e-12

    def test_measured_ratio_error_is_small_but_nonzero(self, measured):
        d = nmr.compiled_distance(nmr.t_odd(measured), nmr.ideal_t_odd(), measured)
        assert 1e-9 < d < 1e-4

    @pytest.mark.parametrize(
        "build", [nmr.t_odd, nmr.t_even, nmr.t_regular, nmr.full_baker_appendix]
    )
    def test_convention_invariance(self, build):
        ang = HamiltonianModel(variant="simplified", j2=203 / 2, convention="angular")
        cyc = HamiltonianModel(variant="simplified", j2=203 / 2, convention="cycles")
        d = qstate.phase_invariant_distance(
            nmr.sequence_unitary(build(ang), ang),
            nmr.sequence_unitary(build(cyc), cyc),
        )
        assert d < 1e-10


class TestVerifySequence:
    def test_empty_vs_identity_passes(self, reference):
        assert nmr.compiled_distance(PulseSequence("noop", ()), [], reference) == 0.0

    def test_failing_check_reported(self, reference):
        d = nmr.compiled_distance(PulseSequence("noop", ()), [hadamard(Q_H)], reference)
        assert not d < 1e-12


def random_sequence(rng, n_instructions=20) -> PulseSequence:
    spins = [SPIN_H, SPIN_C1, SPIN_C2]
    instructions = []
    for _ in range(n_instructions):
        kind = rng.integers(3)
        if kind == 0:
            instructions.append(rot_x(spins[rng.integers(3)], rng.normal() * np.pi))
        elif kind == 1:
            instructions.append(rot_y(spins[rng.integers(3)], rng.normal() * np.pi))
        else:
            instructions.append(delay(float(rng.random()) * 0.01))
    return PulseSequence("random", tuple(instructions))


class TestRandomPrograms:
    def test_sequence_unitary_is_unitary(self, measured):
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = nmr.sequence_unitary(random_sequence(rng), measured)
            assert oracles.is_unitary(u, tol=1e-10)

    def test_round_trip_on_random_programs(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            seq = random_sequence(rng)
            assert nmr.parse_sequence(nmr.dump_sequence(seq)) == seq


finite = st.floats(allow_nan=False, allow_infinity=False)
instructions = st.one_of(
    st.builds(rot_x, st.sampled_from(SPINS), finite),
    st.builds(rot_y, st.sampled_from(SPINS), finite),
    st.builds(delay, st.floats(0, 1)),
)


class TestSerialization:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(name=st.from_regex(r"[A-Za-z0-9_]+", fullmatch=True),
           body=st.lists(instructions, max_size=30), convention=st.sampled_from(nmr.CONVENTIONS))
    def test_round_trip_property(self, name, body, convention):
        seq = PulseSequence(name, tuple(body))
        text = nmr.dump_sequence(seq, convention)
        again = nmr.parse_sequence(text)
        assert again.name == seq.name
        assert again.instructions == seq.instructions
        assert nmr.dump_sequence(again, convention) == text

    def test_round_trip_bit_exact(self, measured):
        for build in (nmr.t_odd, nmr.t_even, nmr.t_regular, nmr.full_baker_appendix):
            seq = build(measured)
            again = nmr.parse_sequence(nmr.dump_sequence(seq))
            assert again.name == seq.name
            assert again.instructions == seq.instructions

    def test_header_format(self, measured):
        text = nmr.dump_sequence(nmr.t_odd(measured), convention="angular")
        header = text.splitlines()[0]
        assert header.startswith("# name=t_odd convention=angular total_delay=")

    def test_instruction_lines(self, measured):
        text = nmr.dump_sequence(nmr.t_regular(measured))
        lines = text.splitlines()[1:]
        assert lines[0].split()[0] == "U"
        assert lines[1].split()[:2] == ["X", "C1"]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            nmr.parse_sequence("not a header\nX H 1.0\n")
        with pytest.raises(ValueError):
            nmr.parse_sequence(
                "# name=x convention=angular total_delay=0\nW H 1.0\n"
            )
        for total in ("5", "abc", "nan", "1.0000000000000002"):
            with pytest.raises(ValueError):
                nmr.parse_sequence(f"# name=x convention=angular total_delay={total}\nU 1\n")
        parsed = nmr.parse_sequence("# name=x convention=angular total_delay=1\nU 1\n")
        assert parsed.total_delay == 1


class TestLiftedPaulis:
    @pytest.mark.parametrize("op", [*nmr.LIFTED_PAULI.values(), nmr._ID8],
                             ids=[*map("".join, nmr.LIFTED_PAULI), "I"])
    def test_shared_operators_are_read_only(self, op):
        with pytest.raises(ValueError):
            op[0, 0] = 0

    @pytest.mark.parametrize("spin", SPINS)
    def test_z_equals_embedded_pauli(self, spin):
        assert np.array_equal(nmr.LIFTED_PAULI["Z", spin],
                              qstate.embed(qstate.PAULI_Z, spin, SPINS))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(build=st.sampled_from([rot_x, rot_y]), spin=st.sampled_from(SPINS), angle=finite)
    def test_rotation_equals_embedded_reference(self, build, spin, angle):
        ins = build(spin, angle)
        assert np.array_equal(nmr.pulse_unitary(ins, HamiltonianModel()),
                              oracles.embedded_rotation(ins))
