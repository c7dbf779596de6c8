import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nmrbaker import cli, lindblad, nmr, qstate
from nmrbaker.lindblad import EvolutionEngine, NoiseModel
from nmrbaker.nmr import SPIN_C1, SPIN_C2, SPIN_H, HamiltonianModel

FIG2_NOISE = NoiseModel.from_inverse_times(4.0, 0.7, 0.4)


def plus_y_state():
    q = np.array([1.0, 1.0j]) / np.sqrt(2)
    return np.kron(np.kron(q, q), q)


def plus_y_density():
    psi = plus_y_state()
    return np.outer(psi, psi.conj())


@pytest.fixture(scope="module")
def model():
    return HamiltonianModel()  # noxy, measured couplings


@pytest.fixture(scope="module")
def engine(model):
    return EvolutionEngine(model, FIG2_NOISE)


@pytest.fixture(scope="module")
def engine_closed(model):
    return EvolutionEngine(model, NoiseModel())


class TestNoiseModel:
    def test_inverse_times(self):
        nm = NoiseModel.from_inverse_times(4.0, 0.7, 0.4)
        assert nm.gamma_h == pytest.approx(0.25)
        assert nm.gamma_c1 == pytest.approx(1 / 0.7)
        assert nm.gamma_c2 == pytest.approx(2.5)

    def test_infinite_time_means_no_noise(self):
        nm = NoiseModel.from_inverse_times(np.inf, np.inf, np.inf)
        assert nm == NoiseModel()

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(gamma_h=-1.0)


class TestDissipator:
    def test_diagonal_state_is_fixed(self):
        rho = np.diag(np.arange(1.0, 9.0)) / 36
        np.testing.assert_allclose(
            oracles.dissipator(rho, FIG2_NOISE), np.zeros((8, 8)), atol=1e-15
        )

    def test_traceless_output(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        out = oracles.dissipator(rho, FIG2_NOISE)
        assert abs(np.trace(out)) < 1e-14
        assert qstate.is_hermitian(out, tol=1e-12)

    def test_single_spin_decay_rate(self):
        # restricted to one spin the master equation gives
        # d(rho01)/dt = -2 Gamma rho01
        rho = plus_y_density()
        out = oracles.dissipator(rho, NoiseModel(gamma_h=0.7))
        # H off-diagonal block decays at 2*Gamma, diagonal untouched
        np.testing.assert_allclose(out[:4, 4:], -2 * 0.7 * rho[:4, 4:], atol=1e-14)
        np.testing.assert_allclose(out[:4, :4], 0, atol=1e-14)


class TestLiouvillian:
    def test_trace_preserving_generator(self, model):
        gen = lindblad.liouvillian(model, FIG2_NOISE)
        trace_functional = np.eye(8).reshape(-1)
        assert np.max(np.abs(trace_functional @ gen)) < 1e-12

    def test_matches_direct_rhs(self, model):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        gen = lindblad.liouvillian(model, FIG2_NOISE)
        h = model.matrix()
        direct = -1j * (h @ rho - rho @ h) + oracles.dissipator(rho, FIG2_NOISE)
        np.testing.assert_allclose(
            (gen @ rho.reshape(-1)).reshape(8, 8), direct, atol=1e-12
        )


class TestDelayPropagator:
    @pytest.mark.parametrize("variant", nmr.VARIANTS)
    def test_zero_duration_is_identity(self, variant):
        # elementwise exp under noxy and simplified, scipy's expm under full
        engine = EvolutionEngine(HamiltonianModel(variant=variant), FIG2_NOISE)
        np.testing.assert_array_equal(engine.delay_propagator(0.0), np.eye(64))

    def test_closed_system_matches_unitary(self, engine_closed, model):
        t = model.tau2
        rho = plus_y_density()
        u = qstate.hermitian_propagator(model.matrix())(t)
        out = lindblad.apply_superoperator(engine_closed.delay_propagator(t), rho)
        np.testing.assert_allclose(out, u @ rho @ u.conj().T, atol=1e-9)

    def test_semigroup_property(self):
        assert cli.check("delay propagator semigroup").passed

    def test_negative_duration_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.delay_propagator(-1e-3)

    @pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf])
    def test_non_finite_duration_rejected(self, duration):
        engine = EvolutionEngine(HamiltonianModel(), FIG2_NOISE)
        for _ in range(2):
            with pytest.raises(ValueError, match="finite"):
                engine.delay_propagator(duration)
        assert engine._cache == {}

    def test_cache_returns_identical_object(self, engine):
        assert engine.delay_propagator(0.005) is engine.delay_propagator(0.005)

    def test_propagator_preserves_state_invariants(self, engine):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        out = lindblad.apply_superoperator(engine.delay_propagator(0.02), rho)
        assert abs(np.trace(out) - 1) < 1e-9
        assert qstate.is_hermitian(out, tol=1e-10)
        assert np.linalg.eigvalsh(out).min() > -1e-9

    def test_cache_is_thread_safe(self, model):
        from concurrent.futures import ThreadPoolExecutor

        eng = EvolutionEngine(model, FIG2_NOISE)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: eng.delay_propagator(model.tau1), range(16)))
        for r in results[1:]:
            assert r is results[0]

    def test_analytic_dephasing_magnitude(self, model):
        # with an all-Z Hamiltonian every coherence magnitude decays by
        # exactly exp(-2 Gamma t) per flipped spin; phases are free
        eng = EvolutionEngine(model, FIG2_NOISE)
        t = 0.05
        rho = plus_y_density()
        out = lindblad.apply_superoperator(eng.delay_propagator(t), rho)
        # element |000><100|: only H flips
        assert abs(out[0, 4]) == pytest.approx(
            abs(rho[0, 4]) * np.exp(-2 * FIG2_NOISE.gamma_h * t), abs=1e-8
        )
        # element |000><001|: only C2 flips
        assert abs(out[0, 1]) == pytest.approx(
            abs(rho[0, 1]) * np.exp(-2 * FIG2_NOISE.gamma_c2 * t), abs=1e-8
        )
        # element |000><111|: all three flip
        total = FIG2_NOISE.gamma_h + FIG2_NOISE.gamma_c1 + FIG2_NOISE.gamma_c2
        assert abs(out[0, 7]) == pytest.approx(
            abs(rho[0, 7]) * np.exp(-2 * total * t), abs=1e-8
        )

    def test_rk4_agrees_with_exact_exponential(self):
        assert cli.check("rk4 integrator vs exact exponential").passed

    def test_rk4_is_the_step_polynomial_to_the_step_count(self, engine, model):
        # the classical four-stage loop over the same 200 steps of tau1/200;
        # the sums run in another order, so allow 200 steps of round-off
        gen, h = engine._generator, model.tau1 / 200
        prop = np.eye(64, dtype=complex)
        for _ in range(200):
            k1 = gen @ prop
            k2 = gen @ (prop + h / 2 * k1)
            k3 = gen @ (prop + h / 2 * k2)
            k4 = gen @ (prop + h * k3)
            prop = prop + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        np.testing.assert_allclose(engine._rk4_propagator(model.tau1), prop, rtol=0, atol=1e-13)


def choi(prop):
    """Choi matrix sum_kl |k><l| (x) E(|k><l|) of a superoperator acting on
    row-stacked density matrices (Wood, Biamonte & Cory, arXiv:1111.6950)."""
    return prop.reshape(8, 8, 8, 8).transpose(2, 0, 3, 1).reshape(64, 64)


class TestChannelProperties:
    def test_choi_of_identity_channel(self):
        bell = np.eye(8).reshape(-1)
        np.testing.assert_array_equal(choi(np.eye(64)), np.outer(bell, bell))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(rates=st.tuples(*[st.floats(0, 50)] * 3), variant=st.sampled_from(nmr.VARIANTS),
           duration=st.floats(0, 0.1))
    def test_delay_propagator_is_cptp(self, rates, variant, duration):
        engine = EvolutionEngine(HamiltonianModel(variant=variant), NoiseModel(*rates))
        c = choi(engine.delay_propagator(duration))
        # completely positive: the Choi matrix is PSD
        assert np.linalg.eigvalsh(c).min() > -1e-9
        # trace preserving: tracing out the output leaves the identity
        np.testing.assert_allclose(np.einsum("kili->kl", c.reshape(8, 8, 8, 8)), np.eye(8),
                                   rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(rates=st.tuples(*[st.floats(0, 50)] * 3), variant=st.sampled_from(nmr.VARIANTS),
           convention=st.sampled_from(nmr.CONVENTIONS), duration=st.floats(0, 0.1))
    def test_delay_propagator_equals_expm_bit_for_bit(self, rates, variant, convention,
                                                      duration):
        engine = EvolutionEngine(HamiltonianModel(variant=variant, convention=convention),
                                 NoiseModel(*rates))
        gen = engine._generator
        # only the XX+YY exchange term of `full` couples distinct basis elements
        assert np.any(gen[~np.eye(64, dtype=bool)]) == (variant == "full")
        assert np.array_equal(engine.delay_propagator(duration),
                              scipy.linalg.expm(gen * duration))


class TestRunSequence:
    def test_closed_system_equals_unitary_conjugation(self, engine_closed, model):
        seq = nmr.t_odd(model)
        rho = plus_y_density()
        out = lindblad.run_sequence(rho, seq, engine_closed)
        u = nmr.sequence_unitary(seq, model)
        np.testing.assert_allclose(out, u @ rho @ u.conj().T, atol=1e-8)

    def test_trace_preserved(self, engine, model):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        out = lindblad.run_sequence(rho, nmr.t_even(model), engine)
        assert abs(np.trace(out) - 1) < 1e-9

    def test_purity_never_increases_across_delays(self, engine, model):
        rho = plus_y_density()
        purity = np.trace(rho @ rho).real
        prop = engine.delay_propagator(model.tau1)
        for _ in range(10):
            rho = lindblad.apply_superoperator(prop, rho)
            new_purity = np.trace(rho @ rho).real
            assert new_purity <= purity + 1e-12
            purity = new_purity

    def test_six_step_run_stays_physical(self, engine, model):
        rho = plus_y_density()
        for n in range(1, 7):
            seq = nmr.t_odd(model) if n % 2 else nmr.t_even(model)
            rho = lindblad.run_sequence(rho, seq, engine)
            assert abs(np.trace(rho) - 1) < 1e-9
            assert qstate.is_hermitian(rho, tol=1e-10)
            assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_invalid_input_rejected(self, engine, model):
        with pytest.raises(ValueError):
            lindblad.run_sequence(np.eye(8), nmr.t_odd(model), engine)

    def test_random_programs_closed_system(self, engine_closed, model):
        rng = np.random.default_rng(6)
        rho = plus_y_density()
        spins = [SPIN_H, SPIN_C1, SPIN_C2]
        for _ in range(5):
            instructions = []
            for _ in range(12):
                kind = rng.integers(3)
                if kind == 0:
                    instructions.append(nmr.rot_x(spins[rng.integers(3)], rng.normal() * np.pi))
                elif kind == 1:
                    instructions.append(nmr.rot_y(spins[rng.integers(3)], rng.normal() * np.pi))
                else:
                    instructions.append(nmr.delay(float(rng.random()) * 0.01))
            seq = nmr.PulseSequence("random", tuple(instructions))
            out = lindblad.run_sequence(rho, seq, engine_closed)
            u = nmr.sequence_unitary(seq, model)
            np.testing.assert_allclose(out, u @ rho @ u.conj().T, atol=1e-9)


class TestTrajectories:
    def test_closed_system_matches_master_equation(self, engine_closed, model):
        seq = nmr.t_odd(model)
        out = lindblad.run_sequence(plus_y_density(), seq, engine_closed)
        mean = oracles.trajectory_run(plus_y_state(), seq, engine_closed, 10, seed=0)
        np.testing.assert_allclose(mean, out, atol=1e-12)

    def test_fixed_seed_reproducible(self, engine, model):
        seq = nmr.t_odd(model)
        a = oracles.trajectory_run(plus_y_state(), seq, engine, 200, seed=42)
        b = oracles.trajectory_run(plus_y_state(), seq, engine, 200, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_converges_to_master_equation(self, engine, model):
        seq = nmr.t_odd(model)
        exact = lindblad.run_sequence(plus_y_density(), seq, engine)
        mean, stderr = oracles.trajectory_run(
            plus_y_state(), seq, engine, 10_000, seed=7, with_stats=True
        )
        err = np.abs(mean - exact)
        assert np.all(err <= 3 * stderr + 1e-12)

    def test_general_path_for_full_hamiltonian(self):
        # the XX+YY terms make H non-diagonal, forcing event-driven jumps
        model = HamiltonianModel(variant="full")
        engine = EvolutionEngine(model, FIG2_NOISE)
        seq = nmr.PulseSequence(
            "short", (nmr.delay(model.tau1), nmr.rot_x(SPIN_H, np.pi / 2), nmr.delay(model.tau1))
        )
        exact = lindblad.run_sequence(plus_y_density(), seq, engine)
        mean, stderr = oracles.trajectory_run(
            plus_y_state(), seq, engine, 4000, seed=3, with_stats=True
        )
        err = np.abs(mean - exact)
        assert np.all(err <= 4 * stderr + 1e-12)

    def test_needs_at_least_one_trajectory(self, engine, model):
        with pytest.raises(ValueError):
            oracles.trajectory_run(plus_y_state(), nmr.t_odd(model), engine, 0, seed=1)
