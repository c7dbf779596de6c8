import math
import sys
import types
import uuid

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nmrbaker import chaos, cli, lindblad, nmr, qstate
from nmrbaker.chaos import ExperimentConfig
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

    @pytest.mark.parametrize("noise", [NoiseModel(), FIG2_NOISE, NoiseModel(gamma_c1=3.0)],
                             ids=["closed", "fig2", "c1-only"])
    @pytest.mark.parametrize("convention", nmr.CONVENTIONS)
    @pytest.mark.parametrize("variant", nmr.VARIANTS)
    def test_cached_parts_equal_the_kron_build(self, variant, convention, noise):
        model = HamiltonianModel(variant=variant, convention=convention)
        for _ in range(2):  # the build that fills the cache, then one that reads it
            assert np.array_equal(lindblad.liouvillian(model, noise),
                                  oracles.kron_liouvillian(model, noise))


class TestDelayPropagator:
    @pytest.mark.parametrize("variant", nmr.VARIANTS)
    def test_zero_duration_is_identity(self, variant):
        # elementwise exp under every variant: a zero matrix is diagonal
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

    @pytest.mark.parametrize("preset", sorted(chaos.PRESETS))
    @pytest.mark.parametrize("convention", nmr.CONVENTIONS)
    @pytest.mark.parametrize("variant", nmr.VARIANTS)
    def test_chaotic_step_propagators_equal_their_direct_build(self, variant, convention, preset):
        # t_odd then t_even, as chaos._steps resolves them: under `full`,
        # t_even's 2 tau1 is t_odd's tau1 squared and still expm's bits
        cfg = ExperimentConfig.preset(preset, hamiltonian=variant, convention=convention)
        assert_cache_equals_direct_build(cfg.engine())

    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4", "fig5"])
    @pytest.mark.parametrize("convention", nmr.CONVENTIONS)
    def test_t_even_resolves_alike_fresh_and_after_t_odd(self, convention, preset):
        # under `full`, t_even's 2 tau1 delay is expm's on a fresh engine and
        # t_odd's tau1 squared after t_odd: for every preset program the two
        # are one set of bits, though not for every duration
        cfg = ExperimentConfig.preset(preset, hamiltonian="full", convention=convention)
        model = cfg.model()
        fresh = cfg.engine().operators(nmr.t_even(model))
        engine = cfg.engine()
        engine.operators(nmr.t_odd(model))
        after = engine.operators(nmr.t_even(model))
        assert {model.tau1, 2 * model.tau1} <= engine._cache.keys()
        assert len(after) == len(fresh) == 16
        for pair, ref in zip(after, fresh):
            for a, b in zip(pair, ref, strict=True):
                assert (a is None) == (b is None) and (a is None or np.array_equal(a, b))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(rates=st.tuples(*[st.floats(0, 1e5)] * 3), variant=st.sampled_from(nmr.VARIANTS),
           convention=st.sampled_from(nmr.CONVENTIONS))
    def test_chaotic_step_propagators_equal_their_direct_build_at_any_rate(self, rates,
                                                                           variant, convention):
        model = HamiltonianModel(variant=variant, convention=convention)
        assert_cache_equals_direct_build(EvolutionEngine(model, NoiseModel(*rates)))

    @pytest.mark.parametrize("convention", nmr.CONVENTIONS)
    @pytest.mark.parametrize("variant, map_variant, calls", [
        ("full", "chaotic", 3), ("full", "regular", 1), ("noxy", "chaotic", 0),
        ("noxy", "regular", 0), ("simplified", "chaotic", 0), ("simplified", "regular", 0)])
    def test_expm_calls_per_engine(self, monkeypatch, variant, map_variant, calls, convention):
        # tau1, 1.25 tau1 and 0.75 tau1 for the chaotic map (2 tau1 is
        # squared); tau2 alone for the regular one; none on a diagonal path
        counted = []
        monkeypatch.setattr(lindblad, "_expm", lambda a, expm=lindblad._expm:
                            counted.append(a) or expm(a))
        cfg = ExperimentConfig.preset("fig5", map_variant=map_variant, hamiltonian=variant,
                                      convention=convention)
        chaos._steps(cfg, cfg.engine(), 2)
        assert len(counted) == calls

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(inverse_times=st.tuples(*[st.just(math.inf) | st.floats(1e-3, 20)] * 3),
           convention=st.sampled_from(nmr.CONVENTIONS), duration=st.floats(0, 0.1))
    def test_expm_equals_scipy_byte_for_byte(self, inverse_times, convention, duration):
        # each example also takes every delay a preset program holds, and 0:
        # scipy's diagonal branch, whose signed zeros the Pade branch misses
        model = HamiltonianModel(variant="full", convention=convention)
        gen = EvolutionEngine(model, NoiseModel.from_inverse_times(*inverse_times))._generator
        for t in {0.0, duration, *(ins.value for program in chaos._programs(model)
                                   for ins in program.instructions if ins.op == "U")}:
            assert lindblad._expm(gen * t).tobytes() == scipy.linalg.expm(gen * t).tobytes(), t

    def test_missing_expm_kernels_name_the_scipy_version(self, monkeypatch):
        monkeypatch.setitem(sys.modules, lindblad._PADE, types.ModuleType(lindblad._PADE))
        lindblad._pade_kernels.cache_clear()  # the kernels loaded so far; a failure is not cached
        with pytest.raises(ImportError, match=f"scipy {scipy.__version__} is installed"):
            lindblad._pade_kernels()

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


def assert_cache_equals_direct_build(engine):
    """Resolve ``t_odd`` then ``t_even`` in ``engine``, then require every
    cached propagator to equal its direct build bit for bit: ``expm`` under
    ``full``, the elementwise exponential otherwise."""
    model = engine.model
    for program in nmr.t_odd, nmr.t_even:
        engine.operators(program(model))
    assert {model.tau1, 2 * model.tau1} <= engine._cache.keys()
    gen = engine._generator
    for duration, prop in engine._cache.items():
        direct = (scipy.linalg.expm(gen * duration) if model.variant == "full"
                  else np.diag(np.exp(np.diag(gen) * duration)))
        assert np.array_equal(prop, direct), duration


def pulse_runs(seq) -> list:
    """``seq`` split as its operators are resolved: each delay alone, and
    each run of back-to-back pulses as one list."""
    parts = []
    for ins in seq.instructions:
        if ins.op != "U" and parts and isinstance(parts[-1], list):
            parts[-1].append(ins)
        else:
            parts.append(ins if ins.op == "U" else [ins])
    return parts


class TestOperators:
    def test_cached_operators_are_read_only(self, engine, model):
        ops = engine.operators(nmr.t_even(model))
        arrays = [*lindblad._commutator(model), *lindblad._DEPHASING.values(),
                  *lindblad._DEPHASING_DIAGONAL.values(), *(a for pair in ops for a in pair if a is not None)]
        assert any(b is None for _, b in ops) and len(arrays) > len(ops)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0

    def test_program_resolves_once_per_engine(self, engine, model):
        # one entry per delay and one per run of back-to-back pulses
        for program, entries in (nmr.t_odd, 14), (nmr.t_even, 16), (nmr.t_regular, 16):
            seq = program(model)
            ops, parts = engine.operators(seq), pulse_runs(seq)
            assert len(ops) == len(parts) == entries, seq.name
            for (a, b), part in zip(ops, parts):
                if isinstance(part, list):
                    # the run's product, first pulse applied first
                    run = nmr.sequence_unitary(nmr.PulseSequence("run", tuple(part)), model)
                    np.testing.assert_allclose(a, run, rtol=0, atol=1e-15)
                    assert np.array_equal(b, a.conj().T)
                else:
                    assert b is None and a is engine.delay_propagator(part.value)

    def test_engines_do_not_share_operator_lists(self, model):
        # the pulse pairs depend on the model alone, so engines share them;
        # each engine's propagators are its own
        closed, noisy = EvolutionEngine(model, NoiseModel()), EvolutionEngine(model, FIG2_NOISE)
        for program in nmr.t_odd, nmr.t_even, nmr.t_regular:
            seq = program(model)
            for (a, b), (c, d), part in zip(closed.operators(seq), noisy.operators(seq), pulse_runs(seq),
                                            strict=True):
                if isinstance(part, list):
                    assert a is c and b is d
                else:
                    assert a is closed.delay_propagator(part.value) and c is noisy.delay_propagator(part.value)
                    assert not np.array_equal(a, c)

    @pytest.mark.parametrize("convention", nmr.CONVENTIONS)
    @pytest.mark.parametrize("variant", nmr.VARIANTS)
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(segments=st.lists(st.one_of(
        st.lists(st.builds(nmr.PulseInstruction, st.sampled_from("XY"), st.sampled_from(nmr.SPINS),
                           st.floats(-2 * math.pi, 2 * math.pi)), min_size=1, max_size=3),
        st.lists(st.builds(nmr.delay, st.sampled_from([0.0, 1e-4, 2e-4, 1.3e-3]) | st.floats(0, 0.01)),
                 min_size=1, max_size=3)), max_size=5))
    def test_operators_equal_the_groupby_oracle_entry_by_entry(self, variant, convention, segments):
        # random programs, the empty one included, with runs of pulses and of
        # delays; the pulse pairs come from the plan that every engine of the
        # model shares, the propagators from each engine's own cache
        seq = nmr.PulseSequence("random", tuple(ins for segment in segments for ins in segment))
        model = HamiltonianModel(variant=variant, convention=convention)
        closed, noisy = EvolutionEngine(model, NoiseModel()), EvolutionEngine(model, FIG2_NOISE)
        for engine in closed, noisy:
            ops, want = engine.operators(seq), oracles.groupby_operators(seq, engine)
            assert len(ops) == len(want)
            for (a, b), (c, d) in zip(ops, want):
                assert (b is None) == (d is None)
                assert a is c if b is None else a.tobytes() == c.tobytes() and b.tobytes() == d.tobytes()
        for (a, b), (c, d) in zip(closed.operators(seq), noisy.operators(seq), strict=True):
            assert (a is c and b is d) if b is not None else a is not c

    def test_program_is_planned_once_per_model(self, monkeypatch):
        # two engines of each of the six models: the program's pulses are
        # composed once per model, and each model's engines share its pairs
        built = []
        monkeypatch.setattr(lindblad, "pulse_unitary", lambda ins, model, build=nmr.pulse_unitary:
                            built.append(model) or build(ins, model))
        seq = nmr.PulseSequence(f"planned-once-{uuid.uuid4()}", (
            nmr.rot_x(SPIN_H, 0.3), nmr.rot_y(SPIN_C1, 0.5), nmr.delay(1e-3), nmr.rot_x(SPIN_C2, 0.7)))
        models = [HamiltonianModel(variant=v, convention=c) for v in nmr.VARIANTS for c in nmr.CONVENTIONS]
        pairs = []
        for model in models:
            first, second = (EvolutionEngine(model, noise).operators(seq) for noise in (NoiseModel(), FIG2_NOISE))
            assert first[0] is second[0] and first[2] is second[2]
            pairs.append(first[0])
        assert built == [model for model in models for _ in range(3)]
        assert len({id(pair) for pair in pairs}) == len(models)

    @pytest.mark.parametrize("convention", nmr.CONVENTIONS)
    @pytest.mark.parametrize("variant", nmr.VARIANTS)
    def test_regular_program_resolves_one_entry_per_instruction(self, variant, convention):
        # t_regular alternates delay and pulse, so no pulses compose and each
        # pair is the pulse's own: regular-map outputs stay bit for bit
        model = HamiltonianModel(variant=variant, convention=convention)
        engine = EvolutionEngine(model, FIG2_NOISE)
        seq = nmr.t_regular(model)
        for (a, b), ins in zip(engine.operators(seq), seq.instructions, strict=True):
            if ins.op == "U":
                assert b is None and a is engine.delay_propagator(ins.value)
            else:
                u = nmr.pulse_unitary(ins, model)
                assert np.array_equal(a, u) and np.array_equal(b, u.conj().T)


# every preset's noise, and noise with zero rates
NOISES = {**{name: NoiseModel.from_inverse_times(p["inv_gamma_h"], p["inv_gamma_c1"], p["inv_gamma_c2"])
             for name, p in chaos.PRESETS.items()},
          "closed": NoiseModel(), "c1-only": NoiseModel(gamma_c1=3.0), "no-c1": NoiseModel(0.25, 0.0, 2.5)}


class TestGeneratorBuilds:
    @pytest.mark.parametrize("noise", NOISES.values(), ids=NOISES.keys())
    @pytest.mark.parametrize("convention", nmr.CONVENTIONS)
    @pytest.mark.parametrize("variant", ["noxy", "simplified"])
    def test_diagonal_engine_builds_no_dense_generator(self, variant, convention, noise, monkeypatch):
        # its diagonal, summed on its own, exponentiates to the bytes of the
        # dense generator's diagonal, signed zeros included
        model = HamiltonianModel(variant=variant, convention=convention)
        engines = []
        with monkeypatch.context() as patch:
            def forbidden(*args):
                raise AssertionError("a dense generator was built")

            patch.setattr(lindblad, "liouvillian", forbidden)
            patch.setattr(chaos, "EvolutionEngine", lambda *args: engines.append(EvolutionEngine(*args))
                          or engines[-1])
            for map_variant in chaos.MAP_VARIANTS:
                chaos.entropy_experiment(ExperimentConfig(
                    map_variant=map_variant, hamiltonian=variant, convention=convention, steps=2,
                    **{f"inv_gamma_{spin.lower()}": 1 / g if g else math.inf for spin, g in noise.items()}))
        assert [engine.noise for engine in engines] == [noise] * 2
        diagonal = np.diag(lindblad.liouvillian(model, noise))
        for engine in engines:
            assert "_generator" not in vars(engine) and engine._cache
            for duration, prop in engine._cache.items():
                assert prop.tobytes() == np.diag(np.exp(diagonal * duration)).tobytes(), duration

    @pytest.mark.parametrize("map_variant", chaos.MAP_VARIANTS)
    def test_full_engine_builds_its_dense_generator_once(self, map_variant, monkeypatch):
        built = []
        monkeypatch.setattr(lindblad, "liouvillian", lambda *args, build=lindblad.liouvillian:
                            built.append(args) or build(*args))
        cfg = ExperimentConfig.preset("fig2", map_variant=map_variant, hamiltonian="full", steps=4)
        engine = cfg.engine()
        assert built == []
        chaos._steps(cfg, engine, cfg.steps)
        assert built == [(engine.model, engine.noise)]


def choi(prop):
    """Choi matrix sum_kl |k><l| (x) E(|k><l|) of a superoperator acting on
    row-stacked density matrices (Wood, Biamonte & Cory, arXiv:1111.6950)."""
    return prop.reshape(8, 8, 8, 8).transpose(2, 0, 3, 1).reshape(64, 64)


def assert_cptp(prop):
    c = choi(prop)
    # completely positive: the Choi matrix is PSD
    assert np.linalg.eigvalsh(c).min() > -1e-9
    # trace preserving: tracing out the output leaves the identity
    np.testing.assert_allclose(np.einsum("kili->kl", c.reshape(8, 8, 8, 8)), np.eye(8),
                               rtol=0, atol=1e-12)


class TestChannelProperties:
    def test_choi_of_identity_channel(self):
        bell = np.eye(8).reshape(-1)
        np.testing.assert_array_equal(choi(np.eye(64)), np.outer(bell, bell))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(rates=st.tuples(*[st.floats(0, 50)] * 3), variant=st.sampled_from(nmr.VARIANTS),
           duration=st.floats(0, 0.1))
    def test_delay_propagator_is_cptp(self, rates, variant, duration):
        engine = EvolutionEngine(HamiltonianModel(variant=variant), NoiseModel(*rates))
        assert_cptp(engine.delay_propagator(duration))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(rates=st.tuples(*[st.floats(0, 50)] * 3), convention=st.sampled_from(nmr.CONVENTIONS),
           duration=st.floats(0, 0.05))
    def test_doubled_delay_built_after_its_half_is_close_to_expm_and_cptp(self, rates, convention,
                                                                          duration):
        # the square is expm's bits only where scipy takes the same Pade
        # degree for both durations; elsewhere it is within round-off.  The
        # ranges are test_delay_propagator_is_cptp's: at 1e5 /s expm's own
        # trace error reaches 1e-12
        engine = EvolutionEngine(HamiltonianModel(variant="full", convention=convention),
                                 NoiseModel(*rates))
        engine.delay_propagator(duration)
        doubled = engine.delay_propagator(2 * duration)
        np.testing.assert_allclose(doubled, scipy.linalg.expm(engine._generator * (2 * duration)),
                                   rtol=0, atol=1e-14)
        assert_cptp(doubled)

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

    @pytest.mark.parametrize("shape", [(8,), (4, 8), (2, 8, 4)])
    def test_states_must_be_eight_by_eight(self, engine, model, shape):
        with pytest.raises(ValueError, match="density matrices"):
            lindblad.run_sequence(np.zeros(shape), nmr.t_odd(model), engine)

    @pytest.mark.parametrize("variant", nmr.VARIANTS)
    @pytest.mark.parametrize("map_variant", ["chaotic", "regular"])
    def test_stack_equals_each_state_alone(self, map_variant, variant):
        cfg = ExperimentConfig.preset("fig5", map_variant=map_variant, hamiltonian=variant)
        engine = cfg.engine()
        states = np.array(chaos.history_ensemble(cfg, 2))  # 4 distinct states
        t_odd, t_even, t_regular = chaos._programs(cfg.model())
        for program in [t_odd, t_even] if map_variant == "chaotic" else [t_regular]:
            stacked = lindblad.run_sequence(states.reshape(2, 2, 8, 8), program, engine)
            assert stacked.shape == (2, 2, 8, 8)
            for got, rho in zip(stacked.reshape(4, 8, 8), states):
                # by bytes: array_equal takes -0.0 for +0.0
                assert got.tobytes() == lindblad.run_sequence(rho, program, engine).tobytes()

    def test_superoperator_accepts_a_list(self, engine, model):
        prop, rho = engine.delay_propagator(model.tau1), plus_y_density()
        assert (lindblad.apply_superoperator(prop.tolist(), rho.tolist()).tobytes()
                == lindblad.apply_superoperator(prop, rho).tobytes())

    def test_superoperator_on_a_stack_equals_each_state_alone(self, engine, model):
        prop = engine.delay_propagator(model.tau1)
        states = np.array([plus_y_density(), np.eye(8) / 8, np.diag(np.arange(8.0)) / 28])
        stacked = lindblad.apply_superoperator(prop, states)
        for got, rho in zip(stacked, states):
            assert got.tobytes() == lindblad.apply_superoperator(prop, rho).tobytes()
            assert got.tobytes() == (prop @ rho.astype(complex).reshape(-1)).reshape(8, 8).tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(variant=st.sampled_from(nmr.VARIANTS), map_variant=st.sampled_from(chaos.MAP_VARIANTS),
           convention=st.sampled_from(nmr.CONVENTIONS), perturbed=st.booleans(),
           inverse_times=st.tuples(*[st.just(math.inf) | st.floats(0.05, 20)] * 3))
    def test_lone_state_equals_its_stack_row_and_the_matmul_loop_byte_for_byte(
            self, variant, map_variant, convention, perturbed, inverse_times):
        # an entropy run's state, step by step, as row 0 of a stack with two
        # other states; a perturbed run's averaged kicks write exact zeros,
        # whose signs array_equal would not compare
        cfg = ExperimentConfig(map_variant=map_variant, hamiltonian=variant, convention=convention,
                               inv_gamma_h=inverse_times[0], inv_gamma_c1=inverse_times[1],
                               inv_gamma_c2=inverse_times[2], steps=4,
                               artificial_perturbation=perturbed)
        rho = chaos.initial_density()
        z_h = nmr.LIFTED_PAULI["Z", SPIN_H]
        stack = np.array([rho, z_h @ rho @ z_h, (rho + np.eye(8) / 8) / 2])
        for operators, z in chaos._steps(cfg, cfg.engine(), cfg.steps):
            lone, stacked = lindblad._evolve(rho, operators), lindblad._evolve(stack, operators)
            assert stacked.shape == stack.shape
            assert lone.tobytes() == stacked[0].tobytes()
            assert lone.tobytes() == oracles.matmul_evolve(rho, operators).tobytes()
            assert stacked.tobytes() == oracles.matmul_evolve(stack, operators).tobytes()
            if perturbed:
                lone, stacked = chaos._averaged_kick(lone, z), np.array(
                    [chaos._averaged_kick(state, z) for state in stacked])
            rho, stack = lone, stacked

    @pytest.mark.parametrize("bad", range(3))
    def test_invalid_input_anywhere_in_a_stack_rejected(self, engine, model, bad):
        states = np.array([plus_y_density()] * 3)
        states[bad] = np.eye(8)  # trace 8
        with pytest.raises(ValueError, match="trace"):
            lindblad.run_sequence(states, nmr.t_odd(model), engine)

    @pytest.mark.parametrize("bad", range(3))
    def test_invalid_output_anywhere_in_a_stack_raises(self, model, bad):
        # under a negative rate the delay leaves a diagonal state as it is
        # (every Z commutes with it) but drives a coherent one non-positive
        noise = NoiseModel()
        object.__setattr__(noise, "gamma_c2", -2.5)
        engine = EvolutionEngine(model, noise)
        states = np.array([np.diag(np.arange(1.0, 9.0)) / 36] * 3, dtype=complex)
        states[bad] = plus_y_density()
        seq = nmr.PulseSequence("wait", (nmr.delay(model.tau1),))
        with pytest.raises(lindblad.PhysicsError, match="negative eigenvalue"):
            lindblad.run_sequence(states, seq, engine)
        for rho in np.delete(states, bad, axis=0):
            lindblad.run_sequence(rho, seq, engine)  # the other states stay physical

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
