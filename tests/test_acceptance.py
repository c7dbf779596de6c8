"""Acceptance suite: one test per shipped guarantee, at its contract tolerance.

Criteria 1-4 evaluate rows of ``cli.CHECKS``, the registry that
``nmrbaker verify`` prints, so each of those tolerances lives there.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Numeric thresholds that are not fixed by an external anchor
were frozen from this implementation's first full oracle run and act as
regression values.
"""

import math
import time

import numpy as np
import pytest

import oracles
from nmrbaker import chaos, cli, lindblad, nmr
from nmrbaker.chaos import ExperimentConfig
from nmrbaker.lindblad import EvolutionEngine, NoiseModel


def report(criterion, text):
    print(f"[acceptance] {criterion}: {text}: PASS")


@pytest.fixture(scope="module")
def fig2_series():
    return {
        v: dict(chaos.entropy_experiment(ExperimentConfig.preset("fig2", map_variant=v)))
        for v in ("chaotic", "regular")
    }


@pytest.fixture(scope="module")
def fig4_series():
    return {
        v: dict(chaos.entropy_experiment(ExperimentConfig.preset("fig4", map_variant=v)))
        for v in ("chaotic", "regular")
    }


@pytest.fixture(scope="module")
def hyper_results():
    start = time.perf_counter()
    results = {
        v: chaos.hypersensitivity_experiment(
            ExperimentConfig.preset("fig5", map_variant=v)
        )
        for v in ("chaotic", "regular")
    }
    results["elapsed"] = time.perf_counter() - start
    return results


def test_criterion_1_map_construction_equivalence():
    start = time.perf_counter()
    rep = cli.check("baker gate product vs closed form")
    elapsed = time.perf_counter() - start
    assert rep.passed, rep
    assert elapsed < 1.0
    report(1, f"gate product vs closed form, distance {rep.distance:.2e} in {elapsed:.3f}s")


def test_criterion_2_shift_map_property():
    reps = [cli.check(f"shift property, {v} map (1 - fidelity)") for v in ("full", "simplified")]
    assert all(rep.passed for rep in reps), reps
    report(2, f"16 shift checks, worst fidelity 1 - {max(r.distance for r in reps):.2e}")


def test_criterion_3_pulse_compiler_correctness():
    reps = [cli.check(name) for name in (
        "t_odd vs ideal gate product",
        "t_even vs ideal gate product",
        "full baker program vs ideal gate product",
        "total delay t_odd = 7 tau1",
        "total delay t_even = 14 tau1",
        "total delay t_regular = 10.5 tau1",
        "t_regular vs offset rotation",
    )]
    assert all(rep.passed for rep in reps), reps
    # the refocused reference map also compiles exactly on the 2:1 reference model
    ref = nmr.HamiltonianModel().compiler_reference()
    d_ref = nmr.compiled_distance(nmr.t_regular(ref), nmr.ideal_t_regular(ref), ref)
    assert d_ref < 1e-8
    worst = max(reps[0].distance, reps[1].distance, reps[2].distance, d_ref)
    report(3, f"four programs vs ideals (worst {worst:.2e}), delays exact,"
              f" refocused map distance {reps[-1].distance:.2e}")


def test_criterion_4_open_system_integrity():
    model = nmr.HamiltonianModel()
    noise = NoiseModel.from_inverse_times(4.0, 0.7, 0.4)
    engine = EvolutionEngine(model, noise)
    reps = {name: cli.check(name) for name in (
        "trace drift over six noisy steps",
        "rk4 integrator vs exact exponential",
        "analytic dephasing decay exp(-2*Gamma*t)",
    )}
    assert all(rep.passed for rep in reps.values()), reps

    # the six-step run keeps every eigenvalue non-negative
    rho = chaos.initial_density()
    worst_eig = math.inf
    for n in range(1, 7):
        seq = nmr.t_odd(model) if n % 2 else nmr.t_even(model)
        rho = lindblad.run_sequence(rho, seq, engine)
        worst_eig = min(worst_eig, np.linalg.eigvalsh(rho).min())
    assert worst_eig > -1e-9

    # trajectory unraveling reproduces the master equation statistically
    rho0 = chaos.initial_density()
    seq = nmr.t_odd(model)
    exact = lindblad.run_sequence(rho0, seq, engine)
    mean, stderr = oracles.trajectory_run(
        chaos.initial_state(), seq, engine, 10_000, seed=7, with_stats=True
    )
    max_sigma = float(np.max(np.abs(mean - exact) / np.maximum(stderr, 1e-12)))
    assert np.all(np.abs(mean - exact) <= 3 * stderr + 1e-12)
    drift, rk4, analytic = (rep.distance for rep in reps.values())
    report(4, f"trace drift {drift:.1e}, min eig {worst_eig:.1e},"
              f" rk4 {rk4:.1e}, dephasing oracle {analytic:.1e},"
              f" trajectories within {max_sigma:.2f} sigma")


def test_criterion_5_entropy_growth_realistic_noise(fig2_series):
    start = time.perf_counter()
    chaotic, regular = fig2_series["chaotic"], fig2_series["regular"]
    # the chaotic map saturates; the reference map plateaus lower because
    # the proton keeps its coherence under refocusing (frozen oracle
    # values 2.838 and 2.444)
    assert chaotic[6] >= 2.8
    assert regular[6] >= 2.40
    for n in (5, 6):
        assert abs(chaotic[n] - regular[n]) <= 0.45
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(5, f"S_chaotic(6)={chaotic[6]:.3f}, S_regular(6)={regular[6]:.3f},"
              f" late-step gap {abs(chaotic[6]-regular[6]):.3f}")


def test_criterion_6_entropy_growth_with_artificial_perturbation(fig4_series):
    chaotic, regular = fig4_series["chaotic"], fig4_series["regular"]
    # near-linear growth then saturation at three bits (frozen oracle run:
    # 0.83, 1.76, 2.48 then 3.000)
    increments = [chaotic[n + 1] - chaotic[n] for n in range(3)]
    assert all(inc > 0.6 for inc in increments)
    assert chaotic[6] >= 2.95
    for n in (3, 4, 5):
        assert chaotic[n] - regular[n] >= 1.0
    for n in range(2, 6):
        assert chaotic[n] > regular[n]
    report(6, f"chaotic increments {[f'{i:.2f}' for i in increments]},"
              f" saturation {chaotic[6]:.3f}, mid-step gap"
              f" {min(chaotic[n]-regular[n] for n in (3,4,5)):.2f}")


def test_criterion_7_hypersensitivity_anchors(hyper_results):
    chaotic, regular = hyper_results["chaotic"], hyper_results["regular"]
    assert chaotic.s_bar_max == pytest.approx(2.67, abs=0.25)
    assert regular.s_bar_max == pytest.approx(2.74, abs=0.25)
    # tightened tolerance after the documented angular/cycles calibration
    assert chaotic.s_bar_max == pytest.approx(2.67, abs=0.1)
    assert regular.s_bar_max == pytest.approx(2.74, abs=0.1)
    assert 4.0 <= chaotic.slope <= 8.0
    ensemble = chaos.history_ensemble(
        ExperimentConfig.preset("fig5", map_variant="regular"), 3
    )
    delta_s, info, _ = chaos.partition_scan(chaos.subset_entropies(chaos.subset_means(ensemble)))
    one_bit = delta_s[np.isclose(info, 1.0, atol=1e-9)]
    assert one_bit.max() >= 0.5
    assert hyper_results["elapsed"] < 60.0
    report(7, f"S_bar_max {chaotic.s_bar_max:.3f}/{regular.s_bar_max:.3f}"
              f" (refs 2.67/2.74), slope {chaotic.slope:.2f},"
              f" 1-bit grouping recovers {one_bit.max():.3f} bits,"
              f" pipeline {hyper_results['elapsed']:.1f}s")


def test_criterion_8_information_bound(hyper_results):
    ensemble = chaos.history_ensemble(
        ExperimentConfig.preset("fig5", map_variant="chaotic"), 3
    )
    delta_s, info, _ = chaos.partition_scan(chaos.subset_entropies(chaos.subset_means(ensemble)))
    assert len(info) == 4140
    margin = float(np.min(info - delta_s))
    assert margin >= -1e-12
    report(8, f"I >= delta_S over all 4140 partitions, min margin {margin:.2e}")


def test_criterion_9_greedy_dominated_by_exhaustive(hyper_results):
    violations = 0
    for result in (hyper_results["chaotic"], hyper_results["regular"]):
        frontier = result.frontier
        for d, i in result.greedy_points:
            feasible = frontier.i_min[frontier.delta_s >= d - 1e-12]
            if feasible.size and i < feasible.min() - 1e-12:
                violations += 1
    assert violations == 0
    n_points = sum(
        len(hyper_results[v].greedy_points) for v in ("chaotic", "regular")
    )
    report(9, f"{n_points} greedy points all on or above the exact frontier")


def test_criterion_10_determinism(tmp_path):
    for argv in (
        ["entropy", "--preset", "fig2", "--steps", "6", "--seed", "1"],
        ["hyper", "--preset", "fig5", "--map", "chaotic", "--seed", "1"],
        ["compile"],
    ):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert cli.run(argv + ["--out", str(a)]) == 0
        assert cli.run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"run not reproducible: {argv}"
    report(10, "entropy, hyper, and compile reruns byte-identical")
