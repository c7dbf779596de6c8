"""Hypersensitivity to perturbation: information vs entropy reduction.

Run three noisy map iterations under every one of the 2^3 = 8
perturbation histories (kick / no kick after each step), then ask: to
reduce the entropy of the history-averaged state by delta_S bits, how
many bits of information about the history are needed?  For a regular
map one bit buys a lot; for a chaotic map the frontier is steep - the
histories spread into a highly non-orthogonal ensemble.

The exact frontier enumerates all 4140 partitions of the 8-state
ensemble; the greedy clustering (seeded restarts, Jensen-Shannon-type
distance) is shown for comparison and never beats it.
"""

import pathlib

import numpy as np

from nmrbaker import chaos
from nmrbaker.chaos import ExperimentConfig

here = pathlib.Path(__file__).resolve().parent

results = {}
for variant in ("chaotic", "regular"):
    cfg = ExperimentConfig.preset("fig5", map_variant=variant)
    results[variant] = chaos.hypersensitivity_experiment(cfg)

print("ensemble entropies (S_bar_max, bits) and frontier slopes")
print("--------------------------------------------------------")
for variant, res in results.items():
    print(f"  {variant:8s}: S_bar_max = {res.s_bar_max:.3f},"
          f" frontier slope = {res.slope:.2f},"
          f" {res.n_partitions} partitions enumerated")
print()
print("the averaged entropies are nearly identical - the ensembles differ")
print("in SHAPE, not size. The chaotic slope of ~6 approaches the Hilbert")
print("space dimension 8, the signature of a nearly random state cloud;")
print("the regular ensemble is almost classical:")
print()

for variant, res in results.items():
    print(f"{variant} frontier (delta_S -> I_min), selected points:")
    pts = res.frontier.points()
    for d, i in pts[:: max(1, len(pts) // 6)]:
        print(f"    {d:6.3f} -> {i:5.3f}")
    out = here / f"imin_{variant}.dat"
    np.savetxt(out, pts, fmt="%.17g", header="preset=fig5 columns: delta_s_bits i_min_bits")
    print(f"    -> {out.name}")
    print()

reg = results["regular"]
one_bit = [d for d, i in reg.frontier.points() if i <= 1.0 + 1e-9]
print(f"regular map: one bit of history information recovers up to "
      f"{max(one_bit):.3f} bits of entropy")
cha = results["chaotic"]
one_bit_c = [d for d, i in cha.frontier.points() if i <= 1.0 + 1e-9]
print(f"chaotic map: the same bit recovers only {max(one_bit_c):.3f} bits")
print()
print("greedy-vs-exact (chaotic): each greedy point sits on or above the frontier")
for d, i in cha.greedy_points:
    print(f"    greedy delta_S={d:6.3f}  I={i:5.3f}")
