"""Entropy growth under dephasing: chaotic map vs do-nothing reference.

Three noise settings, matching the experiment presets:

* fig2 - measured relaxation times (0.7 s, 4.0 s, 0.4 s as 1/Gamma for
  C1, H, C2): both curves rise quickly, the chaotic one saturating near
  three bits, the reference one plateauing lower because refocusing
  protects the slowly-dephasing proton.
* fig3 - idealized times where only C2 is noisy: the maps separate, but
  the chaotic curve has no clean linear regime (the qubit labels
  alternate between steps).
* fig4 - slow uniform noise plus an artificial perturbation channel
  after every step: the textbook picture, linear growth then
  saturation for the chaotic map, near-flat for the reference.

Writes one whitespace-separated data file per preset next to this
script (step, chaotic, regular) for plotting.
"""

import pathlib

import numpy as np

from nmrbaker import chaos
from nmrbaker.chaos import ExperimentConfig

here = pathlib.Path(__file__).resolve().parent

for preset in ("fig2", "fig3", "fig4"):
    series = {}
    for variant in ("chaotic", "regular"):
        cfg = ExperimentConfig.preset(preset, map_variant=variant)
        series[variant] = dict(chaos.entropy_experiment(cfg))
    steps = sorted(series["chaotic"])
    print(f"{preset}: entropy in bits after n steps "
          f"(perturbation {'on' if ExperimentConfig.preset(preset).artificial_perturbation else 'off'})")
    print("  n   chaotic  regular")
    for n in steps:
        print(f"  {n}   {series['chaotic'][n]:.3f}    {series['regular'][n]:.3f}")
    rows = [(n, series["chaotic"][n], series["regular"][n]) for n in steps]
    out = here / f"entropy_{preset}.dat"
    np.savetxt(out, rows, fmt="%.17g",
               header=f"preset={preset} columns: step chaotic_bits regular_bits")
    print(f"  -> {out.name}")
    print()

print("reading the curves:")
print("- with realistic noise (fig2) decoherence dominates both maps;")
print("  distinguishing them needs either slower dephasing or the")
print("  perturbation bookkeeping of the hypersensitivity experiment")
print("- with the artificial perturbation (fig4) the chaotic map gains")
print("  about one bit per step until it saturates at three bits, while")
print("  the reference map barely moves: entropy production tracks the")
print("  map's stretching, not just the raw noise level")
