"""Pulse-level simulation of the quantum baker's map on a three-spin
NMR register (proton + two carbons of trichloroethylene), with
dephasing noise, and the two chaos experiments built on top of it:
entropy growth under decoherence and hypersensitivity to perturbation.
"""

# not cli: `python -m nmrbaker.cli` warns if the package already imported it
from . import baker, chaos, lindblad, nmr, qstate

__version__ = "0.1.0"
