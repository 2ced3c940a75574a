"""multiscat: desk-scale multiple-scattering numerics.

Building blocks (phase shifts, off-shell single-scatterer t-matrices,
free-resolvent kernels, structure constants) plus verification experiments
for the statement that only on-shell single-scatterer T-matrices contribute
to the on-shell total T-matrix.
"""

from multiscat.greens import structure_constants
from multiscat.lippmann import ComplexEnergy, MomentumGrid, solve_offshell_t
from multiscat.multiscatter import Numerics, Scenario, ScenarioEngine
from multiscat.potentials import (
    Potential,
    Scatterer,
    exponential,
    gaussian,
    square_well,
    truncated_coulomb,
)
from multiscat.radial import onshell_t_lm, phase_shift

__all__ = [
    "ComplexEnergy",
    "MomentumGrid",
    "Numerics",
    "Potential",
    "Scatterer",
    "Scenario",
    "ScenarioEngine",
    "exponential",
    "gaussian",
    "onshell_t_lm",
    "phase_shift",
    "solve_offshell_t",
    "square_well",
    "structure_constants",
    "truncated_coulomb",
]

__version__ = "0.1.0"
