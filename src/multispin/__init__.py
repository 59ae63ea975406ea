"""Simulation and verification toolkit for multi-species spherical mixed p-spin models."""

from .geometry import BandSpec, Configuration
from .hamiltonian import HamiltonianInstance, build_instance
from .mixture import Mixture, SpeciesLayout
from .thermo import FreeEnergyEstimate, PTResult

__version__ = "0.1.0"

__all__ = [
    "BandSpec",
    "Configuration",
    "FreeEnergyEstimate",
    "HamiltonianInstance",
    "Mixture",
    "PTResult",
    "SpeciesLayout",
    "build_instance",
    "__version__",
]
