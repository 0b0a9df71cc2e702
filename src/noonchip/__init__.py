"""noonchip: simulator of a two-source photonic chip generating a two-photon
path-entangled state and interfering it in a programmable Mach-Zehnder
interferometer, with lossy detection and time-tag Monte Carlo."""

__version__ = "0.1.0"

from .fock import (
    DensityMatrix,
    ModeUnitary,
    PureState,
    enumerate_basis,
    enumerate_sectors,
    evolve,
    lift_unitary,
    permanent,
)

__all__ = [
    "__version__",
    "DensityMatrix",
    "ModeUnitary",
    "PureState",
    "enumerate_basis",
    "enumerate_sectors",
    "evolve",
    "lift_unitary",
    "permanent",
]
