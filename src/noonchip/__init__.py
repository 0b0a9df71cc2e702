"""noonchip: simulator of a two-source photonic chip generating a two-photon
path-entangled state and interfering it in a programmable Mach-Zehnder
interferometer, with lossy detection and time-tag Monte Carlo."""

__version__ = "0.1.0"

__all__ = ["__version__"]
