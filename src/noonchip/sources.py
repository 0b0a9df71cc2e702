"""Photon-pair source models.

Covers the two-photon path-entangled state produced by a pair of coherently
pumped down-conversion sources (balance, phase, purity), spectral overlap
between the sources, pump-power rate scaling, and the generic sinc^2
quasi-phase-matching response.

Spectral amplitudes are taken real and non-negative (no spectral chirp):
``f = sqrt(I)`` for the configured intensity shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, PureState, enumerate_basis

__all__ = [
    "TWO_PHOTON_BASIS",
    "NoonSpec",
    "SpectrumSpec",
    "SourceRateSpec",
    "noon_pure",
    "noon_mixed",
    "spectral_overlap",
    "pair_rate",
    "qpm_response",
    "qpm_bandwidth_nm",
]

# Two modes, two photons: ((2, 0), (1, 1), (0, 2)).
TWO_PHOTON_BASIS = tuple(enumerate_basis(2, 2))

SPEED_OF_LIGHT_NM_PER_FS = 299.792458

# Root of (sin x / x)^2 = 1/2; fixes the sinc^2 width normalization.
_SINC_HALF_X = 1.39155737825151

# Full width at half maximum of sinc^2(x/2) in x = dk*L.
QPM_FWHM_DKL = 4.0 * _SINC_HALF_X

# Samples of the shared grid on which spectral_overlap integrates.
_OVERLAP_GRID_POINTS = 20001


@dataclass(frozen=True)
class NoonSpec:
    """Parameters of the generated two-photon path state.

    balance is the pair-generation weight of source a (0.5 = balanced),
    phase is the path phase (enters the state as exp(2i*phase)), and purity
    scales the coherence between the two double-occupancy components.
    """

    balance: float = 0.5
    phase: float = 0.0
    purity: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.balance <= 1.0:
            raise ValueError("balance must lie in [0, 1]")
        if not 0.0 <= self.purity <= 1.0:
            raise ValueError("purity must lie in [0, 1]")


@dataclass(frozen=True)
class SpectrumSpec:
    """Marginal photon spectrum: intensity FWHM around a center wavelength."""

    center_nm: float = 1562.0
    fwhm_nm: float = 50.0
    shape: str = "gaussian"

    def __post_init__(self):
        if not (math.isfinite(self.center_nm) and self.center_nm > 0):
            raise ValueError("center wavelength must be finite and > 0")
        if not (math.isfinite(self.fwhm_nm) and self.fwhm_nm > 0):
            raise ValueError("bandwidth must be finite and > 0")
        if self.shape not in ("gaussian", "sinc2"):
            raise ValueError("shape must be 'gaussian' or 'sinc2'")

    @property
    def center_angular_freq(self) -> float:
        """Center angular frequency in rad/fs."""
        return 2.0 * math.pi * SPEED_OF_LIGHT_NM_PER_FS / self.center_nm

    @property
    def fwhm_angular_freq(self) -> float:
        """Intensity FWHM in rad/fs (small-bandwidth conversion)."""
        return 2.0 * math.pi * SPEED_OF_LIGHT_NM_PER_FS * self.fwhm_nm / self.center_nm**2

    def intensity(self, detuning: np.ndarray) -> np.ndarray:
        """Unit-peak intensity at angular-frequency detuning (rad/fs)."""
        w = self.fwhm_angular_freq
        if self.shape == "gaussian":
            return np.exp(-4.0 * math.log(2.0) * (detuning / w) ** 2)
        x = (2.0 * _SINC_HALF_X / w) * detuning
        return np.sinc(x / math.pi) ** 2


@dataclass(frozen=True)
class SourceRateSpec:
    """On-chip brightness and pump power for the CW pair-generation rate."""

    brightness_pairs_per_s_per_mw: float
    pump_mw: float

    def __post_init__(self):
        if self.brightness_pairs_per_s_per_mw < 0 or self.pump_mw < 0:
            raise ValueError("brightness and pump power must be >= 0")


def noon_pure(balance: float, phase: float) -> PureState:
    """Pure two-photon path state sqrt(b)|2,0> + e^{2i*phi} sqrt(1-b)|0,2>.

    The doubled phase reflects two photons sharing each path; balance 0
    reduces to pumping a single source (|0,2> only).
    """
    if not 0.0 <= balance <= 1.0:
        raise ValueError("balance must lie in [0, 1]")
    amps = np.array(
        [
            math.sqrt(balance),
            0.0,
            np.exp(2j * phase) * math.sqrt(1.0 - balance),
        ],
        dtype=complex,
    )
    return PureState(TWO_PHOTON_BASIS, amps)


def noon_mixed(balance: float, phase: float, purity: float) -> DensityMatrix:
    """Partially dephased two-photon path state.

    Diagonal (b, 0, 1-b); the |2,0><0,2| coherence is
    purity * sqrt(b(1-b)) * e^{-2i*phase}, the unique interpolation that is
    pure at purity 1 and fully dephased at purity 0.  Positive semidefinite
    and trace one for all parameters in range.
    """
    if not 0.0 <= balance <= 1.0:
        raise ValueError("balance must lie in [0, 1]")
    if not 0.0 <= purity <= 1.0:
        raise ValueError("purity must lie in [0, 1]")
    b = balance
    coherence = purity * math.sqrt(b * (1.0 - b)) * np.exp(-2j * phase)
    rho = np.array(
        [
            [b, 0.0, coherence],
            [0.0, 0.0, 0.0],
            [np.conj(coherence), 0.0, 1.0 - b],
        ],
        dtype=complex,
    )
    return DensityMatrix(TWO_PHOTON_BASIS, rho)


def spectral_overlap(s1: SpectrumSpec, s2: SpectrumSpec) -> float:
    """|integral f1(w) f2(w) dw|^2 for unit-normalized spectral amplitudes.

    Evaluated by the trapezoid rule on a shared grid spanning 5 FWHM beyond
    both spectra; symmetric in its arguments.  Equals the purity parameter
    of the mixed two-photon state when the two sources differ only
    spectrally.
    """
    w1, w2 = s1.center_angular_freq, s2.center_angular_freq
    span = 5.0 * max(s1.fwhm_angular_freq, s2.fwhm_angular_freq)
    lo, hi = min(w1, w2) - span, max(w1, w2) + span
    grid = np.linspace(lo, hi, _OVERLAP_GRID_POINTS)
    i1 = s1.intensity(grid - w1)
    i2 = s2.intensity(grid - w2)
    f1 = np.sqrt(i1)
    f2 = np.sqrt(i2)
    num = np.trapezoid(f1 * f2, x=grid) ** 2
    den = np.trapezoid(i1, x=grid) * np.trapezoid(i2, x=grid)
    return float(num / den)


def pair_rate(spec: SourceRateSpec) -> float:
    """On-chip pairs/s: brightness times pump power (linear CW regime)."""
    return spec.brightness_pairs_per_s_per_mw * spec.pump_mw


def qpm_response(dkl: float | np.ndarray):
    """Normalized quasi-phase-matching efficiency sinc^2(dk*L / 2).

    Unity at perfect phase matching, first null at dk*L = 2*pi.
    """
    x = np.asarray(dkl, dtype=float) / 2.0
    out = np.sinc(x / math.pi) ** 2
    return float(out) if out.ndim == 0 else out


def qpm_bandwidth_nm(dkl_slope_per_nm: float) -> float:
    """Wavelength FWHM of the phase-matching curve for a linear dk(lambda) map.

    dkl_slope_per_nm is d(dk*L)/d(lambda) in rad/nm; it scales linearly with
    the poled length, so the bandwidth falls as 1/L.
    """
    if dkl_slope_per_nm == 0:
        raise ValueError("dk*L slope must be nonzero")
    return QPM_FWHM_DKL / abs(dkl_slope_per_nm)
