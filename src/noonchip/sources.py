"""Photon-pair source models.

Covers the two-photon path-entangled state produced by a pair of coherently
pumped down-conversion sources (balance, phase, purity), spectral overlap
between the sources and pump-power rate scaling.

Spectral amplitudes are taken real and non-negative (no spectral chirp):
``f = sqrt(I)`` for the configured intensity shape.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, _check_finite, _check_positive, _sectors

__all__ = [
    "SpectrumSpec",
    "SourceRateSpec",
    "noon_mixed",
    "spectral_overlap",
    "pair_rate",
]

SPEED_OF_LIGHT_NM_PER_FS = 299.792458

# Root of (sin x / x)^2 = 1/2; fixes the sinc^2 width normalization.
_SINC_HALF_X = 1.39155737825151

# Samples of the shared grid on which spectral_overlap integrates a pair with a sinc^2 spectrum.
_OVERLAP_GRID_POINTS = 20001


@dataclass(frozen=True)
class SpectrumSpec:
    """Marginal photon spectrum: intensity FWHM around a center wavelength."""

    center_nm: float = 1562.0
    fwhm_nm: float = 50.0
    shape: str = "gaussian"

    def __post_init__(self):
        _check_positive("center wavelength", self.center_nm)
        _check_positive("bandwidth", self.fwhm_nm)
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
        _check_finite("brightness", self.brightness_pairs_per_s_per_mw, low=0.0)
        _check_finite("pump power", self.pump_mw, low=0.0)


def noon_mixed(balance: float, phase: float, purity: float) -> DensityMatrix:
    """Partially dephased two-photon path state.

    Diagonal (b, 0, 1-b); the |2,0><0,2| coherence is
    purity * sqrt(b(1-b)) * e^{-2i*phase}, the unique interpolation that is
    fully dephased at purity 0 and at purity 1 is the pure state
    sqrt(b)|2,0> + e^{2i*phase} sqrt(1-b)|0,2>.  The doubled phase reflects
    two photons sharing each path; balance 0 is a single pumped source
    (|0,2> only).  Positive semidefinite and trace one for all parameters
    in range, so the state is built without a re-check.  The phase is bounded
    by half the largest float, so that 2 * phase stays finite.
    """
    b = _check_finite("balance", balance, 0.0, 1.0)
    phase = _check_finite("phase", phase, -sys.float_info.max / 2, sys.float_info.max / 2)
    _check_finite("purity", purity, 0.0, 1.0)
    coherence = purity * math.sqrt(b * (1.0 - b)) * np.exp(-2j * phase)
    rho = np.array(
        [
            [b, 0.0, coherence],
            [0.0, 0.0, 0.0],
            [np.conj(coherence), 0.0, 1.0 - b],
        ],
        dtype=complex,
    )
    return DensityMatrix._trusted(_sectors(2, 2, 2), rho)


def spectral_overlap(s1: SpectrumSpec, s2: SpectrumSpec) -> float:
    """|integral f1(w) f2(w) dw|^2 for unit-normalized spectral amplitudes.

    Two Gaussians of intensity FWHM W1, W2 and center offset dw have the
    closed form 2 W1 W2 / (W1^2 + W2^2) * exp(-4 ln 2 dw^2 / (W1^2 + W2^2)).
    A pair with a sinc^2 spectrum is evaluated by the trapezoid rule on a
    shared grid spanning 5 FWHM beyond both spectra.  Symmetric in its
    arguments.  Equals the purity parameter of the mixed two-photon state
    when the two sources differ only spectrally.
    """
    if s1.shape == s2.shape == "gaussian":
        w1, w2 = s1.fwhm_angular_freq, s2.fwhm_angular_freq
        spread, detuning = w1**2 + w2**2, s1.center_angular_freq - s2.center_angular_freq
        return 2.0 * w1 * w2 / spread * math.exp(-4.0 * math.log(2.0) * detuning**2 / spread)
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
