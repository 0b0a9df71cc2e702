"""Delay-dependent two-photon interference (Hong-Ou-Mandel dip).

The pair is modeled as CW-pumped and frequency anti-correlated about the
degenerate center: signal and idler sit at +W and -W detuning.  The
cross-coincidence probability after a 50:50 splitter is

    P(tau) = 1/2 * (1 - V0 * g(tau)),
    g(tau) = int I(W) cos(2*W*tau) dW / int I(W) dW,

with I the marginal intensity spectrum.  The anti-correlation doubles the
oscillation rate relative to a single-photon wavepacket model (cos(2*W*tau)
rather than cos(W*tau)), which halves the dip width for a given bandwidth;
dip-width/bandwidth conversions here assume that CW-pair kernel.  V0 folds
in all non-spectral distinguishability and is an input, not derived.

Both supported intensity shapes have exact cosine transforms.  With W the
intensity FWHM in rad/fs and x_half the root of (sin x / x)^2 = 1/2:

    gaussian: g = exp(-(W*tau)^2 / (4 ln 2)),    dip FWHM 4 ln 2 / W
    sinc2:    g = max(0, 1 - |tau| / a),         dip FWHM a = 2 x_half / W

so the envelope, its width and the width's inverse are all closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import _check_finite, _check_positive
from .sources import _SINC_HALF_X, SpectrumSpec

__all__ = [
    "HomScanSpec",
    "hom_coincidence",
    "dip_fwhm",
    "bandwidth_from_dip",
]

_MAX_DELAY_POINTS = 10**7  # 80 MB of float64 delays

# Dip FWHM (fs) times the intensity FWHM W (rad/fs), per spectral shape.
_DIP_FWHM_TIMES_W = {"gaussian": 4.0 * math.log(2.0), "sinc2": 2.0 * _SINC_HALF_X}


@dataclass(frozen=True)
class HomScanSpec:
    """Delay scan parameters: range in fs, pair spectrum, baseline visibility."""

    delay_min_fs: float = -300.0
    delay_max_fs: float = 300.0
    delay_step_fs: float = 2.0
    spectrum: SpectrumSpec = field(default_factory=SpectrumSpec)
    baseline_visibility: float = 1.0

    def __post_init__(self):
        delay_min = _check_finite("delay min", self.delay_min_fs)
        delay_max = _check_finite("delay max", self.delay_max_fs)
        if delay_max <= delay_min:
            raise ValueError("delay range must be non-empty")
        step = _check_positive("delay step", self.delay_step_fs)
        _check_finite("delay point count", (delay_max - delay_min) / step, high=_MAX_DELAY_POINTS)
        _check_finite("baseline visibility", self.baseline_visibility, 0.0, 1.0)

    def delays_fs(self) -> np.ndarray:
        n = int(math.floor((self.delay_max_fs - self.delay_min_fs) / self.delay_step_fs)) + 1
        return self.delay_min_fs + self.delay_step_fs * np.arange(n)


def _overlap_envelope(tau_fs, spectrum: SpectrumSpec) -> np.ndarray:
    """g(tau): normalized cosine transform of the intensity spectrum, in closed form."""
    tau = np.asarray(tau_fs)
    # A dtype check, O(1): a float cast would read strings and bools as numbers.
    if tau.dtype.kind not in "iuf":
        raise ValueError(f"delay must be a real number, got dtype {tau.dtype}")
    tau_fs = np.abs(np.atleast_1d(tau.astype(float, copy=False)))
    if np.isnan(tau_fs).any():
        raise ValueError("delay must not be NaN")
    width = spectrum.fwhm_angular_freq
    if spectrum.shape == "gaussian":
        return np.exp(-((width * tau_fs) ** 2) / (4.0 * math.log(2.0)))
    a = _DIP_FWHM_TIMES_W["sinc2"] / width
    return np.maximum(0.0, 1.0 - tau_fs / a)


def hom_coincidence(tau_fs, spec: HomScanSpec):
    """Normalized cross-coincidence probability at relative delay tau (fs).

    1/2 at large delay (distinguishable limit), (1 - V0)/2 at zero delay.
    g(tau) is the closed-form envelope of the module docstring: a Gaussian,
    or for sinc2 a triangle that reaches 0 at |tau| = 2 x_half / W.
    """
    g = _overlap_envelope(tau_fs, spec.spectrum)
    p = 0.5 * (1.0 - spec.baseline_visibility * g)
    if np.ndim(tau_fs) == 0:
        return float(p[0])
    return p


def dip_fwhm(spec: HomScanSpec) -> float:
    """Full width (fs) of the dip at half its depth: 4 ln 2 / W or 2 x_half / W.

    Half depth corresponds to g(tau) = 1/2 independent of the baseline
    visibility, so the width probes only the spectrum.
    """
    if spec.baseline_visibility == 0:
        raise ValueError("baseline visibility is 0: no dip to measure")
    return _DIP_FWHM_TIMES_W[spec.spectrum.shape] / spec.spectrum.fwhm_angular_freq


def bandwidth_from_dip(width_fs: float, shape: str = "gaussian", center_nm: float = 1562.0) -> float:
    """Invert dip_fwhm: spectral FWHM (nm) producing the given dip width.

    The dip width is inversely proportional to the spectral FWHM, so the
    bandwidth is the width of a 1 nm spectrum divided by width_fs; the two
    functions round-trip to rounding error.  Wider dips correspond to
    narrower spectra.
    """
    _check_positive("dip width", width_fs)
    unit = SpectrumSpec(center_nm=center_nm, fwhm_nm=1.0, shape=shape)
    return dip_fwhm(HomScanSpec(spectrum=unit)) / width_fs
