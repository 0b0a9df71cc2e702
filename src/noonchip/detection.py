"""Lossy detection and measurement statistics.

The chip's two outputs each feed a 50:50 fiber splitter with two detectors,
four detectors total (channels 0,1 on arm a; channels 2,3 on arm b).
Pattern probabilities are defined at the chip outputs; splitter-tree
routing is a separate conditional layer, so the ideal-state math stays
loss-free and the bunched-pattern factor of 4 appears explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .fock import DensityMatrix, _check_finite, _check_floats, _check_positive
from .fock import _check_work_bytes, _lowering, _sector, _sectors

__all__ = [
    "DetectionPattern",
    "DETECTION_PATTERNS",
    "LossSpec",
    "apply_loss",
    "pattern_probs",
    "SPLITTER_TREE_DETECTION",
    "invert_splitter_tree",
    "VisibilityFit",
    "fit_fringe",
    "loss_budget",
]


@dataclass(frozen=True)
class DetectionPattern:
    """A two-photon output pattern and the detector pairs that signal it."""

    occupation: tuple[int, int]
    label: str
    detector_pairs: tuple[tuple[int, int], ...]


# The two-photon output patterns in canonical Fock order, each with the
# splitter-tree detector pairs that signal it.
DETECTION_PATTERNS = (
    DetectionPattern((2, 0), "2a0b", ((0, 1),)),
    DetectionPattern((1, 1), "1a1b", ((0, 2), (0, 3), (1, 2), (1, 3))),
    DetectionPattern((0, 2), "0a2b", ((2, 3),)),
)


# Loss budget entries in dB for the collection path of each chip output.
DEFAULT_LOSS_BREAKDOWN_DB = MappingProxyType(
    {
        "grating_coupler": 10.0,
        "long_pass_filter": 1.0,
        "fiber_splitter": 1.0,
        "detector": 1.0,
    }
)


def db_to_transmission(loss_db: float) -> float:
    return 10.0 ** (-_check_finite("loss_db", loss_db, low=0.0) / 10.0)


@dataclass(frozen=True)
class LossSpec:
    """Per-output collection loss, as a dB breakdown per component."""

    breakdown_a_db: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_LOSS_BREAKDOWN_DB)
    )
    breakdown_b_db: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_LOSS_BREAKDOWN_DB)
    )

    def __post_init__(self):
        for breakdown in (self.breakdown_a_db, self.breakdown_b_db):
            for name, value in breakdown.items():
                _check_finite(f"loss entry {name!r} (dB)", value, low=0.0)

    @property
    def total_a_db(self) -> float:
        return sum(self.breakdown_a_db.values())

    @property
    def total_b_db(self) -> float:
        return sum(self.breakdown_b_db.values())

    @property
    def eta_a(self) -> float:
        return db_to_transmission(self.total_a_db)

    @property
    def eta_b(self) -> float:
        return db_to_transmission(self.total_b_db)


def apply_loss(rho: DensityMatrix, *transmissions: float) -> DensityMatrix:
    """Independent per-photon loss: a photon in mode k survives with probability eta_k.

    Mode by mode, the pure-loss channel in closed form, over every l at once:
    rho -> eta^(n_k/2) [sum_l (1 - eta)^l / l! a_k^l rho a_k^dag^l] eta^(n_k/2), with
    a_k^l / sqrt(l!) from ``fock._lowering``, the lift's ladder tables read downwards.
    The output spans every sector from the input's top down to vacuum.  A loss channel
    maps a checked state to a state, so the output is built without a re-check.  Each
    mode's gather holds (N + 1) d^2 complex entries, d the output dimension; a channel
    whose gather would exceed ``fock._MAX_LIFT_BYTES`` is refused before any table is built.
    """
    if not isinstance(rho, DensityMatrix):
        raise TypeError(f"cannot apply loss to object of type {type(rho).__name__}")
    m, high = rho.mode_count, sum(rho.basis[0])
    etas = _check_floats("transmissions", transmissions, m, 0.0, 1.0)
    d = math.comb(high + m, m)
    _check_work_bytes(f"loss on {high} photons over {m} modes", (high + 1) * d * d * 16)
    basis = _sectors(m, high, 0)
    source, weight, half_l, half_n = _lowering(m, high)
    out = np.zeros((d, d), dtype=complex)
    out[: len(rho.basis), : len(rho.basis)] = rho.matrix  # rho.basis leads the output basis
    for eta, src, w, hn in zip(etas, source, weight, half_n):
        f = w * (1.0 - eta) ** half_l * eta**hn  # l = row
        out = np.einsum("la,lb,lab->ab", f, f, out[src[:, :, None], src[:, None, :]])
    return DensityMatrix._trusted(basis, out)


def pattern_probs(state: DensityMatrix) -> np.ndarray:
    """Probabilities of the three two-photon patterns, in DETECTION_PATTERNS order.

    The state must be two-mode.  It may span several photon-number sectors
    (after loss); the result then sums to the two-photon sector weight
    rather than one.
    """
    if not isinstance(state, DensityMatrix):
        raise TypeError(f"cannot take pattern probabilities of type {type(state).__name__}")
    if state.mode_count != 2:
        raise ValueError(f"pattern probabilities need two modes, got {state.mode_count}")
    probs = state.probabilities()[_sector(state.basis, 2)]  # in canonical pattern order
    return probs if len(probs) else np.zeros(3)


# Probability that a pair in each pattern, in DETECTION_PATTERNS order, fires
# one of that pattern's detector pairs: a bunched pair splits across its arm's
# two detectors half the time, a split pair always lands on some cross pair, so
# an equal-amplitude bunched fringe peaks at a quarter of the anti-bunched one.
SPLITTER_TREE_DETECTION = (0.5, 1.0, 0.5)


def invert_splitter_tree(clicks) -> np.ndarray:
    """Chip-output pattern probabilities from per-pattern coincidence weights.

    `clicks` holds the same-arm a, cross-arm and same-arm b coincidence
    counts (or rates), in DETECTION_PATTERNS order.  Each is divided by its
    pattern's SPLITTER_TREE_DETECTION factor and the result is normalised
    to sum to one: the pattern probabilities conditioned on a detected pair.
    Equal detector efficiencies and mode transmissions scale every pattern
    alike and cancel in the normalisation.
    """
    clicks = np.asarray(clicks, dtype=float)
    if clicks.shape != (3,):
        raise ValueError("expected coincidence weights for the three patterns")
    if not np.all(np.isfinite(clicks)) or clicks.min() < 0:
        raise ValueError("coincidence weights must be finite and >= 0")
    probs = clicks / SPLITTER_TREE_DETECTION
    total = probs.sum()
    if total <= 0:
        raise ValueError("no coincidences to invert")
    return probs / total


@dataclass(frozen=True)
class VisibilityFit:
    """Sinusoid fit of a fringe at a fixed, known frequency."""

    visibility: float
    offset: float
    amplitude: float
    phase: float
    flat: bool


FLATNESS_EPS = 1e-14


def _fringe_design(phases: np.ndarray, frequency: float) -> np.ndarray:
    """Least-squares design matrix [1, cos(f*phi), sin(f*phi)] of the fringe model."""
    return np.column_stack(
        [np.ones_like(phases), np.cos(frequency * phases), np.sin(frequency * phases)]
    )


def fit_fringe(phases, values, frequency: float) -> VisibilityFit:
    """Least-squares fit of offset + amplitude*cos(frequency*phi + phase).

    The fringe frequency is fixed by how the scan is parameterized (2 for
    the two-photon phase scans, 1 for classical interferometer scans);
    offset, amplitude and phase are free.  Visibility is amplitude/offset,
    the (max-min)/(max+min) of the fitted curve.
    """
    phases = np.asarray(phases, dtype=float)
    values = np.asarray(values, dtype=float)
    _check_positive("frequency", frequency)
    if not (np.isfinite(phases).all() and np.isfinite(values).all()):
        raise ValueError("phases and values must be finite")
    if phases.shape != values.shape or phases.ndim != 1:
        raise ValueError("phases and values must be 1-d arrays of equal length")
    if len(phases) < 5:
        raise ValueError("need at least 5 samples")
    if phases.max() - phases.min() < 2.0 * math.pi / frequency:
        raise ValueError("samples must span at least one fringe period")

    if np.ptp(values) <= FLATNESS_EPS * max(1.0, np.abs(values).max()):
        return VisibilityFit(0.0, float(values.mean()), 0.0, 0.0, flat=True)

    coeffs, *_ = np.linalg.lstsq(_fringe_design(phases, frequency), values, rcond=None)
    offset, a, b = coeffs
    amplitude = math.hypot(a, b)
    phase = math.atan2(-b, a)
    if offset <= 0:
        return VisibilityFit(0.0, float(offset), float(amplitude), float(phase), flat=False)
    vis = min(amplitude / offset, 1.0)
    return VisibilityFit(float(vis), float(offset), float(amplitude), float(phase), flat=False)


def loss_budget(
    detected_pairs_per_s: float,
    per_photon_loss_db: float,
    pump_mw: float,
) -> float:
    """On-chip brightness (pairs/s/mW) inferred from detected pair rate.

    Both photons of a pair attenuate independently, so the detected rate is
    scaled back up by the squared transmission before dividing by pump.
    """
    _check_finite("detected pair rate", detected_pairs_per_s, low=0.0)
    _check_finite("per-photon loss", per_photon_loss_db, low=0.0)
    _check_positive("pump power", pump_mw)
    return detected_pairs_per_s * 10.0 ** (2.0 * per_photon_loss_db / 10.0) / pump_mw
