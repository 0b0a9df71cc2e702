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

from .fock import DensityMatrix, PureState, enumerate_sectors

__all__ = [
    "PATTERN_BASIS",
    "DetectionPattern",
    "DETECTION_PATTERNS",
    "LossSpec",
    "apply_loss",
    "pattern_probs",
    "ClickFractions",
    "SPLITTER_TREE_DETECTION",
    "splitter_tree_click_probs",
    "invert_splitter_tree",
    "VisibilityFit",
    "fit_fringe",
    "visibility",
    "loss_budget",
]

# Canonical order of the two-photon output patterns.
PATTERN_BASIS = ((2, 0), (1, 1), (0, 2))

ARM_A_CHANNELS = (0, 1)
ARM_B_CHANNELS = (2, 3)
CROSS_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))


@dataclass(frozen=True)
class DetectionPattern:
    """A two-photon output pattern and the detector pairs that signal it."""

    occupation: tuple[int, int]
    label: str
    detector_pairs: tuple[tuple[int, int], ...]


DETECTION_PATTERNS = (
    DetectionPattern((2, 0), "2a0b", ((0, 1),)),
    DetectionPattern((1, 1), "1a1b", CROSS_PAIRS),
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
    return 10.0 ** (-loss_db / 10.0)


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
                if value < 0:
                    raise ValueError(f"loss entry {name!r} must be >= 0 dB")

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


def _loss_amplitudes(n: int, lost: int, eta: float) -> float:
    """Kraus coefficient for losing `lost` of `n` photons at transmission eta."""
    return math.sqrt(
        math.comb(n, lost) * eta ** (n - lost) * (1.0 - eta) ** lost
    )


def apply_loss(rho: DensityMatrix, eta_a: float, eta_b: float) -> DensityMatrix:
    """Independent per-photon loss on each mode (binomial thinning channel).

    Each photon in mode a (b) survives with probability eta_a (eta_b);
    coherences pick up the corresponding amplitude factors.  The output
    basis spans all photon-number sectors from the input maximum down to
    vacuum; the trace is preserved.
    """
    for eta in (eta_a, eta_b):
        if not 0.0 <= eta <= 1.0:
            raise ValueError("transmission must lie in [0, 1]")
    if rho.mode_count != 2:
        raise ValueError("loss channel is defined for the two-mode device")

    n_max = max(sum(occ) for occ in rho.basis)
    out_basis = tuple(enumerate_sectors(2, n_max))
    out_index = {occ: i for i, occ in enumerate(out_basis)}
    in_basis = rho.basis
    d_in, d_out = len(in_basis), len(out_basis)

    # Kraus operator per (photons lost in a, photons lost in b).
    out = np.zeros((d_out, d_out), dtype=complex)
    max_occ = max(max(occ) for occ in rho.basis)
    for la in range(max_occ + 1):
        for lb in range(max_occ + 1):
            k = np.zeros((d_out, d_in))
            for j, (na, nb) in enumerate(in_basis):
                if la > na or lb > nb:
                    continue
                coeff = _loss_amplitudes(na, la, eta_a) * _loss_amplitudes(nb, lb, eta_b)
                k[out_index[(na - la, nb - lb)], j] = coeff
            if k.any():
                out += k @ rho.matrix @ k.T
    return DensityMatrix(out_basis, out)


def pattern_probs(state: DensityMatrix | PureState) -> np.ndarray:
    """Probabilities of the three two-photon patterns, in PATTERN_BASIS order.

    The state may span several photon-number sectors (after loss); the
    result then sums to the two-photon sector weight rather than one.
    """
    if isinstance(state, PureState):
        state = state.to_density()
    diag = state.probabilities()
    index = {occ: i for i, occ in enumerate(state.basis)}
    probs = np.zeros(3)
    for k, occ in enumerate(PATTERN_BASIS):
        if occ in index:
            probs[k] = diag[index[occ]]
    return probs


@dataclass(frozen=True)
class ClickFractions:
    """Coincidence-rate fractions at the four detectors, per pattern input.

    Two photons in one arm split across that arm's detector pair only half
    the time, while |1,1> always yields a cross-arm pair, so an equal-
    amplitude bunched fringe peaks at one quarter of the anti-bunched peak.
    The per-pattern factors are SPLITTER_TREE_DETECTION, which both
    splitter_tree_click_probs and invert_splitter_tree apply.
    """

    same_arm_a: float
    same_arm_b: float
    cross_total: float

    @property
    def pair_fractions(self) -> dict[tuple[int, int], float]:
        fractions = {
            ARM_A_CHANNELS: self.same_arm_a,
            ARM_B_CHANNELS: self.same_arm_b,
        }
        for pair in CROSS_PAIRS:
            fractions[pair] = self.cross_total / 4.0
        return fractions


# Probability that a pair in each pattern, in PATTERN_BASIS order, fires one
# of that pattern's detector pairs: a bunched pair splits across its arm's two
# detectors half the time, a split pair always lands on some cross pair.
SPLITTER_TREE_DETECTION = (0.5, 1.0, 0.5)


def splitter_tree_click_probs(probs) -> ClickFractions:
    """Map chip-output pattern probabilities through the 50:50 splitter trees."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (3,):
        raise ValueError("expected probabilities for the three patterns")
    if probs.min() < -1e-12 or probs.sum() > 1.0 + 1e-9:
        raise ValueError("invalid probability vector")
    same_a, cross, same_b = probs * SPLITTER_TREE_DETECTION
    return ClickFractions(same_arm_a=same_a, same_arm_b=same_b, cross_total=cross)


def invert_splitter_tree(clicks) -> np.ndarray:
    """Chip-output pattern probabilities from per-pattern coincidence weights.

    `clicks` holds the same-arm a, cross-arm and same-arm b coincidence
    counts (or rates), in PATTERN_BASIS order.  Each is divided by its
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


def visibility(phases, values, frequency: float = 2.0) -> float:
    """Fringe contrast (max-min)/(max+min) of the fitted sinusoid."""
    return fit_fringe(phases, values, frequency).visibility


def loss_budget(
    detected_pairs_per_s: float,
    per_photon_loss_db: float,
    pump_mw: float,
) -> float:
    """On-chip brightness (pairs/s/mW) inferred from detected pair rate.

    Both photons of a pair attenuate independently, so the detected rate is
    scaled back up by the squared transmission before dividing by pump.
    """
    if detected_pairs_per_s < 0 or per_photon_loss_db < 0:
        raise ValueError("rate and loss must be >= 0")
    if pump_mw <= 0:
        raise ValueError("pump power must be > 0 to infer brightness")
    return detected_pairs_per_s * 10.0 ** (2.0 * per_photon_loss_db / 10.0) / pump_mw
