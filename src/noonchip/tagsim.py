"""Monte Carlo detector time-tag streams and windowed coincidence counting.

A stream's channels are the four detectors of the splitter tree,
STANDARD_CHANNELS: 0 and 1 on output arm a, 2 and 3 on arm b.  The TagStream
constructor and both readers refuse any other channel with ValueError, so
counting and the codecs work on that fixed alphabet.

Pairs are emitted as a homogeneous Poisson process, routed to the four
detectors by sampling the pattern and splitter-tree outcomes, thinned by
per-mode transmission and per-detector efficiency, jittered, and merged with
per-channel Poisson dark counts.  Timestamps are integer picoseconds.

Each record is sorted as one int64 key, timestamp * 4 + channel.  Pair times
are drawn sorted, so with zero jitter and every dark rate zero the key is two
runs in pair-time order, photon 1's then photon 2's (out of channel order only
where pairs share a picosecond), which a stable sort merges in about linear
time.  No key is negative (a jittered stamp below 0 is dropped before the
cast), so the records inside the window [0, duration) are a prefix of the
sorted key.

Coincidences of every detector pair come from one split of the stream at
each gap wider than window/2, which no match of the greedy walk crosses in
any pair's sub-stream; a self pair (c, c) counts singles[c].

Randomness comes from numpy's PCG64 generator seeded with the configured
seed; the draw order is fixed (pair count, pair times, pattern, photon 1's
then photon 2's routing draw, photon 1's mode-transmission then
detector-efficiency draw, the same two for photon 2, photon 1's then
photon 2's jitter draw, then for each channel in ascending order its dark
count and dark times), so a given config reproduces a bit-identical stream.
A trailing run of draws whose results are all certain is skipped, which moves
no later draw.  With zero jitter and every dark rate zero, nothing is drawn
after the jitter draws (poisson(0.0) and random(0) consume no generator
state), so the two jitter draws, which would return only zeros, are skipped.
If also both mode transmissions and all four detector efficiencies are
exactly 1.0, the four thinning draws are skipped too: each compares a double
in [0, 1) with 1.0 and so keeps every photon.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .detection import (
    DETECTION_PATTERNS,
    SPLITTER_TREE_DETECTION,
    VisibilityFit,
    _fringe_design,
    fit_fringe,
    invert_splitter_tree,
)
from .fock import _check_finite, _check_floats, _check_index, _check_positive

__all__ = [
    "TagStream",
    "TagSimConfig",
    "CoincidenceResult",
    "generate_tags",
    "count_coincidences",
    "count_pattern_coincidences",
    "FringeEstimate",
    "fringe_from_tags",
    "STANDARD_PAIRS",
    "tags_to_bytes",
    "tags_from_bytes",
]

STANDARD_CHANNELS = (0, 1, 2, 3)
# Every detector pair that signals a two-photon pattern.
STANDARD_PAIRS = tuple(pair for p in DETECTION_PATTERNS for pair in p.detector_pairs)
_OUTSIDE_DETECTORS = "channels must lie in 0..3, the four detectors"

_BINARY_MAGIC = b"NOONTAG1"
# Magic, f64 duration_s, u8 channel count (4), the u8 channel ids 0..3, u64 record count.
_BINARY_HEADER = struct.Struct("<8sdB4BQ")
_BINARY_RECORD = np.dtype([("ch", "u1"), ("ts", "<u8")])


def _check_detectors(channels: np.ndarray) -> None:
    """Refuse decoded channels, unsigned integers, that are not detectors 0..3."""
    if len(channels) and channels.max() > 3:
        raise ValueError(_OUTSIDE_DETECTORS)


def _check_stamps(ts: np.ndarray, duration_s) -> None:
    """Refuse a duration that is not a finite number > 0, and int64 stamps that
    decrease or leave its window [0, round(duration_s * 1e12)) ps, the bound
    generate_tags keeps."""
    # Non-decreasing from a non-negative first stamp keeps every stamp >= 0, which
    # also refuses a u64 stamp past 2^63 that wrapped in the int64 cast.  Neighbours
    # are compared, not differenced: a difference can overflow int64.
    if len(ts) and (ts[0] < 0 or np.any(ts[1:] < ts[:-1])):
        raise ValueError("timestamps must be non-negative and non-decreasing")
    end_ps = _check_positive("duration", duration_s) * 1e12
    if len(ts) and end_ps < 2.0**63 and int(ts[-1]) >= round(end_ps):
        raise ValueError(f"timestamp {int(ts[-1])} ps lies past the {round(end_ps)} ps window")


@dataclass(frozen=True)
class TagStream:
    """Time-ordered detector click records over a fixed acquisition window.

    Each record is a uint8 channel, one of the four detectors in
    STANDARD_CHANNELS, and an int64 stamp in [0, round(duration_s * 1e12)) ps,
    the window that generate_tags keeps.  The constructor checks every field;
    generate_tags and the readers, whose records are valid by construction or
    checked as they are decoded, build the stream through ``_trusted``.
    """

    channels: np.ndarray
    timestamps_ps: np.ndarray
    duration_s: float

    def __post_init__(self):
        raw = np.asarray(self.channels)
        # A cast would read bool, string and object channels as numbers, so the dtype is
        # checked first; then the range, before the cast can wrap; then that it kept each value.
        if raw.dtype.kind not in "iuf":
            raise ValueError(f"channels must be integers, got dtype {raw.dtype}")
        if not np.all((raw >= 0) & (raw <= 3)):
            raise ValueError(_OUTSIDE_DETECTORS)
        ch = raw.astype(np.uint8, copy=False)
        if not np.array_equal(ch, raw):
            raise ValueError("channels must be integers")
        raw = np.asarray(self.timestamps_ps)
        # A cast would read bool, string and object stamps as numbers, and truncate floats.
        if raw.dtype.kind not in "iuf":
            raise ValueError(f"timestamps must be integers, got dtype {raw.dtype}")
        if raw.dtype.kind == "f" and not np.all((raw == np.floor(raw)) & (abs(raw) < 2.0**63)):
            raise ValueError("timestamps must be integers below 2^63 ps")
        ts = raw.astype(np.int64, copy=False)
        if ch.shape != ts.shape or ch.ndim != 1:
            raise ValueError("channels and timestamps must be 1-d arrays of equal length")
        _check_stamps(ts, self.duration_s)
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "timestamps_ps", ts)

    @classmethod
    def _trusted(cls, channels, timestamps_ps, duration_s):
        """A stream with no checks: uint8 channels in 0..3 and int64 stamps."""
        stream = object.__new__(cls)
        stream.__dict__.update(
            channels=channels, timestamps_ps=timestamps_ps, duration_s=duration_s
        )
        return stream

    def __len__(self) -> int:
        return len(self.timestamps_ps)

    def singles(self) -> dict[int, int]:
        return dict(zip(STANDARD_CHANNELS, np.bincount(self.channels, minlength=4).tolist()))


@dataclass(frozen=True)
class TagSimConfig:
    """Configuration of one acquisition run.

    pattern_probs is in the canonical pattern order ((2,0), (1,1), (0,2))
    and may sum to less than one; the deficit is treated as undetected
    pairs.  mode_transmission models the collection loss in each output arm
    ahead of the splitter tree.  duration_s must stay below 2^61 ps (26.7
    days), so that generate_tags can sort each record as one int64 key of
    timestamp * 4 + channel.
    """

    pair_rate_hz: float
    pattern_probs: tuple[float, float, float]
    duration_s: float
    seed: int
    detector_efficiency: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    mode_transmission: tuple[float, float] = (1.0, 1.0)
    dark_rate_hz: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    jitter_sigma_ps: float = 0.0

    def __post_init__(self):
        _check_finite("pair_rate_hz", self.pair_rate_hz, low=0.0)
        _check_finite("jitter_sigma_ps", self.jitter_sigma_ps, low=0.0)
        _check_index("seed", self.seed)
        probs = _check_floats("pattern_probs", self.pattern_probs, 3, low=-1e-12)
        if sum(probs) > 1.0 + 1e-9:
            raise ValueError("pattern_probs must be three probabilities summing to <= 1")
        if _check_positive("duration_s", self.duration_s) * 1e12 >= 2**61:
            raise ValueError("duration must be below 2^61 ps (26.7 days)")
        eff = _check_floats("detector_efficiency", self.detector_efficiency, 4, 0.0, 1.0)
        eta = _check_floats("mode_transmission", self.mode_transmission, 2, 0.0, 1.0)
        dark = self.dark_rate_hz
        if isinstance(dark, (int, float)):
            dark = (dark,) * 4
        dark = _check_floats("dark_rate_hz", dark, 4, low=0.0)
        object.__setattr__(self, "pattern_probs", probs)
        object.__setattr__(self, "detector_efficiency", eff)
        object.__setattr__(self, "mode_transmission", eta)
        object.__setattr__(self, "dark_rate_hz", dark)


def generate_tags(cfg: TagSimConfig) -> TagStream:
    """Simulate one acquisition and return the sorted click stream."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    duration_ps = int(round(cfg.duration_s * 1e12))

    n_pairs = int(rng.poisson(cfg.pair_rate_hz * cfg.duration_s))
    # Sorted pair times in ps, scaled in place: (u * duration_s) * 1e12.
    t_ps = rng.random(n_pairs)
    t_ps.sort()
    t_ps *= cfg.duration_s
    t_ps *= 1e12

    # For a non-decreasing cum, u >= cum[k] is searchsorted(cum, u, "right") > k.
    # Photon modes per pattern: (2,0) -> both a, (1,1) -> one each, (0,2) -> both b.
    u = rng.random(n_pairs)
    cum = np.cumsum(cfg.pattern_probs)
    mode1 = (u >= cum[1]).view(np.int8)
    mode2 = (u >= cum[0]).view(np.int8)
    emitted = u < cum[2]

    det1 = 2 * mode1 + (rng.random(n_pairs) >= 0.5)
    det2 = 2 * mode2 + (rng.random(n_pairs) >= 0.5)

    # Certain trailing draws are skipped (see the module docstring).
    noisy = cfg.jitter_sigma_ps > 0 or any(cfg.dark_rate_hz)
    keep1 = keep2 = emitted
    if noisy or min(cfg.mode_transmission + cfg.detector_efficiency) < 1.0:
        eta = np.asarray(cfg.mode_transmission)
        eff = np.asarray(cfg.detector_efficiency)
        keep1 = emitted & (rng.random(n_pairs) < eta[mode1]) & (rng.random(n_pairs) < eff[det1])
        keep2 = emitted & (rng.random(n_pairs) < eta[mode2]) & (rng.random(n_pairs) < eff[det2])

    if noisy:
        ts1 = np.rint(t_ps + rng.normal(0.0, cfg.jitter_sigma_ps, n_pairs))
        ts2 = np.rint(t_ps + rng.normal(0.0, cfg.jitter_sigma_ps, n_pairs))
        # A wide jitter can throw a stamp past int64.  Drop every stamp outside
        # [0, 2^61) ps, beyond any window, and zero it before the cast; the
        # exact window is applied below, so the stream is the same.
        keep1 &= (ts1 >= 0) & (ts1 < 2.0**61)
        keep2 &= (ts2 >= 0) & (ts2 < 2.0**61)
        ts1 = np.where(keep1, ts1, 0.0).astype(np.int64)
        ts2 = np.where(keep2, ts2, 0.0).astype(np.int64)
    else:
        ts1 = ts2 = np.rint(t_ps, out=t_ps).astype(np.int64)

    # Each record is one int64 key, timestamp * 4 + channel: stamps below 2^61
    # keep it in range, and key < duration_ps * 4 is the window on the stamp.
    chunks = [ts1[keep1] << 2 | det1[keep1], ts2[keep2] << 2 | det2[keep2]]
    for ch in STANDARD_CHANNELS:
        n_dark = int(rng.poisson(cfg.dark_rate_hz[ch] * cfg.duration_s))
        dark_ts = np.rint(rng.random(n_dark) * cfg.duration_s * 1e12).astype(np.int64)
        chunks.append(dark_ts << 2 | ch)

    key = np.concatenate(chunks)
    # One sort orders by time, then channel; equal keys are identical records, so any
    # sort kind gives the same array.  Without jitter and darks the key is two runs in
    # pair-time order, which the stable sort (timsort) merges in about linear time; on
    # other keys the default sort is faster.
    key.sort(kind=None if noisy else "stable")
    # No key is negative, so the window is the sorted prefix below duration_ps * 4.
    key = key[: np.searchsorted(key, duration_ps << 2)]
    # Sorted keys in the window give non-decreasing stamps inside it, on STANDARD_CHANNELS.
    # The stamps are shifted in place, in the key's buffer: a new array per stream
    # left more of the heap resident.
    channels = key.astype(np.uint8)
    channels &= 3
    key >>= 2
    return TagStream._trusted(channels, key, cfg.duration_s)


def _greedy_walk(a: list[int], b: list[int], half_width: float) -> int:
    """Greedy nearest-match pairing of two sorted timestamp lists.

    Walks both lists once in time order; a candidate pairing defers to the
    next tag on the other channel when that one is strictly closer.  Each
    tag is consumed by at most one coincidence.
    """
    i = j = matched = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        dt = a[i] - b[j]
        if dt > half_width:
            j += 1
            continue
        if dt < -half_width:
            i += 1
            continue
        if dt > 0 and j + 1 < lb and abs(b[j + 1] - a[i]) < dt:
            j += 1
            continue
        if dt < 0 and i + 1 < la and abs(a[i + 1] - b[j]) < -dt:
            i += 1
            continue
        matched += 1
        i += 1
        j += 1
    return matched


@dataclass(frozen=True)
class CoincidenceResult:
    """Windowed coincidence counts with singles and accidental estimates.

    Accidentals per pair follow R1 * R2 * window * duration computed from
    the measured singles rates; they are reported, not subtracted.
    """

    window_ps: float
    duration_s: float
    singles: dict[int, int]
    pair_counts: dict[tuple[int, int], int]
    pair_accidentals: dict[tuple[int, int], float]

    def pattern_counts(self) -> dict[str, int]:
        return _pattern_sums(self.pair_counts)

    def pattern_accidentals(self) -> dict[str, float]:
        return _pattern_sums(self.pair_accidentals)


def _pattern_sums(per_pair: dict) -> dict:
    """Label -> `per_pair` summed over its pattern's pairs (absent: 0), in pattern order."""
    return {p.label: sum(per_pair.get(q, 0) for q in p.detector_pairs) for p in DETECTION_PATTERNS}


def count_coincidences(stream: TagStream, window_ps: float, pairs) -> CoincidenceResult:
    """Count coincidences where two channels click within +/- window/2.

    Greedy nearest-match pairing per channel pair (see _greedy_walk); each
    tag is consumed at most once per pair.  The stream is split once at every
    gap wider than window/2, which no match or deferral of the walk crosses.
    One link mask, set where neighbouring tags lie within window/2, gives the
    clusters: a link with no link on either side is a two-tag cluster, counted
    for all pairs at once, and only the tags at the ends of the other links,
    those of larger clusters, are walked.  A self pair (c, c) counts
    singles[c], as the walk of a list against itself does.
    """
    _check_positive("window", window_ps)
    singles = stream.singles()
    half = window_ps / 2.0
    ch, ts = stream.channels, stream.timestamps_ps
    # link[i]: tags i and i + 1 share a cluster; padded (n + 1 long, so that an empty
    # stream gives empty masks) holds it at i + 1.  joined[i]: a neighbouring link.
    padded = np.zeros(len(ts) + 1, dtype=bool)
    link = padded[1:-1]
    np.less_equal(np.diff(ts), half, out=link)
    joined = padded[:-2] | padded[2:]
    two = np.flatnonzero(link > joined)
    lo, hi = np.minimum(ch[two], ch[two + 1]), np.maximum(ch[two], ch[two + 1])
    two_tag = np.bincount(lo * 4 + hi, minlength=16).reshape(4, 4)
    # The tags of larger clusters are both ends of every other link; walking their
    # concatenation equals walking each cluster alone.
    chain = padded.copy()
    chain[1:-1] &= joined
    big = chain[:-1] | chain[1:]
    ch_big, ts_big = ch[big], ts[big]
    pair_counts: dict[tuple[int, int], int] = {}
    pair_acc: dict[tuple[int, int], float] = {}
    for c1, c2 in pairs:
        for c in (c1, c2):
            if _check_index("channel id", c) not in STANDARD_CHANNELS:
                raise ValueError(f"unknown channel id {c}")
        key = (int(c1), int(c2))
        if c1 == c2:
            pair_counts[key] = singles[c1]
        else:
            a, b = ts_big[ch_big == c1].tolist(), ts_big[ch_big == c2].tolist()
            pair_counts[key] = int(two_tag[min(key), max(key)]) + _greedy_walk(a, b, half)
        pair_acc[key] = singles[c1] * singles[c2] * (window_ps * 1e-12) / stream.duration_s
    return CoincidenceResult(
        window_ps=window_ps,
        duration_s=stream.duration_s,
        singles=singles,
        pair_counts=pair_counts,
        pair_accidentals=pair_acc,
    )


def count_pattern_coincidences(stream: TagStream, window_ps: float) -> CoincidenceResult:
    """Coincidences over the six standard detector pairs of the splitter tree."""
    return count_coincidences(stream, window_ps, STANDARD_PAIRS)


@dataclass(frozen=True)
class FringeEstimate:
    """Fringe reconstruction from per-phase tag streams.

    `fractions` and `fractions_corrected` (accidentals subtracted) are the
    estimated chip-output pattern probabilities per phase point, keyed by
    pattern label: each pattern's coincidences divided by its splitter-tree
    detection probability, then normalised over the three patterns.
    `sigmas` are the 1-sigma errors on `fractions`, and `visibility_sigma`
    the errors they propagate into the visibilities of `fits`.

    `insufficient` is True when some point has no coincidence to estimate
    from: none at all (its fractions are zero and its sigmas one), or none
    left once the accidentals are subtracted (its corrected fractions are
    zero).  Such a point still enters the fits.
    """

    phases: np.ndarray
    fractions: dict[str, np.ndarray]
    sigmas: dict[str, np.ndarray]
    fractions_corrected: dict[str, np.ndarray]
    fits: dict[str, VisibilityFit]
    fits_corrected: dict[str, VisibilityFit]
    visibility_sigma: dict[str, float]
    insufficient: bool


def _visibility_sigma(phases, sigmas, frequency, fit: VisibilityFit) -> float:
    """1-sigma error on amplitude/offset by linear propagation through the fit."""
    pinv = np.linalg.pinv(_fringe_design(phases, frequency))
    cov = pinv @ np.diag(np.asarray(sigmas) ** 2) @ pinv.T
    c = fit.offset
    if c <= 0:
        return float("inf")
    a = fit.amplitude * math.cos(fit.phase)
    b = -fit.amplitude * math.sin(fit.phase)
    amp = fit.amplitude
    if amp < 1e-300:
        grad = np.array([0.0, 1.0 / c, 1.0 / c])
    else:
        grad = np.array([-amp / c**2, a / (amp * c), b / (amp * c)])
    return float(math.sqrt(max(grad @ cov @ grad, 0.0)))


def _pattern_sigmas(counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """1-sigma errors on probs = invert_splitter_tree(counts), by the delta method.

    The click fractions f = counts/N are multinomial, with covariance
    (diag(f) - f f^T)/N; each error is floored at 1/N, as a binomial error
    on a fraction of 0 or 1 would otherwise be zero.
    """
    total = counts.sum()
    f = counts / total
    cov = (np.diag(f) - np.outer(f, f)) / total
    inv_det = 1.0 / np.asarray(SPLITTER_TREE_DETECTION)
    # d probs_i / d f_k = (delta_ik - probs_i) * inv_det_k / sum_j(f_j * inv_det_j)
    jac = (np.eye(3) - probs[:, None]) * (inv_det / (f @ inv_det))
    var = np.einsum("ik,kl,il->i", jac, cov, jac)
    return np.sqrt(np.maximum(var, 1.0 / total**2))


def fringe_from_tags(scans, window_ps: float, frequency: float = 2.0) -> FringeEstimate:
    """Estimate per-pattern fringes and visibilities from (phase, stream) scans.

    Each phase point's pattern coincidences, raw and accidental-corrected,
    are mapped back through the splitter tree (invert_splitter_tree) to
    chip-output pattern probabilities, so a state of purity P gives a 1a1b
    fringe of visibility P.  Multinomial 1-sigma errors on the raw counts
    are propagated through that inversion and into the visibility fits.
    """
    if len(scans) < 5:
        raise ValueError("need at least 5 phase points")
    phases = np.array([p for p, _ in scans], dtype=float)
    if not np.isfinite(phases).all():
        raise ValueError("phases must be finite")
    labels = [p.label for p in DETECTION_PATTERNS]
    raw, corrected, sigmas = np.zeros((3, len(scans), 3))
    insufficient = False

    for k, (_, stream) in enumerate(scans):
        res = count_pattern_coincidences(stream, window_ps)
        n = np.array(list(res.pattern_counts().values()), dtype=float)
        n_corr = np.maximum(n - list(res.pattern_accidentals().values()), 0.0)
        if n.sum() == 0:
            insufficient = True
            sigmas[k] = 1.0
            continue
        raw[k] = invert_splitter_tree(n)
        sigmas[k] = _pattern_sigmas(n, raw[k])
        if n_corr.sum() > 0:
            corrected[k] = invert_splitter_tree(n_corr)
        else:
            insufficient = True

    raw, corrected, sigmas = (
        {lab: a[:, i] for i, lab in enumerate(labels)} for a in (raw, corrected, sigmas)
    )
    fits = {lab: fit_fringe(phases, raw[lab], frequency) for lab in labels}
    fits_corr = {lab: fit_fringe(phases, corrected[lab], frequency) for lab in labels}
    vis_sigma = {
        lab: _visibility_sigma(phases, sigmas[lab], frequency, fits[lab]) for lab in labels
    }
    return FringeEstimate(
        phases=phases,
        fractions=raw,
        sigmas=sigmas,
        fractions_corrected=corrected,
        fits=fits,
        fits_corrected=fits_corr,
        visibility_sigma=vis_sigma,
        insufficient=insufficient,
    )


# --- stream file formats ---------------------------------------------------
#
# Every record's channel is one of the four detectors, 0..3; each reader refuses
# any other channel with ValueError, as the TagStream constructor does.
#
# Binary: magic "NOONTAG1", then little-endian f64 duration_s, u8 channel
# count 4, the u8 channel ids 0, 1, 2, 3, u64 record count (one struct,
# `_BINARY_HEADER`), and exactly that many 9-byte records of (u8 channel,
# u64 timestamp_ps).  The reader refuses a header that lists other ids.
#
# CSV: ASCII, no duration metadata; readers may pass the duration explicitly.
# - The first line is exactly "channel,timestamp_ps".
# - Each record line is [0-9]{1,19},[0-9]{1,19} ending in "\n"; the final
#   "\n" may be missing.  Timestamps are at most 2^63 - 1.
# - Empty lines are skipped; a body with no rows is valid.
# - Any other byte, a wrong column count or a longer field is a ValueError.
#
# The writer relies on TagStream's non-decreasing stamps: the records whose
# stamps have d digits are one contiguous run, so there are at most 19 runs.
# Each run is one (records, d + 3) uint8 block of the output, filled column by
# column: the channel's one digit, ",", stamp digits, "\n".  Stamp digits go four
# at a time, as one uint32 word gathered from a 10^4-entry table after one
# division by 10^4; the one to three leading digits are gathered place by
# place.
#
# The reader shifts the body by -'0' (digits become 0..9, every other byte
# wraps above 9) and appends a missing final "\n".  It reads run by run:
# - A run is the first unread row, found with bytes.find, and every following
#   row of its shape: its length, with "," and "\n" at its columns.  A gallop
#   down a (rows, row length) view checks, per step, as many rows as the run
#   holds so far at those two columns only, so a run costs O(its rows).  With
#   them zeroed, one max over the block checks that every other byte is a digit.
# - Each field of a run is a fixed-width column range, read by Horner's rule in
#   uint16 over groups of four columns, then in uint64.
# - Runs are taken while each has longer rows than the one before: a file the
#   writer wrote is one run per stamp width, at most 19.
# From the first row no run takes, the gather reader reads the rest in place:
# interleaved shapes (leading zeros, channels past one digit, unsorted rows),
# empty lines and anything malformed.  It finds every "\n" and ",", so each
# field is the digits before a delimiter.  Digit k, counted from the right, of
# every field is one gather into column longest - 1 - k of a (fields, longest)
# block, so each field lies right-aligned on zeros; only the digit places past
# the shortest field are masked by field width.  The block is then read as
# fixed-width columns, as a run is.  Each row a run takes is one the gather
# reader accepts with the same values, so a body gives the stream, or the
# refusal, that the gather reader alone gives.

_CSV_HEADER = b"channel,timestamp_ps"
_CSV_MAX_DIGITS = 19
# 10^0 .. 10^19: the stamps of d digits are those in [10^(d-1), 10^d), and 0 has one.
_POW10 = 10 ** np.arange(_CSV_MAX_DIGITS + 1, dtype=np.uint64)
_COMMA, _NEWLINE, _ZERO = ord(","), ord("\n"), ord("0")
# The delimiters as the reader sees them, shifted by -'0' with uint8 wrap-around.
_COMMA_DIGIT, _NEWLINE_DIGIT = (_COMMA - _ZERO) % 256, (_NEWLINE - _ZERO) % 256
# Row j holds ASCII digit place j (thousands first) of every v in 0..9999.  Column v
# holds the four digits of v; as one uint32 word they are moved by one store.
_ASCII_DIGITS = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8)
_DIGIT_PLACES = np.array(np.meshgrid(*[_ASCII_DIGITS] * 4, indexing="ij")).reshape(4, -1)
_DIGIT_WORDS = np.ascontiguousarray(_DIGIT_PLACES.T).view(np.uint32)[:, 0]


def _put_digits(block: np.ndarray, start: int, end: int, v: np.ndarray) -> None:
    """Write v < 10^(end - start) into block[:, start:end] as zero-padded decimal digits."""
    while end - start > 4:
        q = v // 10_000
        block[:, end - 4 : end].view(np.uint32)[:, 0] = _DIGIT_WORDS[v - q * 10_000]
        v, end = q, end - 4
    if end - start == 4:
        block[:, start:end].view(np.uint32)[:, 0] = _DIGIT_WORDS[v]
    else:
        for j in range(start, end):
            block[:, j] = np.take(_DIGIT_PLACES[j - end], v)


def _csv_encode(stream: TagStream) -> bytes:
    ch, ts = stream.channels, stream.timestamps_ps
    head = len(_CSV_HEADER) + 1
    # Records edges[d - 1]:edges[d] are the run of d-digit stamps.
    edges = np.searchsorted(ts.view(np.uint64), _POW10)
    edges[0] = 0
    runs = np.diff(edges)
    # A row "<channel digit>,<stamp>\n" has 3 bytes and the stamp's digits.
    out = np.empty(head + 3 * len(ts) + int(runs @ np.arange(1, 20)), dtype=np.uint8)
    out[:head] = np.frombuffer(_CSV_HEADER + b"\n", dtype=np.uint8)
    pos = head
    for d in np.flatnonzero(runs) + 1:
        lo, hi = edges[d - 1], edges[d]
        block = out[pos : pos + (hi - lo) * (d + 3)].reshape(hi - lo, d + 3)
        np.add(ch[lo:hi], _ZERO, out=block[:, 0])
        block[:, 1] = _COMMA
        _put_digits(block, 2, d + 2, ts[lo:hi])
        block[:, -1] = _NEWLINE
        pos += block.size
    return out.tobytes()


def _right_aligned(padded: np.ndarray, stop: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The decimal fields digits[stop - width:stop] as a (fields, longest width) block,
    each right-aligned with the places past its width zeroed.

    digits is padded[_CSV_MAX_DIGITS:]; the padding lets digit k of every field,
    counted from the right, be gathered from one shifted view with no index arithmetic.
    """
    if len(width) and (width.min() < 1 or width.max() > _CSV_MAX_DIGITS):
        raise ValueError(f"CSV fields must have 1 to {_CSV_MAX_DIGITS} digits")
    shortest, longest = int(width.min(initial=_CSV_MAX_DIGITS)), int(width.max(initial=0))
    # Built place by place as contiguous rows, and returned transposed.
    places = np.empty((longest, len(stop)), dtype=np.uint8)
    for k in range(longest):
        place = places[longest - 1 - k]
        np.take(padded[_CSV_MAX_DIGITS - k :], stop - 1, out=place)
        if k >= shortest:
            place *= width > k
    return places.T


def _csv_gather(padded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """uint64 channels and stamps of the rows of digits = padded[_CSV_MAX_DIGITS:],
    which is empty or ends in a newline, each field found by its delimiter."""
    digits = padded[_CSV_MAX_DIGITS:]
    newline = np.flatnonzero(digits == _NEWLINE_DIGIT)
    comma = np.flatnonzero(digits == _COMMA_DIGIT)
    if np.count_nonzero(digits > 9) != len(newline) + len(comma):
        raise ValueError("tag stream CSV holds a byte other than 0-9, ',' and newline")
    start = np.concatenate(([0], newline[:-1] + 1))
    rows = newline > start
    if not rows.all():
        start, newline = start[rows], newline[rows]
    # As many commas as rows; _right_aligned then refuses an empty field, so
    # every comma lies inside its own row.
    if len(comma) != len(newline):
        raise ValueError("tag stream CSV rows must have exactly two columns")
    channels = _right_aligned(padded, comma, comma - start)
    stamps = _right_aligned(padded, newline, newline - comma - 1)
    return tuple(_parse_columns(block, 0, block.shape[1]) for block in (channels, stamps))


def _csv_run(data: bytes, base: int, digits: np.ndarray, pos: int, shorter: int):
    """The run of rows from digits[pos] on that share the first row's shape, as a
    (rows, row length) block and the comma's column.

    digits[i] is data[base + i] - '0', ending in a newline.  None if the first row is
    not a record of two fields of 1 to 19 digits longer than `shorter` bytes, or if the
    block holds a non-digit byte off the comma and newline columns.
    """
    newline = data.find(b"\n", base + pos) - base
    if newline < 0:
        newline = len(digits) - 1
    comma = data.find(b",", base + pos, base + newline) - base
    length = newline - pos + 1
    if length <= shorter or not (
        1 <= comma - pos <= _CSV_MAX_DIGITS and 1 <= newline - comma - 1 <= _CSV_MAX_DIGITS
    ):
        return None
    comma -= pos
    view = digits[pos : pos + (len(digits) - pos) // length * length].reshape(-1, length)
    # Gallop, up to the first row of another shape.
    rows = 1
    while rows < len(view):
        step = view[rows : 2 * rows]
        same = (step[:, comma] == _COMMA_DIGIT) & (step[:, -1] == _NEWLINE_DIGIT)
        if not same.all():
            rows += int(same.argmin())
            break
        rows += len(step)
    # One max, which allocates no mask, over the contiguous block with its delimiter
    # columns zeroed.  A block taken keeps the zeros: only the gather reader's padding,
    # whose digits it masks, reads them again.  A refused block gets its delimiters back.
    block = view[:rows]
    block[:, comma] = block[:, -1] = 0
    if block.max() > 9:
        block[:, comma], block[:, -1] = _COMMA_DIGIT, _NEWLINE_DIGIT
        return None
    return block, comma


def _parse_columns(block: np.ndarray, start: int, stop: int) -> np.ndarray:
    """uint64 values of the fixed-width decimal field in columns start:stop of a block
    of digits: Horner's rule in uint16 over each group of up to four columns (at most
    9999), then acc = acc * 10^(group width) + group."""
    acc = np.zeros(len(block), dtype=np.uint64)
    for lo in range(start, stop, 4):
        hi = min(lo + 4, stop)
        group = block[:, lo].astype(np.uint16)
        for j in range(lo + 1, hi):
            group *= 10
            group += block[:, j]
        acc *= np.uint64(10 ** (hi - lo))
        acc += group
    return acc


def _csv_decode(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    # bytes.find locates rows; bytes(data) copies only a buffer that is not bytes.
    data = bytes(data)
    head = len(_CSV_HEADER)
    if data[:head] != _CSV_HEADER or data[head : head + 1] not in (b"", b"\n"):
        raise ValueError("not a tag stream CSV: missing header")
    base = min(head + 1, len(data))
    body = np.frombuffer(data, dtype=np.uint8, offset=base)
    # Digits become 0..9; every other byte wraps to a value above 9.  A missing final
    # newline is appended, so every row ends in one.
    missing = len(body) > 0 and data[-1] != _NEWLINE
    padded = np.zeros(_CSV_MAX_DIGITS + len(body) + missing, dtype=np.uint8)
    digits = padded[_CSV_MAX_DIGITS:]
    np.subtract(body, _ZERO, out=digits[: len(body)])
    digits[len(body) :] = _NEWLINE_DIGIT
    channels, timestamps = [], []
    pos = length = 0
    while pos < len(digits) and (run := _csv_run(data, base, digits, pos, length)):
        block, comma = run
        length = block.shape[1]
        channels.append(_parse_columns(block, 0, comma))
        timestamps.append(_parse_columns(block, comma + 1, length - 1))
        pos += block.size
    if pos < len(digits) or not channels:
        rest_channels, rest_timestamps = _csv_gather(padded[pos:])
        channels.append(rest_channels)
        timestamps.append(rest_timestamps)
    # A timestamp past 2^63 - 1 reads negative here, which TagStream refuses.
    return np.concatenate(channels), np.concatenate(timestamps).view(np.int64)


def tags_to_bytes(stream: TagStream, fmt: str = "binary") -> bytes:
    if fmt == "binary":
        ids = STANDARD_CHANNELS
        header = _BINARY_HEADER.pack(_BINARY_MAGIC, stream.duration_s, len(ids), *ids, len(stream))
        records = np.empty(len(stream), dtype=_BINARY_RECORD)
        records["ch"] = stream.channels
        records["ts"] = stream.timestamps_ps.astype(np.uint64)
        return header + records.tobytes()
    if fmt == "csv":
        return _csv_encode(stream)
    raise ValueError(f"unknown tag stream format {fmt!r}")


def _covering_duration(last_ps: int) -> float:
    """A duration in seconds whose window [0, round(d * 1e12)) ps holds last_ps.

    (last_ps + 1) / 1e12 rounds, past 2^53 ps, to a window that can end at or
    before last_ps; stepping up one float at a time closes the gap.
    """
    duration = (last_ps + 1) / 1e12
    while round(duration * 1e12) <= last_ps:
        duration = math.nextafter(duration, math.inf)
    return duration


def tags_from_bytes(data: bytes, fmt: str = "binary", duration_s: float | None = None) -> TagStream:
    """Decode a stream file.  A CSV file holds no duration: duration_s gives it, or else
    it is the shortest whose window holds the last stamp (1 s with no records).  A binary
    file's header holds it, and a duration_s that differs from the header's is refused."""
    if fmt == "binary":
        if data[:8] != _BINARY_MAGIC:
            raise ValueError("not a tag stream: bad magic header")
        if len(data) < _BINARY_HEADER.size:
            raise ValueError("truncated tag stream header")
        _, duration, *listed, n_rec = _BINARY_HEADER.unpack_from(data)
        if tuple(listed) != (len(STANDARD_CHANNELS), *STANDARD_CHANNELS):
            raise ValueError("tag stream header must list the channel ids 0, 1, 2, 3")
        if duration_s is not None and duration_s != duration:
            raise ValueError(f"duration {duration_s!r} s differs from the header's {duration!r} s")
        if len(data) != _BINARY_HEADER.size + _BINARY_RECORD.itemsize * n_rec:
            raise ValueError(f"tag stream length {len(data)} B does not match its {n_rec} records")
        records = np.frombuffer(data, dtype=_BINARY_RECORD, count=n_rec, offset=_BINARY_HEADER.size)
        # The records' channels are u8, and the stamps int64 here.
        channels, timestamps = records["ch"].copy(), records["ts"].astype(np.int64)
        _check_stamps(timestamps, duration)
        _check_detectors(channels)
        return TagStream._trusted(channels, timestamps, duration)
    if fmt == "csv":
        channels, timestamps = _csv_decode(data)
        if duration_s is None:
            duration_s = _covering_duration(int(timestamps.max())) if len(timestamps) else 1.0
        # Checked before the cast, which would wrap a channel past uint8 onto a detector.
        _check_detectors(channels)
        _check_stamps(timestamps, duration_s)
        return TagStream._trusted(channels.astype(np.uint8), timestamps, duration_s)
    raise ValueError(f"unknown tag stream format {fmt!r}")
