"""Monte Carlo detector time-tag streams and windowed coincidence counting.

Pairs are emitted as a homogeneous Poisson process, routed to the four
detectors (channels 0,1 on output arm a; 2,3 on arm b) by sampling the
pattern and splitter-tree outcomes, thinned by per-mode transmission and
per-detector efficiency, jittered, and merged with per-channel Poisson dark
counts.  Timestamps are integer picoseconds.

Coincidences of every detector pair come from one split of the stream at
each gap wider than window/2, which no match of the greedy walk crosses in
any pair's sub-stream; a self pair (c, c) counts singles[c].

Randomness comes from numpy's PCG64 generator seeded with the configured
seed; the draw order is fixed (pair count, pair times, pattern, photon 1's
then photon 2's routing draw, photon 1's mode-transmission then
detector-efficiency draw, the same two for photon 2, photon 1's then
photon 2's jitter draw, then for each channel in ascending order its dark
count and dark times), so a given config reproduces a bit-identical stream.
The two jitter draws are skipped only when the jitter is zero and every dark
rate is zero: they would return only zeros, and nothing is drawn after them,
so the stream is the same bit for bit.
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
    "write_tags",
    "read_tags",
    "tags_to_bytes",
    "tags_from_bytes",
]

STANDARD_CHANNELS = (0, 1, 2, 3)
# Every detector pair that signals a two-photon pattern.
STANDARD_PAIRS = tuple(pair for p in DETECTION_PATTERNS for pair in p.detector_pairs)

_BINARY_MAGIC = b"NOONTAG1"
_BINARY_RECORD = np.dtype([("ch", "u1"), ("ts", "<u8")])


def _binary_header(n_channels: int) -> struct.Struct:
    return struct.Struct(f"<8sdB{n_channels}BQ")


def _as_uint8(name: str, values) -> np.ndarray:
    raw = np.asarray(values)
    # Check the range before the cast can wrap, then that the cast kept every value.
    if not np.all((raw >= 0) & (raw <= 255)):
        raise ValueError(f"{name} must lie in 0..255")
    out = raw.astype(np.uint8, copy=False)
    if raw.dtype.kind == "b" or not np.array_equal(out, raw):
        raise ValueError(f"{name} must be integers")
    return out


@dataclass(frozen=True)
class TagStream:
    """Time-ordered detector click records over a fixed acquisition window.

    Every stamp lies in [0, round(duration_s * 1e12)) ps, the window that
    generate_tags keeps.
    """

    channels: np.ndarray
    timestamps_ps: np.ndarray
    duration_s: float
    channel_ids: tuple[int, ...] = STANDARD_CHANNELS

    def __post_init__(self):
        ch = _as_uint8("channels", self.channels)
        ids = [_check_index("channel id", c) for c in self.channel_ids]
        ids = tuple(_as_uint8("channel ids", ids).tolist())
        raw = np.asarray(self.timestamps_ps)
        # A cast would read bool, string and object stamps as numbers, and truncate floats.
        if raw.dtype.kind not in "iuf":
            raise ValueError(f"timestamps must be integers, got dtype {raw.dtype}")
        if raw.dtype.kind == "f" and not np.all((raw == np.floor(raw)) & (abs(raw) < 2.0**63)):
            raise ValueError("timestamps must be integers below 2^63 ps")
        ts = raw.astype(np.int64, copy=False)
        if ch.shape != ts.shape or ch.ndim != 1:
            raise ValueError("channels and timestamps must be 1-d arrays of equal length")
        # Non-decreasing from a non-negative first stamp keeps every stamp >= 0, which
        # also refuses a u64 stamp past 2^63 that wrapped in the int64 cast.  Neighbours
        # are compared, not differenced: a difference can overflow int64.
        if len(ts) and (ts[0] < 0 or np.any(ts[1:] < ts[:-1])):
            raise ValueError("timestamps must be non-negative and non-decreasing")
        # The window is [0, round(duration * 1e12)) ps, the bound generate_tags keeps.
        end_ps = _check_positive("duration", self.duration_s) * 1e12
        if len(ts) and end_ps < 2.0**63 and int(ts[-1]) >= round(end_ps):
            raise ValueError(f"timestamp {int(ts[-1])} ps lies past the {round(end_ps)} ps window")
        unregistered = set(np.flatnonzero(np.bincount(ch, minlength=256)).tolist()) - set(ids)
        if unregistered:
            raise ValueError(f"records reference unregistered channels {sorted(unregistered)}")
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "timestamps_ps", ts)
        object.__setattr__(self, "channel_ids", ids)

    def __len__(self) -> int:
        return len(self.timestamps_ps)

    def singles(self) -> dict[int, int]:
        counts = np.bincount(self.channels, minlength=256)
        return {c: int(counts[c]) for c in self.channel_ids}


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
    t_pair = np.sort(rng.random(n_pairs)) * cfg.duration_s

    # For a non-decreasing cum, u >= cum[k] is searchsorted(cum, u, "right") > k.
    # Photon modes per pattern: (2,0) -> both a, (1,1) -> one each, (0,2) -> both b.
    u = rng.random(n_pairs)
    cum = np.cumsum(cfg.pattern_probs)
    mode1 = (u >= cum[1]).view(np.int8)
    mode2 = (u >= cum[0]).view(np.int8)
    emitted = u < cum[2]

    det1 = 2 * mode1 + (rng.random(n_pairs) >= 0.5)
    det2 = 2 * mode2 + (rng.random(n_pairs) >= 0.5)

    eta = np.asarray(cfg.mode_transmission)
    eff = np.asarray(cfg.detector_efficiency)
    keep1 = emitted & (rng.random(n_pairs) < eta[mode1]) & (rng.random(n_pairs) < eff[det1])
    keep2 = emitted & (rng.random(n_pairs) < eta[mode2]) & (rng.random(n_pairs) < eff[det2])

    t_ps = t_pair * 1e12
    if cfg.jitter_sigma_ps > 0 or any(cfg.dark_rate_hz):
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
        # Both jitter draws would be all zero, and nothing is drawn after them.
        ts1 = ts2 = np.rint(t_ps).astype(np.int64)

    chunks_ch = [det1[keep1], det2[keep2]]
    chunks_ts = [ts1[keep1], ts2[keep2]]

    for ch in STANDARD_CHANNELS:
        n_dark = int(rng.poisson(cfg.dark_rate_hz[ch] * cfg.duration_s))
        dark_ts = np.rint(rng.random(n_dark) * cfg.duration_s * 1e12).astype(np.int64)
        chunks_ch.append(np.full(n_dark, ch, dtype=np.int8))
        chunks_ts.append(dark_ts)

    channels = np.concatenate(chunks_ch)
    timestamps = np.concatenate(chunks_ts)
    in_range = (timestamps >= 0) & (timestamps < duration_ps)
    # One sort of timestamp * 4 + channel orders by time, then channel; equal
    # keys are identical records.  Stamps below 2^61 keep the key in int64.
    key = np.sort(timestamps[in_range] << 2 | channels[in_range])
    return TagStream((key & 3).astype(np.uint8), key >> 2, cfg.duration_s)


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
        return {
            p.label: sum(self.pair_counts.get(pair, 0) for pair in p.detector_pairs)
            for p in DETECTION_PATTERNS
        }

    def pattern_accidentals(self) -> dict[str, float]:
        return {
            p.label: sum(self.pair_accidentals.get(pair, 0.0) for pair in p.detector_pairs)
            for p in DETECTION_PATTERNS
        }


def count_coincidences(stream: TagStream, window_ps: float, pairs) -> CoincidenceResult:
    """Count coincidences where two channels click within +/- window/2.

    Greedy nearest-match pairing per channel pair (see _greedy_walk); each
    tag is consumed at most once per pair.  The stream is split once at every
    gap wider than window/2, which no match or deferral of the walk crosses:
    two-tag clusters are counted for all pairs at once, and only the tags of
    larger clusters are walked.  A self pair (c, c) counts singles[c], as the
    walk of a list against itself does.
    """
    _check_positive("window", window_ps)
    singles = stream.singles()
    half = window_ps / 2.0
    ch, ts = stream.channels, stream.timestamps_ps
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(ts) > half) + 1, [len(ts)]))
    sizes = np.diff(bounds)
    two = bounds[:-1][sizes == 2]
    lo, hi = np.minimum(ch[two], ch[two + 1]), np.maximum(ch[two], ch[two + 1])
    two_tag = np.bincount(lo.astype(np.intp) * 256 + hi, minlength=256 * 256).reshape(256, 256)
    # Walking the larger clusters' concatenation equals walking each alone.
    big = np.repeat(sizes > 2, sizes)
    ch_big, ts_big = ch[big], ts[big]
    pair_counts: dict[tuple[int, int], int] = {}
    pair_acc: dict[tuple[int, int], float] = {}
    for c1, c2 in pairs:
        for c in (c1, c2):
            _check_index("channel id", c)
            if c not in stream.channel_ids:
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
    raw = np.zeros((len(scans), 3))
    corrected = np.zeros((len(scans), 3))
    sigmas = np.zeros((len(scans), 3))
    insufficient = False

    for k, (_, stream) in enumerate(scans):
        res = count_pattern_coincidences(stream, window_ps)
        counts = res.pattern_counts()
        acc = res.pattern_accidentals()
        n = np.array([counts[lab] for lab in labels], dtype=float)
        n_corr = np.maximum(n - [acc[lab] for lab in labels], 0.0)
        if n.sum() == 0:
            insufficient = True
            sigmas[k] = 1.0
            continue
        raw[k] = invert_splitter_tree(n)
        sigmas[k] = _pattern_sigmas(n, raw[k])
        if n_corr.sum() > 0:
            corrected[k] = invert_splitter_tree(n_corr)

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
# Binary: magic "NOONTAG1", then little-endian f64 duration_s, u8 channel
# count, that many u8 channel ids, u64 record count (one struct,
# `_binary_header`), and exactly that many 9-byte records of (u8 channel,
# u64 timestamp_ps).
#
# CSV: ASCII, no duration/channel metadata; readers may pass the duration
# explicitly, and register STANDARD_CHANNELS plus every channel they see.
# - The first line is exactly "channel,timestamp_ps".
# - Each record line is [0-9]{1,19},[0-9]{1,19} ending in "\n"; the final
#   "\n" may be missing.  Timestamps are at most 2^63 - 1.
# - Empty lines are skipped; a body with no rows is valid.
# - Any other byte, a wrong column count or a longer field is a ValueError.

_CSV_HEADER = b"channel,timestamp_ps"
_CSV_MAX_DIGITS = 19
# 10^0 .. 10^19: a value v has searchsorted(_POW10[1:], v, "right") + 1 digits.
_POW10 = 10 ** np.arange(_CSV_MAX_DIGITS + 1, dtype=np.uint64)
_COMMA, _NEWLINE, _ZERO = ord(","), ord("\n"), ord("0")


def _write_digits(out: np.ndarray, last: np.ndarray, v: np.ndarray) -> None:
    """Write each unsigned value v in decimal into out, its last digit at index `last`."""
    while len(v):
        q = v // 10
        out[last] = (v - q * 10).astype(np.uint8) + _ZERO
        v, last = q, last - 1
        live = v > 0
        if not live.all():
            v, last = v[live], last[live]


def _csv_encode(stream: TagStream) -> bytes:
    ch, ts = stream.channels, stream.timestamps_ps.astype(np.uint64)
    n_ch = np.searchsorted(_POW10[1:], ch, side="right") + 1
    n_ts = np.searchsorted(_POW10[1:], ts, side="right") + 1
    head = len(_CSV_HEADER) + 1
    # Index of each record's "\n": "<ch>,<ts>\n" spans n_ch + n_ts + 2 bytes.
    newline = head - 1 + np.cumsum(n_ch + n_ts + 2)
    out = np.empty(newline[-1] + 1 if len(ts) else head, dtype=np.uint8)
    out[:head] = np.frombuffer(_CSV_HEADER + b"\n", dtype=np.uint8)
    out[newline] = _NEWLINE
    comma = newline - n_ts - 1
    out[comma] = _COMMA
    _write_digits(out, newline - 1, ts)
    _write_digits(out, comma - 1, ch)
    return out.tobytes()


def _parse_fields(digits: np.ndarray, stop: np.ndarray, width: np.ndarray) -> np.ndarray:
    """uint64 values of the decimal fields digits[stop - width:stop]."""
    if len(width) and (width.min() < 1 or width.max() > _CSV_MAX_DIGITS):
        raise ValueError(f"CSV fields must have 1 to {_CSV_MAX_DIGITS} digits")
    acc = np.zeros(len(stop), dtype=np.uint64)
    for k in range(int(width.max(initial=0))):
        # Gather one digit per field before widening: 19 digits fit in uint64.
        d = np.take(digits, stop - 1 - k, mode="clip")
        acc += np.where(width > k, d, 0) * _POW10[k]
    return acc


def _csv_decode(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    head = len(_CSV_HEADER)
    if data[:head] != _CSV_HEADER or data[head : head + 1] not in (b"", b"\n"):
        raise ValueError("not a tag stream CSV: missing header")
    body = np.frombuffer(data, dtype=np.uint8, offset=min(head + 1, len(data)))
    # Digits become 0..9; every other byte wraps to a value above 9.
    digits = body - _ZERO
    newline, comma = np.flatnonzero(body == _NEWLINE), np.flatnonzero(body == _COMMA)
    if np.count_nonzero(digits > 9) != len(newline) + len(comma):
        raise ValueError("tag stream CSV holds a byte other than 0-9, ',' and newline")
    if len(body) and body[-1] != _NEWLINE:
        newline = np.append(newline, len(body))
    start = np.concatenate(([0], newline[:-1] + 1))
    rows = newline > start
    start, newline = start[rows], newline[rows]
    # As many commas as rows; _parse_fields then refuses an empty field, so
    # every comma lies inside its own row.
    if len(comma) != len(newline):
        raise ValueError("tag stream CSV rows must have exactly two columns")
    channels = _parse_fields(digits, comma, comma - start)
    timestamps = _parse_fields(digits, newline, newline - comma - 1)
    # A timestamp past 2^63 - 1 wraps negative here, which TagStream refuses.
    return channels, timestamps.astype(np.int64)


def tags_to_bytes(stream: TagStream, fmt: str = "binary") -> bytes:
    if fmt == "binary":
        ids = stream.channel_ids
        if len(ids) > 255:
            raise ValueError("the binary format holds at most 255 channel ids")
        header = _binary_header(len(ids)).pack(
            _BINARY_MAGIC, stream.duration_s, len(ids), *ids, len(stream)
        )
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
    if fmt == "binary":
        if data[:8] != _BINARY_MAGIC:
            raise ValueError("not a tag stream: bad magic header")
        header = _binary_header(data[16]) if len(data) > 16 else None
        if header is None or len(data) < header.size:
            raise ValueError("truncated tag stream header")
        _, duration, _, *channel_ids, n_rec = header.unpack_from(data)
        if len(data) != header.size + _BINARY_RECORD.itemsize * n_rec:
            raise ValueError(f"tag stream length {len(data)} B does not match its {n_rec} records")
        records = np.frombuffer(data, dtype=_BINARY_RECORD, count=n_rec, offset=header.size)
        return TagStream(
            records["ch"].copy(),
            records["ts"].astype(np.int64),
            duration,
            channel_ids,
        )
    if fmt == "csv":
        channels, timestamps = _csv_decode(data)
        if duration_s is None:
            duration_s = _covering_duration(int(timestamps.max())) if len(timestamps) else 1.0
        # A bincount over an unchecked channel could ask for an enormous array.
        channels = _as_uint8("channels", channels)
        seen = np.flatnonzero(np.bincount(channels, minlength=256)).tolist()
        ids = sorted(set(STANDARD_CHANNELS) | set(seen))
        return TagStream(channels, timestamps, duration_s, tuple(ids))
    raise ValueError(f"unknown tag stream format {fmt!r}")


def write_tags(stream: TagStream, path, fmt: str = "binary") -> None:
    with open(path, "wb") as fh:
        fh.write(tags_to_bytes(stream, fmt))


def read_tags(path, fmt: str | None = None, duration_s: float | None = None) -> TagStream:
    with open(path, "rb") as fh:
        data = fh.read()
    if fmt is None:
        fmt = "binary" if data[:8] == _BINARY_MAGIC else "csv"
    return tags_from_bytes(data, fmt, duration_s)
