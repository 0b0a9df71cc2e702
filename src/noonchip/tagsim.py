"""Monte Carlo detector time-tag streams and windowed coincidence counting.

Pairs are emitted as a homogeneous Poisson process, routed to the four
detectors (channels 0,1 on output arm a; 2,3 on arm b) by sampling the
pattern and splitter-tree outcomes, thinned by per-mode transmission and
per-detector efficiency, jittered, and merged with per-channel Poisson dark
counts.  Timestamps are integer picoseconds.

Randomness comes from numpy's PCG64 generator seeded with the configured
seed; the draw order is fixed (pair count, pair times, pattern, two routing
draws, two mode-transmission draws, two detector-efficiency draws, two
jitter draws, then dark counts per channel in ascending channel order), so
a given config reproduces a bit-identical stream.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .detection import (
    CROSS_PAIRS,
    DETECTION_PATTERNS,
    SPLITTER_TREE_DETECTION,
    VisibilityFit,
    _fringe_design,
    fit_fringe,
    invert_splitter_tree,
)

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
# Same-arm pairs signal the bunched patterns, cross pairs the split one.
STANDARD_PAIRS = ((0, 1), (2, 3)) + CROSS_PAIRS

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
    if not np.array_equal(out, raw):
        raise ValueError(f"{name} must be integers")
    return out


@dataclass(frozen=True)
class TagStream:
    """Time-ordered detector click records over a fixed acquisition window."""

    channels: np.ndarray
    timestamps_ps: np.ndarray
    duration_s: float
    channel_ids: tuple[int, ...] = STANDARD_CHANNELS

    def __post_init__(self):
        ch = _as_uint8("channels", self.channels)
        ids = tuple(_as_uint8("channel ids", self.channel_ids).tolist())
        ts = np.asarray(self.timestamps_ps, dtype=np.int64)
        if ch.shape != ts.shape or ch.ndim != 1:
            raise ValueError("channels and timestamps must be 1-d arrays of equal length")
        if len(ts) > 1 and np.any(np.diff(ts) < 0):
            raise ValueError("timestamps must be non-decreasing")
        unregistered = set(np.unique(ch).tolist()) - set(ids)
        if unregistered:
            raise ValueError(f"records reference unregistered channels {sorted(unregistered)}")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError("duration must be finite and > 0")
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "timestamps_ps", ts)
        object.__setattr__(self, "channel_ids", ids)

    def __len__(self) -> int:
        return len(self.timestamps_ps)

    def singles(self) -> dict[int, int]:
        counts = {c: 0 for c in self.channel_ids}
        values, n = np.unique(self.channels, return_counts=True)
        for c, k in zip(values.tolist(), n.tolist()):
            counts[int(c)] = int(k)
        return counts

    def channel_timestamps(self, channel: int) -> np.ndarray:
        if channel not in self.channel_ids:
            raise ValueError(f"unknown channel id {channel}")
        return self.timestamps_ps[self.channels == channel]


@dataclass(frozen=True)
class TagSimConfig:
    """Configuration of one acquisition run.

    pattern_probs is in the canonical pattern order ((2,0), (1,1), (0,2))
    and may sum to less than one; the deficit is treated as undetected
    pairs.  mode_transmission models the collection loss in each output arm
    ahead of the splitter tree.
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
        if self.pair_rate_hz < 0:
            raise ValueError("pair rate must be >= 0")
        probs = tuple(float(p) for p in self.pattern_probs)
        if len(probs) != 3 or min(probs) < -1e-12 or sum(probs) > 1.0 + 1e-9:
            raise ValueError("pattern_probs must be three probabilities summing to <= 1")
        if self.duration_s <= 0:
            raise ValueError("duration must be > 0")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError("seed is mandatory and must be an integer")
        eff = tuple(float(e) for e in self.detector_efficiency)
        if len(eff) != 4 or any(not 0.0 <= e <= 1.0 for e in eff):
            raise ValueError("detector_efficiency must be four values in [0, 1]")
        eta = tuple(float(t) for t in self.mode_transmission)
        if len(eta) != 2 or any(not 0.0 <= t <= 1.0 for t in eta):
            raise ValueError("mode_transmission must be two values in [0, 1]")
        dark = self.dark_rate_hz
        if isinstance(dark, (int, float)):
            dark = (float(dark),) * 4
        dark = tuple(float(d) for d in dark)
        if len(dark) != 4 or min(dark) < 0:
            raise ValueError("dark_rate_hz must be four non-negative rates")
        if self.jitter_sigma_ps < 0:
            raise ValueError("jitter sigma must be >= 0")
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

    cum = np.cumsum(cfg.pattern_probs)
    pattern = np.searchsorted(cum, rng.random(n_pairs), side="right")
    emitted = pattern < 3
    # Photon modes per pattern: (2,0) -> both a, (1,1) -> one each, (0,2) -> both b.
    mode1 = np.where(pattern == 2, 1, 0)
    mode2 = np.where(pattern == 0, 0, 1)

    route1 = (rng.random(n_pairs) >= 0.5).astype(np.int64)
    route2 = (rng.random(n_pairs) >= 0.5).astype(np.int64)
    det1 = 2 * mode1 + route1
    det2 = 2 * mode2 + route2

    eta = np.asarray(cfg.mode_transmission)
    eff = np.asarray(cfg.detector_efficiency)
    keep1 = emitted & (rng.random(n_pairs) < eta[mode1]) & (rng.random(n_pairs) < eff[det1])
    keep2 = emitted & (rng.random(n_pairs) < eta[mode2]) & (rng.random(n_pairs) < eff[det2])

    jit1 = rng.normal(0.0, cfg.jitter_sigma_ps, n_pairs)
    jit2 = rng.normal(0.0, cfg.jitter_sigma_ps, n_pairs)
    t_ps = t_pair * 1e12
    ts1 = np.rint(t_ps + jit1).astype(np.int64)[keep1]
    ts2 = np.rint(t_ps + jit2).astype(np.int64)[keep2]

    chunks_ch = [det1[keep1].astype(np.uint8), det2[keep2].astype(np.uint8)]
    chunks_ts = [ts1, ts2]

    for ch in STANDARD_CHANNELS:
        n_dark = int(rng.poisson(cfg.dark_rate_hz[ch] * cfg.duration_s))
        dark_ts = np.rint(rng.random(n_dark) * cfg.duration_s * 1e12).astype(np.int64)
        chunks_ch.append(np.full(n_dark, ch, dtype=np.uint8))
        chunks_ts.append(dark_ts)

    channels = np.concatenate(chunks_ch) if chunks_ch else np.empty(0, np.uint8)
    timestamps = np.concatenate(chunks_ts) if chunks_ts else np.empty(0, np.int64)
    in_range = (timestamps >= 0) & (timestamps < duration_ps)
    channels, timestamps = channels[in_range], timestamps[in_range]
    order = np.lexsort((channels, timestamps))
    return TagStream(channels[order], timestamps[order], cfg.duration_s)


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


def _match_sorted(a: np.ndarray, b: np.ndarray, half_width: float) -> int:
    """_greedy_walk(a, b, half_width) on sorted timestamp arrays, in numpy.

    No tag can match, or make the walk defer to, a tag more than half_width
    away, so the walk splits at every wider gap of the merged stream.  A
    two-tag cluster is one coincidence when its tags are on different
    channels; only larger clusters are walked.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    pos = np.searchsorted(a, b, side="right") + np.arange(len(b))
    is_b = np.zeros(len(a) + len(b), dtype=bool)
    is_b[pos] = True
    merged = np.empty(len(is_b), dtype=np.int64)
    merged[pos], merged[~is_b] = b, a
    starts = np.concatenate(([0], np.flatnonzero(np.diff(merged) > half_width) + 1))
    sizes = np.diff(starts, append=len(merged))
    two = starts[sizes == 2]
    matched = int(np.count_nonzero(is_b[two] != is_b[two + 1]))
    for s, e in zip(starts[sizes > 2].tolist(), (starts + sizes)[sizes > 2].tolist()):
        t, side = merged[s:e], is_b[s:e]
        matched += _greedy_walk(t[~side].tolist(), t[side].tolist(), half_width)
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
    tag is consumed at most once per pair.
    """
    if window_ps <= 0:
        raise ValueError("window must be > 0")
    singles = stream.singles()
    per_channel = {c: stream.channel_timestamps(c) for c in stream.channel_ids}
    half = window_ps / 2.0
    pair_counts: dict[tuple[int, int], int] = {}
    pair_acc: dict[tuple[int, int], float] = {}
    for c1, c2 in pairs:
        for c in (c1, c2):
            if c not in per_channel:
                raise ValueError(f"unknown channel id {c}")
        key = (int(c1), int(c2))
        pair_counts[key] = _match_sorted(per_channel[c1], per_channel[c2], half)
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
# CSV: header "channel,timestamp_ps", one record per line.  The CSV form
# carries no duration/channel metadata; readers may pass it explicitly.


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
        lines = ["channel,timestamp_ps"]
        lines.extend(
            f"{int(c)},{int(t)}"
            for c, t in zip(stream.channels.tolist(), stream.timestamps_ps.tolist())
        )
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown tag stream format {fmt!r}")


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
        text = data.decode()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "channel,timestamp_ps":
            raise ValueError("not a tag stream CSV: missing header")
        ch, ts = [], []
        for ln in lines[1:]:
            c, t = ln.split(",")
            ch.append(int(c))
            ts.append(int(t))
        channels = np.array(ch, dtype=np.int64)
        timestamps = np.array(ts, dtype=np.int64)
        if duration_s is None:
            duration_s = (float(timestamps.max()) + 1.0) / 1e12 if len(timestamps) else 1.0
        ids = tuple(sorted(set(ch))) if ch else STANDARD_CHANNELS
        return TagStream(channels, timestamps, duration_s, ids)
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
