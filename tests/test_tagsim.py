import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonchip import tagsim
from noonchip.circuit import mzi_unitary
from noonchip.detection import SPLITTER_TREE_DETECTION, pattern_probs
from noonchip.fock import evolve
from noonchip.sources import noon_mixed
from noonchip.tagsim import (
    STANDARD_CHANNELS,
    STANDARD_PAIRS,
    CoincidenceResult,
    TagSimConfig,
    TagStream,
    _greedy_walk,
    count_coincidences,
    count_pattern_coincidences,
    fringe_from_tags,
    generate_tags,
    tags_from_bytes,
    tags_to_bytes,
)

IDEAL_SPLIT = (0.0, 1.0, 0.0)


def config(**kw):
    base = dict(
        pair_rate_hz=1e4,
        pattern_probs=IDEAL_SPLIT,
        duration_s=1.0,
        seed=12345,
    )
    base.update(kw)
    return TagSimConfig(**base)


CSV_HEADER = "channel,timestamp_ps"


def csv_encode_loop(stream):
    """The CSV writer as one f-string per record: the oracle for tags_to_bytes."""
    lines = [CSV_HEADER]
    lines.extend(
        f"{int(c)},{int(t)}"
        for c, t in zip(stream.channels.tolist(), stream.timestamps_ps.tolist())
    )
    return ("\n".join(lines) + "\n").encode()


def csv_decode_loop(data, duration_s=None):
    """The CSV reader as a loop of str.split and int(): the oracle for tags_from_bytes.

    It is more lenient than the reader's grammar (int() takes signs, spaces,
    underscores and non-ASCII digits), and raises OverflowError for a
    timestamp past 2^63 - 1.
    """
    lines = [ln for ln in data.decode().splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("not a tag stream CSV: missing header")
    ch, ts = [], []
    for ln in lines[1:]:
        c, t = ln.split(",")
        ch.append(int(c))
        ts.append(int(t))
    channels = np.array(ch, dtype=np.int64)
    timestamps = np.array(ts, dtype=np.int64)
    if duration_s is None:
        duration_s = covering_duration(max(ts)) if ts else 1.0
    return TagStream(channels, timestamps, duration_s)


def covering_duration(last_ps):
    """The duration the CSV reader infers: the first float from (last + 1) / 1e12 up
    whose window [0, round(d * 1e12)) ps holds last_ps."""
    duration = (last_ps + 1) / 1e12
    while round(duration * 1e12) <= last_ps:
        duration = math.nextafter(duration, math.inf)
    return duration


def same_stream(a, b):
    return (
        np.array_equal(a.channels, b.channels)
        and np.array_equal(a.timestamps_ps, b.timestamps_ps)
        and a.timestamps_ps.dtype == b.timestamps_ps.dtype
        and a.duration_s == b.duration_s
    )


# Records of decimal fields of 1 to 19 digits, leading zeros included; the
# channel is often one of the four detectors, so that many bodies are valid streams.
_CSV_RECORD = st.builds(
    "{}{},{}".format,
    st.integers(0, 16).map("0".__mul__),
    st.integers(0, 3) | st.integers(0, 255),
    st.text("0123456789", min_size=1, max_size=19),
)
# Zero to three fields, possibly empty: an empty line, a wrong or the right column count.
_CSV_LINE = st.lists(st.text("0123456789", max_size=19), max_size=3).map(",".join)


@st.composite
def csv_bodies(draw):
    """Record lines, often in timestamp order, plus at most one arbitrary line."""
    lines = draw(st.lists(_CSV_RECORD, max_size=6))
    if draw(st.booleans()):
        lines.sort(key=lambda ln: int(ln.split(",")[1]))
    extra = draw(st.none() | _CSV_LINE)
    if extra is not None:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@st.composite
def mutated_csv_headers(draw):
    """The CSV header with one byte replaced or deleted."""
    header = CSV_HEADER.encode()
    i = draw(st.integers(0, len(header) - 1))
    if draw(st.booleans()):
        return header[:i] + header[i + 1 :]
    byte = draw(st.integers(0, 255).filter(lambda b: b != header[i]))
    return header[:i] + bytes([byte]) + header[i + 1 :]


def assert_csv_reader_agrees_with_loop(data):
    """Both readers accept with equal streams, or both reject (ValueError here)."""
    try:
        want = csv_decode_loop(data)
    except (ValueError, OverflowError):
        with pytest.raises(ValueError):
            tags_from_bytes(data, fmt="csv")
    else:
        assert same_stream(tags_from_bytes(data, fmt="csv"), want)


def generate_tags_by_lexsort(cfg):
    """generate_tags rebuilt from a bare PCG64 in the module docstring's draw order.

    Every draw is made, the jitter included, and the records are ordered by
    np.lexsort: the oracle for generate_tags.  Returns uint8 channels and
    int64 timestamps.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = rng.poisson(cfg.pair_rate_hz * cfg.duration_s)
    t_ps = np.sort(rng.random(n)) * cfg.duration_s * 1e12
    pattern = np.searchsorted(np.cumsum(cfg.pattern_probs), rng.random(n), side="right")
    modes = [np.where(pattern == 2, 1, 0), np.where(pattern == 0, 0, 1)]
    detectors = [2 * mode + (rng.random(n) >= 0.5) for mode in modes]
    kept = [
        (pattern < 3)
        & (rng.random(n) < np.take(cfg.mode_transmission, mode))
        & (rng.random(n) < np.take(cfg.detector_efficiency, det))
        for mode, det in zip(modes, detectors)
    ]
    stamps = [np.rint(t_ps + rng.normal(0.0, cfg.jitter_sigma_ps, n)) for _ in modes]
    channels = [det[keep] for det, keep in zip(detectors, kept)]
    times = [ts[keep] for ts, keep in zip(stamps, kept)]
    for ch, rate in enumerate(cfg.dark_rate_hz):
        n_dark = rng.poisson(rate * cfg.duration_s)
        channels.append(np.full(n_dark, ch))
        times.append(np.rint(rng.random(n_dark) * cfg.duration_s * 1e12))
    ch, ts = np.concatenate(channels), np.concatenate(times)
    inside = (ts >= 0) & (ts < round(cfg.duration_s * 1e12))
    order = np.lexsort((ch[inside], ts[inside]))
    return ch[inside][order].astype(np.uint8), ts[inside][order].astype(np.int64)


_UNIT = st.floats(0.0, 1.0)
# Four detector efficiencies then two mode transmissions: all exactly one, or
# each one either exactly one or any value in [0, 1].
_GAINS = st.just((1.0,) * 6) | st.tuples(*[st.just(1.0) | _UNIT] * 6)


@st.composite
def tag_sim_configs(draw):
    """Small configs, lossless or lossy, in all four cases of jitter and darks zero or not."""
    weights = draw(st.lists(_UNIT, min_size=4, max_size=4).filter(lambda w: sum(w) > 0))
    probs = draw(
        st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
        | st.just(tuple(w / sum(weights) for w in weights[:3]))
    )
    jitter = draw(st.just(0.0) | st.floats(0.5, 3000.0))
    darks = draw(st.just((0.0,) * 4) | st.tuples(*[st.just(0.0) | st.floats(1.0, 2e4)] * 4))
    gains = draw(_GAINS)
    return TagSimConfig(
        pair_rate_hz=draw(st.sampled_from([0.0, 50.0, 2e4])),
        pattern_probs=probs,
        duration_s=draw(st.sampled_from([1e-3, 0.02, 0.1])),
        seed=draw(st.integers(0, 2**63 - 1)),
        detector_efficiency=gains[:4],
        mode_transmission=gains[4:],
        dark_rate_hz=darks,
        jitter_sigma_ps=jitter,
    )


def run_recording_generator(monkeypatch, make_stream, cfg):
    """make_stream(cfg) and the state of the one PCG64 it built, after its last draw."""
    made = []
    pcg64 = np.random.PCG64

    def recording_pcg64(seed):
        made.append(pcg64(seed))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "PCG64", recording_pcg64)
        out = make_stream(cfg)
    assert len(made) == 1
    return out, made[0].state


def state_after_uniform_blocks(cfg, blocks):
    """The PCG64 state after the pair count and `blocks` draws of n_pairs uniforms each."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n_pairs = rng.poisson(cfg.pair_rate_hz * cfg.duration_s)
    for _ in range(blocks):
        rng.random(n_pairs)
    return rng.bit_generator.state


def one_gain_below_one(which):
    """Lossless gains but one, the largest double below one: it thins no record here."""
    gains = [1.0] * 6
    gains[which] = math.nextafter(1.0, 0.0)
    return {"detector_efficiency": gains[:4], "mode_transmission": gains[4:]}


# Uniform blocks of n_pairs drawn: pair times, pattern and the two routing
# draws, then the four thinning draws.  None: every draw, as the oracle makes.
SKIPPED_DRAW_CASES = [
    pytest.param({"pattern_probs": (0.25, 0.5, 0.25)}, 4, id="lossless-sum-1"),
    pytest.param({"pattern_probs": (0.475, 0.05, 0.475)}, 4, id="lossless-scan-like"),
    pytest.param({"pattern_probs": (0.2, 0.5, 0.1)}, 4, id="lossless-sum-0.8"),
    pytest.param({"jitter_sigma_ps": 40.0}, None, id="lossless-jitter"),
    pytest.param({"dark_rate_hz": (0.0, 0.0, 300.0, 0.0)}, None, id="lossless-one-dark-rate"),
    *[pytest.param(one_gain_below_one(i), 8, id=f"gain-{i}-below-one") for i in range(6)],
]


@pytest.mark.parametrize("overrides, uniform_blocks", SKIPPED_DRAW_CASES)
def test_skipped_draws_leave_the_stream_of_the_lexsort_rebuild(
    monkeypatch, overrides, uniform_blocks
):
    """A lossless, noiseless config skips the four thinning draws; any loss,
    jitter or dark rate keeps them.  The generator's state after the last draw
    shows a skip that changes no record."""
    cfg = config(**({"pattern_probs": (0.3, 0.4, 0.3), "duration_s": 0.1, "seed": 31} | overrides))
    stream, state = run_recording_generator(monkeypatch, generate_tags, cfg)
    (channels, timestamps), oracle_state = run_recording_generator(
        monkeypatch, generate_tags_by_lexsort, cfg
    )
    assert len(stream) > 1000
    assert np.array_equal(stream.channels, channels)
    assert np.array_equal(stream.timestamps_ps, timestamps)
    if uniform_blocks is None:
        assert state == oracle_state
    else:
        assert state == state_after_uniform_blocks(cfg, uniform_blocks)


class TestGenerateTags:
    def test_zero_efficiency_zero_darks_is_empty(self):
        stream = generate_tags(config(detector_efficiency=(0, 0, 0, 0)))
        assert len(stream) == 0

    def test_dark_only_counts(self):
        d = 5e4
        stream = generate_tags(
            config(pair_rate_hz=0.0, dark_rate_hz=(d, d, d, d), seed=7)
        )
        singles = stream.singles()
        for ch in range(4):
            assert abs(singles[ch] - d) <= 4 * math.sqrt(d)

    def test_deterministic_for_fixed_seed(self):
        a = generate_tags(config(jitter_sigma_ps=40.0, dark_rate_hz=(100.0,) * 4))
        b = generate_tags(config(jitter_sigma_ps=40.0, dark_rate_hz=(100.0,) * 4))
        assert np.array_equal(a.timestamps_ps, b.timestamps_ps)
        assert np.array_equal(a.channels, b.channels)

    def test_seed_changes_stream(self):
        a = generate_tags(config(seed=1))
        b = generate_tags(config(seed=2))
        assert not (
            len(a) == len(b) and np.array_equal(a.timestamps_ps, b.timestamps_ps)
        )

    def test_sorted_and_in_range(self):
        stream = generate_tags(config(jitter_sigma_ps=100.0, dark_rate_hz=(1e3,) * 4))
        assert np.all(np.diff(stream.timestamps_ps) >= 0)
        assert stream.timestamps_ps.min() >= 0
        assert stream.timestamps_ps.max() < int(1e12)

    def test_singles_match_expectation(self):
        # Split pattern with efficiency e: each detector sees rate R*e/2.
        e = 0.6
        r = 2e4
        stream = generate_tags(
            config(pair_rate_hz=r, detector_efficiency=(e,) * 4, seed=11)
        )
        for ch in range(4):
            expected = r * e / 2.0
            assert abs(stream.singles()[ch] - expected) <= 4 * math.sqrt(expected)

    def test_mode_transmission_thins_pairs(self):
        eta = 0.3
        stream = generate_tags(config(mode_transmission=(eta, eta), seed=21))
        res = count_pattern_coincidences(stream, 100.0)
        expected = 1e4 * eta**2
        assert abs(res.pattern_counts()["1a1b"] - expected) <= 4 * math.sqrt(expected)

    def test_seed_mandatory_integer(self):
        with pytest.raises(ValueError):
            TagSimConfig(
                pair_rate_hz=1.0,
                pattern_probs=IDEAL_SPLIT,
                duration_s=1.0,
                seed=1.5,
            )

    @pytest.mark.parametrize(
        "bad",
        [
            {"pair_rate_hz": math.nan},
            {"pattern_probs": (0.0, math.nan, 0.0)},
            {"jitter_sigma_ps": math.nan},
            {"duration_s": math.inf},
            {"dark_rate_hz": math.nan},
            {"dark_rate_hz": (0.0, math.inf, 0.0, 0.0)},
            {"seed": True},
        ],
    )
    def test_non_finite_or_bool_input_rejected(self, bad):
        with pytest.raises(ValueError):
            config(**bad)

    def test_draws_follow_the_documented_order(self):
        cfg = config(
            pattern_probs=(0.3, 0.4, 0.2),
            duration_s=0.1,
            seed=2024,
            detector_efficiency=(0.6, 0.9, 0.7, 0.8),
            mode_transmission=(0.5, 0.8),
            dark_rate_hz=(500.0, 800.0, 200.0, 400.0),
            jitter_sigma_ps=40.0,
        )
        channels, timestamps = generate_tags_by_lexsort(cfg)
        stream = generate_tags(cfg)
        assert len(stream) > 500
        assert stream.channels.tolist() == channels.tolist()
        assert stream.timestamps_ps.tolist() == timestamps.tolist()

    @settings(max_examples=100, deadline=None)
    @given(tag_sim_configs())
    def test_equals_the_lexsort_rebuild(self, cfg):
        channels, timestamps = generate_tags_by_lexsort(cfg)
        stream = generate_tags(cfg)
        assert stream.channels.dtype == channels.dtype
        assert stream.timestamps_ps.dtype == timestamps.dtype
        assert np.array_equal(stream.channels, channels)
        assert np.array_equal(stream.timestamps_ps, timestamps)

    def test_stamps_near_the_duration_cap_equal_the_lexsort_rebuild(self):
        # Stamps just below 2^61 ps fill every bit of the int64 sort key.
        cfg = config(pair_rate_hz=2e-5, duration_s=math.nextafter(2**61 / 1e12, 0), seed=5)
        channels, timestamps = generate_tags_by_lexsort(cfg)
        stream = generate_tags(cfg)
        assert len(stream) > 10 and timestamps.max() > 2**60
        assert np.array_equal(stream.channels, channels)
        assert np.array_equal(stream.timestamps_ps, timestamps)

    @pytest.mark.parametrize(
        "gains",
        [{}, {"detector_efficiency": (0.9, 0.8, 0.7, 0.6), "mode_transmission": (0.5, 0.8)}],
        ids=["lossless", "lossy"],
    )
    def test_pairs_sharing_a_picosecond_equal_the_lexsort_rebuild(self, gains):
        # 1e4 pairs in 1e4 ps: many picoseconds hold several pairs, so each photon's
        # run of keys, merged by the stable sort, is out of channel order at ties.
        cfg = config(pair_rate_hz=1e12, pattern_probs=(0.3, 0.4, 0.3), duration_s=1e-8, seed=3, **gains)
        channels, timestamps = generate_tags_by_lexsort(cfg)
        stream = generate_tags(cfg)
        assert len(stream) > 5000
        assert len(np.unique(stream.timestamps_ps)) < 0.6 * len(stream)
        assert np.array_equal(stream.channels, channels)
        assert np.array_equal(stream.timestamps_ps, timestamps)

    def test_stamps_rounded_up_to_the_duration_are_dropped(self):
        # Seed 2 draws 977 pairs in 1000 ps, and the last pair's stamp rounds to
        # 1000 ps, the end of the window: the sorted prefix must leave out both clicks.
        cfg = config(pair_rate_hz=1e12, pattern_probs=(0.3, 0.4, 0.3), duration_s=1e-9, seed=2)
        channels, timestamps = generate_tags_by_lexsort(cfg)
        stream = generate_tags(cfg)
        assert len(stream) == 2 * 977 - 2
        assert np.array_equal(stream.channels, channels)
        assert np.array_equal(stream.timestamps_ps, timestamps)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("jitter_sigma_ps", [1e10, 1e19, 1e300])
    def test_wide_jitter_drops_stamps_before_the_int64_cast(self, jitter_sigma_ps):
        # 1e19 ps throws most stamps past int64: they must go before the cast, which warns.
        cfg = TagSimConfig(1e3, (0, 1, 0), 0.01, 1, jitter_sigma_ps=jitter_sigma_ps)
        channels, timestamps = generate_tags_by_lexsort(cfg)
        stream = generate_tags(cfg)
        assert np.array_equal(stream.channels, channels)
        assert np.array_equal(stream.timestamps_ps, timestamps)
        assert np.all(stream.timestamps_ps < round(cfg.duration_s * 1e12))

    def test_duration_beyond_int64_picoseconds_rejected(self):
        # 2e7 s is 2e19 ps, past the 9.2e18 ps an int64 timestamp holds;
        # just above 2^61 ps a stamp no longer fits the int64 key timestamp * 4 + channel.
        with pytest.raises(ValueError):
            TagSimConfig(2e-6, (0, 1, 0), 2e7, 3)
        with pytest.raises(ValueError):
            TagSimConfig(2e-6, (0, 1, 0), math.nextafter(2**61 / 1e12, math.inf), 3)
        assert TagSimConfig(2e-6, (0, 1, 0), 2e6, 3).duration_s == 2e6


def assert_counts_equal_greedy_walk(stream, window_ps):
    """count_coincidences equals a per-pair _greedy_walk over each channel's full list."""
    pairs = STANDARD_PAIRS + ((2, 0), (1, 1))
    got = count_coincidences(stream, window_ps, pairs).pair_counts
    per_channel = {c: stream.timestamps_ps[stream.channels == c].tolist() for c in STANDARD_CHANNELS}
    want = {(a, b): _greedy_walk(per_channel[a], per_channel[b], window_ps / 2) for a, b in pairs}
    assert got == want


class TestCountCoincidences:
    def test_identical_timestamps_all_coincide(self):
        ts = np.arange(0, 10_000_000, 1000, dtype=np.int64)
        channels = np.concatenate([np.zeros(len(ts), np.uint8), np.ones(len(ts), np.uint8)])
        timestamps = np.concatenate([ts, ts])
        order = np.lexsort((channels, timestamps))
        stream = TagStream(channels[order], timestamps[order], duration_s=1.0)
        res = count_coincidences(stream, window_ps=10.0, pairs=[(0, 1)])
        assert res.pair_counts[(0, 1)] == len(ts)

    def test_each_tag_consumed_once(self):
        # One click on channel 0 flanked by two on channel 1: only one match.
        stream = TagStream(
            np.array([1, 0, 1], dtype=np.uint8),
            np.array([90, 100, 110], dtype=np.int64),
            duration_s=1.0,
        )
        res = count_coincidences(stream, window_ps=100.0, pairs=[(0, 1)])
        assert res.pair_counts[(0, 1)] == 1

    def test_prefers_nearest_partner(self):
        # Channel 1 clicks at 0 and 95; channel 0 clicks at 90 and 100.
        # Nearest-match pairs (90, 95), leaving 0 and 100 unmatched with a
        # +/-25 ps window.
        stream = TagStream(
            np.array([1, 0, 1, 0], dtype=np.uint8),
            np.array([0, 90, 95, 100], dtype=np.int64),
            duration_s=1.0,
        )
        res = count_coincidences(stream, window_ps=50.0, pairs=[(0, 1)])
        assert res.pair_counts[(0, 1)] == 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 60)), max_size=60),
        st.sampled_from([0.25, 0.5, 1.0, 2.5, 4.0, 10.0, 100.0]),
    )
    def test_counts_equal_greedy_walk_on_dense_streams(self, records, half_width):
        # Dense small-integer stamps give ties, chains, flanking tags and
        # mixed-channel clusters; ties keep their drawn channel order.
        records = sorted(records, key=lambda r: r[1])
        ch = np.array([c for c, _ in records], dtype=np.uint8)
        ts = np.array([t for _, t in records], dtype=np.int64)
        assert_counts_equal_greedy_walk(TagStream(ch, ts, duration_s=1.0), 2 * half_width)

    def test_counts_equal_greedy_walk_on_noisy_streams(self):
        cfg = config(
            pair_rate_hz=2e5, pattern_probs=(0.3, 0.4, 0.3), duration_s=0.05,
            dark_rate_hz=2e5, jitter_sigma_ps=300.0,
        )
        stream = generate_tags(cfg)
        for window in (10.0, 1000.0, 1e5):
            assert_counts_equal_greedy_walk(stream, window)

    @pytest.mark.parametrize("records", [[], [(2, 7)]])
    def test_counts_equal_greedy_walk_on_empty_and_one_record_streams(self, records):
        ch = np.array([c for c, _ in records], dtype=np.uint8)
        ts = np.array([t for _, t in records], dtype=np.int64)
        assert_counts_equal_greedy_walk(TagStream(ch, ts, duration_s=1.0), 100.0)

    def test_two_tag_clusters_at_both_ends_next_to_chains(self):
        # Clusters at a 100 ps window, split where a gap exceeds 50 ps: a two-tag
        # cluster at the first tag, a chain of four (one gap exactly 50 ps), a chain of
        # three, and a two-tag cluster at the last tag.  Either end link of the chain of
        # three, taken for a two-tag cluster, would count one (0, 2) match too many.
        ts = np.array([0, 10, 100, 140, 190, 230, 300, 340, 380, 460, 470], dtype=np.int64)
        ch = np.array([0, 2, 1, 3, 0, 2, 0, 2, 0, 3, 1], dtype=np.uint8)
        stream = TagStream(ch, ts, duration_s=1.0)
        assert_counts_equal_greedy_walk(stream, 100.0)
        counts = count_coincidences(stream, 100.0, [(0, 2), (1, 3)]).pair_counts
        assert counts == {(0, 2): 3, (1, 3): 2}

    def test_one_chain_stream(self):
        # Every gap is 40 ps, so at a 100 ps window the whole stream is one cluster.
        ts = np.arange(0, 40 * 2000, 40, dtype=np.int64)
        ch = np.random.default_rng(8).integers(0, 4, len(ts)).astype(np.uint8)
        stream = TagStream(ch, ts, duration_s=1.0)
        assert_counts_equal_greedy_walk(stream, 100.0)
        assert sum(count_pattern_coincidences(stream, 100.0).pair_counts.values()) > 500

    def test_window_edges(self):
        stream = TagStream(
            np.array([0, 1], dtype=np.uint8),
            np.array([0, 500], dtype=np.int64),
            duration_s=1.0,
        )
        assert count_coincidences(stream, 1000.0, [(0, 1)]).pair_counts[(0, 1)] == 1
        assert count_coincidences(stream, 999.0, [(0, 1)]).pair_counts[(0, 1)] == 0

    def test_accidental_rate_of_independent_streams(self):
        d = 1e5
        stream = generate_tags(
            config(pair_rate_hz=0.0, dark_rate_hz=(d, d, 0.0, 0.0), seed=99)
        )
        res = count_coincidences(stream, window_ps=1000.0, pairs=[(0, 1)])
        expected = 10.0  # 1e5 * 1e5 * 1e-9 * 1
        tolerance = 4 * math.sqrt(expected)
        assert abs(res.pair_counts[(0, 1)] - expected) <= tolerance
        assert res.pair_accidentals[(0, 1)] == pytest.approx(
            res.singles[0] * res.singles[1] * 1e-9, rel=1e-12
        )
        assert abs(res.pair_accidentals[(0, 1)] - expected) <= tolerance

    def test_unbiased_on_known_ground_truth(self):
        # One million true pairs at staggered offsets well inside the
        # window; the estimator must recover them all within 1%.
        n = 1_000_000
        rng = np.random.default_rng(5)
        base = np.sort(rng.integers(0, 10**15, n))
        offsets = rng.integers(-400, 401, n)
        stream_a = base
        stream_b = np.sort(base + offsets)
        ch = np.concatenate([np.zeros(n, np.uint8), np.ones(n, np.uint8)])
        ts = np.concatenate([stream_a, stream_b])
        order = np.lexsort((ch, ts))
        stream = TagStream(ch[order], ts[order], duration_s=1000.0)
        res = count_coincidences(stream, window_ps=1000.0, pairs=[(0, 1)])
        assert abs(res.pair_counts[(0, 1)] - n) / n < 0.01

    def test_unknown_channel_rejected(self):
        stream = generate_tags(config())
        with pytest.raises(ValueError):
            count_coincidences(stream, 1000.0, [(0, 9)])

    @pytest.mark.parametrize("bad", [True, 1.0, 1.5, -1, "1"])
    def test_non_integer_channel_id_rejected(self, bad):
        # True and 1.0 were counted as channel 1 before.
        stream = generate_tags(config())
        with pytest.raises(ValueError):
            count_coincidences(stream, 1000.0, [(0, bad)])

    def test_numpy_integer_channel_ids_accepted(self):
        stream = generate_tags(config(pattern_probs=(0.5, 0.0, 0.5)))
        want = count_coincidences(stream, 1000.0, [(0, 1)]).pair_counts[(0, 1)]
        got = count_coincidences(stream, 1000.0, [(np.int64(0), np.uint8(1))])
        assert got.pair_counts == {(0, 1): want} and want > 0

    def test_window_must_be_positive(self):
        stream = generate_tags(config())
        with pytest.raises(ValueError):
            count_coincidences(stream, 0.0, [(0, 1)])

    @pytest.mark.parametrize("window_ps", [math.nan, math.inf, -math.inf])
    def test_window_must_be_finite(self, window_ps):
        stream = generate_tags(config())
        with pytest.raises(ValueError):
            count_pattern_coincidences(stream, window_ps)


class TestPatternConvergence:
    def test_fractions_match_analytic_model(self):
        state = evolve(noon_mixed(0.5, 1.1, 1.0), mzi_unitary(math.pi / 2))
        probs = pattern_probs(state)
        clicks = probs * SPLITTER_TREE_DETECTION
        expected = {"2a0b": clicks[0], "1a1b": clicks[1], "0a2b": clicks[2]}
        cfg = config(pair_rate_hz=200_000, pattern_probs=tuple(probs), seed=31)
        stream = generate_tags(cfg)
        # The pair count is Poisson; condition on the realised one.  With no
        # loss, no darks and no jitter every pair leaves exactly two records.
        assert cfg.detector_efficiency == (1.0,) * 4
        assert cfg.mode_transmission == (1.0, 1.0)
        assert cfg.dark_rate_hz == (0.0,) * 4
        assert cfg.jitter_sigma_ps == 0.0
        assert len(stream) % 2 == 0
        n_pairs = len(stream) // 2
        res = count_pattern_coincidences(stream, window_ps=100.0)
        counts = res.pattern_counts()
        for label, frac in expected.items():
            mean = n_pairs * frac
            sigma = math.sqrt(n_pairs * frac * (1 - frac)) if 0 < frac < 1 else 0.0
            assert abs(counts[label] - mean) <= 3 * sigma + 1e-9


class TestFringeFromTags:
    @staticmethod
    def scans(purity=1.0, pairs_per_point=40_000, dark=0.0, seed0=100):
        phases = np.linspace(0.0, 2 * math.pi, 24, endpoint=False)
        u = mzi_unitary(math.pi / 2)
        out = []
        for k, phi in enumerate(phases):
            probs = pattern_probs(evolve(noon_mixed(0.5, phi, purity), u))
            cfg = config(
                pair_rate_hz=pairs_per_point,
                pattern_probs=tuple(probs),
                dark_rate_hz=(dark,) * 4,
                seed=seed0 + k,
            )
            out.append((phi, generate_tags(cfg)))
        return out

    def test_recovers_purity_within_three_sigma(self):
        est = fringe_from_tags(self.scans(purity=0.9), window_ps=100.0)
        fit = est.fits["1a1b"]
        sigma = est.visibility_sigma["1a1b"]
        assert abs(fit.visibility - 0.9) <= 3 * sigma
        assert sigma < 0.05

    def test_corrected_visibility_not_below_raw_with_darks(self):
        est = fringe_from_tags(
            self.scans(purity=1.0, dark=2000.0, seed0=400), window_ps=1000.0
        )
        assert (
            est.fits_corrected["1a1b"].visibility
            >= est.fits["1a1b"].visibility - 1e-9
        )

    def test_requires_phase_points(self):
        with pytest.raises(ValueError):
            fringe_from_tags(self.scans()[:3], window_ps=100.0)

    def test_zero_rate_point_is_flagged_insufficient(self):
        scans = self.scans(purity=0.9, pairs_per_point=4_000)
        empty = generate_tags(config(pair_rate_hz=0.0, seed=7))
        assert len(empty) == 0
        scans[5] = (scans[5][0], empty)
        est = fringe_from_tags(scans, window_ps=100.0)
        assert est.insufficient
        for lab in est.fractions:
            assert est.sigmas[lab][5] == 1.0
            assert est.fractions[lab][5] == 0.0
            assert est.fractions_corrected[lab][5] == 0.0
        for fit in list(est.fits.values()) + list(est.fits_corrected.values()):
            assert all(math.isfinite(v) for v in (fit.visibility, fit.offset, fit.amplitude, fit.phase))
        assert all(math.isfinite(v) for v in est.visibility_sigma.values())

    def test_point_left_with_no_corrected_count_is_flagged_insufficient(self):
        # One (0, 2) coincidence, and 999 lone clicks on each of channels 0 and 2:
        # the 1a1b count is 1 and its accidentals 1.0, so every corrected count is 0.
        lone = np.arange(1, 1000, dtype=np.int64) * 1_000_000
        ts = np.concatenate(([0, 10], lone, lone + 500_000))
        ch = np.concatenate(([0, 2], np.zeros(999), np.full(999, 2))).astype(np.uint8)
        order = np.argsort(ts, kind="stable")
        stream = TagStream(ch[order], ts[order], duration_s=1e-3)
        res = count_pattern_coincidences(stream, 1000.0)
        assert res.pattern_counts() == {"2a0b": 0, "1a1b": 1, "0a2b": 0}
        assert res.pattern_accidentals()["1a1b"] == 1.0
        scans = self.scans(purity=0.9, pairs_per_point=4_000)[::4]
        assert not fringe_from_tags(scans, window_ps=1000.0).insufficient
        est = fringe_from_tags(scans + [(1.0, stream)], window_ps=1000.0)
        assert est.insufficient
        assert est.fractions["1a1b"][6] == 1.0
        for lab in est.fractions:
            assert est.fractions_corrected[lab][6] == 0.0

    @pytest.mark.parametrize("phase", [math.nan, math.inf])
    def test_non_finite_phase_rejected(self, phase):
        scans = self.scans(pairs_per_point=100)
        scans[3] = (phase, scans[3][1])
        # Not the LinAlgError (a ValueError) of the fit after counting.
        with pytest.raises(ValueError, match="phases must be finite"):
            fringe_from_tags(scans, window_ps=100.0)


@pytest.fixture
def large_stream(request):
    """A seeded stream of 57 k records that exercises every CSV writer run.

    "all_widths": a run of 3000 records for each stamp width of 1 to 19 digits,
    with 0, 10^k - 1, 10^k and 2^63 - 1 among the stamps, on channels 0..3 at
    random.
    """
    assert request.param == "all_widths"
    rng = np.random.default_rng(20240412)
    channels, timestamps = [], []
    for d in range(1, 20):
        low, high = (0 if d == 1 else 10 ** (d - 1)), min(10**d, 2**63)
        run = rng.integers(low, high, 3000, endpoint=False)
        run[:2] = (low, high - 1)
        timestamps.append(np.sort(run))
        channels.append(rng.integers(0, 4, 3000))
    return TagStream(np.concatenate(channels), np.concatenate(timestamps), 1e7)


class TestStreamIO:
    def test_binary_round_trip(self):
        stream = generate_tags(config(jitter_sigma_ps=30.0, seed=17))
        back = tags_from_bytes(tags_to_bytes(stream, fmt="binary"), fmt="binary")
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.timestamps_ps, stream.timestamps_ps)
        assert back.duration_s == stream.duration_s

    def test_csv_round_trip(self):
        stream = generate_tags(config(seed=23))
        data = tags_to_bytes(stream, fmt="csv")
        back = tags_from_bytes(data, fmt="csv", duration_s=1.0)
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.timestamps_ps, stream.timestamps_ps)
        assert data == csv_encode_loop(stream)
        assert same_stream(tags_from_bytes(data, fmt="csv"), csv_decode_loop(data))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            tags_from_bytes(b"NOTATAG1" + b"\x00" * 32, fmt="binary")

    def test_binary_has_magic_header(self):
        stream = generate_tags(config(seed=29))
        data = tags_to_bytes(stream, fmt="binary")
        assert data[:8] == b"NOONTAG1"

    def test_binary_layout(self):
        stream = TagStream(
            np.array([0, 3, 1], dtype=np.uint8),
            np.array([5, 7, 2**40], dtype=np.int64),
            duration_s=2.5,
        )
        want = b"NOONTAG1" + struct.pack("<d", 2.5) + struct.pack("<B", 4) + bytes([0, 1, 2, 3])
        want += struct.pack("<Q", 3)
        want += b"".join(struct.pack("<BQ", c, t) for c, t in [(0, 5), (3, 7), (1, 2**40)])
        assert tags_to_bytes(stream, fmt="binary") == want

    def test_truncated_or_overlong_binary_rejected(self):
        stream = TagStream(
            np.array([0, 1, 2, 3], dtype=np.uint8), np.array([1, 2, 3, 4]), duration_s=1.0
        )
        data = tags_to_bytes(stream, fmt="binary")
        for k in range(len(data)):
            with pytest.raises(ValueError):
                tags_from_bytes(data[:k], fmt="binary")
        with pytest.raises(ValueError):
            tags_from_bytes(data + b"\x00", fmt="binary")

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**62)), max_size=20),
        st.floats(1e-12, 1e6),
    )
    def test_binary_round_trips_any_stream(self, records, duration_s):
        records.sort(key=lambda r: r[1])
        channels = np.array([c for c, _ in records], dtype=np.int64)
        timestamps = np.array([t for _, t in records], dtype=np.int64)
        # Stretch the drawn duration until its window holds every stamp.
        if records:
            duration_s = max(duration_s, covering_duration(records[-1][1]))
        stream = TagStream(channels, timestamps, duration_s)
        back = tags_from_bytes(tags_to_bytes(stream, fmt="binary"), fmt="binary")
        assert same_stream(back, stream)

    def test_csv_channel_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tags_from_bytes(b"channel,timestamp_ps\n300,5\n", fmt="csv")

    @pytest.mark.parametrize("channel", [b"256", b"9999999999999999999"])
    def test_csv_channel_past_uint8_rejected_before_registration(self, channel):
        # Checked before the uint8 cast, which would wrap 256 onto detector 0.
        with pytest.raises(ValueError, match="0..3"):
            tags_from_bytes(b"channel,timestamp_ps\n0,1\n" + channel + b",5\n", fmt="csv")

    def test_csv_round_trip_keeps_silent_detectors_countable(self):
        # Only detectors 0 and 2 clicked; the reader must still know 1 and 3.
        stream = TagStream(
            np.array([0, 2, 0, 2], dtype=np.uint8), np.array([100, 100, 5000, 5010]), 1.0
        )
        back = tags_from_bytes(tags_to_bytes(stream, fmt="csv"), fmt="csv", duration_s=1.0)
        want = count_pattern_coincidences(stream, 100.0)
        got = count_pattern_coincidences(back, 100.0)
        assert want.pattern_counts()["1a1b"] == 2
        assert got.pair_counts == want.pair_counts
        assert got.singles == want.singles == {0: 2, 1: 0, 2: 2, 3: 0}

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.one_of(
                    st.integers(0, 2**63 - 1),
                    st.integers(1, 18).map(lambda k: 10**k),
                    st.integers(1, 18).map(lambda k: 10**k - 1),
                ),
            ),
            max_size=30,
        )
    )
    def test_csv_round_trips_any_stream(self, records):
        records.sort(key=lambda r: r[1])
        # 1e7 s is a window of 10^19 ps, past every int64 stamp.
        stream = TagStream(
            np.array([c for c, _ in records], dtype=np.uint8),
            np.array([t for _, t in records], dtype=np.int64),
            1e7,
        )
        data = tags_to_bytes(stream, fmt="csv")
        assert data == csv_encode_loop(stream)
        back = tags_from_bytes(data, fmt="csv", duration_s=1e7)
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.timestamps_ps, stream.timestamps_ps)

    @pytest.mark.parametrize("large_stream", ["all_widths"], indirect=True)
    def test_csv_codec_equals_the_loops_on_a_large_stream(self, large_stream):
        data = tags_to_bytes(large_stream, fmt="csv")
        assert data == csv_encode_loop(large_stream)
        assert same_stream(tags_from_bytes(data, fmt="csv"), csv_decode_loop(data))
        back = tags_from_bytes(data, fmt="csv", duration_s=large_stream.duration_s)
        assert np.array_equal(back.channels, large_stream.channels)
        assert np.array_equal(back.timestamps_ps, large_stream.timestamps_ps)

    @settings(max_examples=400, deadline=None)
    @given(csv_bodies())
    def test_csv_reader_agrees_with_loop_on_any_body(self, body):
        assert_csv_reader_agrees_with_loop(f"{CSV_HEADER}\n{body}".encode())

    @pytest.mark.parametrize(
        "tail",
        [
            "",
            "\n",
            "\n\n",
            "\n1,5",
            "\n\n1,5\n\n\n2,5\n",
            "\n1",
            "\n1,2,3",
            "\n3,7\n,",
            "\n3,7\n1",
            "\n1,2,3\n4\n",
            "0\n1,5\n",
        ],
    )
    def test_csv_reader_agrees_with_loop_on_edge_bodies(self, tail):
        assert_csv_reader_agrees_with_loop(f"{CSV_HEADER}{tail}".encode())

    @settings(max_examples=200, deadline=None)
    @given(mutated_csv_headers(), csv_bodies())
    def test_csv_reader_agrees_with_loop_on_a_mutated_header(self, header, body):
        assert_csv_reader_agrees_with_loop(header + b"\n" + body.encode())

    @pytest.mark.parametrize(
        "text",
        [
            f"{CSV_HEADER}\n{body}\n"
            for body in (
                " 1, 5",
                "+1,5",
                "1,5_0",
                "1,5\r",
                "1,\u0665",  # ARABIC-INDIC DIGIT FIVE
                "1,00000000000000000005",
                "1,99999999999999999999",
            )
        ]
        + [f"\n{CSV_HEADER}\n1,5\n"],
    )
    def test_csv_reader_rejects_what_int_accepted(self, text):
        data = text.encode()
        try:
            csv_decode_loop(data)
        except OverflowError:
            pass
        with pytest.raises(ValueError):
            tags_from_bytes(data, fmt="csv")


def binary_blob(records, duration_s=1.0, ids=STANDARD_CHANNELS):
    """A binary stream file holding the given (channel, stamp) records."""
    head = struct.pack(
        f"<8sdB{len(ids)}BQ", b"NOONTAG1", duration_s, len(ids), *ids, len(records)
    )
    return head + b"".join(struct.pack("<BQ", c, t) for c, t in records)


def csv_blob(*rows):
    return ("channel,timestamp_ps\n" + "".join(f"{row}\n" for row in rows)).encode()


OUTSIDE = "channels must lie in 0..3"
IDS = "header must list the channel ids 0, 1, 2, 3"

# Each reader refusal with its message.  A channel is one of the four detectors, and
# a binary header lists exactly their ids 0, 1, 2, 3.
READER_REFUSALS = [
    pytest.param("binary", b"NOTATAG1" + bytes(32), None, "bad magic header", id="bin-magic"),
    pytest.param("binary", binary_blob([])[:20], None, "truncated tag stream header",
                 id="bin-head"),
    pytest.param("binary", binary_blob([(0, 5)])[:-1], None, "does not match its 1 records",
                 id="bin-short"),
    pytest.param("binary", binary_blob([(0, 5)]) + b"\0", None, "does not match its 1 records",
                 id="bin-long"),
    pytest.param("binary", binary_blob([(0, 5), (7, 6)]), None, OUTSIDE, id="bin-unregistered"),
    pytest.param("binary", binary_blob([(0, 5), (4, 6)]), None, OUTSIDE, id="bin-channel-4"),
    pytest.param("binary", binary_blob([(0, 5), (255, 6)]), None, OUTSIDE, id="bin-channel-255"),
    pytest.param("binary", binary_blob([(0, 5)], ids=(0, 1, 0)), None, IDS, id="bin-ids"),
    pytest.param("binary", binary_blob([(0, 5)], ids=(0, 1, 3, 2)), None, IDS,
                 id="bin-ids-order"),
    pytest.param("binary", binary_blob([(0, 5)], ids=(0, 1, 2, 3, 4)), None, IDS,
                 id="bin-ids-five"),
    pytest.param("binary", binary_blob([], ids=tuple(range(16))), None, IDS, id="bin-ids-16"),
    pytest.param("binary", binary_blob([(0, 9), (1, 5)]), None, "non-decreasing",
                 id="bin-decreasing"),
    pytest.param("binary", binary_blob([(0, 5), (1, 1000)], 1e-9), None,
                 "timestamp 1000 ps lies past the 1000 ps window", id="bin-window"),
    pytest.param("binary", binary_blob([(0, 5), (1, 2**63)]), None, "non-decreasing",
                 id="bin-wrapped"),
    pytest.param("binary", binary_blob([(0, 5)], math.nan), None,
                 "duration must be a finite number", id="bin-nan-duration"),
    pytest.param("binary", binary_blob([(0, 5)], 0.0), None, "duration must be > 0",
                 id="bin-zero-duration"),
    pytest.param("binary", binary_blob([(0, 5)], 1e-9), 5.0,
                 r"duration 5.0 s differs from the header's 1e-09 s", id="bin-duration"),
    pytest.param("csv", b"channel,timestamp", None, "missing header", id="csv-head"),
    pytest.param("csv", b"channel,timestamp_ps,\n0,5\n", None, "missing header",
                 id="csv-header-column"),
    pytest.param("csv", csv_blob("0,5x"), None, "a byte other than 0-9", id="csv-byte"),
    pytest.param("csv", csv_blob("0,5,6"), None, "exactly two columns", id="csv-columns"),
    pytest.param("csv", csv_blob("0," + "1" * 20), None, "1 to 19 digits", id="csv-digits"),
    pytest.param("csv", csv_blob("0,5", "300,6"), None, OUTSIDE, id="csv-channel"),
    pytest.param("csv", csv_blob("0,5", "4,6"), None, OUTSIDE, id="csv-channel-4"),
    pytest.param("csv", csv_blob("0,5", "255,6"), None, OUTSIDE, id="csv-channel-255"),
    pytest.param("csv", csv_blob("0,5", f"{10**19 - 1},6"), None, OUTSIDE,
                 id="csv-channel-19-digits"),
    pytest.param("csv", csv_blob("0,9", "1,5"), None, "non-decreasing", id="csv-decreasing"),
    pytest.param("csv", csv_blob("0,5", "1,1000"), 1e-9,
                 "timestamp 1000 ps lies past the 1000 ps window", id="csv-window"),
    pytest.param("csv", csv_blob("0,5", f"1,{2**63}"), None, "non-decreasing",
                 id="csv-wrapped"),
    pytest.param("csv", csv_blob("0,5"), 0.0, "duration must be > 0", id="csv-zero-duration"),
]


@pytest.mark.parametrize("fmt, data, duration_s, message", READER_REFUSALS)
def test_reader_refusals_keep_their_messages(fmt, data, duration_s, message):
    with pytest.raises(ValueError, match=message):
        tags_from_bytes(data, fmt, duration_s)


def test_binary_reader_refuses_a_duration_other_than_its_header():
    stream = TagStream(np.array([0, 1]), np.array([5, 7]), 1e-9)
    data = tags_to_bytes(stream, fmt="binary")
    for duration_s in (None, 1e-9):
        assert same_stream(tags_from_bytes(data, "binary", duration_s), stream)
    for duration_s in (5.0, 2e-9, math.nan):
        with pytest.raises(ValueError, match="differs from the header's 1e-09 s"):
            tags_from_bytes(data, "binary", duration_s)


def read_by_gather(data):
    """tags_from_bytes with the run reader switched off, so the gather reader reads the
    whole body: the oracle for the run reader."""
    with mock.patch.object(tagsim, "_csv_run", lambda *args: None):
        return tags_from_bytes(data, fmt="csv")


def csv_outcome(read, data):
    """The stream `read` decodes from data, or the message of the ValueError it raises."""
    try:
        return read(data)
    except ValueError as err:
        return f"ValueError: {err}"


# Ways to change one row of a body of runs ("none" keeps it), each giving a row of
# another shape or a malformed one.  "/" and ":" are the bytes next to "0" and "9".
CSV_ROW_CHANGES = (
    "none", "shorter", "two-digit channel", "leading zero", "empty line in a run",
    "empty line between runs", "stray byte", "missing comma", "no final newline",
    "19-digit stamp", "stamp of 2^63",
)
STRAY_BYTES = " +-/:;,\n\r\x00\xff"


@st.composite
def csv_run_bodies(draw):
    """CSV bodies of 3 to 6 runs of 1 to 300 sorted rows, one stamp width per run with
    the widths rising, channels 0..3, then one row changed by a CSV_ROW_CHANGES entry."""
    widths = sorted(draw(st.sets(st.integers(1, 19), min_size=3, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, starts = [], []
    for d in widths:
        n = draw(st.integers(1, 300))
        stamps = np.sort(rng.integers(0 if d == 1 else 10 ** (d - 1), min(10**d, 2**63), n))
        starts.append(len(rows))
        rows += [f"{c},{t}" for c, t in zip(rng.integers(0, 4, n).tolist(), stamps.tolist())]
    change = draw(st.sampled_from(CSV_ROW_CHANGES))
    i = draw(st.integers(0, len(rows) - 1))
    channel, stamp = rows[i].split(",")
    if change == "shorter":
        rows[i] = f"{channel},{stamp[1:]}"
    elif change == "two-digit channel":
        rows[i] = f"1{channel},{stamp}"
    elif change == "leading zero":
        rows[i] = draw(st.sampled_from([f"0{channel},{stamp}", f"{channel},0{stamp}"]))
    elif change == "empty line in a run":
        rows.insert(i, "")
    elif change == "empty line between runs":
        rows.insert(draw(st.sampled_from(starts[1:])), "")
    elif change == "stray byte":
        k = draw(st.integers(0, len(rows[i]) - 1))
        rows[i] = rows[i][:k] + draw(st.sampled_from(STRAY_BYTES)) + rows[i][k + 1 :]
    elif change == "missing comma":
        rows[i] = channel + stamp
    elif change == "19-digit stamp":
        rows[i] = f"{channel},{10**18 + i}"
    elif change == "stamp of 2^63":
        rows[i] = f"{channel},{2**63}"
    body = "\n".join(rows) + ("" if change == "no final newline" else "\n")
    return body.encode("latin-1")


class TestCsvRunReader:
    @settings(max_examples=300, deadline=None)
    @given(csv_run_bodies())
    def test_equals_the_gather_reader_and_the_loop(self, body):
        data = f"{CSV_HEADER}\n".encode() + body
        got = csv_outcome(lambda d: tags_from_bytes(d, fmt="csv"), data)
        want = csv_outcome(read_by_gather, data)
        if isinstance(want, str):
            assert got == want
        else:
            assert same_stream(got, want)
        # int() takes spaces, signs, "\r" and fields past 19 digits (see csv_decode_loop),
        # which both readers refuse.
        fields = body.replace(b",", b"\n").split(b"\n")
        if set(body) <= set(b"0123456789,\n") and max(map(len, fields)) <= 19:
            assert_csv_reader_agrees_with_loop(data)

    def test_writer_files_are_read_by_runs_alone(self, monkeypatch):
        stream = generate_tags(config(seed=41, dark_rate_hz=2e3, jitter_sigma_ps=30.0))
        data = tags_to_bytes(stream, fmt="csv")
        gathered = []
        gather = tagsim._csv_gather
        monkeypatch.setattr(
            tagsim, "_csv_gather", lambda *args: gathered.append(args) or gather(*args)
        )
        assert same_stream(tags_from_bytes(data, fmt="csv", duration_s=1.0), stream)
        assert gathered == []

    @pytest.mark.parametrize("buffer", [bytes, bytearray, memoryview])
    def test_reads_any_bytes_like_buffer(self, buffer):
        data = csv_blob("0,5", "1,7", "03,9")
        assert same_stream(tags_from_bytes(buffer(data), fmt="csv"), csv_decode_loop(data))

    def test_hands_off_after_the_first_row_that_is_not_longer(self, monkeypatch):
        # Channels alternate "1" and "01", so row lengths alternate: rows 0 and 1 are runs
        # of one row, and row 2, shorter than row 1, starts what the gather reader reads.
        n = 20_000
        stamps = np.sort(np.random.default_rng(5).integers(10**9, 10**10, n))
        channels = np.where(np.arange(n) % 2, "01", "1")
        data = csv_blob(*(f"{c},{t}" for c, t in zip(channels.tolist(), stamps.tolist())))
        runs = []
        run = tagsim._csv_run
        monkeypatch.setattr(tagsim, "_csv_run", lambda *args: runs.append(run(*args)) or runs[-1])
        assert same_stream(tags_from_bytes(data, fmt="csv"), csv_decode_loop(data))
        assert len(runs) == 3
        assert [len(r[0]) for r in runs[:2]] == [1, 1] and runs[2] is None


class TestTrustedStreams:
    """generate_tags and both readers build their streams without the public
    checks; each stream must still pass them unchanged."""

    @settings(max_examples=100, deadline=None)
    @given(tag_sim_configs())
    def test_public_constructor_accepts_every_trusted_stream(self, cfg):
        stream = generate_tags(cfg)
        binary, text = tags_to_bytes(stream, "binary"), tags_to_bytes(stream, "csv")
        streams = [
            stream,
            tags_from_bytes(binary, "binary"),
            tags_from_bytes(text, "csv", cfg.duration_s),
            tags_from_bytes(text, "csv"),
        ]
        for s in streams:
            assert s.channels.dtype == np.uint8 and s.timestamps_ps.dtype == np.int64
            rebuilt = TagStream(s.channels, s.timestamps_ps, s.duration_s)
            assert same_stream(rebuilt, s)
        assert all(same_stream(s, stream) for s in streams[1:3])


class TestStreamValidation:
    def test_timestamps_must_be_sorted(self):
        with pytest.raises(ValueError):
            TagStream(
                np.array([0, 1], dtype=np.uint8),
                np.array([100, 50], dtype=np.int64),
                duration_s=1.0,
            )

    def test_channel_beyond_uint8_rejected(self):
        # 258 would wrap to detector 2, and -1 to 255, in a uint8 cast.
        with pytest.raises(ValueError):
            TagStream(np.array([258]), np.array([0]), 1.0)
        with pytest.raises(ValueError):
            TagStream(np.array([-1]), np.array([0]), 1.0)

    @pytest.mark.parametrize("bad_id", [300, -1, 1.5, math.nan])
    def test_channel_id_not_a_uint8_integer_rejected(self, bad_id):
        with pytest.raises(ValueError):
            TagStream(np.array([0, bad_id]), np.array([0, 0]), 1.0)

    @pytest.mark.parametrize("ids", [(0, 0, 1), (0, 1, 2, 3, 2), (np.uint8(7), 7)])
    def test_duplicate_channel_ids_rejected(self, ids):
        # A header that lists any ids but 0, 1, 2, 3 is refused, repeated ones among them.
        with pytest.raises(ValueError, match="0, 1, 2, 3"):
            tags_from_bytes(binary_blob([(0, 5)], ids=ids), fmt="binary")

    def test_binary_header_with_duplicate_channel_ids_rejected(self):
        data = tags_to_bytes(TagStream(np.array([0]), np.array([5]), 1.0), fmt="binary")
        # The ids (0, 1, 2, 3) follow the magic, the f64 duration and the u8 id count.
        assert data[16:21] == bytes([4, 0, 1, 2, 3])
        with pytest.raises(ValueError, match="0, 1, 2, 3"):
            tags_from_bytes(data[:17] + bytes([0, 0, 2, 3]) + data[21:], fmt="binary")

    @pytest.mark.parametrize("channel", [0.5, math.nan, -1.0, 300.0])
    def test_non_integer_channel_rejected(self, channel):
        # Float channels outside 0..3 are refused before the cast, which warns past 0..255.
        with pytest.raises(ValueError):
            TagStream(np.array([channel]), np.array([0]), 1.0)

    @pytest.mark.parametrize("duration_s", [math.nan, math.inf, 0.0, -1.0])
    def test_duration_must_be_finite_and_positive(self, duration_s):
        with pytest.raises(ValueError):
            TagStream(np.array([0]), np.array([0]), duration_s)

    def test_unregistered_channel(self):
        with pytest.raises(ValueError):
            TagStream(
                np.array([9], dtype=np.uint8),
                np.array([100], dtype=np.int64),
                duration_s=1.0,
            )

    @pytest.mark.parametrize("stamps", [np.array([b"5"]), np.array([5], dtype=object), [2**64]])
    def test_bytes_or_object_timestamps_rejected(self, stamps):
        # A float cast reads b"5" as 5.
        with pytest.raises(ValueError):
            TagStream(np.array([0]), stamps, 1.0)

    def test_timestamp_past_the_window_rejected(self):
        # The window is [0, round(duration * 1e12)) ps, the bound generate_tags keeps.
        with pytest.raises(ValueError, match="window"):
            TagStream(np.array([0]), np.array([5 * 10**12]), 1.0)
        with pytest.raises(ValueError, match="window"):
            TagStream(np.array([0, 1]), np.array([0, 10**12]), 1.0)
        assert len(TagStream(np.array([0, 1]), np.array([0, 10**12 - 1]), 1.0)) == 2

    def test_window_past_int64_admits_every_stamp(self):
        stream = TagStream(np.array([0]), np.array([2**63 - 1]), 1e300)
        assert stream.timestamps_ps.tolist() == [2**63 - 1]

    @pytest.mark.parametrize("last", [2**53 + 1, 2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1])
    def test_inferred_csv_duration_admits_its_last_stamp(self, last):
        # (last + 1) / 1e12 alone gives a window that ends at or before these stamps.
        data = f"channel,timestamp_ps\n0,0\n1,{last}\n".encode()
        stream = tags_from_bytes(data, fmt="csv")
        assert stream.timestamps_ps.tolist() == [0, last]
        assert round(stream.duration_s * 1e12) > last
        assert stream.duration_s == covering_duration(last)

    def test_timestamp_beyond_int64_rejected(self):
        with pytest.raises(ValueError):
            TagStream(np.array([0]), [2**63], 1.0)

    @pytest.mark.parametrize("stamp", [1.5, math.nan, math.inf])
    def test_non_integer_timestamp_rejected(self, stamp):
        # 1.5 was truncated to 1 by the int64 cast; NaN and inf warned in it.
        with pytest.raises(ValueError):
            TagStream(np.array([0, 1]), np.array([0.0, stamp]), 1.0)

    def test_integer_valued_float_timestamps_accepted(self):
        stream = TagStream(np.array([0, 1]), np.array([0.0, 7.0]), 1.0)
        assert stream.timestamps_ps.dtype == np.int64
        assert stream.timestamps_ps.tolist() == [0, 7]

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            TagStream(np.array([0]), np.array([-5]), 1.0)

    def test_wrapped_u64_timestamp_after_a_large_one_rejected(self):
        # 9.3e18 ps wraps to -9146744073709551616 in the int64 cast, and its
        # int64 difference from 1e17 overflows to a positive value.
        big, wrapped = 10**17, 9_300_000_000_000_000_000
        with pytest.raises(ValueError):
            tags_from_bytes(f"channel,timestamp_ps\n0,{big}\n0,{wrapped}\n".encode(), "csv")
        data = tags_to_bytes(TagStream(np.array([0, 0]), np.array([0, 0]), 1.0), fmt="binary")
        with pytest.raises(ValueError):
            tags_from_bytes(data[:-18] + struct.pack("<BQBQ", 0, big, 0, wrapped), fmt="binary")
        with pytest.raises(ValueError):
            TagStream(np.array([0, 0]), np.array([big, wrapped], dtype=np.uint64), 1.0)

    def test_boolean_channels_and_timestamps_rejected(self):
        # Both casts read True as 1.
        flags = np.array([False, True])
        with pytest.raises(ValueError):
            TagStream(flags, np.array([0, 1]), 1.0)
        with pytest.raises(ValueError):
            TagStream(np.array([0, 1]), flags, 1.0)

    def test_wrapped_u64_timestamp_rejected(self):
        # A stored 2^63 ps wraps to -2^63 in the reader's int64 cast.
        data = tags_to_bytes(TagStream(np.array([0]), np.array([0]), 1.0), fmt="binary")
        with pytest.raises(ValueError):
            tags_from_bytes(data[:-9] + struct.pack("<BQ", 0, 2**63), fmt="binary")
