import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonchip.circuit import mzi_unitary
from noonchip.detection import pattern_probs, splitter_tree_click_probs
from noonchip.fock import evolve
from noonchip.sources import noon_mixed, noon_pure
from noonchip.tagsim import (
    STANDARD_PAIRS,
    CoincidenceResult,
    TagSimConfig,
    TagStream,
    _greedy_walk,
    _match_sorted,
    count_coincidences,
    count_pattern_coincidences,
    fringe_from_tags,
    generate_tags,
    read_tags,
    tags_from_bytes,
    tags_to_bytes,
    write_tags,
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
        st.lists(st.integers(0, 60), max_size=40),
        st.lists(st.integers(0, 60), max_size=40),
        st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 10.0, 100.0]),
    )
    def test_matcher_equals_greedy_walk(self, a, b, half_width):
        # Dense small-integer stamps give ties, chains and flanking tags.
        a, b = sorted(a), sorted(b)
        want = _greedy_walk(a, b, half_width)
        assert _match_sorted(np.array(a, np.int64), np.array(b, np.int64), half_width) == want

    def test_matcher_equals_greedy_walk_on_noisy_streams(self):
        cfg = config(
            pair_rate_hz=2e5, pattern_probs=(0.3, 0.4, 0.3), duration_s=0.05,
            dark_rate_hz=2e5, jitter_sigma_ps=300.0,
        )
        stream = generate_tags(cfg)
        for window in (10.0, 1000.0, 1e5):
            for c1, c2 in STANDARD_PAIRS + ((1, 1),):
                a, b = stream.channel_timestamps(c1), stream.channel_timestamps(c2)
                want = _greedy_walk(a.tolist(), b.tolist(), window / 2)
                assert _match_sorted(a, b, window / 2) == want

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

    def test_window_must_be_positive(self):
        stream = generate_tags(config())
        with pytest.raises(ValueError):
            count_coincidences(stream, 0.0, [(0, 1)])


class TestPatternConvergence:
    def test_fractions_match_analytic_model(self):
        state = evolve(noon_pure(0.5, 1.1), mzi_unitary(math.pi / 2))
        probs = pattern_probs(state)
        clicks = splitter_tree_click_probs(probs)
        expected = {
            "2a0b": clicks.same_arm_a,
            "1a1b": clicks.cross_total,
            "0a2b": clicks.same_arm_b,
        }
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


class TestStreamIO:
    def test_binary_round_trip(self, tmp_path):
        stream = generate_tags(config(jitter_sigma_ps=30.0, seed=17))
        path = tmp_path / "run.tags"
        write_tags(stream, path, fmt="binary")
        back = read_tags(path)
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.timestamps_ps, stream.timestamps_ps)
        assert back.duration_s == stream.duration_s
        assert back.channel_ids == stream.channel_ids

    def test_csv_round_trip(self, tmp_path):
        stream = generate_tags(config(seed=23))
        path = tmp_path / "run.csv"
        write_tags(stream, path, fmt="csv")
        back = read_tags(path, fmt="csv", duration_s=1.0)
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.timestamps_ps, stream.timestamps_ps)

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
            channel_ids=(0, 1, 3),
        )
        want = b"NOONTAG1" + struct.pack("<d", 2.5) + struct.pack("<B", 3) + bytes([0, 1, 3])
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
        st.lists(st.tuples(st.integers(0, 254), st.integers(0, 2**62)), max_size=20),
        st.floats(1e-12, 1e6),
    )
    def test_binary_round_trips_any_stream(self, records, duration_s):
        records.sort(key=lambda r: r[1])
        channels = np.array([c for c, _ in records], dtype=np.int64)
        timestamps = np.array([t for _, t in records], dtype=np.int64)
        stream = TagStream(channels, timestamps, duration_s, tuple(range(255)))
        back = tags_from_bytes(tags_to_bytes(stream, fmt="binary"), fmt="binary")
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.timestamps_ps, stream.timestamps_ps)
        assert (back.duration_s, back.channel_ids) == (stream.duration_s, stream.channel_ids)

    def test_more_channel_ids_than_the_header_holds(self):
        stream = TagStream(np.array([0]), np.array([0]), 1.0, channel_ids=tuple(range(256)))
        with pytest.raises(ValueError):
            tags_to_bytes(stream, fmt="binary")

    def test_csv_channel_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tags_from_bytes(b"channel,timestamp_ps\n300,5\n", fmt="csv")

    def test_format_autodetect(self, tmp_path):
        stream = generate_tags(config(seed=37))
        p1 = tmp_path / "a.tags"
        p2 = tmp_path / "a.csv"
        write_tags(stream, p1, "binary")
        write_tags(stream, p2, "csv")
        assert np.array_equal(read_tags(p1).channels, read_tags(p2, duration_s=1.0).channels)


class TestStreamValidation:
    def test_timestamps_must_be_sorted(self):
        with pytest.raises(ValueError):
            TagStream(
                np.array([0, 1], dtype=np.uint8),
                np.array([100, 50], dtype=np.int64),
                duration_s=1.0,
            )

    def test_channel_beyond_uint8_rejected(self):
        # 300 would wrap to the registered 44 in a uint8 cast.
        with pytest.raises(ValueError):
            TagStream(np.array([300]), np.array([0]), 1.0, channel_ids=(44,))
        with pytest.raises(ValueError):
            TagStream(np.array([-1]), np.array([0]), 1.0, channel_ids=(255,))

    @pytest.mark.parametrize("bad_id", [300, -1, 1.5, math.nan])
    def test_channel_id_not_a_uint8_integer_rejected(self, bad_id):
        with pytest.raises(ValueError):
            TagStream(np.array([0]), np.array([0]), 1.0, channel_ids=(0, bad_id))

    @pytest.mark.parametrize("channel", [0.5, math.nan, -1.0, 300.0])
    def test_non_integer_channel_rejected(self, channel):
        # Float channels outside 0..255 must be caught before the cast, which would warn.
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
