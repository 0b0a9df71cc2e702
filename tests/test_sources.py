import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.optimize import brentq

from noonchip.sources import (
    QPM_FWHM_DKL,
    NoonSpec,
    SourceRateSpec,
    SpectrumSpec,
    noon_mixed,
    noon_pure,
    pair_rate,
    qpm_bandwidth_nm,
    qpm_response,
    spectral_overlap,
)


def simpson_overlap_oracle(s1, s2):
    # spectral_overlap's own 5-FWHM grid, integrated by Simpson's rule.
    w1, w2 = s1.center_angular_freq, s2.center_angular_freq
    span = 5.0 * max(s1.fwhm_angular_freq, s2.fwhm_angular_freq)
    grid = np.linspace(min(w1, w2) - span, max(w1, w2) + span, 20001)
    i1, i2 = s1.intensity(grid - w1), s2.intensity(grid - w2)
    return simpson(np.sqrt(i1 * i2), x=grid) ** 2 / (simpson(i1, x=grid) * simpson(i2, x=grid))


class TestNoonPure:
    def test_balanced_zero_phase(self):
        state = noon_pure(0.5, 0.0)
        expected = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
        assert np.allclose(state.amplitudes, expected, atol=1e-15)

    def test_single_source_limit(self):
        state = noon_pure(0.0, 1.3)
        assert abs(state.amplitudes[2]) == pytest.approx(1.0)
        assert np.allclose(state.probabilities(), [0.0, 0.0, 1.0], atol=1e-15)

    def test_phase_enters_doubled(self):
        state = noon_pure(0.5, math.pi / 4)
        rel = state.amplitudes[2] / state.amplitudes[0]
        assert rel == pytest.approx(np.exp(1j * math.pi / 2), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            noon_pure(1.5, 0.0)
        with pytest.raises(ValueError):
            NoonSpec(balance=0.5, purity=-0.1)


class TestNoonMixed:
    def test_full_purity_is_projector(self):
        rho = noon_mixed(0.5, 0.0, 1.0)
        psi = noon_pure(0.5, 0.0)
        assert np.allclose(rho.matrix, psi.to_density().matrix, atol=1e-12)

    def test_projector_at_general_parameters(self):
        rho = noon_mixed(0.3, 0.8, 1.0)
        psi = noon_pure(0.3, 0.8)
        assert np.allclose(rho.matrix, psi.to_density().matrix, atol=1e-12)

    def test_zero_purity_is_dephased(self):
        rho = noon_mixed(0.5, 0.7, 0.0)
        assert np.allclose(rho.matrix, np.diag([0.5, 0.0, 0.5]), atol=1e-15)

    def test_always_physical(self):
        for b in np.linspace(0, 1, 11):
            for p in np.linspace(0, 1, 11):
                rho = noon_mixed(b, 0.4, p)
                assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12


class TestSpectralOverlap:
    def test_identical_spectra(self):
        for shape in ("gaussian", "sinc2"):
            s = SpectrumSpec(1562.0, 50.0, shape)
            assert spectral_overlap(s, s) == pytest.approx(1.0, abs=1e-9)

    def test_far_separated(self):
        s1 = SpectrumSpec(1400.0, 10.0)
        s2 = SpectrumSpec(1700.0, 10.0)
        assert spectral_overlap(s1, s2) < 1e-12

    def test_offset_by_one_fwhm(self):
        # Equal-width Gaussians offset by their FWHM: amplitude overlap
        # exp(-ln 2) so the probability-level overlap is exactly 1/4;
        # cross-checked by an independent trapezoid quadrature.
        two_pi_c = 2 * math.pi * 299.792458
        s1 = SpectrumSpec(1562.0, 50.0)
        w = s1.fwhm_angular_freq
        center2 = two_pi_c / (s1.center_angular_freq - w)
        fwhm2 = w * center2**2 / two_pi_c
        s2 = SpectrumSpec(center2, fwhm2)
        assert s2.fwhm_angular_freq == pytest.approx(w, rel=1e-12)
        grid = np.linspace(-8 * w, 9 * w, 200001)
        i1 = np.exp(-4 * math.log(2) * (grid / w) ** 2)
        i2 = np.exp(-4 * math.log(2) * ((grid - w) / w) ** 2)
        oracle = np.trapezoid(np.sqrt(i1 * i2), grid) ** 2 / (
            np.trapezoid(i1, grid) * np.trapezoid(i2, grid)
        )
        assert oracle == pytest.approx(0.25, abs=1e-9)
        assert spectral_overlap(s1, s2) == pytest.approx(0.25, abs=1e-6)

    def test_symmetry(self):
        s1 = SpectrumSpec(1550.0, 40.0)
        s2 = SpectrumSpec(1570.0, 60.0, "sinc2")
        assert spectral_overlap(s1, s2) == pytest.approx(spectral_overlap(s2, s1), abs=1e-12)
        assert spectral_overlap(s1, s2) == pytest.approx(simpson_overlap_oracle(s1, s2), abs=1e-8)

    def test_invalid_spectrum(self):
        with pytest.raises(ValueError):
            SpectrumSpec(1562.0, -1.0)
        with pytest.raises(ValueError):
            SpectrumSpec(1562.0, 50.0, "lorentzian")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["center_nm", "fwhm_nm"])
    def test_non_finite_spectrum_rejected(self, name, value):
        with pytest.raises(ValueError):
            SpectrumSpec(**{name: value})


class TestPairRate:
    def test_reference_values(self):
        assert pair_rate(SourceRateSpec(2.3e8, 0.01)) == pytest.approx(2.3e6)

    def test_zero_pump(self):
        assert pair_rate(SourceRateSpec(1e8, 0.0)) == 0.0

    def test_linearity(self):
        r1 = pair_rate(SourceRateSpec(5e7, 0.02))
        r2 = pair_rate(SourceRateSpec(5e7, 0.04))
        assert r2 == pytest.approx(2 * r1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SourceRateSpec(-1.0, 0.01)


class TestQpmResponse:
    def test_phase_matched_peak(self):
        assert qpm_response(0.0) == pytest.approx(1.0)

    def test_first_null(self):
        assert qpm_response(2 * math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_fwhm_constant(self):
        # Independent root find of sinc^2(x/2) = 1/2.
        half = brentq(lambda x: (math.sin(x / 2) / (x / 2)) ** 2 - 0.5, 1.0, 4.0, xtol=1e-14)
        assert QPM_FWHM_DKL == pytest.approx(2 * half, abs=1e-9)
        assert QPM_FWHM_DKL == pytest.approx(5.566, abs=1e-3)
        assert qpm_response(half) == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(-50.0, 50.0))
    def test_even_and_bounded(self, x):
        r = qpm_response(x)
        assert r == pytest.approx(qpm_response(-x), abs=1e-12)
        assert 0.0 <= r <= 1.0 + 1e-12

    def test_bandwidth_scales_inversely_with_length(self):
        bw1 = qpm_bandwidth_nm(0.5)
        bw2 = qpm_bandwidth_nm(1.0)  # doubled slope = doubled length
        assert bw1 == pytest.approx(2 * bw2)
