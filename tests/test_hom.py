import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad, simpson
from scipy.optimize import brentq

from noonchip.circuit import CircuitSpec, Coupler, compose
from noonchip.detection import pattern_probs
from noonchip.fock import evolve
from noonchip.hom import HomScanSpec, bandwidth_from_dip, dip_fwhm, hom_coincidence
from noonchip.sources import SpectrumSpec, noon_mixed, spectral_overlap

GAUSS_50NM = SpectrumSpec(center_nm=1562.0, fwhm_nm=50.0, shape="gaussian")
SINC2_50NM = SpectrumSpec(center_nm=1562.0, fwhm_nm=50.0, shape="sinc2")
NON_FINITE = [math.nan, math.inf, -math.inf]


def gaussian_dip_fwhm_oracle(spectrum):
    # Closed form for a Gaussian intensity spectrum with the doubled
    # anti-correlation kernel: envelope exp(-w^2 tau^2 / (4 ln 2)) has its
    # half point at tau = 2 ln 2 / w.
    return 4.0 * math.log(2.0) / spectrum.fwhm_angular_freq


def quadrature_envelope_oracle(tau_fs, spectrum, n=200001, span_fwhm=8.0):
    w = spectrum.fwhm_angular_freq
    grid = np.linspace(-span_fwhm * w, span_fwhm * w, n)
    intensity = spectrum.intensity(grid)
    return simpson(intensity * np.cos(2 * grid * tau_fs), x=grid) / simpson(intensity, x=grid)


def untruncated_envelope_oracle(tau_fs, spectrum):
    # QUADPACK over [0, inf): QAWF for the cosine transform, so the slowly
    # decaying sinc^2 tails are integrated rather than cut off.
    def intensity(w):
        return float(spectrum.intensity(np.array(w)))

    norm = quad(intensity, 0.0, math.inf, limit=1000)[0]
    return quad(intensity, 0.0, math.inf, weight="cos", wvar=2.0 * tau_fs)[0] / norm


class TestHomCoincidence:
    def test_floor_at_partial_visibility(self):
        spec = HomScanSpec(spectrum=GAUSS_50NM, baseline_visibility=0.832)
        assert hom_coincidence(0.0, spec) == pytest.approx(0.084, abs=1e-6)

    def test_distinguishable_limit(self):
        spec = HomScanSpec(spectrum=GAUSS_50NM, baseline_visibility=1.0)
        assert hom_coincidence(5000.0, spec) == pytest.approx(0.5, abs=1e-6)

    def test_perfect_dip(self):
        spec = HomScanSpec(spectrum=GAUSS_50NM, baseline_visibility=1.0)
        assert hom_coincidence(0.0, spec) == pytest.approx(0.0, abs=1e-9)

    def test_even_in_delay(self):
        spec = HomScanSpec(spectrum=GAUSS_50NM)
        taus = np.array([3.0, 17.0, 55.0, 120.0])
        assert np.allclose(hom_coincidence(taus, spec), hom_coincidence(-taus, spec), atol=1e-8)

    def test_gaussian_never_overshoots(self):
        spec = HomScanSpec(spectrum=GAUSS_50NM, baseline_visibility=0.9)
        taus = np.linspace(-400, 400, 401)
        p = hom_coincidence(taus, spec)
        assert p.max() <= 0.5 + 1e-9
        assert p.min() >= (1 - 0.9) / 2 - 1e-9

    def test_sinc2_bounded_with_small_overshoot_allowance(self):
        spec = HomScanSpec(spectrum=SpectrumSpec(1562.0, 50.0, "sinc2"), baseline_visibility=1.0)
        taus = np.linspace(-400, 400, 401)
        p = hom_coincidence(taus, spec)
        assert p.max() <= 0.5 + 0.05
        assert p.min() >= -1e-9

    def test_matches_independent_quadrature(self):
        spec = HomScanSpec(spectrum=GAUSS_50NM, baseline_visibility=0.7)
        for tau in (0.0, 25.0, 60.0, 110.0):
            oracle = 0.5 * (1 - 0.7 * quadrature_envelope_oracle(tau, GAUSS_50NM))
            assert hom_coincidence(tau, spec) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("tau", [math.nan, np.array([0.0, math.nan])])
    def test_nan_delay_rejected(self, tau):
        with pytest.raises(ValueError):
            hom_coincidence(tau, HomScanSpec(spectrum=GAUSS_50NM))

    @pytest.mark.parametrize("tau", [np.array([0.0, 1.0]) > 0.5, np.array([1.0], dtype=object)])
    def test_bool_or_object_delay_array_rejected(self, tau):
        # A float cast reads each of these as 0 fs and 1 fs delays.
        with pytest.raises(ValueError):
            hom_coincidence(tau, HomScanSpec(spectrum=GAUSS_50NM))

    def test_integer_delays_equal_float_delays(self):
        spec = HomScanSpec(spectrum=GAUSS_50NM)
        assert hom_coincidence(3, spec) == hom_coincidence(3.0, spec)
        ints = np.arange(-4, 5, dtype=np.int32)
        assert np.array_equal(hom_coincidence(ints, spec), hom_coincidence(ints.astype(float), spec))

    @pytest.mark.parametrize(
        "tau", [np.array(3.0), np.array(3, dtype=np.int32), np.float64(3.0), 3], ids=repr
    )
    def test_zero_d_delay_gives_a_float(self, tau):
        # np.isscalar is False for a 0-d array, which gave a shape-(1,) array.
        spec = HomScanSpec(spectrum=GAUSS_50NM)
        p = hom_coincidence(tau, spec)
        assert type(p) is float and p == hom_coincidence(3.0, spec)
        assert hom_coincidence([3.0], spec).shape == (1,)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_sinc2_matches_untruncated_quadrature(self):
        # Delays either side of the triangle's half point (36 fs) and its
        # edge (72 fs); QAWF converges slowly right at the edge's kink.
        spec = HomScanSpec(spectrum=SINC2_50NM, baseline_visibility=1.0)
        for tau in (0.5, 5.0, 20.0, 36.0, 50.0, 65.0, 90.0, 200.0):
            g = 1.0 - 2.0 * hom_coincidence(tau, spec)
            assert g == pytest.approx(untruncated_envelope_oracle(tau, SINC2_50NM), abs=1e-4)


class TestDipWidth:
    def test_gaussian_width_matches_closed_form(self):
        spec = HomScanSpec(spectrum=GAUSS_50NM)
        assert dip_fwhm(spec) == pytest.approx(gaussian_dip_fwhm_oracle(GAUSS_50NM), rel=1e-7)

    def test_reference_bandwidth_gives_reference_width(self):
        width = dip_fwhm(HomScanSpec(spectrum=GAUSS_50NM))
        assert abs(width - 71.9) / 71.9 < 0.2

    def test_doubling_bandwidth_halves_width(self):
        w1 = dip_fwhm(HomScanSpec(spectrum=SpectrumSpec(1562.0, 25.0)))
        w2 = dip_fwhm(HomScanSpec(spectrum=SpectrumSpec(1562.0, 50.0)))
        assert w1 == pytest.approx(2 * w2, rel=1e-6)

    def test_width_independent_of_baseline_visibility(self):
        w1 = dip_fwhm(HomScanSpec(spectrum=GAUSS_50NM, baseline_visibility=1.0))
        w2 = dip_fwhm(HomScanSpec(spectrum=GAUSS_50NM, baseline_visibility=0.4))
        assert w1 == pytest.approx(w2, rel=1e-12)

    def test_no_dip_signaled(self):
        with pytest.raises(ValueError):
            dip_fwhm(HomScanSpec(spectrum=GAUSS_50NM, baseline_visibility=0.0))

    def test_sinc2_width_positive(self):
        w = dip_fwhm(HomScanSpec(spectrum=SpectrumSpec(1562.0, 50.0, "sinc2")))
        assert w > 0

    def test_sinc2_width_matches_half_point(self):
        # The triangle envelope 1 - |tau|/a halves at a/2, and a = 2 x_half / W
        # with x_half the root of (sin x / x)^2 = 1/2.
        x_half = brentq(lambda x: (math.sin(x) / x) ** 2 - 0.5, 1.0, 2.0, xtol=1e-15)
        expected = 2.0 * x_half / SINC2_50NM.fwhm_angular_freq
        assert dip_fwhm(HomScanSpec(spectrum=SINC2_50NM)) == pytest.approx(expected, rel=1e-12)


class TestBandwidthInversion:
    @pytest.mark.parametrize("shape", ["gaussian", "sinc2"])
    def test_round_trip(self, shape):
        s = SpectrumSpec(1562.0, 50.0, shape)
        width = dip_fwhm(HomScanSpec(spectrum=s))
        recovered = bandwidth_from_dip(width, shape=shape, center_nm=1562.0)
        assert recovered == pytest.approx(50.0, rel=1e-3)

    def test_reference_width_gives_reference_bandwidth(self):
        bw = bandwidth_from_dip(71.9, shape="gaussian", center_nm=1562.0)
        assert abs(bw - 50.0) / 50.0 < 0.2

    def test_monotone(self):
        widths = [50.0, 80.0, 120.0, 200.0]
        bands = [bandwidth_from_dip(w) for w in widths]
        assert all(b2 < b1 for b1, b2 in zip(bands, bands[1:]))

    @given(
        shape=st.sampled_from(["gaussian", "sinc2"]),
        center_nm=st.floats(400.0, 5000.0),
        fwhm_nm=st.floats(0.01, 300.0),
    )
    def test_exact_inverse_of_dip_fwhm(self, shape, center_nm, fwhm_nm):
        width = dip_fwhm(HomScanSpec(spectrum=SpectrumSpec(center_nm, fwhm_nm, shape)))
        assert bandwidth_from_dip(width, shape, center_nm) == pytest.approx(fwhm_nm, rel=1e-12)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            bandwidth_from_dip(0.0)

    @pytest.mark.parametrize("width", NON_FINITE)
    def test_non_finite_width(self, width):
        with pytest.raises(ValueError):
            bandwidth_from_dip(width)


class TestScanSpec:
    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["delay_min_fs", "delay_max_fs", "delay_step_fs"])
    def test_non_finite_delay_rejected(self, name, value):
        with pytest.raises(ValueError):
            HomScanSpec(**{name: value})


class TestFockConsistency:
    def test_zero_delay_matches_two_photon_model(self):
        # Zero-delay coincidence with V0 from the spectral overlap equals
        # the cross-port probability of the partially coherent two-photon
        # state through a single 50:50 coupler.
        s1 = SpectrumSpec(1562.0, 50.0)
        s2 = SpectrumSpec(1570.0, 50.0)
        p = spectral_overlap(s1, s2)
        spec = HomScanSpec(spectrum=s1, baseline_visibility=p)
        rho = noon_mixed(0.5, math.pi / 2, p)
        coupler, _ = compose(CircuitSpec(2, (Coupler(0, 1),)))
        fock_side = pattern_probs(evolve(rho, coupler))[1]
        assert hom_coincidence(0.0, spec) == pytest.approx(fock_side, abs=1e-9)
