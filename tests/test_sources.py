import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from test_fock import pure

from noonchip.sources import (
    SourceRateSpec,
    SpectrumSpec,
    noon_mixed,
    pair_rate,
    spectral_overlap,
)


def simpson_overlap_oracle(s1, s2):
    # spectral_overlap's own 5-FWHM grid, integrated by Simpson's rule.
    w1, w2 = s1.center_angular_freq, s2.center_angular_freq
    span = 5.0 * max(s1.fwhm_angular_freq, s2.fwhm_angular_freq)
    grid = np.linspace(min(w1, w2) - span, max(w1, w2) + span, 20001)
    i1, i2 = s1.intensity(grid - w1), s2.intensity(grid - w2)
    return simpson(np.sqrt(i1 * i2), x=grid) ** 2 / (simpson(i1, x=grid) * simpson(i2, x=grid))


def quad_overlap_oracle(s1, s2):
    # Adaptive quadrature over the whole line, with no grid: numerator and both norms.
    mid = (s1.center_angular_freq + s2.center_angular_freq) / 2

    def intensity(spec):
        return lambda x: float(spec.intensity(x + mid - spec.center_angular_freq))

    def integral(f):
        return quad(f, -math.inf, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    i1, i2 = intensity(s1), intensity(s2)
    return integral(lambda x: math.sqrt(i1(x) * i2(x))) ** 2 / (integral(i1) * integral(i2))


class TestNoonPure:
    """The pure two-photon path state is noon_mixed at purity 1."""

    def test_balanced_zero_phase(self):
        rho = noon_mixed(0.5, 0.0, 1.0)
        expected = pure(np.array([1.0, 0.0, 1.0]) / math.sqrt(2))
        assert np.allclose(rho.matrix, expected, atol=1e-15)

    def test_single_source_limit(self):
        rho = noon_mixed(0.0, 1.3, 1.0)
        assert np.allclose(rho.matrix, np.diag([0.0, 0.0, 1.0]), atol=1e-15)

    def test_phase_enters_doubled(self):
        # rho[0, 2] = sqrt(b(1-b)) e^{-2i*phi}: the |0,2> amplitude carries e^{2i*phi}.
        for b in (0.5, 0.2):
            rho = noon_mixed(b, math.pi / 4, 1.0)
            want = math.sqrt(b * (1 - b)) * np.exp(-1j * math.pi / 2)
            assert rho.matrix[0, 2] == pytest.approx(want, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            noon_mixed(1.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            noon_mixed(0.5, 0.0, -0.1)


class TestNoonMixed:
    HALF_MAX = sys.float_info.max / 2

    def test_full_purity_is_projector(self):
        rho = noon_mixed(0.5, 0.0, 1.0)
        assert np.allclose(rho.matrix, pure([1.0, 0.0, 1.0]) / 2, atol=1e-12)
        assert np.linalg.matrix_rank(rho.matrix, tol=1e-12) == 1

    def test_projector_at_general_parameters(self):
        for b in np.linspace(0.0, 1.0, 21):
            for phi in np.linspace(-math.pi, math.pi, 25):
                rho = noon_mixed(b, phi, 1.0)
                psi = [math.sqrt(b), 0.0, np.exp(2j * phi) * math.sqrt(1 - b)]
                assert np.allclose(rho.matrix, pure(psi), rtol=0, atol=1e-15)

    def test_zero_purity_is_dephased(self):
        rho = noon_mixed(0.5, 0.7, 0.0)
        assert np.allclose(rho.matrix, np.diag([0.5, 0.0, 0.5]), atol=1e-15)

    @pytest.mark.parametrize("phase", [1e308, -1e308, math.nextafter(HALF_MAX, math.inf)])
    def test_phase_whose_double_overflows_rejected(self, phase):
        # -2i * phase overflows and exp() of it is NaN, which the unchecked
        # build would keep; the largest phase whose double is finite is kept.
        with pytest.raises(ValueError, match="phase"):
            noon_mixed(0.5, phase, 0.9)
        assert np.isfinite(noon_mixed(0.5, self.HALF_MAX, 0.9).matrix).all()

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

    @pytest.mark.parametrize(
        "spec1, spec2",
        [
            ((1562.0, 50.0), (1563.0, 50.0)),
            ((1550.0, 40.0), (1570.0, 60.0)),
            ((1540.0, 50.0), (1650.0, 50.0)),
        ],
        ids=["equal-widths", "unequal-widths", "large-detuning"],
    )
    def test_gaussian_closed_form_matches_quadrature(self, spec1, spec2):
        s1, s2 = SpectrumSpec(*spec1), SpectrumSpec(*spec2)
        assert spectral_overlap(s1, s2) == pytest.approx(quad_overlap_oracle(s1, s2), abs=1e-12)
        assert spectral_overlap(s1, s2) == spectral_overlap(s2, s1)

    def test_narrow_gaussian_against_a_wide_one(self):
        # Same center, so the overlap is 2 W1 W2 / (W1^2 + W2^2) with the widths in nm.  A
        # grid sized by the wider spectrum undersamples the narrow one and gave 4.70e-4.
        got = spectral_overlap(SpectrumSpec(1562.0, 50.0), SpectrumSpec(1562.0, 0.01))
        assert got == pytest.approx(2 * 50.0 * 0.01 / (50.0**2 + 0.01**2), rel=1e-12)
        assert round(got, 6) == 4.00e-4

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

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValueError):
            SourceRateSpec(*args)
