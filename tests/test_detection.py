import math
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag
from test_fock import haar_unitary

from noonchip import detection, fock
from noonchip.circuit import mzi_unitary
from noonchip.detection import (
    DETECTION_PATTERNS,
    SPLITTER_TREE_DETECTION,
    LossSpec,
    apply_loss,
    fit_fringe,
    invert_splitter_tree,
    loss_budget,
    pattern_probs,
)
from noonchip.fock import (
    DensityMatrix,
    enumerate_basis,
    enumerate_sectors,
    evolve,
    lift_unitary,
)
from noonchip.sources import noon_mixed

# Two modes, two photons: ((2, 0), (1, 1), (0, 2)).
TWO_PHOTON_BASIS = tuple(enumerate_basis(2, 2))

PHI = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)


def fringe_p11(balance=0.5, purity=1.0, theta=math.pi / 2):
    u = mzi_unitary(theta)
    out = []
    for phi in PHI:
        rho = noon_mixed(balance, phi, purity)
        out.append(pattern_probs(evolve(rho, u))[1])
    return np.array(out)


def loss_enumeration_oracle(occ, eta_a, eta_b):
    """Distribution over surviving occupations by enumerating each photon's fate."""
    na, nb = occ
    dist = {}
    for fates_a in product([0, 1], repeat=na):
        for fates_b in product([0, 1], repeat=nb):
            p = 1.0
            for f in fates_a:
                p *= eta_a if f else (1 - eta_a)
            for f in fates_b:
                p *= eta_b if f else (1 - eta_b)
            key = (sum(fates_a), sum(fates_b))
            dist[key] = dist.get(key, 0.0) + p
    return dist


def kraus_loss_oracle(rho, eta_a, eta_b):
    """Two-mode loss as a Kraus sum: one dense operator per (photons lost in a, in b),
    built entry by entry from binomial amplitudes."""

    def amplitude(n, lost, eta):
        return math.sqrt(math.comb(n, lost) * eta ** (n - lost) * (1.0 - eta) ** lost)

    n_max = sum(rho.basis[0])
    out_basis = enumerate_sectors(2, n_max)
    out_index = {occ: i for i, occ in enumerate(out_basis)}
    out = np.zeros((len(out_basis), len(out_basis)), dtype=complex)
    for la in range(n_max + 1):
        for lb in range(n_max + 1):
            k = np.zeros((len(out_basis), len(rho.basis)))
            for j, (na, nb) in enumerate(rho.basis):
                if la <= na and lb <= nb:
                    coeff = amplitude(na, la, eta_a) * amplitude(nb, lb, eta_b)
                    k[out_index[(na - la, nb - lb)], j] = coeff
            out += k @ rho.matrix @ k.T
    return out


def dilation_loss_oracle(rho, etas):
    """Loss as a unitary dilation: mode k meets a vacuum environment mode m + k on a beam
    splitter of transmission eta_k, then the environment is traced out."""
    m = rho.mode_count
    u = np.eye(2 * m)
    for k, eta in enumerate(etas):
        t, r = math.sqrt(eta), math.sqrt(1.0 - eta)
        u[np.ix_([k, m + k], [k, m + k])] = [[t, -r], [r, t]]
    high, low = sum(rho.basis[0]), sum(rho.basis[-1])
    big_basis = [occ for n in range(high, low - 1, -1) for occ in enumerate_basis(2 * m, n)]
    embed = np.zeros((len(big_basis), len(rho.basis)))
    embed[[big_basis.index(occ + (0,) * m) for occ in rho.basis], range(len(rho.basis))] = 1.0
    lifted = block_diag(*[lift_unitary(u, n) for n in range(high, low - 1, -1)]) @ embed
    big = lifted @ rho.matrix @ lifted.conj().T
    out_basis = enumerate_sectors(m, high)
    out = np.zeros((len(out_basis), len(out_basis)), dtype=complex)
    for i, a in enumerate(big_basis):
        for j, b in enumerate(big_basis):
            if a[m:] == b[m:]:
                out[out_basis.index(a[:m]), out_basis.index(b[:m])] += big[i, j]
    return out


@st.composite
def sector_states(draw, modes, max_photons=3):
    """A random trace-one PSD state of rank 1 to 3 over whole sectors high..low (high <=
    max_photons), over a mode count drawn from `modes`."""
    m = draw(st.sampled_from(modes))
    high = draw(st.integers(0, max_photons))
    low = draw(st.integers(0, high))
    basis = tuple(occ for n in range(high, low - 1, -1) for occ in enumerate_basis(m, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(len(basis), 3)) + 1j * rng.normal(size=(len(basis), 3))
    a[:, 1:] *= rng.random(2) < 0.5
    rho = a @ a.conj().T
    return DensityMatrix(basis, rho / np.trace(rho).real)


# Transmissions in [0, 1], with both edges drawn often.
ETAS = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


class TestLossOracles:
    @settings(max_examples=200, deadline=None)
    @given(sector_states([2]), ETAS, ETAS)
    def test_two_modes_match_the_kraus_sum(self, rho, eta_a, eta_b):
        got = apply_loss(rho, eta_a, eta_b).matrix
        assert np.max(np.abs(got - kraus_loss_oracle(rho, eta_a, eta_b))) < 1e-14

    @settings(max_examples=100, deadline=None)
    @given(sector_states([1, 2, 3]), st.lists(ETAS, min_size=3, max_size=3))
    def test_match_the_unitary_dilation(self, rho, etas):
        etas = etas[: rho.mode_count]
        got = apply_loss(rho, *etas)
        assert got.basis == tuple(enumerate_sectors(rho.mode_count, sum(rho.basis[0])))
        assert np.max(np.abs(got.matrix - dilation_loss_oracle(rho, etas))) < 1e-12

    def test_dilation_oracle_on_a_known_case(self):
        # |2, 0, 1> at (0.5, 1, 0.25): each photon of mode 0 survives with 1/2, mode 2's with 1/4.
        basis = tuple(enumerate_basis(3, 3))
        rho = DensityMatrix(basis, np.diag([float(occ == (2, 0, 1)) for occ in basis]))
        out_basis = enumerate_sectors(3, 3)
        want = np.zeros(len(out_basis))
        mode0, mode2 = [(2, 0.25), (1, 0.5), (0, 0.25)], [(1, 0.25), (0, 0.75)]
        for (k0, p0), (k2, p2) in product(mode0, mode2):
            want[out_basis.index((k0, 0, k2))] = p0 * p2
        oracle = dilation_loss_oracle(rho, (0.5, 1.0, 0.25))
        assert np.allclose(np.real(np.diag(oracle)), want, rtol=0, atol=1e-15)
        assert np.allclose(apply_loss(rho, 0.5, 1.0, 0.25).probabilities(), want, rtol=0, atol=1e-15)


class TestApplyLoss:
    def test_unit_transmission_preserves_state(self):
        rho = noon_mixed(0.5, 0.3, 1.0)
        out = apply_loss(rho, 1.0, 1.0)
        idx = [out.basis.index(occ) for occ in TWO_PHOTON_BASIS]
        assert np.allclose(out.matrix[np.ix_(idx, idx)], rho.matrix, atol=1e-14)
        assert out.sector_weight(2) == pytest.approx(1.0, abs=1e-12)

    def test_split_pair_survival(self):
        eta = 0.3
        basis = tuple(enumerate_basis(2, 2))
        rho = DensityMatrix(basis, np.diag([0.0, 1.0, 0.0]))
        out = apply_loss(rho, eta, eta)
        assert out.probabilities()[out.basis.index((1, 1))] == pytest.approx(eta**2)

    def test_bunched_pair_binomial(self):
        eta = 0.4
        basis = tuple(enumerate_basis(2, 2))
        rho = DensityMatrix(basis, np.diag([1.0, 0.0, 0.0]))
        out = apply_loss(rho, eta, 0.9)
        oracle = loss_enumeration_oracle((2, 0), eta, 0.9)
        for occ, expected in oracle.items():
            assert out.probabilities()[out.basis.index(occ)] == pytest.approx(expected)
        assert oracle[(2, 0)] == pytest.approx(eta**2)
        assert oracle[(1, 0)] == pytest.approx(2 * eta * (1 - eta))

    def test_trace_preserved(self):
        rho = noon_mixed(0.3, 1.1, 0.7)
        out = apply_loss(rho, 0.2, 0.8)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_commutes_with_mode_swap_when_symmetric(self):
        def swap(rho):
            perm = [rho.basis.index(occ[::-1]) for occ in rho.basis]
            return DensityMatrix(rho.basis, rho.matrix[np.ix_(perm, perm)])

        rho = noon_mixed(0.3, 0.5, 0.9)
        a = apply_loss(swap(rho), 0.6, 0.6)
        b = swap(apply_loss(rho, 0.6, 0.6))
        assert np.allclose(a.matrix, b.matrix, atol=1e-12)

    def test_invalid_transmission(self):
        with pytest.raises(ValueError):
            apply_loss(noon_mixed(0.5, 0, 1), 1.2, 0.5)

    def test_tables_are_read_only(self):
        apply_loss(noon_mixed(0.5, 0.3, 0.9), 0.5, 0.5)
        tables = fock._lowering(2, 2)  # source, weight and the exponents l / 2 and n_k / 2
        assert len(tables) == 4 and not any(table.flags.writeable for table in tables)

    def test_loss_above_the_memory_bound_refused(self, monkeypatch):
        # Each mode's gather of the (2, 2) channel holds 3 x 6 x 6 complex entries: l = 0, 1,
        # 2 over the six states of sectors 2, 1 and 0.  The (4, 20) gather, 21 x 10,626^2
        # entries, would be 38 GB.
        rho = noon_mixed(0.5, 0.3, 0.9)
        gather_bytes = 3 * 6 * 6 * 16
        want = apply_loss(rho, 0.5, 0.7)

        def unbuilt(*args):
            raise AssertionError(f"loss tables built for {args}")

        monkeypatch.setattr(fock, "_MAX_LIFT_BYTES", gather_bytes - 1)
        with monkeypatch.context() as patch:
            patch.setattr(detection, "_lowering", unbuilt)
            with pytest.raises(ValueError, match=f"{gather_bytes} B"):
                apply_loss(rho, 0.5, 0.7)
        monkeypatch.setattr(fock, "_MAX_LIFT_BYTES", gather_bytes)
        assert np.array_equal(apply_loss(rho, 0.5, 0.7).matrix, want.matrix)

    @pytest.mark.parametrize("rho", [np.eye(3) / 3, None], ids=["array", "none"])
    def test_only_density_matrices_lose_photons(self, rho):
        with pytest.raises(TypeError):
            apply_loss(rho, 0.5, 0.5)


@st.composite
def two_photon_states(draw, mode_count=2):
    """A random trace-one PSD density matrix of rank 1 to 3 over the two-photon sector."""
    basis = tuple(enumerate_basis(mode_count, 2))
    d, rank = len(basis), draw(st.integers(1, 3))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d * rank, max_size=2 * d * rank))
    a = np.reshape(parts[::2], (d, rank)) + 1j * np.reshape(parts[1::2], (d, rank))
    rho = a @ a.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-3)
    return DensityMatrix(basis, rho / trace)


def loss_then_unitary(rho, u, *etas):
    """B @ apply_loss(rho) @ B^dag, B the block-diagonal lift of u over sectors 2, 1, 0."""
    b = block_diag(*[lift_unitary(u, n) for n in (2, 1, 0)])
    return b @ apply_loss(rho, *etas).matrix @ b.conj().T


class TestLossCommutesWithUnitary:
    """Uniform loss commutes with any mode unitary; unequal loss does not."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([2, 3]).flatmap(two_photon_states),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
    )
    def test_uniform_loss(self, rho, seed, eta):
        m = rho.mode_count
        u = haar_unitary(m, seed)
        got = apply_loss(evolve(rho, u), *[eta] * m).matrix
        assert np.max(np.abs(got - loss_then_unitary(rho, u, *[eta] * m))) < 1e-12

    def test_unequal_loss_differs(self):
        rho, u = noon_mixed(0.3, 0.4, 0.9), haar_unitary(2, 5)
        got = apply_loss(evolve(rho, u), 0.3, 0.9).matrix
        assert np.max(np.abs(got - loss_then_unitary(rho, u, 0.3, 0.9))) > 1e-2


class TestPatternProbs:
    def test_antibunching_phase(self):
        out = evolve(noon_mixed(0.5, math.pi / 2, 1.0), mzi_unitary(math.pi / 2))
        assert np.allclose(pattern_probs(out), [0.0, 1.0, 0.0], atol=1e-12)

    def test_bunching_phase(self):
        out = evolve(noon_mixed(0.5, 0.0, 1.0), mzi_unitary(math.pi / 2))
        assert np.allclose(pattern_probs(out), [0.5, 0.0, 0.5], atol=1e-12)

    def test_rejects_a_state_that_is_not_two_mode(self):
        # All weight on (2, 0, 0): matching 2-tuples against the basis read [0, 0, 0].
        basis = tuple(enumerate_basis(3, 2))
        rho = DensityMatrix(basis, np.diag([1.0, 0, 0, 0, 0, 0]))
        with pytest.raises(ValueError, match="two modes"):
            pattern_probs(rho)

    @pytest.mark.parametrize("rho", [np.eye(3) / 3, None], ids=["array", "none"])
    def test_only_density_matrices_have_patterns(self, rho):
        with pytest.raises(TypeError):
            pattern_probs(rho)

    def test_maximally_mixed(self):
        rho = DensityMatrix(TWO_PHOTON_BASIS, np.eye(3) / 3.0)
        assert np.allclose(pattern_probs(rho), [1 / 3] * 3)

    def test_multi_sector_input(self):
        rho = apply_loss(noon_mixed(0.5, 0.0, 1.0), 0.5, 0.5)
        probs = pattern_probs(rho)
        assert probs.sum() == pytest.approx(rho.sector_weight(2), abs=1e-12)

    @given(two_photon_states(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_sum_is_the_two_photon_weight_after_loss(self, rho, eta_a, eta_b):
        lossy = apply_loss(rho, eta_a, eta_b)
        probs = pattern_probs(lossy)
        assert probs.sum() == pytest.approx(lossy.sector_weight(2), abs=1e-12)
        # Only the pairs that lose no photon stay in the two-photon sector.
        survive = [eta_a ** p.occupation[0] * eta_b ** p.occupation[1] for p in DETECTION_PATTERNS]
        populations = [rho.probabilities()[rho.basis.index(p.occupation)] for p in DETECTION_PATTERNS]
        assert np.allclose(probs, np.multiply(populations, survive), rtol=0.0, atol=1e-12)


def routed_pairs(occupation):
    """Detector pairs fired by each of the four equally likely splitter routings.

    Each photon takes either output of its arm's 50:50 splitter (channels
    0,1 behind arm a, 2,3 behind arm b); two photons on one detector fire
    no pair.
    """
    modes = [m for m, n in enumerate(occupation) for _ in range(n)]
    fired = []
    for routes in product([0, 1], repeat=2):
        d1, d2 = sorted(2 * m + r for m, r in zip(modes, routes))
        if d1 != d2:
            fired.append((d1, d2))
    return fired


class TestSplitterTree:
    def test_bunched_pattern_routing(self):
        # Both photons of a bunched pair must take different splitter outputs
        # for the same-arm pair to fire, which happens in 2 of 4 routings; a
        # split pair fires some cross pair in every routing.
        fractions = [len(routed_pairs(p.occupation)) / 4 for p in DETECTION_PATTERNS]
        assert fractions == [0.5, 1.0, 0.5]
        assert SPLITTER_TREE_DETECTION == tuple(fractions)

    def test_split_pattern_routing(self):
        # Each pattern fires exactly its own detector pairs, and a split pair
        # fires each of its four cross pairs in one routing of four.
        for p in DETECTION_PATTERNS:
            assert set(routed_pairs(p.occupation)) == set(p.detector_pairs)
        assert sorted(routed_pairs((1, 1))) == sorted(DETECTION_PATTERNS[1].detector_pairs)

    def test_bunched_peak_is_quarter_of_antibunched(self):
        u = mzi_unitary(math.pi / 2)
        same_a, cross = [], []
        for phi in PHI:
            clicks = pattern_probs(evolve(noon_mixed(0.5, phi, 1.0), u)) * SPLITTER_TREE_DETECTION
            same_a.append(clicks[0])
            cross.append(clicks[1])
        assert max(same_a) == pytest.approx(max(cross) / 4.0, abs=1e-12)

    @pytest.mark.parametrize(
        "probs",
        [
            [0.2, 0.5, 0.1],  # generic, with undetected weight
            [0.5, 0.0, 0.5],  # p11 = 0
            [0.0, 1.0, 0.0],  # p11 = 1
            [1.0, 0.0, 0.0],  # one arm only
            [0.0, 0.0, 0.3],
        ],
    )
    def test_inverse_recovers_normalised_pattern_probs(self, probs):
        weights = np.asarray(probs) * SPLITTER_TREE_DETECTION
        expected = np.asarray(probs) / sum(probs)
        assert np.allclose(invert_splitter_tree(weights), expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("weights", [[0.0, 0.0, 0.0], [1.0, -1.0, 1.0], [1.0, math.nan, 0.0]])
    def test_inverse_rejects_empty_or_invalid(self, weights):
        with pytest.raises(ValueError):
            invert_splitter_tree(weights)


class TestVisibilityFit:
    def test_full_contrast(self):
        values = np.sin(PHI) ** 2
        assert fit_fringe(PHI, values, frequency=2.0).visibility == pytest.approx(1.0, abs=1e-12)

    def test_constant_flags_flat(self):
        fit = fit_fringe(PHI, np.full_like(PHI, 0.25), frequency=2.0)
        assert fit.visibility == 0.0
        assert fit.flat

    def test_half_contrast(self):
        values = (1.0 + 0.5 * np.cos(2 * PHI)) / 2.0
        assert fit_fringe(PHI, values, frequency=2.0).visibility == pytest.approx(0.5, abs=1e-12)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            fit_fringe([0, 1, 2], [0, 1, 0], frequency=2.0)

    def test_requires_full_period(self):
        phi = np.linspace(0, 1.0, 20)
        with pytest.raises(ValueError):
            fit_fringe(phi, np.sin(phi) ** 2, frequency=2.0)

    @pytest.mark.parametrize(
        "phase, value, frequency",
        [
            (0.0, math.nan, 2.0),
            (math.nan, 0.5, 2.0),
            (0.0, 0.5, math.nan),
            (0.0, 0.5, math.inf),
            (0.0, 0.5, 0.0),
            (0.0, 0.5, -2.0),
        ],
    )
    def test_non_finite_input_or_frequency_not_positive_rejected(self, phase, value, frequency):
        # Before: an all-NaN fit, LinAlgError (a ValueError, hence the match),
        # ZeroDivisionError, or for -2 a fit that skipped the span check.
        phi, values = PHI.copy(), np.sin(PHI) ** 2
        phi[7], values[11] = phi[7] + phase, values[11] + value
        with pytest.raises(ValueError, match="must be"):
            fit_fringe(phi, values, frequency=frequency)


class TestFringeLaws:
    def test_period_is_half_turn(self):
        p11 = fringe_p11()
        n = len(PHI)
        spectrum = np.abs(np.fft.rfft(p11))
        assert int(np.argmax(spectrum[1:])) + 1 == 2
        assert p11.max() == pytest.approx(1.0, abs=1e-12)
        assert p11.min() == pytest.approx(0.0, abs=1e-12)

    def test_pattern_complement(self):
        u = mzi_unitary(math.pi / 2)
        for phi in PHI[::7]:
            probs = pattern_probs(evolve(noon_mixed(0.5, phi, 1.0), u))
            assert probs[0] + probs[2] == pytest.approx(1.0 - probs[1], abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_bunched_rows(self, theta):
        p11 = fringe_p11(theta=theta)
        assert p11.max() <= 1e-12

    def test_imbalance_law(self):
        for b in np.arange(0.0, 0.51, 0.05):
            p11 = fringe_p11(balance=b)
            fit = fit_fringe(PHI, p11, frequency=2.0)
            assert fit.visibility == pytest.approx(2 * math.sqrt(b * (1 - b)), abs=1e-9)

    def test_imbalance_law_against_tensor_oracle(self):
        # Independent evolution through the explicit two-photon tensor map.
        from test_fock import two_photon_lift_oracle

        u = mzi_unitary(math.pi / 2).matrix
        lifted = two_photon_lift_oracle(u)
        b = 0.2
        amps0 = np.array([math.sqrt(b), 0.0, math.sqrt(1 - b)], dtype=complex)
        p11 = []
        for phi in PHI:
            amps = amps0 * np.array([1.0, 0.0, np.exp(2j * phi)])
            p11.append(abs((lifted @ amps)[1]) ** 2)
        fit = fit_fringe(PHI, np.array(p11), frequency=2.0)
        assert fit.visibility == pytest.approx(2 * math.sqrt(b * (1 - b)), abs=1e-9)

    def test_purity_law(self):
        for p in np.arange(0.0, 1.01, 0.1):
            fit = fit_fringe(PHI, fringe_p11(purity=p), frequency=2.0)
            assert fit.visibility == pytest.approx(p, abs=1e-9)


class TestLossBudget:
    def test_reference_inputs(self):
        brightness = loss_budget(5800.0, 13.0, 0.01)
        assert brightness == pytest.approx(5800.0 * 10.0**2.6 / 0.01)
        assert 2.2e8 <= brightness <= 2.4e8

    def test_no_loss(self):
        assert loss_budget(1234.0, 0.0, 1.0) == pytest.approx(1234.0)

    def test_pump_scaling(self):
        assert loss_budget(100.0, 3.0, 0.005) == pytest.approx(2 * loss_budget(100.0, 3.0, 0.01))

    def test_zero_pump_rejected(self):
        with pytest.raises(ValueError):
            loss_budget(100.0, 3.0, 0.0)

    @pytest.mark.parametrize(
        "args",
        [
            (math.nan, 3.0, 1.0),
            (100.0, math.nan, 1.0),
            (100.0, math.inf, 1.0),
            (100.0, 3.0, math.nan),
        ],
    )
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValueError):
            loss_budget(*args)

    def test_loss_spec_totals(self):
        spec = LossSpec()
        assert spec.total_a_db == pytest.approx(13.0)
        assert spec.eta_a == pytest.approx(10 ** (-1.3))
        with pytest.raises(ValueError):
            LossSpec(breakdown_a_db={"grating_coupler": -1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_loss_spec_non_finite_rejected(self, value):
        with pytest.raises(ValueError):
            LossSpec(breakdown_a_db={"x": value})
