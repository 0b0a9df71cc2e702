import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from noonchip import fock
from noonchip.circuit import mzi_unitary
from noonchip.detection import apply_loss, pattern_probs
from noonchip.fock import (
    DensityMatrix,
    ModeUnitary,
    enumerate_basis,
    enumerate_sectors,
    evolve,
    lift_unitary,
)
from noonchip.sources import noon_mixed


def haar_unitary(dim, seed):
    return unitary_group.rvs(dim, random_state=np.random.default_rng(seed))


def pure(amplitudes):
    """The rank-one density matrix psi psi^dag of an amplitude vector."""
    psi = np.asarray(amplitudes, dtype=complex)
    return np.outer(psi, psi.conj())


def _as_square(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def permanent(a):
    """Matrix permanent via Ryser's inclusion-exclusion with Gray-code updates.

    Takes one square matrix ``(n, n)`` or a stack of them ``(..., n, n)``
    and walks the column subsets once for the whole stack, so working
    memory is O(batch · n).  A single matrix gives a Python ``complex``; a
    stack gives a complex array of shape ``(...)``.  Cost O(2^n · n) per
    matrix, so the dimension is capped at 20.  A second oracle for the
    ladder lift, independent of it and faster than ``permanent_naive``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    if n > 20:
        raise ValueError("permanent supports dimension <= 20")

    # Gray-code walk over column subsets; row_sums tracks
    # sum_{j in S} a[..., i, j] for the current subset S.  The empty subset
    # contributes prod(0) = 0, or 1 when n = 0.
    row_sums = np.zeros(a.shape[:-1], dtype=complex)
    total = np.prod(row_sums, axis=-1)
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        bit = gray ^ new_gray
        j = bit.bit_length() - 1
        if new_gray & bit:
            row_sums += a[..., j]
        else:
            row_sums -= a[..., j]
        gray = new_gray
        sign = -1.0 if (new_gray.bit_count() & 1) else 1.0
        total += sign * np.prod(row_sums, axis=-1)
    if n & 1:
        total = -total
    return complex(total) if total.ndim == 0 else total


def permanent_naive(a):
    """Matrix permanent by direct expansion over permutations (O(n!·n)).

    The independent check for the Gray-code evaluator ``permanent``.
    """
    a = _as_square(a)
    total = 0.0 + 0.0j
    for perm in permutations(range(a.shape[0])):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= a[i, j]
        total += prod
    return complex(total)


def two_photon_lift_oracle(u):
    """Independent lift construction: symmetrized two-photon tensors under U (x) U."""
    m = u.shape[0]
    basis = enumerate_basis(m, 2)

    def tensor(occ):
        modes = [k for k, n in enumerate(occ) for _ in range(n)]
        j1, j2 = modes
        t = np.zeros((m, m), dtype=complex)
        if j1 == j2:
            t[j1, j2] = 1.0
        else:
            t[j1, j2] = t[j2, j1] = 1.0 / math.sqrt(2.0)
        return t.reshape(-1)

    vecs = [tensor(occ) for occ in basis]
    big = np.kron(u, u)
    return np.array([[np.vdot(vt, big @ vs) for vs in vecs] for vt in vecs])


def ryser_lift_oracle(u, n, columns):
    """Columns of the lift as stacked permanents: Per(M) / sqrt(prod s! prod t!), where
    M repeats row k of U t_k times and column j s_j times; one Ryser walk for the stack."""
    basis = enumerate_basis(u.shape[0], n)
    idx = np.array([np.repeat(np.arange(u.shape[0]), occ) for occ in basis], dtype=np.intp)
    norms = np.sqrt([math.prod(map(math.factorial, occ)) for occ in basis])
    cols = np.asarray(columns, dtype=np.intp)
    subs = u[idx[:, None, :, None], idx[cols][None, :, None, :]]
    return permanent(subs) / np.outer(norms, norms[cols])


def lift_oracle(u, n):
    """Per-entry lift: Per(U[t_idx][:, s_idx]) / sqrt(prod t! prod s!) by permutation sum."""
    basis = enumerate_basis(u.shape[0], n)

    def modes(occ):
        return [k for k, c in enumerate(occ) for _ in range(c)]

    def norm(occ):
        return math.sqrt(math.prod(math.factorial(c) for c in occ))

    return np.array(
        [
            [permanent_naive(u[modes(t)][:, modes(s)]) / (norm(t) * norm(s)) for s in basis]
            for t in basis
        ]
    )


class TestEnumerateBasis:
    def test_two_modes_two_photons(self):
        assert enumerate_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_vacuum(self):
        assert enumerate_basis(2, 0) == [(0, 0)]

    def test_three_modes_two_photons(self):
        basis = enumerate_basis(3, 2)
        assert len(basis) == 6
        assert basis[0] == (2, 0, 0)
        assert basis[-1] == (0, 0, 2)

    @given(st.integers(1, 5), st.integers(0, 5))
    def test_count_and_order(self, m, n):
        basis = enumerate_basis(m, n)
        assert len(basis) == math.comb(n + m - 1, m - 1)
        assert all(sum(occ) == n for occ in basis)
        assert basis == sorted(basis, reverse=True)
        assert len(set(basis)) == len(basis)

    def test_sectors_concatenate_descending(self):
        assert enumerate_sectors(2, 2) == [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            enumerate_basis(0, 1)
        with pytest.raises(ValueError):
            enumerate_basis(2, -1)

    @pytest.mark.parametrize("photon_number", [True, False, 2.0, "2", None])
    def test_photon_number_must_be_int(self, photon_number):
        with pytest.raises(ValueError):
            enumerate_basis(2, photon_number)
        with pytest.raises(ValueError):
            lift_unitary(ModeUnitary(np.eye(2)), photon_number)

    def test_numpy_integer_photon_number(self):
        assert enumerate_basis(2, np.int64(2)) == enumerate_basis(2, 2)


class TestPermanent:
    def test_one_by_one(self):
        assert permanent(np.array([[2.0 + 1.0j]])) == pytest.approx(2.0 + 1.0j)

    def test_two_by_two_ones(self):
        assert permanent(np.ones((2, 2))) == pytest.approx(2.0)

    def test_three_by_three_ones(self):
        assert permanent(np.ones((3, 3))) == pytest.approx(6.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_naive_small(self, n):
        rng = np.random.default_rng(100 + n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert permanent(a) == pytest.approx(permanent_naive(a), abs=1e-12)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_matches_naive_larger(self, n):
        rng = np.random.default_rng(200 + n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert permanent(a) == pytest.approx(permanent_naive(a), rel=1e-10)

    def test_naive_definition_explicit(self):
        # Spot-check the reference itself against the permutation sum.
        rng = np.random.default_rng(42)
        a = rng.normal(size=(3, 3))
        expected = sum(
            a[0, p[0]] * a[1, p[1]] * a[2, p[2]] for p in permutations(range(3))
        )
        assert permanent_naive(a) == pytest.approx(expected)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            permanent(np.ones((2, 3)))
        with pytest.raises(ValueError):
            permanent(np.ones((4, 2, 3)))
        with pytest.raises(ValueError):
            permanent(np.ones(3))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            permanent(np.eye(21))

    def test_empty_matrix(self):
        assert permanent(np.zeros((0, 0))) == 1.0

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_stack_matches_naive_per_matrix(self, n):
        rng = np.random.default_rng(300 + n)
        stack = rng.normal(size=(7, 3, n, n)) + 1j * rng.normal(size=(7, 3, n, n))
        out = permanent(stack)
        assert out.shape == (7, 3)
        expected = np.array([[permanent_naive(a) for a in row] for row in stack])
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12)
        assert type(permanent(stack[0, 0])) is complex


class TestLiftUnitary:
    def test_identity(self):
        lifted = lift_unitary(ModeUnitary(np.eye(2)), 2)
        assert np.allclose(lifted, np.eye(3), atol=1e-14)

    def test_single_photon_sector_is_mode_matrix(self):
        u = haar_unitary(2, 7)
        assert np.allclose(lift_unitary(ModeUnitary(u), 1), u, atol=1e-14)

    def test_balanced_coupler_photon_bunching(self):
        # Two photons entering one on each port of a 50:50 coupler never
        # exit separately; oracle value from the tensor construction.
        h = ModeUnitary(np.array([[1, 1j], [1j, 1]]) / math.sqrt(2))
        lifted = lift_unitary(h, 2)
        oracle = two_photon_lift_oracle(h.matrix)
        assert np.allclose(lifted, oracle, atol=1e-12)
        column = lifted[:, 1]  # input (1, 1)
        assert abs(column[1]) < 1e-14
        assert abs(abs(column[0]) - 1 / math.sqrt(2)) < 1e-12
        assert abs(abs(column[2]) - 1 / math.sqrt(2)) < 1e-12

    @pytest.mark.parametrize(
        ("n", "m"), [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]
    )
    def test_lift_is_unitary(self, m, n):
        for seed in range(5):
            u = haar_unitary(m, 1000 * m + 10 * n + seed)
            lifted = lift_unitary(ModeUnitary(u), n)
            d = lifted.shape[0]
            assert np.max(np.abs(lifted @ lifted.conj().T - np.eye(d))) < 1e-10

    @pytest.mark.parametrize("m", [2, 3])
    def test_tensor_oracle_equivalence(self, m):
        for seed in range(20):
            u = haar_unitary(m, 5000 + 7 * m + seed)
            assert np.allclose(
                lift_unitary(ModeUnitary(u), 2), two_photon_lift_oracle(u), atol=1e-12
            )

    @pytest.mark.parametrize(
        ("n", "m"), [(1, 2), (2, 2), (3, 2), (4, 4)], ids=["1", "2", "3", "4-4"]
    )
    def test_composition_homomorphism(self, n, m):
        u = haar_unitary(m, 31 + n)
        v = haar_unitary(m, 77 + n)
        lhs = lift_unitary(ModeUnitary(u @ v), n)
        rhs = lift_unitary(ModeUnitary(u), n) @ lift_unitary(ModeUnitary(v), n)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_per_entry_oracle(self, m, n):
        u = haar_unitary(m, 9000 + 10 * m + n) if m > 1 else np.array([[np.exp(0.7j)]])
        lifted = lift_unitary(ModeUnitary(u), n)
        assert lifted == pytest.approx(lift_oracle(u, n), abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            lift_unitary(np.array([[1.0, 0.0], [0.0, 1.1]]), 2)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 2**32 - 1), st.data())
    def test_matches_ryser_oracle(self, m, n, seed, data):
        u = random_unitary(m, seed)
        d = math.comb(n + m - 1, m - 1)
        cols = data.draw(st.lists(st.integers(0, d - 1), max_size=d))
        lifted = lift_unitary(ModeUnitary(u), n, cols)
        assert np.max(np.abs(lifted - ryser_lift_oracle(u, n, cols)), initial=0.0) < 1e-12

    def test_photon_number_above_the_permanent_limit(self):
        # The lift forms no factorial, so nothing overflows at 21!.  |21, 0> through a
        # coupler leaves binomially: C(21, k) c^2k s^2(21-k).
        c, s = math.cos(0.4), math.sin(0.4)
        coupler = ModeUnitary([[c, -s], [s, c]])
        basis = tuple(enumerate_basis(2, 21))
        out = evolve(DensityMatrix(basis, np.diag([1.0] + [0.0] * 21)), coupler)
        want = [math.comb(21, k) * c ** (2 * k) * s ** (42 - 2 * k) for k, _ in basis]
        assert np.max(np.abs(out.probabilities() - want)) < 1e-12

    def test_lift_above_the_memory_bound_refused(self, monkeypatch):
        # The last step of the full (4, 4) lift holds the 35 x 35 output, the 20 x 35
        # amplitudes of sector 3 and their 4 x 20 x 35 terms, besides the 4 x 35 x 4
        # coefficients U[k, j] / sqrt(r), all complex.
        u = ModeUnitary(haar_unitary(4, 8))
        full_bytes = (35 + 5 * 20 + 4 * 4) * 35 * 16
        monkeypatch.setattr(fock, "_MAX_LIFT_BYTES", full_bytes - 1)
        with pytest.raises(ValueError, match="bound"):
            lift_unitary(u, 4)
        assert lift_unitary(u, 4, [0, 34]).shape == (35, 2)
        basis = tuple(enumerate_basis(4, 4))
        with pytest.raises(ValueError, match="bound"):
            evolve(DensityMatrix(basis, np.eye(35) / 35), u)
        monkeypatch.setattr(fock, "_MAX_LIFT_BYTES", full_bytes)
        assert lift_unitary(u, 4).shape == (35, 35)

    def test_sixty_photon_four_mode_lift_refused_before_the_tables(self, monkeypatch):
        # The last step would hold 39,711 x 39,711 output entries and 5 x 37,820 x 39,711
        # more, besides 4 x 39,711 x 60 coefficients, about 146 GB.  The stubbed tables
        # keep this test from building anything were the bound gone.
        def unbuilt(*args):
            raise AssertionError(f"lift tables built for {args}")

        monkeypatch.setattr(fock, "_ladder", unbuilt)
        monkeypatch.setattr(fock, "_lift_plan", unbuilt)
        with pytest.raises(ValueError, match=f"{(39711 + 5 * 37820 + 4 * 60) * 39711 * 16} B"):
            lift_unitary(ModeUnitary(np.eye(4)), 60)
        # The full (4, 20) lift, whose last step and coefficients hold
        # (1771 + 5 x 1540 + 4 x 20) x 1771 entries (about 271 MB), passes the bound.
        with pytest.raises(AssertionError, match="built"):
            lift_unitary(ModeUnitary(np.eye(4)), 20)

    def test_twenty_photon_four_mode_column_has_unit_norm(self):
        column = lift_unitary(ModeUnitary(haar_unitary(4, 20)), 20, [500])
        assert column.shape == (1771, 1)
        assert np.linalg.norm(column) == pytest.approx(1.0, abs=1e-12)

    def test_eight_photon_four_mode_lift_within_the_bound(self):
        lifted = lift_unitary(ModeUnitary(haar_unitary(4, 48)), 8)
        assert np.max(np.abs(lifted @ lifted.conj().T - np.eye(165))) < 1e-10

    def test_twenty_photons_on_one_mode_lift(self):
        # At and above the old N <= 20 cap: the lift forms no factorial and no alternating sum.
        for n in (20, 21):
            for phi in np.linspace(-3.0, 3.0, 13):
                lifted = lift_unitary(ModeUnitary([[np.exp(1j * phi)]]), n)
                assert abs(lifted[0, 0] - np.exp(1j * n * phi)) < 1e-14


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestStates:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_mode_unitary_rejects_non_finite(self, bad):
        u = np.eye(2, dtype=complex)
        u[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ModeUnitary(u)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_density_matrix_rejects_non_finite(self, bad, entry):
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[entry] = bad
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(((1, 0), (0, 1)), rho)

    def test_pure_state_requires_canonical_order(self):
        with pytest.raises(ValueError, match="canonical"):
            DensityMatrix(((0, 1), (1, 0)), pure([1.0, 0.0]))

    def test_density_matrix_validation(self):
        basis = ((1, 0), (0, 1))
        with pytest.raises(ValueError):
            DensityMatrix(basis, np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(basis, np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(basis, np.diag([1.5, -0.5]))  # not PSD

    def test_density_matrix_accepts_mixed_sectors(self):
        basis = ((1, 0), (0, 1), (0, 0))
        rho = DensityMatrix(basis, np.diag([0.25, 0.25, 0.5]))
        assert rho.sector_weight(1) == pytest.approx(0.5)
        assert rho.sector_weight(0) == pytest.approx(0.5)

    @pytest.mark.parametrize("basis", [((2,),), ((0, 0),)])
    def test_single_mode_and_vacuum_bases_are_accepted(self, basis):
        d = len(basis)
        assert DensityMatrix(basis, np.eye(d) / d).basis == basis

    @pytest.mark.parametrize(
        "basis",
        [
            ((2, 0), (1, 1), (0, 2), (0, 0)),  # sector 1 skipped
            ((0, 0), (1, 0), (0, 1)),  # sectors 1 -> 0 in reversed order
            ((2, 0), (1, 1)),  # part of a sector
            ((1, 0), (0, 1, 0)),  # mixed mode counts
            ((1, 0), (1, 0)),  # a repeated state
        ],
    )
    def test_basis_must_be_whole_sectors(self, basis):
        d = len(basis)
        with pytest.raises(ValueError, match="whole photon-number sectors"):
            DensityMatrix(basis, np.eye(d) / d)

    @pytest.mark.parametrize(
        "basis",
        [((1.0, 0), (0, 1)), ((2, 0), (1.0, 1), (0, 2)), ((0.5, 0.5),), ((True, 0), (0, 1))]
        + [((-1, 0),), ((-1, 1),), ((2, -1), (1, 0), (0, 1))],
    )
    def test_occupations_must_be_non_negative_integers(self, basis):
        d = len(basis)
        with pytest.raises(ValueError, match="integers >= 0"):
            DensityMatrix(basis, np.eye(d) / d)

    def test_huge_photon_number_refused_before_enumerating(self, monkeypatch):
        # One state of 10^6 photons: the count C(10^6 + 2, 2) - C(10^6 + 1, 2) = 10^6 + 1
        # refuses it without building that sector.
        calls = []
        sectors = fock._sectors
        monkeypatch.setattr(fock, "_sectors", lambda *args: calls.append(args) or sectors(*args))
        with pytest.raises(ValueError, match="whole photon-number sectors"):
            DensityMatrix(((10**6, 0),), np.eye(1))
        assert calls == []
        DensityMatrix(((1, 0), (0, 1)), np.eye(2) / 2)
        assert calls  # the recorder does see an accepted basis being built

    def test_basis_is_the_cached_enumeration(self):
        rho = DensityMatrix([[np.int64(1), 0], [0, np.int64(1)]], np.eye(2) / 2)
        assert rho.basis is fock._sectors(2, 1, 1)
        assert {type(n) for occ in rho.basis for n in occ} == {int}


class TestEvolve:
    def setup_method(self):
        self.basis = tuple(enumerate_basis(2, 2))
        self.psi = np.array([1.0, 0.0, np.exp(0.6j)]) / math.sqrt(2)
        self.noon = DensityMatrix(self.basis, pure(self.psi))

    def test_identity_leaves_state(self):
        out = evolve(self.noon, ModeUnitary(np.eye(2)))
        assert np.allclose(out.matrix, self.noon.matrix, atol=1e-14)

    def test_noon_probabilities_through_identity(self):
        out = evolve(self.noon, ModeUnitary(np.eye(2)))
        assert np.allclose(out.probabilities(), [0.5, 0.0, 0.5], atol=1e-14)

    def test_bunched_pair_under_balanced_coupler(self):
        # The zero-phase device output state (|2,0> - |0,2>)/sqrt(2) has no
        # split component after a 50:50 coupler, while the orthogonal plus
        # combination anti-bunches completely.
        h = ModeUnitary(np.array([[1, 1j], [1j, 1]]) / math.sqrt(2))
        oracle = two_photon_lift_oracle(h.matrix)
        minus = np.array([1.0, 0.0, -1.0]) / math.sqrt(2)
        out_minus = evolve(DensityMatrix(self.basis, pure(minus)), h)
        assert abs(out_minus.matrix[1, 1]) < 1e-14
        assert np.allclose(out_minus.matrix, pure(oracle @ minus), atol=1e-12)
        plus = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
        out_plus = evolve(DensityMatrix(self.basis, pure(plus)), h)
        assert out_plus.matrix[1, 1].real == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved(self):
        u = ModeUnitary(haar_unitary(2, 3))
        out = evolve(self.noon, u)
        assert np.sum(out.probabilities()) == pytest.approx(1.0, abs=1e-12)
        # A pure state stays pure: rank one, tr(rho^2) = 1.
        assert np.trace(out.matrix @ out.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_density_evolution_preserves_trace(self):
        rho = noon_mixed(0.3, 0.6, 0.8)
        u = ModeUnitary(haar_unitary(2, 4))
        out = evolve(rho, u)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evolve(self.noon, ModeUnitary(np.eye(3)))

    def test_several_sectors_rejected(self):
        state = DensityMatrix(((1, 0), (0, 1), (0, 0)), np.diag([0.25, 0.25, 0.5]))
        with pytest.raises(ValueError, match="single photon-number sector"):
            evolve(state, ModeUnitary(np.eye(2)))

    def test_trace_drift_of_an_admitted_near_unitary_is_named(self):
        # ModeUnitary admits a deviation of 8e-11 from unitarity; the lifted
        # two-photon trace then drifts by 1.6e-10, past NORM_ATOL.
        u = ModeUnitary(np.eye(2) * (1 + 4e-11))
        message = r"trace 1\.0000000001\d+ is not 1 within 1e-12: .* by 8\.000e-11.*UNITARY_ATOL"
        with pytest.raises(ValueError, match=message):
            evolve(noon_mixed(0.5, 0.3, 0.9), u)

    @pytest.mark.parametrize("state", [np.eye(3) / 3, None, "rho"], ids=["array", "none", "str"])
    def test_only_density_matrices_evolve(self, state):
        with pytest.raises(TypeError):
            evolve(state, ModeUnitary(np.eye(2)))


def random_unitary(m, seed):
    return haar_unitary(m, seed) if m > 1 else np.array([[np.exp(1j * seed)]])


def column_subsets(d, rng):
    """Empty, last-only and reversed full column lists, and three random unsorted ones."""
    out = [[], [d - 1], list(range(d))[::-1]]
    for _ in range(3):
        out.append(rng.permutation(d)[: rng.integers(1, d + 1)].tolist())
    return out


def partial_support_state(m, n, rng, mixed):
    """A random rank-1 (pure) or rank-3 (mixed) state on a random proper subset of the basis."""
    d = math.comb(n + m - 1, m - 1)
    support = np.sort(rng.permutation(d)[: max(1, d // 2)])
    basis = tuple(enumerate_basis(m, n))

    def vector():
        v = np.zeros(d, dtype=complex)
        v[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
        return v / np.linalg.norm(v)

    if not mixed:
        return DensityMatrix(basis, pure(vector()))
    weights = rng.dirichlet(np.ones(3))
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, (vector() for _ in weights)))
    return DensityMatrix(basis, (rho + rho.conj().T) / 2)


class TestLiftColumns:
    """The column lift against the full lift, which stays the oracle."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_full_lift_columns(self, m, n):
        u = ModeUnitary(random_unitary(m, 400 + 10 * m + n))
        full = lift_unitary(u, n)
        rng = np.random.default_rng(10 * m + n)
        for cols in column_subsets(full.shape[0], rng):
            part = lift_unitary(u, n, cols)
            assert part.shape == (full.shape[0], len(cols))
            assert np.max(np.abs(part - full[:, cols]), initial=0.0) < 1e-12

    def test_numpy_index_array_and_full_column_list(self):
        u = ModeUnitary(haar_unitary(3, 12))
        full = lift_unitary(u, 2)
        assert np.array_equal(lift_unitary(u, 2, np.arange(6)), full)
        assert np.array_equal(lift_unitary(u, 2, np.array([4, 1], dtype=np.uint8)), full[:, [4, 1]])

    @pytest.mark.parametrize(
        "cols", [[3], [-1], [0.0], [True], [[0, 1]], ["0"]], ids=str
    )
    def test_rejects_bad_columns(self, cols):
        with pytest.raises(ValueError, match="columns"):
            lift_unitary(ModeUnitary(np.eye(2)), 2, cols)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2**32 - 1), st.data())
    def test_column_homomorphism(self, m, n, seed, data):
        # lift(UV)[:, S] = lift(U) @ lift(V)[:, S] for any column list S.
        u, v = random_unitary(m, seed), random_unitary(m, seed + 1)
        d = math.comb(n + m - 1, m - 1)
        cols = data.draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d))
        lhs = lift_unitary(ModeUnitary(u @ v), n, cols)
        rhs = lift_unitary(ModeUnitary(u), n) @ lift_unitary(ModeUnitary(v), n, cols)
        assert np.max(np.abs(lhs - rhs), initial=0.0) < 1e-10

    def test_cached_tables_are_read_only(self):
        up, gain = fock._ladder(3, 2)
        for table in (up, gain):
            with pytest.raises(ValueError):
                table[0] = 7
        assert fock._ladder(3, 2)[0] is up
        lifted = lift_unitary(ModeUnitary(np.eye(3)), 2)
        lifted[:] = 0  # a caller's own copy, not the cache
        assert np.allclose(lift_unitary(ModeUnitary(np.eye(3)), 2), np.eye(6))

    def test_lift_plan_is_read_only(self):
        u = ModeUnitary(haar_unitary(3, 5))
        want = lift_unitary(u, 3, [1, 7])
        modes, roots = fock._lift_plan(3, 3, np.array([1, 7], dtype=np.intp).tobytes())
        for table in (modes, roots):
            with pytest.raises(ValueError):
                table[0, 0] = 2
        assert np.array_equal(lift_unitary(u, 3, np.array([1, 7], dtype=np.int32)), want)

    @pytest.mark.parametrize("m, n", [(1, 0), (1, 5), (2, 3), (3, 2), (4, 4)])
    def test_lift_plan_matches_the_photon_list(self, m, n):
        # The plan as a Python list of (mode, rank) pairs, photon by photon, mode by mode.
        basis = enumerate_basis(m, n)
        cols = [len(basis) - 1, 0] * 2
        steps = [[(j, r) for j, s in enumerate(basis[c]) for r in range(1, s + 1)] for c in cols]
        modes, ranks = np.array(steps, dtype=np.intp).reshape(len(cols), n, 2).transpose(2, 0, 1)
        plan = fock._lift_plan(m, n, np.array(cols, dtype=np.intp).tobytes())
        assert np.array_equal(plan[0], modes) and np.array_equal(plan[1], np.sqrt(ranks))
        full = fock._lift_plan(m, n, None)
        assert full[0].shape == full[1].shape == (len(basis), n)

    def test_ladder_tables_are_the_creation_operators(self):
        for m, n in [(1, 3), (2, 2), (3, 2), (4, 3)]:
            below, above = enumerate_basis(m, n - 1), enumerate_basis(m, n)
            up, gain = fock._ladder(m, n)
            assert up.shape == gain.shape == (len(below), m)
            for i, t in enumerate(below):
                for k in range(m):
                    assert above[up[i, k]] == tuple(c + (j == k) for j, c in enumerate(t))
                    assert gain[i, k] == math.sqrt(t[k] + 1)

    def test_photon_number_checked_before_the_cache(self):
        u = ModeUnitary(np.eye(2))
        lift_unitary(u, 2)
        with pytest.raises(ValueError):
            lift_unitary(u, 2.0)  # equal to the cached key 2, and still refused


class TestEvolveOnSupport:
    """evolve lifts only the support; the full-lift L rho L^dag stays the oracle."""

    @pytest.mark.parametrize(("m", "n"), [(2, 2), (3, 2), (3, 3), (4, 2), (4, 4)])
    @pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
    def test_partial_support_matches_full_lift(self, m, n, mixed):
        rng = np.random.default_rng(100 * m + n)
        for seed in range(3):
            state = partial_support_state(m, n, rng, mixed)
            u = ModeUnitary(haar_unitary(m, 70 + seed))
            lifted = lift_unitary(u, n)
            out = evolve(state, u)
            want = lifted @ state.matrix @ lifted.conj().T
            assert np.max(np.abs(out.matrix - want)) < 1e-12

    def test_support_reads_rows_and_columns_not_the_diagonal(self):
        # rho[1, 1] = 0 next to a coherence of 1e-6: eigenvalue -1e-12, inside PSD_ATOL.
        # A diagonal-only support would drop index 1 and miss terms of order 1e-6.
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        rho[0, 1] = rho[1, 0] = 1e-6
        state = DensityMatrix(tuple(enumerate_basis(2, 2)), rho)
        u = ModeUnitary(haar_unitary(2, 5))
        lifted = lift_unitary(u, 2)
        out = evolve(state, u)
        assert np.max(np.abs(out.matrix - lifted @ rho @ lifted.conj().T)) < 1e-14

    def test_partial_basis_rejected(self):
        # Part of the N = 2 sector: refused where it is built, so evolve never meets it.
        with pytest.raises(ValueError, match="whole photon-number sectors"):
            DensityMatrix(((2, 0), (1, 1)), pure([1.0, 0.0]))

    def test_four_photon_device_state(self):
        # The |1,1,1,1> input of the 4-mode heater sweep: one lifted column.
        basis = tuple(enumerate_basis(4, 4))
        rho = np.zeros((35, 35), dtype=complex)
        rho[basis.index((1, 1, 1, 1)), basis.index((1, 1, 1, 1))] = 1.0
        state = DensityMatrix(basis, rho)
        u = ModeUnitary(haar_unitary(4, 44))
        lifted = lift_unitary(u, 4)
        want = np.real(np.diag(lifted @ rho @ lifted.conj().T))
        assert np.max(np.abs(evolve(state, u).probabilities() - want)) < 1e-15


def full_lift_pattern_probs(state, u):
    lifted = lift_unitary(u, 2)
    return pattern_probs(DensityMatrix(state.basis, lifted @ state.matrix @ lifted.conj().T))


class TestTagWorkloadInputs:
    """Every seeded tag stream draws from these pattern probabilities: pin them bit for bit."""

    PHASES = np.concatenate([2 * math.pi * np.arange(24) / 24, np.linspace(0, 2 * math.pi, 97)])

    @pytest.mark.parametrize("purity", [0.8, 0.9, 1.0])
    def test_pattern_probs_equal_the_full_lift(self, purity):
        bs = mzi_unitary(math.pi / 2)
        for phase in self.PHASES:
            state = noon_mixed(0.5, float(phase), purity)
            got = pattern_probs(evolve(state, bs))
            assert np.array_equal(got, full_lift_pattern_probs(state, bs)), phase


_UNIT = st.floats(0.0, 1.0)


@st.composite
def checked_states(draw):
    """A state built by the public constructor: rank 1 to 3 on a random support,
    over 2 or 4 modes with at most 4 photons, or a noon_mixed state."""
    if draw(st.booleans()):
        return noon_mixed(draw(_UNIT), draw(st.floats(-10.0, 10.0)), draw(_UNIT))
    m, n = draw(st.sampled_from([2, 4])), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = tuple(enumerate_basis(m, n))
    d = len(basis)
    a = np.zeros((d, 3), dtype=complex)
    support = rng.permutation(d)[: rng.integers(1, d + 1)]
    a[support] = rng.normal(size=(len(support), 3)) + 1j * rng.normal(size=(len(support), 3))
    a[:, 1:] *= rng.random(2) < 0.5
    rho = a @ a.conj().T
    return DensityMatrix(basis, rho / np.trace(rho).real)


def assert_public_constructor_agrees(state):
    """The public constructor accepts the state and stores the same fields."""
    m, high, low = len(state.basis[0]), sum(state.basis[0]), sum(state.basis[-1])
    assert state.basis is fock._sectors(m, high, low)
    assert state.matrix.dtype == np.complex128
    rebuilt = DensityMatrix(state.basis, state.matrix)
    assert rebuilt.basis is state.basis
    assert rebuilt.matrix.dtype == np.complex128
    assert np.array_equal(rebuilt.matrix, state.matrix)


class TestTrustedStates:
    """noon_mixed, evolve and apply_loss build their states without the public
    checks; each state must still pass them unchanged."""

    @settings(max_examples=150, deadline=None)
    @given(checked_states(), st.integers(0, 2**32 - 1), st.lists(_UNIT, min_size=4, max_size=4))
    def test_public_constructor_accepts_every_trusted_state(self, state, seed, etas):
        assert_public_constructor_agrees(state)
        out = evolve(state, ModeUnitary(haar_unitary(state.mode_count, seed)))
        assert_public_constructor_agrees(out)
        etas = etas[: state.mode_count]
        assert_public_constructor_agrees(apply_loss(state, *etas))
        assert_public_constructor_agrees(apply_loss(out, *etas))
