import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from noonchip import fock
from noonchip.circuit import mzi_unitary
from noonchip.detection import pattern_probs
from noonchip.fock import (
    DensityMatrix,
    ModeUnitary,
    PureState,
    enumerate_basis,
    enumerate_sectors,
    evolve,
    lift_unitary,
    permanent,
)
from noonchip.sources import noon_mixed


def haar_unitary(dim, seed):
    return unitary_group.rvs(dim, random_state=np.random.default_rng(seed))


def _as_square(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


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


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestStates:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_mode_unitary_rejects_non_finite(self, bad):
        u = np.eye(2, dtype=complex)
        u[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ModeUnitary(u)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_pure_state_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PureState(((1, 0), (0, 1)), np.array([bad, 0.0]))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_density_matrix_rejects_non_finite(self, bad, entry):
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[entry] = bad
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(((1, 0), (0, 1)), rho)

    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(((1, 0), (0, 1)), np.array([1.0, 1.0]))

    def test_pure_state_requires_canonical_order(self):
        with pytest.raises(ValueError):
            PureState(((0, 1), (1, 0)), np.array([1.0, 0.0]))

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


class TestEvolve:
    def setup_method(self):
        self.basis = tuple(enumerate_basis(2, 2))
        self.noon = PureState(
            self.basis, np.array([1.0, 0.0, np.exp(0.6j)]) / math.sqrt(2)
        )

    def test_identity_leaves_state(self):
        out = evolve(self.noon, ModeUnitary(np.eye(2)))
        assert np.allclose(out.amplitudes, self.noon.amplitudes, atol=1e-14)

    def test_noon_probabilities_through_identity(self):
        out = evolve(self.noon, ModeUnitary(np.eye(2)))
        assert np.allclose(out.probabilities(), [0.5, 0.0, 0.5], atol=1e-14)

    def test_bunched_pair_under_balanced_coupler(self):
        # The zero-phase device output state (|2,0> - |0,2>)/sqrt(2) has no
        # split component after a 50:50 coupler, while the orthogonal plus
        # combination anti-bunches completely.
        h = ModeUnitary(np.array([[1, 1j], [1j, 1]]) / math.sqrt(2))
        oracle = two_photon_lift_oracle(h.matrix)
        minus = PureState(self.basis, np.array([1.0, 0.0, -1.0]) / math.sqrt(2))
        out_minus = evolve(minus, h)
        assert abs(out_minus.amplitudes[1]) < 1e-14
        assert np.allclose(out_minus.amplitudes, oracle @ minus.amplitudes, atol=1e-12)
        plus = PureState(self.basis, np.array([1.0, 0.0, 1.0]) / math.sqrt(2))
        out_plus = evolve(plus, h)
        assert abs(out_plus.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved(self):
        u = ModeUnitary(haar_unitary(2, 3))
        out = evolve(self.noon, u)
        assert np.sum(out.probabilities()) == pytest.approx(1.0, abs=1e-12)

    def test_density_evolution_preserves_trace(self):
        rho = self.noon.to_density()
        u = ModeUnitary(haar_unitary(2, 4))
        out = evolve(rho, u)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evolve(self.noon, ModeUnitary(np.eye(3)))


def random_unitary(m, seed):
    return haar_unitary(m, seed) if m > 1 else np.array([[np.exp(1j * seed)]])


def column_subsets(d, rng):
    """Empty, last-only and reversed full column lists, and three random unsorted ones."""
    out = [[], [d - 1], list(range(d))[::-1]]
    for _ in range(3):
        out.append(rng.permutation(d)[: rng.integers(1, d + 1)].tolist())
    return out


def partial_support_state(m, n, rng, mixed):
    """A random pure or rank-3 mixed state on a random proper subset of the basis."""
    d = math.comb(n + m - 1, m - 1)
    support = np.sort(rng.permutation(d)[: max(1, d // 2)])
    basis = tuple(enumerate_basis(m, n))

    def vector():
        v = np.zeros(d, dtype=complex)
        v[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
        return v / np.linalg.norm(v)

    if not mixed:
        return PureState(basis, vector())
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
        idx, norms = fock._lift_tables(3, 2)
        for table in (idx, norms):
            with pytest.raises(ValueError):
                table[0] = 7
        assert fock._lift_tables(3, 2)[0] is idx
        lifted = lift_unitary(ModeUnitary(np.eye(3)), 2)
        lifted[:] = 0  # a caller's own copy, not the cache
        assert np.allclose(lift_unitary(ModeUnitary(np.eye(3)), 2), np.eye(6))

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
            if mixed:
                want = lifted @ state.matrix @ lifted.conj().T
                assert np.max(np.abs(out.matrix - want)) < 1e-12
            else:
                assert np.max(np.abs(out.amplitudes - lifted @ state.amplitudes)) < 1e-12

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
        state = PureState(((2, 0), (1, 1)), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="full"):
            evolve(state, ModeUnitary(np.eye(2)))

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
