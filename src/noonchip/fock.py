"""Fock-basis bookkeeping and exact linear-optics math.

Conventions used throughout the package:

* A mode unitary ``U`` maps the creation operator of input mode ``j`` to
  ``sum_k U[k, j] a_k^dag`` (column convention).  The single-photon sector
  of the lifted operator is therefore ``U`` itself, and lifting is a group
  homomorphism: ``lift(U @ V, N) == lift(U, N) @ lift(V, N)``.
* Fock bases are ordered descending-lexicographically by occupation, e.g.
  for two modes and two photons: ``(2, 0), (1, 1), (0, 2)``.  Mixed
  photon-number bases (produced by loss channels) are ordered by total
  photon number descending, then descending-lexicographically within each
  sector.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "enumerate_basis",
    "enumerate_sectors",
    "permanent",
    "ModeUnitary",
    "PureState",
    "DensityMatrix",
    "lift_unitary",
    "evolve",
]

UNITARY_ATOL = 1e-10
NORM_ATOL = 1e-12
PSD_ATOL = 1e-10

Occupation = tuple[int, ...]


def _check_index(name: str, value, low: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_finite(name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """The value as a float, if it is a finite real number (not a bool) in [low, high]."""
    x = value.item() if isinstance(value, np.generic) else value
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if not low <= x <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value!r}")
    return float(x)


def _check_positive(name: str, value) -> float:
    x = _check_finite(name, value)
    if x <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return x


def _check_floats(
    name: str, values, count: int, low: float = -math.inf, high: float = math.inf
) -> tuple[float, ...]:
    """`count` checked floats from an iterable, each finite and in [low, high]."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be {count} numbers, got {values!r}") from None
    if len(values) != count:
        raise ValueError(f"{name} must be {count} numbers, got {len(values)}")
    return tuple(_check_finite(name, v, low, high) for v in values)


def enumerate_basis(mode_count: int, photon_number: int) -> list[Occupation]:
    """All occupation tuples of `photon_number` photons over `mode_count` modes.

    Returned in descending lexicographic order; length C(N+m-1, m-1).
    """
    _check_index("mode_count", mode_count, low=1)
    _check_index("photon_number", photon_number)

    def fill(modes_left, photons_left):
        if modes_left == 1:
            yield (photons_left,)
            return
        for n in range(photons_left, -1, -1):
            for rest in fill(modes_left - 1, photons_left - n):
                yield (n,) + rest

    return list(fill(mode_count, photon_number))


def enumerate_sectors(mode_count: int, max_photon_number: int) -> list[Occupation]:
    """Concatenated bases for photon numbers max_photon_number down to 0."""
    _check_index("max_photon_number", max_photon_number)
    out: list[Occupation] = []
    for n in range(max_photon_number, -1, -1):
        out.extend(enumerate_basis(mode_count, n))
    return out


def permanent(a: np.ndarray) -> complex | np.ndarray:
    """Matrix permanent via Ryser's inclusion-exclusion with Gray-code updates.

    Takes one square matrix ``(n, n)`` or a stack of them ``(..., n, n)``
    and walks the column subsets once for the whole stack, so working
    memory is O(batch · n).  A single matrix gives a Python ``complex``; a
    stack gives a complex array of shape ``(...)``.  Exact in floating
    point up to roundoff; cost O(2^n · n) per matrix.  Dimension is capped
    at 20, far beyond anything the two-photon simulator needs.
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


def _canonical_key(occ: Occupation):
    # Sector-major (total photon number descending), then descending lex.
    return (-sum(occ), tuple(-n for n in occ))


def _check_basis(basis: tuple[Occupation, ...]) -> None:
    if not basis:
        raise ValueError("basis must not be empty")
    m = len(basis[0])
    if any(len(occ) != m for occ in basis):
        raise ValueError("all basis states must have the same mode count")
    if any(n < 0 for occ in basis for n in occ):
        raise ValueError("occupations must be non-negative")
    if len(set(basis)) != len(basis):
        raise ValueError("basis states must be unique")
    if list(basis) != sorted(basis, key=_canonical_key):
        raise ValueError("basis must be in canonical (descending lexicographic) order")


@dataclass(frozen=True)
class ModeUnitary:
    """m x m complex unitary acting on the optical modes."""

    matrix: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"mode unitary must be square, got shape {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ValueError("mode unitary entries must be finite")
        dev = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
        if dev > UNITARY_ATOL:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        object.__setattr__(self, "matrix", u)

    @property
    def mode_count(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over a fixed photon-number Fock basis."""

    basis: tuple[Occupation, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        basis = tuple(tuple(occ) for occ in self.basis)
        _check_basis(basis)
        totals = {sum(occ) for occ in basis}
        if len(totals) != 1:
            raise ValueError("pure states live in a single photon-number sector")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if len(amps) != len(basis):
            raise ValueError("amplitude vector length must match basis size")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm^2 = {norm} is not 1 within {NORM_ATOL}")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def mode_count(self) -> int:
        return len(self.basis[0])

    @property
    def photon_number(self) -> int:
        return sum(self.basis[0])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.basis, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite operator over a Fock basis.

    The basis may span several photon-number sectors (needed after loss).
    """

    basis: tuple[Occupation, ...]
    matrix: np.ndarray

    def __post_init__(self):
        basis = tuple(tuple(occ) for occ in self.basis)
        _check_basis(basis)
        rho = np.asarray(self.matrix, dtype=complex)
        d = len(basis)
        if rho.shape != (d, d):
            raise ValueError(f"matrix shape {rho.shape} does not match basis size {d}")
        if not np.all(np.isfinite(rho)):
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(rho - rho.conj().T)) > NORM_ATOL:
            raise ValueError("density matrix must be Hermitian")
        tr = float(np.real(np.trace(rho)))
        if abs(tr - 1.0) > NORM_ATOL:
            raise ValueError(f"trace = {tr} is not 1 within {NORM_ATOL}")
        min_eig = float(np.linalg.eigvalsh(rho).min())
        if min_eig < -PSD_ATOL:
            raise ValueError(f"density matrix is not PSD (min eigenvalue {min_eig:.3e})")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "matrix", rho)

    @property
    def mode_count(self) -> int:
        return len(self.basis[0])

    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def sector_weight(self, photon_number: int) -> float:
        mask = [sum(occ) == photon_number for occ in self.basis]
        return float(np.sum(self.probabilities()[mask]))


def lift_unitary(u: ModeUnitary, photon_number: int) -> np.ndarray:
    """Lift a mode unitary to the N-photon Fock sector.

    Entry (T, S) is Per(M) / sqrt(prod s_i! prod t_j!), where M is built
    from U by repeating row k t_k times and column j s_j times.  All d²
    submatrices are stacked and their permanents come from one Ryser walk.
    The result is unitary over enumerate_basis(m, N).
    """
    if not isinstance(u, ModeUnitary):
        u = ModeUnitary(u)
    m = u.mode_count
    basis = enumerate_basis(m, photon_number)
    # idx[b] lists mode k occ_k times for basis state b: shape (d, N).
    idx = np.array([np.repeat(np.arange(m), occ) for occ in basis])
    norms = np.sqrt([math.prod(map(math.factorial, occ)) for occ in basis])
    subs = u.matrix[idx[:, None, :, None], idx[None, :, None, :]]
    return permanent(subs) / np.outer(norms, norms)


def evolve(state, u: ModeUnitary):
    """Evolve a PureState or DensityMatrix through a mode unitary.

    Pure states map as ``amps -> L @ amps`` and density matrices as
    ``rho -> L @ rho @ L^dag`` with ``L = lift_unitary(u, N)``.
    """
    if not isinstance(u, ModeUnitary):
        u = ModeUnitary(u)
    if isinstance(state, PureState):
        if state.mode_count != u.mode_count:
            raise ValueError("mode count mismatch between state and unitary")
        lifted = lift_unitary(u, state.photon_number)
        return PureState(state.basis, lifted @ state.amplitudes)
    if isinstance(state, DensityMatrix):
        totals = {sum(occ) for occ in state.basis}
        if len(totals) != 1:
            raise ValueError("evolve requires a single photon-number sector")
        if state.mode_count != u.mode_count:
            raise ValueError("mode count mismatch between state and unitary")
        lifted = lift_unitary(u, totals.pop())
        return DensityMatrix(state.basis, lifted @ state.matrix @ lifted.conj().T)
    raise TypeError(f"cannot evolve object of type {type(state).__name__}")
