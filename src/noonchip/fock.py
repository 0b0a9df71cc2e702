"""Fock-basis bookkeeping and exact linear-optics math.

Conventions used throughout the package:

* A mode unitary ``U`` maps the creation operator of input mode ``j`` to
  ``sum_k U[k, j] a_k^dag`` (column convention).  The single-photon sector
  of the lifted operator is therefore ``U`` itself, and lifting is a group
  homomorphism: ``lift(U @ V, N) == lift(U, N) @ lift(V, N)``.
* A Fock basis is whole photon-number sectors from high to low, each ordered
  descending-lexicographically, e.g. for two modes and two photons:
  ``(2, 0), (1, 1), (0, 2)``.  ``enumerate_basis(m, N)`` is one sector and
  ``enumerate_sectors(m, N)`` (after loss) is N down to 0.  No other basis
  is accepted, so each sector is a contiguous slice of the basis.
* Every quantum state is a ``DensityMatrix``; a pure state is the rank-one
  case ``rho = psi psi^dag``.
* ``lift_unitary`` builds each requested column by applying the input's
  creation operators to the vacuum one photon at a time (the column step of
  SLOS: Heurtel, Mansfield, Senellart & Mezher, arXiv:2206.10549).  Each step
  reads one ``_ladder`` table, the creation operators from sector n - 1 to
  sector n, in the order that ``_lift_plan`` gives each column's photons.
  No permanent and no factorial is formed, so the photon number has no cap.
  A lift whose last step and coefficients would hold more than
  ``_MAX_LIFT_BYTES`` is refused before any table is built.  ``evolve``
  lifts only the Fock columns its input occupies: every index whose row or
  column of rho holds a nonzero entry.
* ``detection.apply_loss`` is the pure-loss channel in closed form, mode by mode:
  rho -> eta^(n_k/2) [sum_l (1 - eta)^l / l! a_k^l rho a_k^dag^l] eta^(n_k/2).
  ``_lowering`` gives it every a_k^l from the ``_ladder`` tables read downwards:
  a_k |t + e_k> = gain[i, k] |t>, t state i of sector n - 1, t + e_k state up[i, k].
  Its gather is bounded by ``_MAX_LIFT_BYTES`` too, checked before ``_lowering`` runs.
* Every cached table depends only on shapes: ``_sectors`` per (modes, photon
  range), ``_ladder`` per (modes, photons), ``_lift_plan`` per (modes, photons,
  columns) and ``_lowering`` per (modes, top sector).  Each is built lazily, on
  its first call and never at import, and is immutable (tuples, or arrays
  frozen read-only), so a call pays only for its own arithmetic.
* States are checked once, where they enter.  ``DensityMatrix(basis, matrix)``
  checks everything.  ``DensityMatrix._trusted`` checks nothing and serves
  only producers whose inputs are checked objects and whose output is valid
  by construction: ``sources.noon_mixed``, ``evolve`` (which still checks the
  trace, since ``ModeUnitary`` admits a small deviation from unitarity) and
  ``detection.apply_loss``.  ``tagsim.TagStream`` follows the same rule for
  ``generate_tags`` and the stream readers.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "enumerate_basis",
    "enumerate_sectors",
    "ModeUnitary",
    "DensityMatrix",
    "lift_unitary",
    "evolve",
]

UNITARY_ATOL = 1e-10
NORM_ATOL = 1e-12
PSD_ATOL = 1e-10
# Working memory of one lift, whose last step holds (d_N + (m + 1) d_(N-1)) x columns
# complex entries besides its m x columns x N coefficients, or of one loss channel's gather.
_MAX_LIFT_BYTES = 1 << 30

Occupation = tuple[int, ...]


def _check_index(name: str, value, low: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_work_bytes(what: str, work_bytes: int) -> None:
    if work_bytes > _MAX_LIFT_BYTES:
        raise ValueError(
            f"{what} needs {work_bytes} B of working memory, above the {_MAX_LIFT_BYTES} B bound"
        )


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
    mode_count = _check_index("mode_count", mode_count, low=1)
    return list(_sectors(mode_count, _check_index("max_photon_number", max_photon_number), 0))


def _sector(basis: tuple[Occupation, ...], photon_number: int) -> slice:
    """Where sector n lies in a whole-sector basis: after the states above it; empty if absent."""
    m, high, low = len(basis[0]), sum(basis[0]), sum(basis[-1])
    if not low <= photon_number <= high:
        return slice(0)
    start = math.comb(high + m, m) - math.comb(photon_number + m, m)
    return slice(start, start + math.comb(photon_number + m - 1, photon_number))


@functools.lru_cache(maxsize=32)
def _sectors(mode_count: int, high: int, low: int) -> tuple[Occupation, ...]:
    """enumerate_basis(m, n) for n from high down to low, concatenated; cached."""
    return tuple(occ for n in range(high, low - 1, -1) for occ in enumerate_basis(mode_count, n))


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
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite operator over a Fock basis.

    The basis is whole photon-number sectors from high to low.  Its state count
    (``math.comb``) is checked before any enumeration is built, then one
    comparison with the cached enumeration, whose tuple the instance keeps.
    The constructor checks every field; only the producers named in the
    module docstring build states through ``_trusted``.
    """

    basis: tuple[Occupation, ...]
    matrix: np.ndarray

    def __post_init__(self):
        basis = tuple(map(tuple, self.basis))
        entries = [n for occ in basis for n in occ]
        integral = all(issubclass(k, np.integer) for k in {type(n) for n in entries} - {int})
        if not entries or not integral or min(entries) < 0:
            raise ValueError("basis must hold occupations that are integers >= 0")
        m, high, low = len(basis[0]), int(sum(basis[0])), int(sum(basis[-1]))
        if len(basis) != _sector(basis, low).stop or basis != _sectors(m, high, low):
            raise ValueError("basis must be whole photon-number sectors in canonical order")
        basis = _sectors(m, high, low)
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

    @classmethod
    def _trusted(cls, basis: tuple[Occupation, ...], matrix: np.ndarray) -> DensityMatrix:
        """A state with no checks: a cached ``_sectors`` basis and a valid complex128 rho."""
        state = object.__new__(cls)
        state.__dict__.update(basis=basis, matrix=matrix)
        return state

    @property
    def mode_count(self) -> int:
        return len(self.basis[0])

    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def sector_weight(self, photon_number: int) -> float:
        """Population of one photon-number sector: a contiguous slice of the diagonal."""
        n = _check_index("photon_number", photon_number)
        return float(np.sum(self.probabilities()[_sector(self.basis, n)]))


@functools.lru_cache(maxsize=64)
def _ladder(mode_count: int, photon_number: int) -> tuple[np.ndarray, np.ndarray]:
    """Creation operators from sector N - 1 to sector N, as read-only tables.

    For state i of enumerate_basis(m, N - 1) and mode k, ``up[i, k]`` is the
    index of t + e_k in enumerate_basis(m, N) and ``gain[i, k]`` is
    sqrt(t_k + 1), so a_k^dag |t> = gain[i, k] |up[i, k]>.  Cached per (m, N),
    so the arrays are frozen: a caller that wrote to them would corrupt every
    later lift.
    """
    below = _sectors(mode_count, photon_number - 1, photon_number - 1)
    index = {occ: i for i, occ in enumerate(_sectors(mode_count, photon_number, photon_number))}
    up = np.array(
        [[index[t[:k] + (t[k] + 1,) + t[k + 1 :]] for k in range(mode_count)] for t in below],
        dtype=np.intp,
    )
    gain = np.sqrt(np.array(below, dtype=float) + 1.0)
    up.setflags(write=False)
    gain.setflags(write=False)
    return up, gain


@functools.lru_cache(maxsize=32)
def _lowering(m: int, high: int) -> tuple[np.ndarray, ...]:
    """Every a_k^l / sqrt(l!) on enumerate_sectors(m, high), chained from ``_ladder`` tables:
    it maps state ``source[k, l, s]`` (s + l e_k) to s with amplitude ``weight[k, l, s]``,
    sqrt(C(s_k + l, l)), or 0 where s + l e_k lies above the top sector.  With them come the
    loss channel's exponents: ``half_l[l, 0]`` = l / 2 and ``half_n[k, s]`` = s_k / 2.
    Cached: read-only."""
    basis = _sectors(m, high, 0)
    raised, gain = np.tile(np.arange(len(basis)), (m, 1)), np.zeros((m, len(basis)))
    source, weight = [raised.copy()], [np.ones((m, len(basis)))]  # l = 0
    for n in range(1, high + 1):  # a_k^dag; the top sector keeps s, with gain 0
        up, g = _ladder(m, n)
        raised[:, _sector(basis, n - 1)] = up.T + _sector(basis, n).start
        gain[:, _sector(basis, n - 1)] = g.T
    for lost in range(1, high + 1):
        weight.append(weight[-1] * np.take_along_axis(gain, source[-1], 1) / math.sqrt(lost))
        source.append(np.take_along_axis(raised, source[-1], 1))
    half_l, half_n = np.arange(high + 1)[:, None] / 2, np.array(basis).T / 2
    tables = np.stack(source, 1), np.stack(weight, 1), half_l, half_n
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.lru_cache(maxsize=32)
def _lift_plan(m: int, n: int, columns: bytes | None) -> tuple[np.ndarray, np.ndarray]:
    """The order in which ``lift_unitary`` adds each column's photons, as read-only tables.

    ``columns`` holds the intp bytes of the lifted columns, or None for all of
    enumerate_basis(m, n).  Photon p of column c is the r-th photon put into input mode
    ``modes[c, p]``, and ``roots[c, p]`` is sqrt(r); a column's photons enter mode by mode.
    """
    basis = _sectors(m, n, n)
    cols = range(len(basis)) if columns is None else np.frombuffer(columns, dtype=np.intp)
    occupations = np.array([basis[c] for c in cols], dtype=np.intp).reshape(len(cols), m)
    modes = np.repeat(np.tile(np.arange(m), len(cols)), occupations.ravel()).reshape(len(cols), n)
    first = np.cumsum(occupations, axis=1) - occupations  # each mode's first photon
    roots = np.sqrt(np.arange(1, n + 1) - np.take_along_axis(first, modes, 1))
    modes.setflags(write=False)
    roots.setflags(write=False)
    return modes, roots


def _check_columns(columns, dim: int) -> np.ndarray:
    cols = np.asarray(columns)
    if cols.size == 0:
        return np.zeros(0, dtype=np.intp)
    if cols.ndim != 1 or cols.dtype.kind not in "iu" or cols.min() < 0 or cols.max() >= dim:
        raise ValueError(f"columns must be a 1-d array of basis indices in [0, {dim})")
    return cols


def lift_unitary(u: ModeUnitary, photon_number: int, columns=None) -> np.ndarray:
    """Lift a mode unitary to the N-photon Fock sector.

    Column S is the input state |S> = prod_j (b_j^dag)^(s_j) / sqrt(s_j!) |0>
    under U, where b_j^dag = sum_k U[k, j] a_k^dag.  Starting from the vacuum,
    the creation operators are applied one photon at a time through the
    ``_ladder`` table of each sector, with the photons of S in the order of
    its occupation; the r-th photon put into input mode j divides by sqrt(r),
    so no factorial is formed and no inclusion-exclusion sum loses digits to
    cancellation.  Cost O(N m d |columns|).

    With ``columns=None`` the result is the full d x d lift, unitary over
    enumerate_basis(m, N); otherwise it is the d x len(columns) matrix of just
    those input columns, in the order given.  Every step is elementwise across
    the columns, so they have the same bits as the matching columns of the full
    lift.  A lift is refused before any table is built if its last step, the
    largest, would hold more than ``_MAX_LIFT_BYTES`` together with the
    coefficients: the amplitudes of sectors N - 1 and N, the m terms of each
    amplitude of sector N - 1, and U[k, j] / sqrt(r) for each of the N photons.
    """
    if not isinstance(u, ModeUnitary):
        u = ModeUnitary(u)
    n = _check_index("photon_number", photon_number)
    m = u.mode_count
    d = math.comb(n + m - 1, n)
    cols = range(d) if columns is None else _check_columns(columns, d)
    last_step = d + (m + 1) * (math.comb(n + m - 2, n - 1) if n else 0)
    _check_work_bytes(f"a lift of {n} photons over {m} modes", (last_step + m * n) * len(cols) * 16)
    key = None if columns is None else cols.astype(np.intp, copy=False).tobytes()
    modes, roots = _lift_plan(m, n, key)
    coefs = u.matrix[:, modes] / roots  # (m, columns, N): U[k, j] / sqrt(r)
    amps = np.ones((1, len(cols)), dtype=complex)  # the vacuum, once per column
    for p in range(n):
        up, gain = _ladder(m, p + 1)
        terms = amps[:, None, :] * gain[:, :, None]  # (states of sector p, m, columns)
        terms *= coefs[:, :, p]
        amps = np.zeros((math.comb(p + m, m - 1), len(cols)), dtype=complex)
        np.add.at(amps, up, terms)  # amps[up[i, k]] += terms[i, k], for each i and k
        del terms  # so that the next step's terms do not overlap these
    return amps


def evolve(state: DensityMatrix, u: ModeUnitary) -> DensityMatrix:
    """Evolve a density matrix through a mode unitary.

    rho maps as ``rho -> L @ rho @ L^dag`` with ``L = lift_unitary(u, N)``.
    Only the columns of L on the state's support S are lifted:
    ``L[:, S] @ rho[S, S] @ L[:, S]^dag``, which is exact because every other
    row and column of rho is zero.  S reads whole rows and columns of rho,
    not only its diagonal, since the PSD tolerance admits a tiny coherence
    next to a zero population.  The state must be one photon-number sector.

    A congruence of a checked state stays Hermitian and PSD on the same basis,
    so only the trace is checked again: ``ModeUnitary`` admits a deviation
    from unitarity up to ``UNITARY_ATOL``, which the trace can show.
    """
    if not isinstance(u, ModeUnitary):
        u = ModeUnitary(u)
    if not isinstance(state, DensityMatrix):
        raise TypeError(f"cannot evolve object of type {type(state).__name__}")
    n = sum(state.basis[0])
    if n != sum(state.basis[-1]):
        raise ValueError("evolve requires a single photon-number sector")
    if state.mode_count != u.mode_count:
        raise ValueError("mode count mismatch between state and unitary")
    nonzero = state.matrix != 0
    s = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    lifted = lift_unitary(u, n, s)
    rho = lifted @ state.matrix[s[:, None], s] @ lifted.conj().T
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > NORM_ATOL:
        dev = np.max(np.abs(u.matrix @ u.matrix.conj().T - np.eye(u.mode_count)))
        raise ValueError(
            f"evolved trace {tr!r} is not 1 within {NORM_ATOL}: the unitary deviates from "
            f"unitarity by {dev:.3e}, which UNITARY_ATOL = {UNITARY_ATOL} admits"
        )
    return DensityMatrix._trusted(state.basis, rho)
