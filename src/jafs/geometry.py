"""Compression-geometry design and certification.

Sparse rulers drive both kinds of compression used in this package: the
active-antenna selection on the underlying uniform linear array, and the
row selection of the multi-coset time sampler.  This module finds and
validates rulers, generates the classic nested/coprime mark sets, builds
exact difference sets, and certifies the two sufficient full-column-rank
conditions for the spatial Khatri-Rao system.

Differences are kept as exact rationals (integer mark times the spacing),
so distinctness and modular-residue tests are exact rather than floating
point.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence, Union

SpacingLike = Union[int, float, str, Fraction]

#: Verified covering rulers of best-known cardinality, for lengths beyond
#: the exhaustive-search limit.  Each entry has been checked against
#: :func:`validate_ruler`; cardinalities match the published minima.
KNOWN_RULERS = {
    35: (0, 1, 4, 10, 16, 22, 28, 30, 33, 35),
    83: (0, 1, 2, 4, 9, 19, 29, 39, 49, 59, 69, 72, 75, 80, 81, 83),
}

#: Largest length for which the search proves minimality by complete
#: enumeration.
EXHAUSTIVE_LIMIT = 13

# Search nodes the shrinking search above the exhaustive limit may visit,
# shared by all its rounds; when they run out the best ruler so far stands.
_SHRINK_BUDGET = 5_000_000


@dataclass(frozen=True)
class RulerSolution:
    """A sparse ruler: marks in ``[0, length]`` whose pairwise differences
    cover every integer lag ``1..length``."""

    length: int
    marks: tuple
    minimal: bool = False

    def __post_init__(self):
        marks = tuple(sorted(set(int(m) for m in self.marks)))
        object.__setattr__(self, "marks", marks)
        if not validate_ruler(marks, self.length):
            raise ValueError(
                f"marks {marks} do not form a valid length-{self.length} ruler"
            )

    @property
    def cardinality(self) -> int:
        return len(self.marks)


@dataclass(frozen=True)
class DifferenceSet:
    """All ordered pairwise differences ``(m_i - m_j) * spacing``.

    ``values`` is a multiset (length ``M**2`` for ``M`` marks) of exact
    rationals in wavelengths.  It is symmetric about zero and contains
    zero with multiplicity ``M``.
    """

    values: tuple

    def unique(self) -> tuple:
        """Distinct difference values, sorted ascending."""
        return tuple(sorted(set(self.values)))


@dataclass(frozen=True)
class RankCertificate:
    """Outcome of one full-column-rank condition check.

    ``criterion`` names the condition checked: ``"virtual-ula"`` for the
    arithmetic-run condition (a contiguous virtual ULA inside the
    difference set) or ``"sine-grid-residues"`` for the distinct-residue
    condition that applies with the uniform-sine angle grid.  ``witness``
    carries the measured quantity backing the verdict.
    """

    passed: bool
    criterion: str
    witness: dict = field(default_factory=dict)


def _as_fraction(spacing: SpacingLike) -> Fraction:
    """Exact rational spacing.  Floats convert via their binary expansion,
    so pass spacings that are exactly representable (0.5, 0.25, ...) or a
    string/Fraction for anything else."""
    if isinstance(spacing, Fraction):
        return spacing
    if isinstance(spacing, float):
        return Fraction(*spacing.as_integer_ratio())
    return Fraction(spacing)


def validate_ruler(marks: Iterable[int], length: int) -> bool:
    """True iff every lag ``1..length`` equals a difference of two marks.

    Marks must lie within ``[0, length]``; anything outside is rejected
    with ``ValueError`` rather than counted as coverage.
    """
    ms = sorted(set(int(m) for m in marks))
    if length < 1:
        raise ValueError("ruler length must be >= 1")
    if ms and (ms[0] < 0 or ms[-1] > length):
        raise ValueError(f"marks must lie in [0, {length}]")
    seen = set()
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            seen.add(b - a)
    return all(lag in seen for lag in range(1, length + 1))


def _min_cardinality_lower_bound(length: int) -> int:
    # k marks give at most k(k-1)/2 distinct positive lags
    k = 2
    while k * (k - 1) // 2 < length:
        k += 1
    return k


def _least_minimal_ruler(length: int) -> tuple:
    """Lexicographically least ruler of minimum cardinality: interior
    marks enumerated in lexicographic order, fewest marks first."""
    for k in itertools.count(_min_cardinality_lower_bound(length)):
        for interior in itertools.combinations(range(1, length), k - 2):
            marks = (0,) + interior + (length,)
            if validate_ruler(marks, length):
                return marks


def _greedy_ruler(length: int) -> tuple:
    """Valid ruler by repeatedly adding the mark that covers the most
    still-missing lags (ties to the smallest position)."""
    marks = [0, length]
    covered = {length}
    while len(covered) < length:
        best_gain, best_pos = -1, None
        for pos in range(1, length):
            if pos in marks:
                continue
            gain = len({abs(pos - m) for m in marks} - covered)
            if gain > best_gain:
                best_gain, best_pos = gain, pos
        covered |= {abs(best_pos - m) for m in marks}
        marks.append(best_pos)
        marks.sort()
    return tuple(marks)


def _gap_search(length: int, k: int, budget: list) -> Optional[tuple]:
    """Existence search for a k-mark ruler, branching on the largest
    uncovered lag.  Complete for the given k but not lexicographically
    ordered; used above the exhaustive limit.  ``budget`` is a
    single-element node counter; once it runs out every node fails, so
    an exhausted search returns None."""

    def dfs(marks: frozenset, covered: frozenset) -> Optional[tuple]:
        budget[0] -= 1
        if budget[0] < 0:
            return None
        missing = [g for g in range(1, length + 1) if g not in covered]
        if not missing:
            return tuple(sorted(marks))
        left = k - len(marks)
        if left <= 0:
            return None
        if len(missing) > left * len(marks) + left * (left - 1) // 2:
            return None
        g = max(missing)
        cands = set()
        for m in marks:
            if m + g <= length and m + g not in marks:
                cands.add(m + g)
            if m - g >= 0 and m - g not in marks:
                cands.add(m - g)
        scored = sorted(
            cands,
            key=lambda p: (-len({abs(p - m) for m in marks} - covered), p),
        )
        for p in scored:
            res = dfs(
                marks | {p},
                covered | frozenset(abs(p - m) for m in marks),
            )
            if res is not None:
                return res
        return None

    return dfs(frozenset({0, length}), frozenset({length}))


@functools.cache
def solve_sparse_ruler(length: int) -> RulerSolution:
    """Find a sparse ruler covering lags ``1..length``.

    For ``length <= EXHAUSTIVE_LIMIT`` the search is complete: the result
    has provably minimum cardinality and is the lexicographically least
    such mark set.  For longer rulers a curated table of verified
    best-known solutions is consulted first, then a greedy construction
    is shrunk one mark at a time by a branch-and-bound search until it
    fails or its node budget runs out; the result is always valid but
    minimality is not claimed.  Each length is solved once per process
    and the frozen result reused.  To use given marks, construct
    :class:`RulerSolution` directly, which validates them.
    """
    if length < 1:
        raise ValueError("ruler length must be >= 1")
    if length in KNOWN_RULERS:
        return RulerSolution(length, KNOWN_RULERS[length])
    if length <= EXHAUSTIVE_LIMIT:
        return RulerSolution(length, _least_minimal_ruler(length), minimal=True)

    # above the exhaustive limit: greedy start, then try to shrink
    best = _greedy_ruler(length)
    budget = [_SHRINK_BUDGET]
    while len(best) > _min_cardinality_lower_bound(length):
        smaller = _gap_search(length, len(best) - 1, budget)
        if smaller is None:
            break
        best = smaller
    return RulerSolution(length, best)


def generate_nested(n1: int, n2: int) -> tuple:
    """Two-level nested mark set, shifted so the smallest mark is 0.

    Inner level ``{1..n1}``, outer level ``{k(n1+1) : k=1..n2}``.  The
    difference co-array of the result is a contiguous run of integers.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("nested levels must be >= 1")
    raw = sorted(set(range(1, n1 + 1)) | {k * (n1 + 1) for k in range(1, n2 + 1)})
    lo = raw[0]
    return tuple(m - lo for m in raw)


def generate_coprime(m: int, n: int) -> tuple:
    """Coprime mark set ``{m*i : i<n} U {n*j : j<m}`` (deduplicated).

    ``m`` and ``n`` must be coprime, otherwise the interleaved grids
    share factors and the construction loses its coverage guarantees.
    """
    if m < 1 or n < 1:
        raise ValueError("coprime factors must be >= 1")
    if gcd(m, n) != 1:
        raise ValueError(f"({m}, {n}) are not coprime")
    return tuple(sorted({m * i for i in range(n)} | {n * j for j in range(m)}))


def difference_set(marks: Iterable[int], spacing: SpacingLike) -> DifferenceSet:
    """All ordered differences ``(m_i - m_j) * spacing`` as exact rationals.

    The result has exactly ``len(marks)**2`` entries counting multiplicity
    and is symmetric about zero.
    """
    ms = tuple(int(m) for m in marks)
    if not ms:
        raise ValueError("marks must be nonempty")
    d = _as_fraction(spacing)
    values = tuple((mi - mj) * d for mi, mj in itertools.product(ms, ms))
    return DifferenceSet(values=values)


def longest_run(values: Sequence, step) -> tuple:
    """``(start, length)`` of the longest run of consecutive terms with
    common difference ``step`` in the sorted, distinct ``values``; the
    first such run wins ties."""
    best_start, best_len = values[0], 1
    run_start, run_len = values[0], 1
    for prev, cur in zip(values, values[1:]):
        if cur - prev == step:
            run_len += 1
        else:
            run_start, run_len = cur, 1
        if run_len > best_len:
            best_start, best_len = run_start, run_len
    return best_start, best_len


def check_virtual_ula(
    diffset: DifferenceSet, q_count: int, step: SpacingLike
) -> RankCertificate:
    """Arithmetic-run rank condition for the spatial Khatri-Rao system.

    Passes when the deduplicated difference set contains an arithmetic
    run of at least ``q_count`` terms with common difference ``step``
    (the array spacing, at most half a wavelength).  Such a run is a
    virtual ULA with one element per term, and the corresponding rows of
    the Khatri-Rao matrix form a full-column-rank Vandermonde block for
    any ``q_count`` distinct angles.
    """
    if q_count < 1:
        raise ValueError("q_count must be >= 1")
    d = _as_fraction(step)
    if d <= 0 or d > Fraction(1, 2):
        raise ValueError("step must lie in (0, 1/2] wavelengths")
    best_start, best_len = longest_run(diffset.unique(), d)
    return RankCertificate(
        passed=best_len >= q_count,
        criterion="virtual-ula",
        witness={
            "run_length": best_len,
            "run_start": float(best_start),
            "required": q_count,
        },
    )


def check_sine_grid_residues(diffset: DifferenceSet, q_count: int) -> RankCertificate:
    """Distinct-residue rank condition, valid with the uniform-sine grid.

    On that grid the Khatri-Rao rows are geometric progressions whose
    ratios depend on the pairwise antenna differences modulo ``q/2``
    wavelengths; at least ``q_count`` distinct residues make ``q_count``
    of these rows a full-rank Vandermonde system.  The modulus is exact
    rational arithmetic, so equal residues are detected exactly.
    """
    if q_count < 1:
        raise ValueError("q_count must be >= 1")
    modulus = Fraction(q_count, 2)
    residues = {v % modulus for v in diffset.values}
    return RankCertificate(
        passed=len(residues) >= q_count,
        criterion="sine-grid-residues",
        witness={"distinct_residues": len(residues), "required": q_count},
    )
