"""Array-manifold and angular-grid mathematics.

Builds steering vectors on the active (selected) antennas of an
underlying half-wavelength-at-most ULA, the manifold matrix B over an
angular grid, and the self-conjugate Khatri-Rao product conj(B) (col) B
whose columns multiply the per-source powers in the vectorized spatial
covariance.  Row order of the Khatri-Rao matrix follows column-major
vectorization of the covariance: row v pairs antenna i = v mod M_s with
antenna j = v // M_s and carries exp(j*(d_i - d_j)*2*pi*sin(theta)),
so pairs with equal mark differences give equal rows (the co-array).

Angles are radians everywhere inside the package; degrees appear only at
I/O boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import longest_run


@dataclass(frozen=True)
class ArrayGeometry:
    """Active-antenna selection on an underlying N_s-element ULA.

    ``active_marks`` are indices into the underlying array; physical
    positions are ``mark * spacing_d`` wavelengths.  Spacing above half a
    wavelength would alias in angle and is rejected.
    """

    n_underlying: int
    spacing_d: float
    active_marks: tuple

    def __post_init__(self):
        marks = tuple(sorted(int(m) for m in self.active_marks))
        object.__setattr__(self, "active_marks", marks)
        if self.n_underlying < 1:
            raise ValueError("underlying array must have at least one element")
        if len(set(marks)) != len(marks):
            raise ValueError("active marks must be distinct")
        if marks and (marks[0] < 0 or marks[-1] >= self.n_underlying):
            raise ValueError(f"active marks must lie in [0, {self.n_underlying - 1}]")
        if not marks:
            raise ValueError("at least one active antenna required")
        d = float(self.spacing_d)
        if not (0.0 < d <= 0.5):
            raise ValueError("spacing must lie in (0, 0.5] wavelengths")

    @property
    def m_active(self) -> int:
        return len(self.active_marks)

    @property
    def positions(self) -> np.ndarray:
        """Active-antenna positions in wavelengths."""
        return np.asarray(self.active_marks, dtype=float) * float(self.spacing_d)


@dataclass(frozen=True)
class AngularGrid:
    """Q candidate arrival angles, radians, strictly increasing.

    The closed interval [-pi/2, pi/2] is allowed: the uniform-sine grid
    with even Q places its first point exactly at -pi/2.
    """

    q_count: int
    angles: np.ndarray

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=float)
        if ang.ndim != 1 or ang.size != self.q_count:
            raise ValueError("angles must be a length-Q vector")
        if not np.all((ang >= -np.pi / 2) & (ang <= np.pi / 2)):
            raise ValueError("angles must lie in [-pi/2, pi/2] radians")
        if ang.size > 1 and np.any(np.diff(ang) <= 0):
            raise ValueError("angles must be strictly increasing")
        ang.flags.writeable = False
        object.__setattr__(self, "angles", ang)


@dataclass(frozen=True)
class ManifoldMatrices:
    """Manifold B (M_s x Q), its self-conjugate Khatri-Rao product
    (M_s^2 x Q), the vectorized identity that multiplies the noise power
    in the covariance model, and the rank report of [KR | noise_column]
    (see rank_report), computed once with the matrices.  ``reduced`` is
    KR's first row for each distinct mark difference, in increasing
    order; row v of KR has difference diff_index[v], and diff_counts is
    the co-array weight function (KR rows per difference)."""

    B: np.ndarray
    KR: np.ndarray
    noise_column: np.ndarray
    rank_info: dict
    reduced: np.ndarray
    diff_index: np.ndarray
    diff_counts: np.ndarray

    def __post_init__(self):
        for name in ("B", "KR", "noise_column", "reduced", "diff_index", "diff_counts"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def inverse_sin_grid(q_count: int) -> AngularGrid:
    """Uniform-in-sine angular grid: theta_q = asin((2/Q)(q - 1 - ceil((Q-1)/2)))
    for q = 1..Q.  Odd Q gives a grid symmetric about broadside and
    containing 0; the sines are consecutive multiples of 2/Q.
    """
    if q_count < 1:
        raise ValueError("grid needs at least one angle")
    offset = q_count // 2  # ceil((Q-1)/2)
    idx = np.arange(q_count) - offset
    angles = np.arcsin(2.0 * idx / q_count)
    return AngularGrid(q_count=q_count, angles=angles)


def steering_vector(theta: float, positions: Sequence[float]) -> np.ndarray:
    """Narrowband steering vector exp(j*2*pi*sin(theta)*position)."""
    pos = np.asarray(positions, dtype=float)
    return np.exp(2j * np.pi * np.sin(theta) * pos)


def manifold_and_kr(geometry: ArrayGeometry, grid: AngularGrid) -> ManifoldMatrices:
    """Manifold over the grid and its self-conjugate Khatri-Rao product.

    Column q of KR is kron(conj(b_q), b_q), so row v = i + j*M_s holds
    exp(j*(d_i - d_j)*2*pi*sin(theta_q)): the order produced by
    column-major vectorization of the spatial covariance.
    """
    m = geometry.m_active
    B = np.exp(2j * np.pi * np.outer(geometry.positions, np.sin(grid.angles)))
    KR = (B.conj()[:, None, :] * B[None, :, :]).reshape(m * m, grid.q_count)
    noise_column = np.eye(m).flatten(order="F")
    _, first, index, counts = _mark_differences(geometry)
    rank_info = rank_report(KR, noise_column)
    return ManifoldMatrices(B, KR, noise_column, rank_info, KR[first], index, counts)


def _mark_differences(geometry: ArrayGeometry):
    """np.unique of the mark differences m_i - m_j in KR's row order
    v = i + j*M_s: (distinct differences, first row of each, difference
    of each row, rows per difference)."""
    marks = np.asarray(geometry.active_marks)
    diffs = (marks[:, None] - marks[None, :]).flatten(order="F")
    return np.unique(diffs, return_index=True, return_inverse=True, return_counts=True)


def rank_report(KR: np.ndarray, noise_column: Optional[np.ndarray] = None) -> dict:
    """Numerical rank and 2-norm condition number of the Khatri-Rao matrix.

    Singular values below s_max * max(shape) * eps * 64 count as zero; the
    factor is generous for unit-modulus matrices whose defects are far
    below or far above it.  With ``noise_column`` supplied, also reports
    the rank of the augmented matrix used for joint noise-power
    estimation.
    """
    A = np.asarray(KR)
    s = np.linalg.svd(A, compute_uv=False)
    tol = s[0] * max(A.shape) * np.finfo(float).eps * 64 if s.size else 0.0
    rank = int(np.sum(s > tol))
    cond = float(s[0] / s[-1]) if s.size and s[-1] > 0 else float("inf")
    report = {"rank": rank, "condition_number": cond, "tolerance": float(tol)}
    if noise_column is not None:
        aug = np.column_stack([A, np.asarray(noise_column).reshape(-1)])
        sa = np.linalg.svd(aug, compute_uv=False)
        tola = sa[0] * max(aug.shape) * np.finfo(float).eps * 64
        report["augmented_rank"] = int(np.sum(sa > tola))
    return report


def virtual_ula_row_indices(geometry: ArrayGeometry, q_count: int) -> np.ndarray:
    """Row indices into KR selecting one row per virtual-ULA element.

    Searches the deduplicated pairwise mark differences for the longest
    run of consecutive integers and returns, for q_count of them, the
    first covariance-vector index v = i + j*M_s realizing each
    difference (the row ManifoldMatrices.reduced keeps).  On the
    uniform-sine grid with half-wavelength spacing these rows form a
    (scaled, row-permuted) DFT matrix.
    """
    values, first, _, _ = _mark_differences(geometry)
    best_start, best_len = longest_run(values.tolist(), 1)
    if best_len < q_count:
        raise ValueError(f"virtual ULA has {best_len} elements, need {q_count}")
    # center the window on the run (keeps the zero difference inside
    # when the run is symmetric)
    start = best_start + (best_len - q_count) // 2
    return first[np.searchsorted(values, np.arange(start, start + q_count))]
