"""Reconstruction pipeline: compressed pair correlations to 2D spectrum.

Stages, in data-flow order:

1. block_gram: the summed Gram of the flattened compressed blocks,
   the one interface between data and estimator.  accumulate_gram folds
   simulated chunks into it one at a time, so memory does not grow with
   N_n: each chunk's Gram is a product in the blocks' own precision
   (complex64 from the simulator), added into a complex128 sum.
   pair_vectors divides by N_n and reshapes it into the averaged
   vec(z_i z_j^H) of every ordered antenna pair (pair_correlations does
   both for blocks held in memory).
2. recover_lags: the 2N_t-1 uncompressed lags of every antenna pair
   from the compressed correlations, as one (M_s, M_s, 2N_t-1) array.
   The selection-sum system has one 1 per row, so its least-squares
   solution is closed form: each lag is the mean of the coset row pairs
   that realize it.
3. assemble_all: regroup recovered lags into vec(R_y[k]), one column
   per lag.
4. recover_angular: least-squares inversion of the spatial Khatri-Rao
   system over the co-array's distinct differences, giving per-grid-angle
   lag vectors and the noise power.
5. spectrum: row-wise DFT to the joint angle-frequency power matrix.
6. find_peaks: detections (angle, frequency support, power).

spectrum_from_gram runs everything after the Gram (pair_vectors, then
stages 2-5) over a Design, the sampling design and its two system
matrices, built once;
spectrum_from_blocks wraps it for blocks held in memory.  In a run's
report.json, timings["gram_s"] holds the Gram updates, timings
["simulate_s"] the chunk generation that feeds them, and timings
["estimate_s"] everything from the Gram on.

Lag vectors use one canonical order throughout: [0, 1, .., N_t-1,
1-N_t, .., -1], i.e. lag k lives at index k mod (2N_t-1).  That is the
DFT's natural index wrap, so stage 5 is a plain FFT along rows.

No sparsity assumption appears anywhere: every solve is ordinary least
squares, feasible because the compression geometries keep the systems
full column rank (certified, not hoped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .model import AngularGrid, ArrayGeometry, ManifoldMatrices, manifold_and_kr
from .simulate import CosetPattern, SnapshotBlocks, chunk_blocks


class RankDeficiencyError(RuntimeError):
    """A reconstruction solve refused to run: its system matrix is not
    full column rank.  Carries the offending rank report or certificate."""

    def __init__(self, message: str, report: Optional[dict] = None):
        super().__init__(message)
        self.report = report or {}


@dataclass(frozen=True)
class RctMatrix:
    """Selection-sum system (C_t kron C_t) T relating compressed pair
    correlations to uncompressed lags.  Every row has exactly one 1, at
    the column of the lag realized by that coset row pair; stored as that
    column index per row.  With every row kept (C_t = I) it is the
    repetition matrix T itself, which maps a canonical lag vector to the
    column-major vec of its N_t x N_t Toeplitz matrix."""

    n_t: int
    m_t: int
    col_index: np.ndarray  # (m_t**2,) 0-based lag-column per row

    def __post_init__(self):
        idx = np.asarray(self.col_index)
        idx.flags.writeable = False
        object.__setattr__(self, "col_index", idx)

    @property
    def n_lags(self) -> int:
        return 2 * self.n_t - 1

    @property
    def pair_counts(self) -> np.ndarray:
        """Per lag column, the number of coset row pairs realizing it."""
        return np.bincount(self.col_index, minlength=self.n_lags)

    @property
    def full_column_rank(self) -> bool:
        return bool(self.pair_counts.all())

    def as_dense(self) -> np.ndarray:
        R = np.zeros((self.m_t ** 2, self.n_lags))
        R[np.arange(self.m_t ** 2), self.col_index] = 1.0
        return R

    def apply(self, lag_vector: np.ndarray) -> np.ndarray:
        """The forward map without materializing it: entry p + q*M_t is
        the lag rows[p] - rows[q] of the canonical lag vector."""
        r = np.asarray(lag_vector)
        if r.shape[-1] != self.n_lags:
            raise ValueError(f"lag vector must have length {self.n_lags}")
        return r[..., self.col_index]


def build_rct(pattern: CosetPattern) -> RctMatrix:
    """Rows of the compressed-correlation system, one per ordered coset
    row pair (p fast, q slow), each selecting lag (rows[p] - rows[q]) mod
    (2N_t-1).  Full column rank iff every lag column is hit, which the
    ruler construction guarantees."""
    rows = np.asarray(pattern.rows)
    # pair (p, q) sits at vec index p + q*m_t
    lag = (rows[:, None] - rows[None, :]) % (2 * pattern.n_t - 1)  # lag[p, q]
    return RctMatrix(n_t=pattern.n_t, m_t=pattern.m_t, col_index=lag.flatten(order="F"))


def repetition_matrix(n_t: int) -> RctMatrix:
    """The repetition matrix T: build_rct of the pattern keeping every row."""
    return build_rct(CosetPattern(n_t, tuple(range(n_t))))


@dataclass(frozen=True, eq=False)
class Design:
    """Everything estimation needs that depends only on the sampling
    design, resolved once: the array geometry, angular grid and coset
    pattern, plus the two system matrices built from them."""

    geometry: ArrayGeometry
    grid: AngularGrid
    pattern: CosetPattern
    manifold: ManifoldMatrices = field(init=False)
    rct: RctMatrix = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "manifold", manifold_and_kr(self.geometry, self.grid))
        object.__setattr__(self, "rct", build_rct(self.pattern))


def block_gram(blocks: np.ndarray) -> np.ndarray:
    """Sum over blocks of vec(z) vec(z)^H for (N_n, M_s, M_t) blocks, one
    deterministic matrix product.  Row and column (i, a) sit at index
    i*M_t + a, so entry [(i,a), (j,b)] = sum_n z_i[n][a] conj(z_j[n][b])."""
    n_blocks, m_s, m_t = blocks.shape
    w = blocks.reshape(n_blocks, m_s * m_t)
    return w.T @ w.conj()


def accumulate_gram(chunks: Iterable[np.ndarray]):
    """Fold (blocks, M_s, M_t) chunks into one running block_gram;
    returns (gram, block count).  Only one chunk is held at a time.
    Each chunk's Gram is computed in the chunk's precision and summed in
    complex128, so rounding does not build up over the chunks.  Raises
    ValueError when a chunk is not a (blocks, M_s, M_t) array of the
    first chunk's M_s and M_t (the message names the shape expected),
    when the chunks hold no block, and when the sum is not finite, as
    when a chunk's complex64 products overflow (block values of order
    1e17 and up); the overflow itself is not warned of."""
    gram, n_blocks, width = None, 0, None
    for chunk in chunks:
        if np.ndim(chunk) != 3 or (width is not None and chunk.shape[1:] != width):
            known = "" if width is None else f" = (blocks, {width[0]}, {width[1]})"
            shape = np.shape(chunk)
            raise ValueError(f"chunk of shape {shape} is not (blocks, M_s, M_t){known}")
        width = chunk.shape[1:]
        with np.errstate(over="ignore", invalid="ignore"):
            if gram is None:
                gram = block_gram(chunk).astype(np.complex128)
            else:
                gram += block_gram(chunk)
        n_blocks += chunk.shape[0]
    if n_blocks == 0:
        raise ValueError("no blocks to correlate")
    if not np.isfinite(gram).all():
        raise ValueError("the blocks' Gram is not finite")
    return gram, n_blocks


def pair_vectors(gram: np.ndarray, n_blocks: int, m_t: int) -> np.ndarray:
    """Averaged vectorized pair correlations from a block_gram, shape
    (M_s, M_s, M_t**2).

    Entry [i, j, a + b*M_t] = (1/N_n) sum_n z_i[n][a] * conj(z_j[n][b]),
    i.e. vec(R_hat_{z_i,z_j}) column-major.
    """
    if not n_blocks >= 1:
        raise ValueError("n_blocks must be >= 1")
    size = gram.shape[0]
    if gram.shape != (size, size) or size % m_t:
        raise ValueError(f"gram must be square with a multiple of M_t={m_t} rows")
    m_s = size // m_t
    quad = gram.reshape(m_s, m_t, m_s, m_t)
    return quad.transpose(0, 2, 3, 1).reshape(m_s, m_s, m_t * m_t) / n_blocks


def pair_correlations(snapshots: SnapshotBlocks) -> np.ndarray:
    """pair_vectors of the blocks' Gram, shape (M_s, M_s, M_t**2)."""
    z = snapshots.blocks
    return pair_vectors(block_gram(z), z.shape[0], z.shape[2])


def recover_lags(rct: RctMatrix, pair_vecs: np.ndarray) -> np.ndarray:
    """Least-squares lag recovery for every antenna pair at once, shape
    (M_s, M_s, 2N_t-1): entry [i, j, l] estimates E[y_i[t+k] conj(y_j[t])]
    for the lag k at canonical index l.

    Each row of the selection-sum matrix holds a single 1, so its normal
    equations are diagonal: the least-squares lag is the mean of the
    compressed pair entries that realize it, i.e. per-lag sums divided by
    per-lag pair counts.  Refuses to run when some lag has no pair, where
    the system is rank deficient (a coset design failure, not a data
    problem).
    """
    counts = rct.pair_counts
    if not counts.all():
        missing = np.flatnonzero(counts == 0).tolist()
        raise RankDeficiencyError(
            f"selection-sum matrix misses lag columns {missing}; "
            "choose coset rows covering all lags (ruler construction)",
            report={"missing_lag_columns": missing},
        )
    pair_vecs = np.asarray(pair_vecs)
    m_s = pair_vecs.shape[0]
    if pair_vecs.shape != (m_s, m_s, rct.m_t ** 2):
        raise ValueError("pair_vecs must have shape (M_s, M_s, M_t**2)")
    values = _group_means(pair_vecs.reshape(m_s * m_s, -1).T, rct.col_index, counts).T
    return values.reshape(m_s, m_s, rct.n_lags)


def _group_means(values: np.ndarray, index: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of the rows of ``values`` in each group: row r belongs to group
    index[r], and group g has counts[g] > 0 rows."""
    order = np.argsort(index, kind="stable")
    starts = np.cumsum(counts) - counts
    sums = np.add.reduceat(values[order], starts, axis=0)
    return sums / counts.reshape((-1,) + (1,) * (values.ndim - 1))


def assemble_all(corr: np.ndarray) -> np.ndarray:
    """vec(R_y[k]) for every lag from recover_lags' (M_s, M_s, 2N_t-1)
    array, shape (M_s**2, 2N_t-1): column l is the lag at canonical index
    l, column-major, so entry i + j*M_s is r_{y_i,y_j}[k].  This is exactly
    the row order the Khatri-Rao matrix assumes."""
    m_s, _, n_lags = corr.shape
    return corr.transpose(1, 0, 2).reshape(m_s * m_s, n_lags)


@dataclass(frozen=True)
class AngularRecovery:
    """Per-grid-angle lag vectors (rows) plus the noise power estimate."""

    source_lags: np.ndarray  # (Q, 2*n_t - 1), canonical lag order
    sigma_n_hat: float
    residual_norms: np.ndarray  # per-lag LS residuals
    noise_path: str  # "known", "augmented" or "white-floor"

    def __post_init__(self):
        for name in ("source_lags", "residual_norms"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _white_floor_power(raw_lags: np.ndarray) -> float:
    """Per-angle share of the spatially white power in a raw solve.

    When the noise column vec(I) lies in the span of the Khatri-Rao
    columns (exact for half-wavelength spacing, a complete co-array, and
    the uniform-sine grid), a spatially white field is indistinguishable
    from power spread evenly over all grid angles, so the lag-0 solve
    returns source powers plus a common floor of sigma_n^2/Q.  The floor
    is read off the joint spectral field of the unsubtracted solution:
    a source-free grid cell's row transforms to a flat line at exactly
    the floor level, and a source cell's bins sit at floor plus its
    (nonnegative) power spectrum, so the field's median equals the floor
    whenever at least half the angle-frequency plane is source-free.
    The median also shrugs off the leakage sidelobes of off-grid sources,
    which corrupt any single-cell reading in both directions.  With no
    source-free cell the noise power is overestimated; that is the
    unavoidable identifiability limit of this geometry.
    """
    field = np.real(np.fft.fft(raw_lags, axis=1))
    return float(np.median(field))


def recover_angular(
    manifold: ManifoldMatrices,
    vec_ry: np.ndarray,
    noise_mode: str = "estimate",
    noise_variance: Optional[float] = None,
) -> AngularRecovery:
    """Least-squares inversion of the spatial Khatri-Rao system for every
    lag.

    ``vec_ry`` has one column per canonical lag index.  KR rows of equal
    mark difference are equal, so least squares over KR is least squares
    over the distinct differences, weighted by sqrt(diff_counts), of the
    data averaged within each difference.  Lag 0 carries the
    additive-noise term sigma_n^2 vec(I), whose average is the
    difference-0 indicator.

    noise_mode="known" subtracts noise_variance * vec(I) from the lag-0
    column before solving.  noise_mode="estimate" estimates the noise
    power jointly: through the augmented system [KR | vec(I)] when that
    matrix has full column rank, otherwise (the noise column lying in the
    Khatri-Rao span, which half-wavelength spacing with a complete
    co-array and the uniform-sine grid produces exactly) by attributing
    the common spatially-white floor of the lag-0 solution to noise; see
    _white_floor_power for the convention and its identifiability caveat.
    ``residual_norms`` are those of the full KR system: within-difference
    scatter plus the weighted reduced residual.
    """
    m2, q_count = manifold.KR.shape
    vec_ry = np.asarray(vec_ry)
    if vec_ry.ndim == 1:
        vec_ry = vec_ry[:, None]
    if vec_ry.shape[0] != m2:
        raise ValueError(f"vec_ry must have {m2} rows")
    info = manifold.rank_info
    if info["rank"] < q_count:
        raise RankDeficiencyError(
            f"Khatri-Rao matrix rank {info['rank']} < Q={q_count}; "
            "certify the geometry before estimating",
            report=info,
        )

    index, counts = manifold.diff_index, manifold.diff_counts
    means = _group_means(vec_ry.astype(complex), index, counts)
    scatter = np.sum(np.abs(vec_ry - means[index]) ** 2, axis=0)
    weight = np.sqrt(counts)
    A = weight[:, None] * manifold.reduced
    noise_col = weight * _group_means(manifold.noise_column, index, counts)
    rhs = weight[:, None] * means
    if noise_mode == "known":
        if noise_variance is None or not np.isfinite(noise_variance):
            raise ValueError("noise_mode='known' requires a finite noise_variance")
        noise_path, sigma_hat = "known", float(noise_variance)
        rhs[:, 0] -= sigma_hat * noise_col
    elif noise_mode != "estimate":
        raise ValueError("noise_mode must be 'known' or 'estimate'")
    elif info["augmented_rank"] == q_count + 1:
        # lag 0 less the joint noise term refits to the augmented solve
        aug = np.linalg.lstsq(np.column_stack([A, noise_col]), rhs[:, 0], rcond=None)[0]
        noise_path, sigma_hat = "augmented", float(np.real(aug[q_count]))
        rhs[:, 0] -= aug[q_count] * noise_col
    else:
        noise_path = "white-floor"
    x = np.linalg.lstsq(A, rhs, rcond=None)[0]
    resid = np.sqrt(scatter + np.sum(np.abs(rhs - A @ x) ** 2, axis=0))
    if noise_path == "white-floor":
        floor = _white_floor_power(x)
        sigma_hat = q_count * floor
        x[:, 0] -= floor
    return AngularRecovery(x, sigma_hat, resid, noise_path)


@dataclass(frozen=True)
class SpectrumMatrix:
    """Joint angle-frequency power estimate.

    values[q, k] is the power of grid angle q in DFT bin k (natural bin
    order); freq_grid maps bin k to its angular frequency 2*pi*k/(2N_t-1)
    re-centered to (-pi, pi].  In expectation entries are real and
    nonnegative; finite-sample estimates carry imaginary and negative
    residue, which only display paths clamp.
    """

    values: np.ndarray  # (Q, 2*n_t - 1) complex
    angle_grid: AngularGrid
    freq_grid: np.ndarray  # (2*n_t - 1,)
    sigma_n_hat: float

    def __post_init__(self):
        for name in ("values", "freq_grid"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def clamped_real(self) -> np.ndarray:
        """Display form: real part, negatives clamped to zero."""
        return np.maximum(np.real(self.values), 0.0)


def spectrum(
    source_lags: np.ndarray,
    angle_grid: AngularGrid,
    sigma_n_hat: float = float("nan"),
) -> SpectrumMatrix:
    """Row-wise forward DFT of the recovered lag vectors.

    The canonical lag order coincides with the DFT's natural index wrap,
    so no reordering is needed: bin k of row q is
    sum_m r_q[m] exp(-2j pi m k / (2N_t-1)).
    """
    lags = np.asarray(source_lags)
    if lags.ndim != 2 or lags.shape[0] != angle_grid.q_count:
        raise ValueError("source_lags must be (Q, 2N_t-1)")
    n_bins = lags.shape[1]
    values = np.fft.fft(lags, axis=1)
    freqs = 2 * np.pi * np.arange(n_bins) / n_bins
    freqs = np.where(freqs > np.pi, freqs - 2 * np.pi, freqs)
    return SpectrumMatrix(
        values=values,
        angle_grid=angle_grid,
        freq_grid=freqs,
        sigma_n_hat=float(sigma_n_hat),
    )


def spectrum_from_gram(
    design: Design,
    gram: np.ndarray,
    n_blocks: int,
    noise_mode: str,
    noise_variance: float,
):
    """The whole estimator, stages 1-5: the summed block Gram of N_n
    compressed blocks to (AngularRecovery, SpectrumMatrix).
    ``noise_variance`` is the configured one; it reaches the angular
    solve only when ``noise_mode`` is "known".  Raises ValueError on a
    Gram that is not finite or not (M_s*M_t) x (M_s*M_t) for the design."""
    gram = np.asarray(gram)
    width = design.geometry.m_active * design.pattern.m_t
    if gram.shape != (width, width):
        raise ValueError(f"gram must be {width} x {width} (M_s*M_t) for this design")
    if not np.isfinite(gram).all():
        raise ValueError("gram must be finite")
    corr = recover_lags(design.rct, pair_vectors(gram, n_blocks, design.pattern.m_t))
    rec = recover_angular(
        design.manifold,
        assemble_all(corr),
        noise_mode=noise_mode,
        noise_variance=noise_variance if noise_mode == "known" else None,
    )
    return rec, spectrum(rec.source_lags, design.grid, rec.sigma_n_hat)


def spectrum_from_blocks(
    design: Design,
    blocks: SnapshotBlocks,
    noise_mode: str,
    noise_variance: float,
):
    """spectrum_from_gram over blocks held in memory, folded as a run
    folds block_chunks' chunks, so both give the same Gram."""
    z = blocks.blocks
    per = chunk_blocks(design.pattern.n_t)
    gram, n_blocks = accumulate_gram(z[i : i + per] for i in range(0, len(z), per))
    return spectrum_from_gram(design, gram, n_blocks, noise_mode, noise_variance)


@dataclass(frozen=True)
class Detection:
    """One detected source region."""

    grid_index: int
    angle: float  # radians
    rows: tuple  # grid indices contributing frequency support
    bands: tuple  # ((f_lo, f_hi), ...) in rad/sample, bin-center edges
    total_power: float


def find_peaks(
    spec: SpectrumMatrix,
    power_fraction_threshold: float = 0.35,
) -> list:
    """Detections: local maxima of the clamped angular marginal.

    The marginal sums the clamped spectrum over frequency.  A grid index
    is a peak when its marginal strictly exceeds the left neighbor and is
    at least the right one (plateaus report their lowest index) and
    reaches the threshold fraction of the marginal's maximum.  Each
    detection's frequency support combines the peak row with adjacent
    above-threshold rows (an off-grid source splits power between the two
    nearest grid points) and keeps bins at the same fraction of the
    combined row's maximum, grouped into contiguous bands.
    """
    if not (0 < power_fraction_threshold <= 1):
        raise ValueError("power_fraction_threshold must be in (0, 1]")
    clamped = spec.clamped_real()
    marginal = clamped.sum(axis=1)
    peak_floor = power_fraction_threshold * marginal.max() if marginal.size else 0.0
    if peak_floor <= 0:
        return []
    q_count = marginal.size
    order = np.argsort(spec.freq_grid, kind="stable")
    detections = []
    for q in range(q_count):
        left = marginal[q - 1] if q > 0 else -np.inf
        right = marginal[q + 1] if q + 1 < q_count else -np.inf
        if not (marginal[q] > left and marginal[q] >= right):
            continue
        if marginal[q] < peak_floor:
            continue
        rows = [q]
        for nb in (q - 1, q + 1):
            if 0 <= nb < q_count and marginal[nb] >= peak_floor:
                rows.append(nb)
        rows = tuple(sorted(rows))
        combined = clamped[list(rows)].sum(axis=0)
        bin_floor = power_fraction_threshold * combined.max()
        keep = combined >= bin_floor if bin_floor > 0 else np.zeros_like(combined, bool)
        bands = _contiguous_bands(keep[order], spec.freq_grid[order])
        detections.append(
            Detection(
                grid_index=q,
                angle=float(spec.angle_grid.angles[q]),
                rows=rows,
                bands=bands,
                total_power=float(marginal[list(rows)].sum()),
            )
        )
    return detections


def _contiguous_bands(keep: np.ndarray, freqs: np.ndarray) -> tuple:
    """Runs of kept bins as (first, last) bin-center frequencies."""
    bands = []
    start = None
    for idx, flag in enumerate(keep):
        if flag and start is None:
            start = idx
        elif not flag and start is not None:
            bands.append((float(freqs[start]), float(freqs[idx - 1])))
            start = None
    if start is not None:
        bands.append((float(freqs[start]), float(freqs[-1])))
    return tuple(bands)
