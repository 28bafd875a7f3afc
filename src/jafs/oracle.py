"""Closed-form ground truth for tests.

Everything here is computed by direct summation in double precision, so
the oracle shares no solver or FFT path with the estimator it checks.
The one deliberate exception is the FIR design: the taps define what the
sources are, so the oracle must use the same ones.

Lag vectors follow the package-wide canonical order [0 .. N_t-1,
1-N_t .. -1] (lag k at index k mod (2N_t-1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import estimate as _est
from .model import AngularGrid, ArrayGeometry
from .simulate import (
    CosetPattern,
    SourceSpec,
    block_chunks,
    design_bandpass,
)


def true_source_autocorr(taps: Sequence[complex], variance: float) -> np.ndarray:
    """Exact autocorrelation of white noise with the given power pushed
    through ``taps``: r[m] = variance * sum_n taps[n+m] * conj(taps[n]).

    Returns the canonical (2N_t-1)-vector; the support ends at lag
    N_t-1 by construction.  Conjugate symmetric: r[-m] = conj(r[m]).
    """
    h = np.asarray(taps, dtype=complex)
    n = h.size
    r = np.zeros(2 * n - 1, dtype=complex)
    for m in range(n):
        acc = 0.0 + 0.0j
        for t in range(n - m):
            acc += h[t + m] * np.conj(h[t])
        r[m] = variance * acc
        if m:
            r[-m % (2 * n - 1)] = variance * np.conj(acc)
    return r


def place_on_grid(
    sources: Sequence[SourceSpec],
    grid: AngularGrid,
    n_t: int,
    tol: float = 1e-9,
) -> np.ndarray:
    """Per-grid-angle true lag vectors, shape (Q, 2N_t-1).

    Each source must sit exactly on a grid angle (compared in sine, which
    is what the manifold sees); exact ground truth is undefined off-grid.
    Co-located sources add, since they are uncorrelated.
    """
    grid_lags = np.zeros((grid.q_count, 2 * n_t - 1), dtype=complex)
    grid_sines = np.sin(grid.angles)
    for spec in sources:
        s = np.sin(spec.true_doa)
        q = int(np.argmin(np.abs(grid_sines - s)))
        if abs(grid_sines[q] - s) > tol:
            raise ValueError(
                f"source at {np.degrees(spec.true_doa):.3f} deg is off-grid"
            )
        taps = design_bandpass(spec.band, n_t)
        grid_lags[q] += true_source_autocorr(taps, spec.input_variance)
    return grid_lags


def true_vec_ry(
    geometry: ArrayGeometry,
    grid: AngularGrid,
    grid_lags: np.ndarray,
    noise_variance: float,
    k: int,
) -> np.ndarray:
    """Exact vec(R_y[k]) by direct summation over grid angles:
    entry (i + j*M_s) = sum_q b_i(theta_q) conj(b_j(theta_q)) r_q[k],
    plus the white-noise term on the diagonal at lag 0."""
    pos = geometry.positions
    m_s = geometry.m_active
    n_lags = grid_lags.shape[1]
    idx = k % n_lags
    out = np.zeros(m_s * m_s, dtype=complex)
    for j in range(m_s):
        for i in range(m_s):
            acc = 0.0 + 0.0j
            for q in range(grid.q_count):
                phase = 2 * np.pi * np.sin(grid.angles[q]) * (pos[i] - pos[j])
                acc += np.exp(1j * phase) * grid_lags[q, idx]
            if k == 0 and i == j:
                acc += noise_variance
            out[i + j * m_s] = acc
    return out


def true_correlation_table(
    geometry: ArrayGeometry,
    grid: AngularGrid,
    grid_lags: np.ndarray,
    noise_variance: float,
) -> np.ndarray:
    """All exact pair lags r_{y_i,y_j}[l], shape (M_s, M_s, 2N_t-1)."""
    m_s = geometry.m_active
    n_lags = grid_lags.shape[1]
    n_t = (n_lags + 1) // 2
    table = np.zeros((m_s, m_s, n_lags), dtype=complex)
    for k in range(-(n_t - 1), n_t):
        vec = true_vec_ry(geometry, grid, grid_lags, noise_variance, k)
        table[:, :, k % n_lags] = vec.reshape(m_s, m_s, order="F")
    return table


def true_pair_correlations(
    table: np.ndarray,
    pattern: CosetPattern,
) -> np.ndarray:
    """Exact compressed pair correlations vec(R_{z_i,z_j}), shape
    (M_s, M_s, M_t**2): entry [i, j, a + b*M_t] is the pair lag at
    rows[a] - rows[b]."""
    m_s = table.shape[0]
    n_lags = table.shape[2]
    rows = pattern.rows
    m_t = pattern.m_t
    out = np.zeros((m_s, m_s, m_t * m_t), dtype=complex)
    for b in range(m_t):
        for a in range(m_t):
            lag_idx = (rows[a] - rows[b]) % n_lags
            out[:, :, a + b * m_t] = table[:, :, lag_idx]
    return out


@dataclass(frozen=True)
class ExactCorrelations:
    """Bundle of closed-form correlations for one scenario."""

    grid_lags: np.ndarray  # (Q, 2N_t-1) true per-angle lag vectors
    table: np.ndarray  # (M_s, M_s, 2N_t-1) exact pair lags
    pair_vecs: np.ndarray  # (M_s, M_s, M_t**2) exact compressed pairs
    noise_variance: float


def exact_correlations(
    sources: Sequence[SourceSpec],
    geometry: ArrayGeometry,
    grid: AngularGrid,
    pattern: CosetPattern,
    noise_variance: float,
) -> ExactCorrelations:
    """Closed-form correlations for on-grid sources under the given
    spatial and temporal compression."""
    grid_lags = place_on_grid(sources, grid, pattern.n_t)
    table = true_correlation_table(geometry, grid, grid_lags, noise_variance)
    pair_vecs = true_pair_correlations(table, pattern)
    return ExactCorrelations(
        grid_lags=grid_lags,
        table=table,
        pair_vecs=pair_vecs,
        noise_variance=noise_variance,
    )


def nyquist_reference(
    sources: Sequence[SourceSpec],
    n_underlying: int,
    spacing: float,
    grid: AngularGrid,
    noise_variance: float,
    n_blocks: int,
    n_t: int,
    master_seed: int,
    noise_mode: str = "estimate",
):
    """Reference estimate with no compression at all: every antenna
    active, every Nyquist sample kept.  Runs the identical pipeline on
    the same streams, so a compressed run's blocks are a subset of the
    ones estimated here, and compressed runs can be compared against what
    full sampling achieves with the same block count and seed."""
    full = ArrayGeometry(
        n_underlying=n_underlying,
        spacing_d=spacing,
        active_marks=tuple(range(n_underlying)),
    )
    pattern = CosetPattern(n_t=n_t, rows=tuple(range(n_t)))
    gram, n_blocks = _est.accumulate_gram(
        block_chunks(sources, full, pattern, noise_variance, n_blocks, master_seed)
    )
    design = _est.Design(full, grid, pattern)
    return _est.spectrum_from_gram(design, gram, n_blocks, noise_mode, noise_variance)[1]
