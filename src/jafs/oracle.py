"""Closed-form ground truth for tests.

Everything here is computed by direct summation in double precision:
the autocorrelations term by term, and the pair lags as one product of
the closed-form pair phases with them.  So the oracle shares no solver
or FFT path with the estimator it checks.
The one deliberate exception is the FIR design: the taps define what the
sources are, so the oracle must use the same ones.

Lag vectors follow the package-wide canonical order [0 .. N_t-1,
1-N_t .. -1] (lag k at index k mod (2N_t-1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import AngularGrid, ArrayGeometry
from .simulate import CosetPattern, SourceSpec, design_bandpass


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


def true_correlation_table(
    geometry: ArrayGeometry,
    grid: AngularGrid,
    grid_lags: np.ndarray,
    noise_variance: float,
) -> np.ndarray:
    """All exact pair lags, shape (M_s, M_s, 2N_t-1): entry [i, j, l] is
    r_{y_i,y_j}[l] = sum_q b_i(theta_q) conj(b_j(theta_q)) r_q[l], one
    product of the (M_s, M_s, Q) pair phases with ``grid_lags``, plus the
    white-noise term on the diagonal at lag 0."""
    pos = geometry.positions
    phases = np.exp(
        2j * np.pi * np.subtract.outer(pos, pos)[:, :, None] * np.sin(grid.angles)
    )
    table = phases @ grid_lags
    table[:, :, 0] += noise_variance * np.eye(geometry.m_active)
    return table


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
    # pair_vecs[:, :, a + b*M_t] is the pair lag at rows[a] - rows[b]
    rows = np.asarray(pattern.rows)
    lags = np.subtract.outer(rows, rows).ravel(order="F") % table.shape[2]
    pair_vecs = table[:, :, lags]
    return ExactCorrelations(
        grid_lags=grid_lags,
        table=table,
        pair_vecs=pair_vecs,
        noise_variance=noise_variance,
    )
