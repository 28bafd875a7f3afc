"""Closed-form correlation oracles: source autocorrelations, grid
placement, the pair-lag table and its compressed lookup, checked against
independent references, empirical data and the estimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jafs.estimate import (
    assemble_all,
    build_rct,
    pair_correlations,
    recover_angular,
    recover_lags,
)
from jafs.geometry import solve_sparse_ruler
from jafs.model import ArrayGeometry, inverse_sin_grid, manifold_and_kr
from jafs.oracle import (
    exact_correlations,
    place_on_grid,
    true_correlation_table,
    true_source_autocorr,
)
from jafs.simulate import (
    CosetPattern,
    SourceSpec,
    build_coset_pattern,
    design_bandpass,
    spatial_compress,
    temporal_compress,
    ula_snapshots,
)


def smoke_setup():
    geo = ArrayGeometry(8, 0.5, (0, 1, 2, 3, 7))
    grid = inverse_sin_grid(15)
    pattern = CosetPattern(8, (0, 1, 2, 3, 7))
    sources = (
        SourceSpec(float(np.arcsin(-0.4)), (-0.8 * np.pi, -0.5 * np.pi), 5.0),
        SourceSpec(0.0, (-0.1 * np.pi, 0.2 * np.pi), 5.0),
        SourceSpec(float(np.arcsin(8 / 15)), (0.4 * np.pi, 0.75 * np.pi), 5.0),
    )
    return geo, grid, pattern, sources


# ------------------------------------------------------ autocorrelation


def test_autocorr_single_tap():
    np.testing.assert_array_equal(true_source_autocorr([1.0], 5.0), [5.0])


def test_autocorr_two_equal_taps():
    h = np.array([1.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(
        true_source_autocorr(h, 1.0), [1.0, 0.5, 0.5], atol=1e-15
    )


def test_autocorr_matches_numpy_correlate():
    rng = np.random.default_rng(0)
    h = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    var = 2.5
    r = true_source_autocorr(h, var)
    c = var * np.correlate(h, h, mode="full")  # c[11 + m] = sum h[t+m] conj(h[t])
    n_lags = 23
    for m in range(-11, 12):
        assert r[m % n_lags] == pytest.approx(c[11 + m], abs=1e-12)


def test_autocorr_conjugate_symmetry_and_positivity():
    taps = design_bandpass((0.05 * np.pi, 0.125 * np.pi), 32)
    r = true_source_autocorr(taps, 5.0)
    n_lags = 63
    assert r[0].imag == 0
    assert r[0].real > 0
    for m in range(1, 32):
        assert r[-m % n_lags] == pytest.approx(np.conj(r[m]), abs=1e-15)


# -------------------------------------------------------- grid placement


def test_place_on_grid_rows_and_off_grid_rejection():
    geo, grid, pattern, sources = smoke_setup()
    lags = place_on_grid(sources, grid, 8)
    assert lags.shape == (15, 15)
    occupied = np.flatnonzero(np.abs(lags).sum(axis=1))
    np.testing.assert_array_equal(occupied, [4, 7, 11])
    with pytest.raises(ValueError):
        place_on_grid(
            (SourceSpec(0.1, (-0.1 * np.pi, 0.2 * np.pi), 1.0),), grid, 8
        )


def test_place_on_grid_colocated_sources_add():
    geo, grid, _, _ = smoke_setup()
    band = (-0.1 * np.pi, 0.2 * np.pi)
    one = place_on_grid((SourceSpec(0.0, band, 2.0),), grid, 8)
    two = place_on_grid(
        (SourceSpec(0.0, band, 2.0), SourceSpec(0.0, band, 3.0)), grid, 8
    )
    np.testing.assert_allclose(two, one * (5.0 / 2.0), atol=1e-14)


# ------------------------------------------------------- pair-lag table


def test_true_table_noise_only():
    geo, grid, _, _ = smoke_setup()
    lags = np.zeros((15, 15), dtype=complex)
    table = true_correlation_table(geo, grid, lags, 2.0)
    np.testing.assert_allclose(table[:, :, 0], 2.0 * np.eye(5))
    assert np.abs(table[:, :, 3]).max() == 0


def test_true_table_single_source_is_kronecker():
    geo, grid, _, _ = smoke_setup()
    q = 11
    lags = np.zeros((15, 15), dtype=complex)
    lags[q, 2] = 1.5 + 0.5j
    # vec(R_y[2]) in column-major order: entry i + j*M_s is pair (i, j)
    vec = true_correlation_table(geo, grid, lags, 0.0)[:, :, 2].flatten(order="F")
    b = np.exp(2j * np.pi * geo.positions * np.sin(grid.angles[q]))
    np.testing.assert_allclose(vec, np.kron(np.conj(b), b) * (1.5 + 0.5j), atol=1e-12)


def test_true_table_diagonal_power():
    geo, grid, pattern, sources = smoke_setup()
    exact = exact_correlations(sources, geo, grid, pattern, 5.0)
    total = sum(
        true_source_autocorr(design_bandpass(s.band, 8), s.input_variance)[0]
        for s in sources
    )
    for i in range(5):
        assert exact.table[i, i, 0] == pytest.approx(total + 5.0, abs=1e-10)


def test_true_pair_correlations_lag_lookup():
    geo, grid, pattern, sources = smoke_setup()
    exact = exact_correlations(sources, geo, grid, pattern, 5.0)
    rows = pattern.rows
    n_lags = 15
    for a in (0, 2, 4):
        for b in (1, 3):
            np.testing.assert_array_equal(
                exact.pair_vecs[:, :, a + b * pattern.m_t],
                exact.table[:, :, (rows[a] - rows[b]) % n_lags],
            )


# --------------------------------------------- oracle vs empirical data


def test_empirical_pairs_converge_to_oracle():
    geo, grid, pattern, sources = smoke_setup()
    exact = exact_correlations(sources, geo, grid, pattern, 5.0)

    def rel_err(n_blocks):
        snaps = ula_snapshots(sources, geo, 5.0, n_blocks, 8, master_seed=6)
        z = temporal_compress(spatial_compress(snaps, geo), pattern)
        pairs = pair_correlations(z)
        return np.linalg.norm(pairs - exact.pair_vecs) / np.linalg.norm(
            exact.pair_vecs
        )

    coarse, fine = rel_err(100), rel_err(6400)
    assert fine < coarse / 4  # 64x data must buy at least 4x accuracy
    assert fine < 0.1


def test_recovered_lags_match_oracle_table():
    # the relative error's mean over 16 seeds, not one realization: about
    # one seed in ten exceeds 0.1 alone, while the mean (about 0.094) does
    # not, and a simulator 5% off in power raises it to about 0.11
    geo, grid, pattern, sources = smoke_setup()
    exact = exact_correlations(sources, geo, grid, pattern, 5.0)
    rct = build_rct(pattern)
    errs = []
    for seed in range(16):
        snaps = ula_snapshots(sources, geo, 5.0, 4000, 8, master_seed=seed)
        z = temporal_compress(spatial_compress(snaps, geo), pattern)
        corr = recover_lags(rct, pair_correlations(z))
        errs.append(np.linalg.norm(corr - exact.table) / np.linalg.norm(exact.table))
    assert np.mean(errs) < 0.1, errs


@st.composite
def exact_scenes(draw):
    """On-grid sources seen by a ruler-thinned array of at most 14
    antennas through a ruler-based coset pattern of at most 14 rows; every
    ruler is solved by exhaustive enumeration."""
    n_s = draw(st.integers(2, 14))
    geo = ArrayGeometry(n_s, 0.5, solve_sparse_ruler(n_s - 1).marks)
    n_t = draw(st.integers(1, 14))
    least = solve_sparse_ruler(n_t - 1).cardinality if n_t > 1 else 1
    m_t = draw(st.integers(least, n_t))
    pattern = build_coset_pattern(n_t, m_t, draw(st.integers(0, 2 ** 32 - 1)))
    q = draw(st.integers(1, 2 * n_s - 1))
    grid = inverse_sin_grid(q)
    sources = []
    for _ in range(draw(st.integers(0, 3))):
        # an even grid's first angle is -90 degrees, which no source takes
        doa = float(grid.angles[draw(st.integers(1 - q % 2, q - 1))])
        lo = draw(st.integers(0, n_t - 1))
        hi = draw(st.integers(lo + 1, n_t))
        band = (np.pi * (2 * lo / n_t - 1), np.pi * (2 * hi / n_t - 1))
        sources.append(SourceSpec(doa, band, draw(st.floats(0.1, 10))))
    return geo, grid, pattern, tuple(sources), draw(st.floats(0, 10))


@settings(max_examples=60, deadline=None)
@given(scene=exact_scenes())
def test_recovered_lags_pair_hermitian_on_exact_data(scene):
    # values[i, j, -k] = conj(values[j, i, k]) for every pair and lag, and
    # the angular step with the noise power known returns the exact
    # per-angle lags
    geo, grid, pattern, sources, noise = scene
    exact = exact_correlations(sources, geo, grid, pattern, noise)
    corr = recover_lags(build_rct(pattern), exact.pair_vecs)
    n_lags = corr.shape[2]
    mirrored = corr[:, :, -np.arange(n_lags) % n_lags]
    np.testing.assert_allclose(mirrored, np.conj(corr.transpose(1, 0, 2)), atol=1e-10)
    rec = recover_angular(
        manifold_and_kr(geo, grid),
        assemble_all(corr),
        noise_mode="known",
        noise_variance=noise,
    )
    scale = max(np.linalg.norm(exact.grid_lags), 1.0)
    assert np.linalg.norm(rec.source_lags - exact.grid_lags) <= 1e-8 * scale
