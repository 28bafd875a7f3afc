"""Lag recovery, angular recovery, spectrum, and peak picking."""

import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from jafs.estimate import (
    Design,
    RankDeficiencyError,
    accumulate_gram,
    assemble_all,
    block_gram,
    build_rct,
    find_peaks,
    pair_correlations,
    pair_vectors,
    recover_angular,
    recover_lags,
    repetition_matrix,
    spectrum,
    spectrum_from_blocks,
    spectrum_from_gram,
)
from jafs.geometry import solve_sparse_ruler
from jafs.model import (
    AngularGrid,
    ArrayGeometry,
    inverse_sin_grid,
    manifold_and_kr,
    rank_report,
)
from jafs.oracle import (
    exact_correlations,
    true_correlation_table,
    true_source_autocorr,
)
from jafs.scenario import load_scenario, resolve
from jafs.simulate import (
    CosetPattern,
    SnapshotBlocks,
    SourceSpec,
    block_chunks,
    build_coset_pattern,
    chunk_blocks,
    compressed_blocks,
    design_bandpass,
    ula_snapshots,
)

SMOKE = Path(__file__).resolve().parent.parent / "scenarios" / "smoke.scenario"


def toeplitz_from_lags(r, n_t):
    """Independent construction: M[a, b] = r[(a - b) mod (2N_t - 1)]."""
    idx = (np.arange(n_t)[:, None] - np.arange(n_t)[None, :]) % (2 * n_t - 1)
    return np.asarray(r)[idx]


def random_lag_vector(rng, n_t, hermitian=True):
    n_lags = 2 * n_t - 1
    r = rng.standard_normal(n_lags) + 1j * rng.standard_normal(n_lags)
    if hermitian:
        r[0] = abs(r[0])
        for k in range(1, n_t):
            r[-k % n_lags] = np.conj(r[k])
    return r


# ----------------------------------------------------- repetition matrix


def test_repetition_targets_small_cases():
    assert repetition_matrix(1).col_index.tolist() == [0]
    assert repetition_matrix(2).col_index.tolist() == [0, 1, 2, 0]
    assert repetition_matrix(3).col_index.tolist() == [0, 1, 2, 4, 0, 1, 3, 4, 0]


def test_repetition_dense_shape_and_mass():
    T = repetition_matrix(4).as_dense()
    assert T.shape == (16, 7)
    assert np.all(T.sum(axis=1) == 1)  # one selection per row
    assert np.all(T.sum(axis=0) >= 1)  # every lag appears


@pytest.mark.parametrize("n_t", [1, 2, 3, 5, 8, 13, 16])
def test_repetition_reproduces_toeplitz_vec(n_t):
    rng = np.random.default_rng(n_t)
    r = random_lag_vector(rng, n_t)
    rep = repetition_matrix(n_t)
    expected = toeplitz_from_lags(r, n_t).flatten(order="F")
    np.testing.assert_allclose(rep.as_dense() @ r, expected, atol=1e-14)
    np.testing.assert_allclose(rep.apply(r), expected, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(n_t=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_repetition_and_full_pattern_rct_over_drawn_sizes(n_t, seed):
    r = random_lag_vector(np.random.default_rng(seed), n_t, hermitian=False)
    rep = repetition_matrix(n_t)
    expected = toeplitz_from_lags(r, n_t).flatten(order="F")
    np.testing.assert_array_equal(rep.apply(r), expected)


# --------------------------------------------------------------- R_ct


def test_rct_identity_pattern_equals_repetition():
    # column l of T is vec of the Toeplitz matrix of the l-th unit lag vector
    T = np.column_stack(
        [toeplitz_from_lags(e, 5).flatten(order="F") for e in np.eye(9)]
    )
    rct = build_rct(CosetPattern(5, tuple(range(5))))
    np.testing.assert_array_equal(rct.as_dense(), T)
    assert rct.full_column_rank


def test_rct_ruler_rows_cover_all_lags():
    rct = build_rct(CosetPattern(4, (0, 1, 3)))
    assert rct.full_column_rank
    dense = rct.as_dense()
    assert dense.shape == (9, 7)
    assert np.all(dense.sum(axis=1) == 1)
    # row (p, q) = p + 3q selects lag (rows[p] - rows[q]) mod 7
    rows = (0, 1, 3)
    for q in range(3):
        for p in range(3):
            lag = (rows[p] - rows[q]) % 7
            assert dense[p + 3 * q, lag] == 1


def test_rct_gap_pattern_flagged_and_refused():
    rct = build_rct(CosetPattern(3, (0, 2)))
    assert not rct.full_column_rank
    pair_vecs = np.zeros((1, 1, 4), dtype=complex)
    with pytest.raises(RankDeficiencyError) as exc:
        recover_lags(rct, pair_vecs)
    assert 1 in exc.value.report["missing_lag_columns"]


def test_rct_matches_kronecker_compression():
    # vec(C M C^T) = (C kron C) vec(M) for the 0/1 selection C, and the
    # selection-sum matrix is exactly (C kron C) T
    n_t, rows = 6, (0, 1, 4, 5)
    pattern = CosetPattern(n_t, rows)
    C = np.zeros((len(rows), n_t))
    C[np.arange(len(rows)), rows] = 1.0
    rng = np.random.default_rng(0)
    r = random_lag_vector(rng, n_t)
    M = toeplitz_from_lags(r, n_t)
    lhs = (C @ M @ C.T).flatten(order="F")
    np.testing.assert_allclose(
        np.kron(C, C) @ M.flatten(order="F"), lhs, atol=1e-13
    )
    np.testing.assert_allclose(build_rct(pattern).as_dense() @ r, lhs, atol=1e-13)


# ---------------------------------------------------- pair correlations


def test_pair_correlations_single_block_outer_product():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((1, 2, 3)) + 1j * rng.standard_normal((1, 2, 3))
    vals = pair_correlations(SnapshotBlocks(z))
    assert vals.shape == (2, 2, 9)
    for i in range(2):
        for j in range(2):
            for a in range(3):
                for b in range(3):
                    expected = z[0, i, a] * np.conj(z[0, j, b])
                    assert vals[i, j, a + b * 3] == pytest.approx(expected)


def test_pair_correlations_hermitian_pairing():
    geo = ArrayGeometry(8, 0.5, (0, 1, 2, 3, 7))
    spec = SourceSpec(0.2, (-0.4 * np.pi, 0.1 * np.pi), 5.0)
    snaps = ula_snapshots((spec,), geo, 1.0, 50, 8, master_seed=0)
    vals = pair_correlations(snaps)
    m_t = 8
    for i in range(2):
        for j in range(2):
            for a in range(3):
                for b in range(3):
                    assert vals[i, j, a + b * m_t] == pytest.approx(
                        np.conj(vals[j, i, b + a * m_t])
                    )


def test_pair_correlations_white_mean_power():
    geo = ArrayGeometry(1, 0.5, (0,))
    snaps = ula_snapshots((), geo, 4.0, 20_000, 1, master_seed=2)
    vals = pair_correlations(snaps)
    assert vals.shape == (1, 1, 1)
    assert abs(vals[0, 0, 0] - 4.0) < 0.15


# -------------------------------------------------------- lag recovery


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


def test_recover_lags_exact_on_identity_pattern():
    n_t = 6
    pattern = CosetPattern(n_t, tuple(range(n_t)))
    rng = np.random.default_rng(3)
    r = random_lag_vector(rng, n_t)
    vec = repetition_matrix(n_t).apply(r)
    corr = recover_lags(build_rct(pattern), vec.reshape(1, 1, -1))
    np.testing.assert_allclose(corr[0, 0], r, atol=1e-12)


def test_recover_lags_exact_on_ruler_pattern():
    geo, grid, pattern, sources = smoke_setup()
    exact = exact_correlations(sources, geo, grid, pattern, 5.0)
    corr = recover_lags(build_rct(pattern), exact.pair_vecs)
    np.testing.assert_allclose(corr, exact.table, atol=1e-10)


def test_recover_lags_equals_per_lag_averaging():
    # the selection-sum matrix is 0/1 with one hit per row, so least
    # squares must coincide with averaging all pair entries per lag;
    # check on noisy data against an independent bincount implementation
    geo, grid, pattern, sources = smoke_setup()
    snaps = ula_snapshots(sources, geo, 5.0, 200, 8, master_seed=1)
    from jafs.simulate import spatial_compress, temporal_compress

    z = temporal_compress(spatial_compress(snaps, geo), pattern)
    pairs = pair_correlations(z)
    rct = build_rct(pattern)
    corr = recover_lags(rct, pairs)
    n_lags = rct.n_lags
    counts = np.bincount(rct.col_index, minlength=n_lags)
    for i in range(corr.shape[0]):
        for j in range(corr.shape[1]):
            sums = np.zeros(n_lags, dtype=complex)
            np.add.at(sums, rct.col_index, pairs[i, j])
            np.testing.assert_allclose(
                corr[i, j], sums / counts, atol=1e-12
            )


@settings(max_examples=60, deadline=None)
@given(
    n_t=st.integers(1, 16),
    extras=st.integers(0, 15),
    m_s=st.integers(1, 3),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_recover_lags_closed_form_matches_dense_least_squares(n_t, extras, m_s, seed):
    ruler = solve_sparse_ruler(n_t - 1).cardinality if n_t > 1 else 1
    pattern = build_coset_pattern(n_t, min(n_t, ruler + extras), seed)
    rct = build_rct(pattern)
    rng = np.random.default_rng(seed)
    shape = (m_s, m_s, pattern.m_t ** 2)
    pair_vecs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = recover_lags(rct, pair_vecs)
    ref = np.linalg.lstsq(
        rct.as_dense(), pair_vecs.reshape(m_s * m_s, -1).T, rcond=None
    )[0]
    ref = ref.T.reshape(m_s, m_s, rct.n_lags)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


# ------------------------------------------------------------ assembly


def test_assemble_spatial_ordering():
    vals = np.zeros((2, 2, 3), dtype=complex)
    vals[0, 0, 1] = 11
    vals[1, 0, 1] = 21
    vals[0, 1, 1] = 12
    vals[1, 1, 1] = 22
    # lag 1 sits at canonical column 1
    np.testing.assert_array_equal(assemble_all(vals)[:, 1], [11, 21, 12, 22])


def test_assemble_all_matches_per_lag():
    rng = np.random.default_rng(9)
    vals = rng.standard_normal((3, 3, 5)) + 1j * rng.standard_normal((3, 3, 5))
    stacked = assemble_all(vals)
    assert stacked.shape == (9, 5)
    # column l is vec(values[:, :, l]), column-major
    for col in range(5):
        np.testing.assert_array_equal(
            stacked[:, col], vals[:, :, col].flatten(order="F")
        )


def test_assemble_noise_only_is_vec_identity():
    geo, grid, pattern, _ = smoke_setup()
    exact = exact_correlations((), geo, grid, pattern, 2.5)
    corr = recover_lags(build_rct(pattern), exact.pair_vecs)
    stacked = assemble_all(corr)
    # lags 0 and 3 sit at canonical columns 0 and 3
    np.testing.assert_allclose(
        stacked[:, 0], 2.5 * np.eye(5).flatten(order="F"), atol=1e-12
    )
    assert np.abs(stacked[:, 3]).max() < 1e-12


# ----------------------------------------------------- angular recovery


def test_recover_angular_single_source_exact():
    geo, grid, pattern, _ = smoke_setup()
    src = SourceSpec(0.0, (-0.1 * np.pi, 0.2 * np.pi), 5.0)
    mats = manifold_and_kr(geo, grid)
    exact = exact_correlations((src,), geo, grid, pattern, 0.0)
    corr = recover_lags(build_rct(pattern), exact.pair_vecs)
    rec = recover_angular(mats, assemble_all(corr))
    q0 = 7  # grid index of theta = 0 on the 15-point grid
    truth = true_source_autocorr(design_bandpass(src.band, 8), 5.0)
    np.testing.assert_allclose(rec.source_lags[q0], truth, atol=1e-8)
    others = np.delete(rec.source_lags, q0, axis=0)
    assert np.abs(others).max() < 1e-8
    assert abs(rec.sigma_n_hat) < 1e-10


def test_recover_angular_estimates_noise_exactly_on_exact_input():
    geo, grid, pattern, sources = smoke_setup()
    mats = manifold_and_kr(geo, grid)
    exact = exact_correlations(sources, geo, grid, pattern, 5.0)
    corr = recover_lags(build_rct(pattern), exact.pair_vecs)
    rec = recover_angular(mats, assemble_all(corr), noise_mode="estimate")
    assert rec.sigma_n_hat == pytest.approx(5.0, abs=1e-9)


def test_recover_angular_noise_only():
    geo, grid, pattern, _ = smoke_setup()
    mats = manifold_and_kr(geo, grid)
    exact = exact_correlations((), geo, grid, pattern, 3.0)
    corr = recover_lags(build_rct(pattern), exact.pair_vecs)
    rec = recover_angular(mats, assemble_all(corr))
    assert rec.sigma_n_hat == pytest.approx(3.0, abs=1e-10)
    assert np.abs(rec.source_lags).max() < 1e-10


def test_recover_angular_known_noise_subtraction():
    geo, grid, pattern, sources = smoke_setup()
    mats = manifold_and_kr(geo, grid)
    exact = exact_correlations(sources, geo, grid, pattern, 5.0)
    corr = recover_lags(build_rct(pattern), exact.pair_vecs)
    rec = recover_angular(
        mats, assemble_all(corr), noise_mode="known", noise_variance=5.0
    )
    assert rec.sigma_n_hat == 5.0  # echoed, not estimated
    truth = np.zeros((15, 15), dtype=complex)
    for src, q in zip(sources, (4, 7, 11)):
        truth[q] += true_source_autocorr(design_bandpass(src.band, 8), 5.0)
    np.testing.assert_allclose(rec.source_lags, truth, atol=1e-8)


def test_recover_angular_joint_branch_on_nondegenerate_grid():
    # an irregular grid keeps vec(I) out of the Khatri-Rao span, so the
    # noise power comes from the augmented least-squares solve
    geo = ArrayGeometry(8, 0.5, (0, 1, 3))
    angles = np.arcsin(np.array([-0.71, -0.33, 0.05, 0.4, 0.82]))
    grid = AngularGrid(q_count=5, angles=angles)
    mats = manifold_and_kr(geo, grid)
    info = rank_report(mats.KR, mats.noise_column)
    assert info["augmented_rank"] == 6  # premise of this test
    rng = np.random.default_rng(0)
    n_t = 4
    powers = rng.uniform(1.0, 3.0, size=5)
    grid_lags = np.zeros((5, 2 * n_t - 1), dtype=complex)
    grid_lags[:, 0] = powers
    sigma = 1.7
    vec_ry = assemble_all(true_correlation_table(geo, grid, grid_lags, sigma))
    rec = recover_angular(mats, vec_ry, noise_mode="estimate")
    assert rec.noise_path == "augmented"
    assert rec.sigma_n_hat == pytest.approx(sigma, abs=1e-9)
    np.testing.assert_allclose(rec.source_lags[:, 0], powers, atol=1e-9)


def test_recover_angular_refuses_rank_deficiency():
    geo = ArrayGeometry(8, 0.5, (0, 1, 4, 6))
    # two angles one ulp apart give numerically identical KR columns
    theta = np.array([-0.4, 0.1, np.nextafter(0.1, 1.0), 0.6])
    grid = AngularGrid(q_count=4, angles=theta)
    mats = manifold_and_kr(geo, grid)
    vec = np.zeros((16, 1), dtype=complex)
    with pytest.raises(RankDeficiencyError):
        recover_angular(mats, vec)


@st.composite
def random_designs(draw):
    """Distinct marks on a 13-element ULA at spacing 1/2 or 1/4, with a
    uniform-sine or a random sorted-sine grid of at most as many angles
    as the marks have distinct differences."""
    marks = draw(st.lists(st.integers(0, 12), min_size=2, max_size=6, unique=True))
    n_diffs = len({a - b for a in marks for b in marks})
    q = draw(st.integers(1, min(n_diffs, 12)))
    if draw(st.booleans()):
        grid = inverse_sin_grid(q)
    else:
        sines = draw(st.lists(st.integers(-31, 31), min_size=q, max_size=q, unique=True))
        grid = AngularGrid(q_count=q, angles=np.arcsin(np.sort(sines) / 32))
    spacing = draw(st.sampled_from([0.5, 0.25]))
    return ArrayGeometry(13, spacing, tuple(marks)), grid


def dense_lstsq(A, b):
    return np.linalg.lstsq(A, b, rcond=None)[0]


@settings(max_examples=80, deadline=None)
@given(design=random_designs(), seed=st.integers(0, 2 ** 32 - 1))
def test_recover_angular_reduced_solve_matches_dense_least_squares(design, seed):
    geo, grid = design
    mats = manifold_and_kr(geo, grid)
    KR, noise_col, info = mats.KR, mats.noise_column, mats.rank_info
    q = grid.q_count
    # the weighted reduced matrix has KR's singular values; skip draws
    # whose rank hinges on a singular value near the tolerance
    s = np.linalg.svd(KR, compute_uv=False)
    tol = info["tolerance"]
    assume(not np.any((s > tol / 1e3) & (s < tol * 1e3)))
    reduced = np.sqrt(mats.diff_counts)[:, None] * mats.reduced
    assert np.sum(np.linalg.svd(reduced, compute_uv=False) > tol) == info["rank"]
    assume(info["rank"] == q and info["condition_number"] < 1e4)

    rng = np.random.default_rng(seed)
    shape = (KR.shape[0], 3)
    vec_ry = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    scale = np.linalg.norm(vec_ry)

    def check(rec, x, rhs):
        np.testing.assert_allclose(rec.source_lags, x, atol=1e-9 * scale)
        want = np.linalg.norm(rhs - KR @ x, axis=0)
        np.testing.assert_allclose(rec.residual_norms, want, atol=1e-9 * scale)

    rec = recover_angular(mats, vec_ry, noise_mode="known", noise_variance=0.7)
    rhs = vec_ry.copy()
    rhs[:, 0] -= 0.7 * noise_col
    assert rec.noise_path == "known"
    check(rec, dense_lstsq(KR, rhs), rhs)

    rec = recover_angular(mats, vec_ry)
    x = dense_lstsq(KR, vec_ry)
    if info["augmented_rank"] == q + 1:
        aug = np.column_stack([KR, noise_col])
        assume(np.linalg.cond(aug) < 1e4)
        x_aug = dense_lstsq(aug, vec_ry[:, 0])
        x[:, 0] = x_aug[:q]
        rhs = vec_ry.copy()
        rhs[:, 0] -= x_aug[q] * noise_col
        assert rec.noise_path == "augmented"
        assert rec.sigma_n_hat == pytest.approx(x_aug[q].real, abs=1e-9 * scale)
        check(rec, x, rhs)
    else:
        assert rec.noise_path == "white-floor"
        floor = np.median(np.real(np.fft.fft(x, axis=1)))
        assert rec.sigma_n_hat == pytest.approx(q * floor, abs=1e-9 * scale)
        lags = rec.source_lags.copy()
        lags[:, 0] += rec.sigma_n_hat / q
        check(replace(rec, source_lags=lags), x, vec_ry)


# ------------------------------------------------------------- spectrum


def test_spectrum_impulse_is_flat():
    grid = inverse_sin_grid(3)
    lags = np.zeros((3, 7), dtype=complex)
    lags[1, 0] = 2.0
    spec = spectrum(lags, grid)
    np.testing.assert_allclose(spec.values[1], np.full(7, 2.0), atol=1e-14)
    np.testing.assert_allclose(spec.values[0], 0, atol=1e-14)


def test_spectrum_triangle_values():
    grid = inverse_sin_grid(1)
    spec = spectrum(np.array([[1.0, 0.5, 0.5]], dtype=complex), grid)
    np.testing.assert_allclose(spec.values[0], [2.0, 0.5, 0.5], atol=1e-14)


def test_spectrum_frequency_grid_recentered():
    grid = inverse_sin_grid(1)
    spec = spectrum(np.zeros((1, 5), dtype=complex), grid)
    np.testing.assert_allclose(
        spec.freq_grid,
        [0.0, 2 * np.pi / 5, 4 * np.pi / 5, -4 * np.pi / 5, -2 * np.pi / 5],
    )
    assert spec.n_bins == 5


def test_spectrum_parseval_row_sums():
    rng = np.random.default_rng(1)
    n_t = 9
    lags = np.stack([random_lag_vector(rng, n_t) for _ in range(4)])
    spec = spectrum(lags, inverse_sin_grid(4))
    n_lags = 2 * n_t - 1
    row_sums = spec.values.sum(axis=1)
    np.testing.assert_allclose(row_sums, n_lags * lags[:, 0], rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n_t=st.integers(1, 64), q=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_spectrum_parseval_over_drawn_sizes(n_t, q, seed):
    rng = np.random.default_rng(seed)
    lags = np.stack([random_lag_vector(rng, n_t) for _ in range(q)])
    spec = spectrum(lags, inverse_sin_grid(q))
    n_lags = 2 * n_t - 1
    np.testing.assert_allclose(
        np.sum(np.abs(spec.values) ** 2, axis=1),
        n_lags * np.sum(np.abs(lags) ** 2, axis=1),
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        spec.values.sum(axis=1), n_lags * lags[:, 0], rtol=1e-12, atol=1e-12
    )


def test_spectrum_band_mass_concentrated():
    band = (0.35 * np.pi, 0.425 * np.pi)
    r = true_source_autocorr(design_bandpass(band, 84), 5.0)
    spec = spectrum(r[None, :], inverse_sin_grid(1))
    p = spec.clamped_real()[0]
    guard = 4 * np.pi / 84
    inband = (spec.freq_grid >= band[0] - guard) & (
        spec.freq_grid <= band[1] + guard
    )
    assert p[inband].sum() / p.sum() > 0.95


def test_clamped_real_floors_negatives():
    grid = inverse_sin_grid(1)
    spec = spectrum(np.array([[1.0, -2.0, -2.0]], dtype=complex), grid)
    clamped = spec.clamped_real()
    assert clamped.min() == 0.0
    assert np.all(clamped >= 0)


# ----------------------------------------------------------- detection


def exact_smoke_spectrum():
    geo, grid, pattern, sources = smoke_setup()
    mats = manifold_and_kr(geo, grid)
    exact = exact_correlations(sources, geo, grid, pattern, 5.0)
    corr = recover_lags(build_rct(pattern), exact.pair_vecs)
    rec = recover_angular(mats, assemble_all(corr))
    return spectrum(rec.source_lags, grid, rec.sigma_n_hat), sources


def test_find_peaks_exact_smoke_scene():
    spec, sources = exact_smoke_spectrum()
    dets = find_peaks(spec)
    assert [d.grid_index for d in dets] == [4, 7, 11]
    for det, src in zip(dets, sources):
        assert det.angle == pytest.approx(src.true_doa, abs=1e-12)
        assert len(det.bands) == 1
        lo, hi = det.bands[0]
        bin_w = 2 * np.pi / 15
        assert abs(lo - src.band[0]) <= 1.5 * bin_w
        assert abs(hi - src.band[1]) <= 1.5 * bin_w


def test_find_peaks_empty_spectrum():
    spec = spectrum(np.zeros((5, 7), dtype=complex), inverse_sin_grid(5))
    assert find_peaks(spec) == []


def test_find_peaks_plateau_takes_lowest_index():
    grid = inverse_sin_grid(5)
    lags = np.zeros((5, 7), dtype=complex)
    lags[2, 0] = 1.0
    lags[3, 0] = 1.0  # equal neighbor
    dets = find_peaks(spectrum(lags, grid))
    assert len(dets) == 1
    assert dets[0].grid_index == 2
    assert 3 in dets[0].rows


def test_find_peaks_threshold_suppresses_weak_cells():
    grid = inverse_sin_grid(5)
    lags = np.zeros((5, 7), dtype=complex)
    lags[1, 0] = 10.0
    lags[4, 0] = 0.5  # below threshold fraction of the max marginal
    dets = find_peaks(spectrum(lags, grid), power_fraction_threshold=0.25)
    assert [d.grid_index for d in dets] == [1]


# ------------------------------------------------------------ Gram path


def test_pair_correlations_is_gram_reshaped():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((40, 3, 4)) + 1j * rng.standard_normal((40, 3, 4))
    pairs = pair_correlations(SnapshotBlocks(z))
    # entry [i, j, a + b*M_t] averages z_i[a] conj(z_j[b])
    expect = np.einsum("nia,njb->ijba", z, z.conj()).reshape(3, 3, 16) / 40
    np.testing.assert_allclose(pairs, expect, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(pairs, pair_vectors(block_gram(z), 40, 4))
    with pytest.raises(ValueError):
        pair_vectors(block_gram(z), 40, 5)


def test_streamed_gram_matches_blocks_path():
    cfg = load_scenario(SMOKE)
    design = resolve(cfg).design
    n_blocks = 2 * chunk_blocks(cfg.n_t) + 11
    args = (
        cfg.sources,
        design.geometry,
        design.pattern,
        cfg.noise_variance,
        n_blocks,
        cfg.master_seed,
    )
    gram, count = accumulate_gram(block_chunks(*args))
    assert count == n_blocks
    rec, streamed = spectrum_from_gram(
        design, gram, count, cfg.noise_mode, cfg.noise_variance
    )
    ref_rec, whole = spectrum_from_blocks(
        design, compressed_blocks(*args), cfg.noise_mode, cfg.noise_variance
    )
    scale = np.abs(whole.values).max()
    assert np.abs(streamed.values - whole.values).max() <= 1e-12 * scale
    assert rec.sigma_n_hat == pytest.approx(ref_rec.sigma_n_hat, rel=1e-12)


def test_complex64_blocks_fold_into_a_complex128_gram():
    # the blocks are complex64 and each chunk's Gram is a complex64
    # product, summed in complex128; folding the same chunks widened to
    # complex128 moves the smoke spectrum by float32 rounding only
    cfg = load_scenario(SMOKE)
    design = resolve(cfg).design
    n_blocks = 3 * chunk_blocks(cfg.n_t) + 11
    chunks = list(
        block_chunks(
            cfg.sources,
            design.geometry,
            design.pattern,
            cfg.noise_variance,
            n_blocks,
            cfg.master_seed,
        )
    )
    assert {c.dtype for c in chunks} == {np.dtype(np.complex64)}
    narrow = accumulate_gram(chunks)
    wide = accumulate_gram(c.astype(np.complex128) for c in chunks)
    assert narrow[0].dtype == wide[0].dtype == np.complex128
    assert narrow[1] == wide[1] == n_blocks
    (_, got), (_, ref) = (
        spectrum_from_gram(design, *gram, cfg.noise_mode, cfg.noise_variance)
        for gram in (narrow, wide)
    )
    scale = np.abs(ref.values).max()
    assert np.abs(got.values - ref.values).max() <= 1e-5 * scale
    detections = [
        [(d.grid_index, d.rows, d.bands) for d in find_peaks(spec, cfg.peak_threshold)]
        for spec in (got, ref)
    ]
    assert detections[0] == detections[1] and detections[0]


def test_accumulate_gram_rejects_an_overflowed_gram():
    # finite complex64 blocks whose products pass float32 range
    chunk = np.full((4, 2, 3), 1e20, dtype=np.complex64)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not finite"):
            accumulate_gram([chunk])


def test_accumulate_gram_overflow_raises_no_warning():
    # a caller that turns warnings into errors still gets the ValueError,
    # whether the first chunk's Gram overflows or a later one's
    fine = np.ones((4, 2, 3), dtype=np.complex64)
    huge = np.full((4, 2, 3), 1e20, dtype=np.complex64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for chunks in ([huge], [fine, huge]):
            with pytest.raises(ValueError, match="not finite"):
                accumulate_gram(chunks)


def test_accumulate_gram_rejects_no_blocks():
    with pytest.raises(ValueError):
        accumulate_gram(iter(()))


# ------------------------------------------------- library entry points

DOCUMENTED = re.compile(
    "noise variance must be >= 0|blocks must be finite|no blocks to correlate"
    "|Gram is not finite|gram must be|n_blocks must be >= 1"
    "|requires a finite noise_variance"
)
TINY = Design(
    ArrayGeometry(3, 0.5, (0, 1, 2)), inverse_sin_grid(3), CosetPattern(4, (0, 1, 3))
)
VARIANCES = st.one_of(
    st.floats(1e-45, 1e80),
    st.sampled_from([0.0, -1.0, 1e-45, 3.4e38, 1e39, float("inf"), float("nan")]),
)
POKES = st.sampled_from([None, "zeros", float("inf"), float("nan"), -float("inf")])


def poked(array, poke, rng):
    """A copy of array holding the poke: all zeros, or one special entry."""
    array = np.array(array)
    if poke == "zeros":
        array[...] = 0
    elif poke is not None and array.size:
        array.flat[rng.integers(array.size)] = poke
    return array


def finite_or_documented(call, *args):
    """call(*args), or None when it raises a documented ValueError."""
    try:
        return call(*args)
    except ValueError as err:
        assert DOCUMENTED.search(str(err)), err
        return None


def assert_finite_estimate(result):
    rec, spec = result
    assert np.isfinite(rec.source_lags).all() and np.isfinite(rec.sigma_n_hat)
    assert np.isfinite(spec.values).all()


# pytest turns RuntimeWarning into an error, as a caller may: a warning
# fails these tests as an undocumented error would


@settings(max_examples=30, deadline=None)
@given(
    source_variance=VARIANCES,
    noise_variance=VARIANCES,
    n_blocks=st.integers(-2, 6),
    seed=st.integers(0, 2 ** 16),
)
@example(source_variance=1.0, noise_variance=float("nan"), n_blocks=5, seed=0)
def test_block_chunks_give_finite_blocks_or_a_documented_error(
    source_variance, noise_variance, n_blocks, seed
):
    sources = ()
    if source_variance > 0:
        sources = (SourceSpec(0.0, (-0.5 * np.pi, 0.5 * np.pi), source_variance),)
    args = (sources, TINY.geometry, TINY.pattern, noise_variance, n_blocks, seed, 1)
    chunks = finite_or_documented(lambda: list(block_chunks(*args)))
    if not noise_variance >= 0:
        assert chunks is None
    elif chunks is not None:
        assert sum(len(c) for c in chunks) == max(n_blocks, 0)
        assert all(np.isfinite(c).all() for c in chunks)


@settings(max_examples=60, deadline=None)
@given(
    scale=st.floats(1e-30, 1e30),
    wide=st.booleans(),
    n_blocks=st.integers(0, 5),
    split=st.integers(0, 5),
    block_poke=POKES,
    gram_poke=POKES,
    gram_count=st.sampled_from([None, 0, -3]),
    noise_mode=st.sampled_from(["estimate", "known"]),
    noise_variance=VARIANCES,
    seed=st.integers(0, 2 ** 16),
)
# an empty chunk; a NaN Gram; a Gram over no blocks; a NaN known variance
@example(1.0, False, 3, 0, None, None, None, "estimate", 1.0, 0)
@example(1.0, False, 3, 1, None, float("nan"), None, "estimate", 1.0, 0)
@example(1.0, False, 3, 1, None, None, 0, "estimate", 1.0, 0)
@example(1.0, False, 3, 1, None, None, None, "known", float("nan"), 0)
def test_gram_entry_points_give_a_finite_estimate_or_a_documented_error(
    scale, wide, n_blocks, split, block_poke, gram_poke, gram_count, noise_mode,
    noise_variance, seed,
):
    rng = np.random.default_rng(seed)
    shape = (n_blocks, 3, 3)
    with np.errstate(over="ignore"):
        blocks = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
        blocks = blocks.astype(np.complex128 if wide else np.complex64)
    blocks = poked(blocks, block_poke, rng)
    split = min(split, n_blocks)
    chunks = [blocks[:split], blocks[split:]]
    folded = finite_or_documented(accumulate_gram, chunks)
    with np.errstate(over="ignore", invalid="ignore"):
        overflows = not all(np.isfinite(block_gram(c)).all() for c in chunks)
    assert (folded is None) == (n_blocks == 0 or overflows)
    snapshots = finite_or_documented(SnapshotBlocks, blocks)
    if snapshots is not None:
        result = finite_or_documented(
            spectrum_from_blocks, TINY, snapshots, noise_mode, noise_variance
        )
        if result is not None:
            assert_finite_estimate(result)
    if folded is not None:
        gram, count = folded
        result = finite_or_documented(
            spectrum_from_gram,
            TINY,
            poked(gram, gram_poke, rng),
            count if gram_count is None else gram_count,
            noise_mode,
            noise_variance,
        )
        if result is not None:
            assert_finite_estimate(result)


def test_spectrum_from_gram_refuses_a_gram_of_another_design():
    # the Gram of 3 antennas and 2 coset rows is 6 x 6; TINY's is 9 x 9
    gram = np.eye(6, dtype=complex)
    with pytest.raises(ValueError, match="gram must be 9 x 9"):
        spectrum_from_gram(TINY, gram, 1, "estimate", 1.0)
