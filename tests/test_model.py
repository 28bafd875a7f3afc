"""Manifold, Khatri-Rao product, angular grid, rank reporting."""

import numpy as np
import pytest

from jafs.geometry import solve_sparse_ruler
from jafs.model import (
    AngularGrid,
    ArrayGeometry,
    inverse_sin_grid,
    manifold_and_kr,
    rank_report,
    steering_vector,
    virtual_ula_row_indices,
)

MRA35 = solve_sparse_ruler(35).marks


def paper_geometry():
    return ArrayGeometry(n_underlying=36, spacing_d=0.5, active_marks=MRA35)


def test_inverse_sin_grid_examples():
    g3 = inverse_sin_grid(3)
    np.testing.assert_allclose(
        g3.angles, [np.arcsin(-2 / 3), 0.0, np.arcsin(2 / 3)], atol=1e-15
    )

    g71 = inverse_sin_grid(71)
    assert g71.angles[35] == 0.0

    g2 = inverse_sin_grid(2)
    np.testing.assert_allclose(g2.angles, [-np.pi / 2, 0.0], atol=1e-15)

    assert inverse_sin_grid(1).angles[0] == 0.0


def test_inverse_sin_grid_odd_symmetry():
    for q in (3, 15, 71):
        ang = inverse_sin_grid(q).angles
        assert 0.0 in ang
        np.testing.assert_allclose(ang, -ang[::-1], atol=1e-15)
        assert np.all(np.diff(ang) > 0)


def test_angular_grid_validation():
    with pytest.raises(ValueError):
        AngularGrid(q_count=2, angles=np.array([0.3, 0.1]))
    with pytest.raises(ValueError):
        AngularGrid(q_count=2, angles=np.array([0.0, 2.0]))
    with pytest.raises(ValueError):
        AngularGrid(q_count=3, angles=np.array([0.0, 0.1]))


def test_angular_grid_rejects_nan_angle():
    with pytest.raises(ValueError, match="lie in"):
        AngularGrid(q_count=3, angles=np.array([-0.5, np.nan, 0.5]))


def test_array_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(4, 0.5, (0, 0, 1))
    with pytest.raises(ValueError):
        ArrayGeometry(4, 0.5, (0, 4))
    with pytest.raises(ValueError):
        ArrayGeometry(4, 0.75, (0, 1))
    geo = ArrayGeometry(4, 0.5, (2, 0))
    assert geo.active_marks == (0, 2)  # sorted on entry
    np.testing.assert_allclose(geo.positions, [0.0, 1.0])


def test_steering_vector_examples():
    np.testing.assert_allclose(steering_vector(0.0, [0, 0.5, 3.7]), np.ones(3))
    np.testing.assert_allclose(
        steering_vector(np.pi / 2, [0, 0.5, 1.0]), [1, -1, 1], atol=1e-12
    )
    np.testing.assert_allclose(
        steering_vector(np.arcsin(2 / 3), [0.75]), [-1], atol=1e-12
    )


def test_manifold_single_antenna():
    geo = ArrayGeometry(1, 0.5, (0,))
    mats = manifold_and_kr(geo, inverse_sin_grid(4))
    np.testing.assert_allclose(mats.B, np.ones((1, 4)))
    np.testing.assert_allclose(mats.KR, np.ones((1, 4)))
    np.testing.assert_allclose(mats.noise_column, [1.0])


def test_kr_matches_naive_double_loop():
    geo = ArrayGeometry(8, 0.5, (0, 1, 4, 6))
    grid = inverse_sin_grid(5)
    mats = manifold_and_kr(geo, grid)
    m = geo.m_active
    pos = geo.positions
    assert mats.KR.shape == (m * m, grid.q_count)
    for q, theta in enumerate(grid.angles):
        for i in range(m):
            for j in range(m):
                v = i + j * m  # column-major index of R[i, j]
                want = np.exp(2j * np.pi * (pos[i] - pos[j]) * np.sin(theta))
                assert mats.KR[v, q] == pytest.approx(want, abs=1e-12)


def test_unit_modulus_entries():
    mats = manifold_and_kr(paper_geometry(), inverse_sin_grid(71))
    np.testing.assert_allclose(np.abs(mats.B), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(mats.KR), 1.0, atol=1e-12)


def test_noise_column_is_vectorized_identity():
    geo = ArrayGeometry(8, 0.5, (0, 1, 4, 6))
    mats = manifold_and_kr(geo, inverse_sin_grid(3))
    m = geo.m_active
    assert mats.noise_column.sum() == m
    ones = np.flatnonzero(mats.noise_column)
    np.testing.assert_array_equal(ones, [i + i * m for i in range(m)])


def test_two_antenna_kr_rank():
    geo = ArrayGeometry(2, 0.5, (0, 1))
    mats = manifold_and_kr(geo, inverse_sin_grid(3))
    assert mats.KR.shape == (4, 3)
    assert rank_report(mats.KR)["rank"] == 3


def test_paper_kr_rank_and_augmentation():
    mats = manifold_and_kr(paper_geometry(), inverse_sin_grid(71))
    assert mats.KR.shape == (100, 71)
    report = rank_report(mats.KR, mats.noise_column)
    assert report["rank"] == 71
    # With half-wavelength spacing, a complete co-array, and the
    # inverse-sine grid the column sums of KR hit Q * delta[k mod Q], so
    # vec(I) = KR @ (1/Q) and adjoining it adds nothing to the span.
    assert report["augmented_rank"] == 71
    aug_sol = np.full(71, 1 / 71)
    assert np.max(np.abs(mats.KR @ aug_sol - mats.noise_column)) < 1e-12
    assert np.isfinite(report["condition_number"])


def test_rank_report_trivial_and_deficient():
    report = rank_report(np.ones((1, 1)))
    assert report["rank"] == 1
    assert report["condition_number"] == 1.0

    # duplicated grid angle gives duplicated KR columns
    geo = ArrayGeometry(8, 0.5, (0, 1, 4, 6))
    theta = np.array([-0.4, 0.1, 0.1 + 1e-17, 0.6])
    B = np.exp(2j * np.pi * np.outer(geo.positions, np.sin(theta)))
    KR = np.einsum("iq,jq->ijq", B.conj(), B).reshape(16, 4)
    assert rank_report(KR)["rank"] < 4


def test_virtual_rows_form_scaled_dft():
    geo = paper_geometry()
    mats = manifold_and_kr(geo, inverse_sin_grid(71))
    rows = virtual_ula_row_indices(geo, 71)
    assert rows.shape == (71,)
    S = mats.KR[rows]
    gram = S @ S.conj().T / 71.0
    assert np.linalg.norm(gram - np.eye(71), "fro") < 1e-10


def test_virtual_rows_small_case():
    geo = ArrayGeometry(2, 0.5, (0, 1))
    rows = virtual_ula_row_indices(geo, 3)
    marks = np.asarray(geo.active_marks)
    diffs = [marks[v % 2] - marks[v // 2] for v in rows]
    assert diffs == [-1, 0, 1]
    with pytest.raises(ValueError):
        virtual_ula_row_indices(geo, 4)


def test_matrices_are_immutable():
    mats = manifold_and_kr(ArrayGeometry(2, 0.5, (0, 1)), inverse_sin_grid(3))
    with pytest.raises(ValueError):
        mats.KR[0, 0] = 0
