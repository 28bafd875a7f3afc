"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
pass/fail line per criterion.  Each test prints its verdict before
asserting, so failures still leave the line in the captured output.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from jafs.estimate import (
    Design,
    assemble_all,
    build_rct,
    find_peaks,
    recover_angular,
    recover_lags,
    repetition_matrix,
    spectrum,
    spectrum_from_blocks,
)
from jafs.geometry import (
    check_sine_grid_residues,
    check_virtual_ula,
    difference_set,
    solve_sparse_ruler,
    validate_ruler,
)
from jafs.model import (
    ArrayGeometry,
    inverse_sin_grid,
    manifold_and_kr,
    rank_report,
    virtual_ula_row_indices,
)
from jafs.oracle import exact_correlations, place_on_grid
from jafs.scenario import grid_of, load_scenario, pattern_of, run_scenario
from jafs.simulate import (
    CosetPattern,
    SourceSpec,
    build_coset_pattern,
    compressed_blocks,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

FLAGSHIP_MARKS = (0, 1, 4, 10, 16, 22, 28, 30, 33, 35)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} [{name}]: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)


def smoke_sources():
    return (
        SourceSpec(float(np.arcsin(-0.4)), (-0.8 * np.pi, -0.5 * np.pi), 5.0),
        SourceSpec(0.0, (-0.1 * np.pi, 0.2 * np.pi), 5.0),
        SourceSpec(float(np.arcsin(8 / 15)), (0.4 * np.pi, 0.75 * np.pi), 5.0),
    )


def smoke_design():
    geo = ArrayGeometry(8, 0.5, (0, 1, 2, 3, 7))
    grid = inverse_sin_grid(15)
    pattern = CosetPattern(8, (0, 1, 2, 3, 7))
    return geo, grid, pattern


def run_compressed(sources, geo, grid, pattern, noise_var, n_blocks, seed):
    z = compressed_blocks(sources, geo, pattern, noise_var, n_blocks, seed)
    return spectrum_from_blocks(Design(geo, grid, pattern), z, "estimate", noise_var)[0]


# --------------------------------------------------------------------- 1


def test_criterion_1_flagship_source_recovery(tmp_path):
    """12 bandpass sources at 40.5% temporal / 27.8% spatial sampling:
    every source must be detected within one grid cell with band edges
    within two frequency bins, over 5 independent seeds, in under 5
    minutes."""
    cfg = load_scenario(SCENARIOS / "mra36_q71.scenario")
    grid = grid_of(cfg)
    sines = np.sin(grid.angles)
    true_cells = [
        int(np.argmin(np.abs(sines - np.sin(s.true_doa)))) for s in cfg.sources
    ]
    bin_w = 2 * np.pi / 167

    t0 = time.perf_counter()
    per_seed = []
    for seed in range(5):
        report = run_scenario(
            cfg, output_dir=str(tmp_path / f"seed{seed}"), seed=seed
        )
        hits = 0
        for src, cell in zip(cfg.sources, true_cells):
            matched = False
            for det in report["detections"]:
                if abs(det["grid_index"] - cell) > 1:
                    continue
                for lo, hi in det["bands_rad"]:
                    overlap = hi > src.band[0] and lo < src.band[1]
                    edges_ok = (
                        abs(lo - src.band[0]) <= 2 * bin_w
                        and abs(hi - src.band[1]) <= 2 * bin_w
                    )
                    if overlap and edges_ok:
                        matched = True
            hits += matched
        per_seed.append(hits)
    elapsed = time.perf_counter() - t0

    ok = all(h >= 11 for h in per_seed) and elapsed < 300
    _verdict(
        1,
        "flagship source recovery",
        ok,
        f"hits per seed {per_seed}, {elapsed:.1f} s",
    )
    assert all(h >= 11 for h in per_seed), f"per-seed hits {per_seed}"
    assert elapsed < 300, f"took {elapsed:.1f} s"


# --------------------------------------------------------------------- 2


def test_criterion_2_exact_input_equivalence():
    """On exact correlation inputs the estimator must reproduce the
    closed-form angle-lag field to 1e-8 relative Frobenius error, on
    both the small and the flagship geometry."""
    results = []

    # small geometry
    geo, grid, pattern = smoke_design()
    sources = smoke_sources()
    exact = exact_correlations(sources, geo, grid, pattern, 5.0)
    corr = recover_lags(build_rct(pattern), exact.pair_vecs)
    rec = recover_angular(manifold_and_kr(geo, grid), assemble_all(corr))
    truth = place_on_grid(sources, grid, pattern.n_t)
    err_small = float(np.linalg.norm(rec.source_lags - truth) / np.linalg.norm(truth))
    sig_small = abs(rec.sigma_n_hat - 5.0) / 5.0
    results.append((err_small, sig_small))

    # flagship geometry with three on-grid sources
    geo_big = ArrayGeometry(36, 0.5, FLAGSHIP_MARKS)
    grid_big = inverse_sin_grid(71)
    pattern_big = build_coset_pattern(84, 34, master_seed=0)
    src_big = (
        SourceSpec(
            float(np.arcsin(-50 / 71)), (-0.275 * np.pi, -0.2 * np.pi), 5.0
        ),
        SourceSpec(0.0, (0.05 * np.pi, 0.125 * np.pi), 5.0),
        SourceSpec(float(np.arcsin(50 / 71)), (0.5 * np.pi, 0.575 * np.pi), 5.0),
    )
    exact_big = exact_correlations(src_big, geo_big, grid_big, pattern_big, 5.0)
    corr_big = recover_lags(build_rct(pattern_big), exact_big.pair_vecs)
    rec_big = recover_angular(
        manifold_and_kr(geo_big, grid_big), assemble_all(corr_big)
    )
    truth_big = place_on_grid(src_big, grid_big, 84)
    err_big = float(
        np.linalg.norm(rec_big.source_lags - truth_big) / np.linalg.norm(truth_big)
    )
    sig_big = abs(rec_big.sigma_n_hat - 5.0) / 5.0
    results.append((err_big, sig_big))

    ok = all(e < 1e-8 and s < 1e-8 for e, s in results)
    _verdict(
        2,
        "exact-input equivalence",
        ok,
        f"rel errors {err_small:.2e} / {err_big:.2e}",
    )
    assert err_small < 1e-8 and sig_small < 1e-8
    assert err_big < 1e-8 and sig_big < 1e-8


# --------------------------------------------------------------------- 3


def test_criterion_3_design_certificates():
    """The flagship design must carry every guarantee: a 71-element
    virtual ULA, 71 distinct sine-grid residues, full lag coverage,
    Khatri-Rao rank 71, and unitary virtual rows."""
    geo = ArrayGeometry(36, 0.5, FLAGSHIP_MARKS)
    from fractions import Fraction

    diffs = difference_set(FLAGSHIP_MARKS, Fraction(1, 2))
    cert1 = check_virtual_ula(diffs, 71, Fraction(1, 2))
    cert2 = check_sine_grid_residues(diffs, 71)
    pattern = build_coset_pattern(84, 34, master_seed=0)
    rct = build_rct(pattern)
    mats = manifold_and_kr(geo, inverse_sin_grid(71))
    report = rank_report(mats.KR, mats.noise_column)

    rows = virtual_ula_row_indices(geo, 71)
    S = mats.KR[rows, :]
    unitary_gap = float(
        np.linalg.norm(S @ S.conj().T / 71 - np.eye(71))
    )

    ok = (
        cert1.passed
        and cert1.witness["run_length"] == 71
        and cert2.passed
        and cert2.witness["distinct_residues"] == 71
        and rct.full_column_rank
        and report["rank"] == 71
        and unitary_gap < 1e-10
    )
    _verdict(
        3,
        "design certificates",
        ok,
        f"virtual run {cert1.witness['run_length']}, "
        f"residues {cert2.witness['distinct_residues']}, "
        f"rank {report['rank']}, unitary gap {unitary_gap:.1e}",
    )
    assert cert1.passed and cert1.witness["run_length"] == 71
    assert cert2.passed and cert2.witness["distinct_residues"] == 71
    assert rct.full_column_rank
    assert report["rank"] == 71
    assert unitary_gap < 1e-10


# --------------------------------------------------------------------- 4


def brute_force_minimal(length):
    """Smallest lex-least mark set covering 1..length, by direct search."""
    for k in range(2, length + 2):
        for interior in itertools.combinations(range(1, length), k - 2):
            marks = (0,) + interior + (length,)
            if validate_ruler(marks, length):
                return marks
    raise AssertionError("unreachable")


def test_criterion_4_ruler_optimality():
    """The solver must return provably minimal rulers for every length
    up to 13 and validate the two library designs."""
    all_match = True
    for length in range(1, 14):
        got = solve_sparse_ruler(length)
        ref = brute_force_minimal(length)
        if got.marks != ref or not got.minimal:
            all_match = False
            break

    lib35 = solve_sparse_ruler(35)
    lib83 = solve_sparse_ruler(83)
    lib_ok = (
        validate_ruler(lib35.marks, 35)
        and len(lib35.marks) == 10
        and validate_ruler(lib83.marks, 83)
        and len(lib83.marks) == 16
    )
    ok = all_match and lib_ok
    _verdict(
        4,
        "ruler optimality",
        ok,
        f"lengths 1-13 exhaustive, library 35:{len(lib35.marks)} marks "
        f"83:{len(lib83.marks)} marks",
    )
    assert all_match
    assert lib_ok


# --------------------------------------------------------------------- 5


def test_criterion_5_statistical_convergence():
    """Estimation error must shrink as 1/sqrt(block count): log-log
    slope -0.5 +/- 0.15 over 10^2..10^4 blocks, and the noise power
    estimate lands within 5% at 10^4 blocks."""
    geo, grid, pattern = smoke_design()
    sources = smoke_sources()
    truth = place_on_grid(sources, grid, pattern.n_t)
    counts = (100, 1000, 10_000)
    errors = []
    sigma_at_max = None
    for n_blocks in counts:
        rec = run_compressed(sources, geo, grid, pattern, 5.0, n_blocks, seed=0)
        errors.append(
            float(np.linalg.norm(rec.source_lags - truth) / np.linalg.norm(truth))
        )
        if n_blocks == counts[-1]:
            sigma_at_max = rec.sigma_n_hat
    slope = float(np.polyfit(np.log10(counts), np.log10(errors), 1)[0])
    sigma_err = abs(sigma_at_max - 5.0) / 5.0

    ok = abs(slope + 0.5) <= 0.15 and sigma_err < 0.05
    _verdict(
        5,
        "statistical convergence",
        ok,
        f"slope {slope:.3f}, sigma error {100 * sigma_err:.2f}%",
    )
    assert abs(slope + 0.5) <= 0.15, f"slope {slope}"
    assert sigma_err < 0.05, f"sigma error {sigma_err:.4f}"


# --------------------------------------------------------------------- 6


def test_criterion_6_structural_identities():
    """Exact linear-algebra identities: the repetition matrix reproduces
    Toeplitz vectorization for all N_t <= 16, compression matches the
    Kronecker form, and every spectrum row obeys Parseval."""
    rng = np.random.default_rng(0)

    toeplitz_ok = True
    for n_t in range(1, 17):
        n_lags = 2 * n_t - 1
        r = rng.standard_normal(n_lags) + 1j * rng.standard_normal(n_lags)
        idx = (np.arange(n_t)[:, None] - np.arange(n_t)[None, :]) % n_lags
        expected = r[idx].flatten(order="F")
        got = repetition_matrix(n_t).apply(r)
        if not np.allclose(got, expected, atol=1e-14):
            toeplitz_ok = False

    rows = (0, 2, 3, 6, 7)
    n_t = 8
    C = np.zeros((len(rows), n_t))
    C[np.arange(len(rows)), rows] = 1.0
    M = rng.standard_normal((n_t, n_t)) + 1j * rng.standard_normal((n_t, n_t))
    kron_gap = float(
        np.max(
            np.abs(
                np.kron(C, C) @ M.flatten(order="F")
                - (C @ M @ C.T).flatten(order="F")
            )
        )
    )

    lags = rng.standard_normal((4, 31)) + 1j * rng.standard_normal((4, 31))
    spec = spectrum(lags, inverse_sin_grid(4))
    parseval = float(
        np.max(
            np.abs(spec.values.sum(axis=1) - 31 * lags[:, 0])
            / np.abs(31 * lags[:, 0])
        )
    )

    ok = toeplitz_ok and kron_gap < 1e-12 and parseval < 1e-8
    _verdict(
        6,
        "structural identities",
        ok,
        f"kron gap {kron_gap:.1e}, parseval {parseval:.1e}",
    )
    assert toeplitz_ok
    assert kron_gap < 1e-12
    assert parseval < 1e-8
