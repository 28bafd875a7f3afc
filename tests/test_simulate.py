"""Source synthesis, array snapshots, compression, and snapshot I/O."""

import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jafs import simulate
from jafs.model import ArrayGeometry
from jafs.simulate import (
    DRAW_THREAD_PREFIX,
    CosetPattern,
    SnapshotBlocks,
    SourceSpec,
    block_chunks,
    build_coset_pattern,
    chunk_blocks,
    compressed_blocks,
    design_bandpass,
    draw_threads,
    noise_rng,
    read_snapshots,
    source_rng,
    spatial_compress,
    synth_source,
    temporal_compress,
    ula_snapshots,
    write_snapshots,
)

TABLE_BAND = (0.05 * np.pi, 0.125 * np.pi)


def small_geometry():
    return ArrayGeometry(8, 0.5, (0, 1, 2, 3, 7))


# ---------------------------------------------------------------- specs


def test_source_spec_validation():
    SourceSpec(0.0, (-0.1 * np.pi, 0.2 * np.pi), 1.0)
    with pytest.raises(ValueError):
        SourceSpec(0.0, (0.2, 0.1), 1.0)  # reversed band
    with pytest.raises(ValueError):
        SourceSpec(0.0, (-4.0, 0.1), 1.0)  # below -pi
    with pytest.raises(ValueError):
        SourceSpec(0.0, (-0.1, 0.1), 0.0)  # zero power
    with pytest.raises(ValueError):
        SourceSpec(2.0, (-0.1, 0.1), 1.0)  # DOA outside (-pi/2, pi/2]


def test_coset_pattern_validation():
    p = CosetPattern(8, (3, 0, 7))
    assert p.rows == (0, 3, 7)  # stored sorted
    assert p.m_t == 3
    with pytest.raises(ValueError):
        CosetPattern(8, (0, 0, 3))
    with pytest.raises(ValueError):
        CosetPattern(8, (0, 8))
    with pytest.raises(ValueError):
        CosetPattern(8, ())


# ------------------------------------------------------------- filters


def test_allpass_single_tap_is_identity():
    np.testing.assert_array_equal(design_bandpass((-np.pi, np.pi), 1), [1.0 + 0j])


def test_bandpass_center_gain_and_stopband():
    taps = design_bandpass(TABLE_BAND, 84)
    center = 0.5 * (TABLE_BAND[0] + TABLE_BAND[1])
    gain = abs(np.sum(taps * np.exp(-1j * center * np.arange(84))))
    assert abs(gain - 1.0) < 1e-12
    # far stopband: response at -pi/2 must be well below -20 dB
    h_stop = abs(np.sum(taps * np.exp(-1j * (-np.pi / 2) * np.arange(84))))
    assert 20 * np.log10(h_stop) < -20.0


def test_bandpass_energy_concentration():
    taps = design_bandpass(TABLE_BAND, 84)
    nfft = 65536
    psd = np.abs(np.fft.fft(taps, nfft)) ** 2
    freqs = 2 * np.pi * np.fft.fftfreq(nfft)
    guard = 4 * np.pi / 84  # one mainlobe width on each side
    inband = (freqs >= TABLE_BAND[0] - guard) & (freqs <= TABLE_BAND[1] + guard)
    assert psd[~inband].sum() / psd.sum() < 0.02


def test_one_sided_band_rejects_mirror_frequency():
    taps = design_bandpass(TABLE_BAND, 84)
    assert np.abs(taps.imag).max() > 1e-3
    # the passband has no image at negative frequencies
    center = 0.5 * (TABLE_BAND[0] + TABLE_BAND[1])
    h_mirror = abs(np.sum(taps * np.exp(1j * center * np.arange(84))))
    assert h_mirror < 0.01
    # a symmetric band centers at 0 and the taps drop to a real sinc
    sym = design_bandpass((-0.3 * np.pi, 0.3 * np.pi), 33)
    assert np.abs(sym.imag).max() == 0.0


def test_bandpass_rejects_unresolvable_width():
    with pytest.raises(ValueError):
        design_bandpass((0.0, 0.01 * np.pi), 8)  # width < 2*pi/8
    with pytest.raises(ValueError):
        design_bandpass((0.5, 0.4), 64)
    with pytest.raises(ValueError):
        design_bandpass((-0.1, 0.1), 0)


# ------------------------------------------------------------- sampler


def test_circular_normals_moments_and_marginal():
    # 10**6 samples from one stream; each moment within 5 standard errors
    # (|z|**2/sigma**2 is Exp(1): sd 1; z**2/sigma**2 has sd 1 per part;
    # |z|**4/sigma**4 has sd sqrt(20))
    n, sigma = 10**6, 1.7
    z = np.empty(n, dtype=np.complex64)
    simulate._circular_normals(source_rng(9, 0).random((n, 2)), sigma, z)
    z = z.astype(complex)
    power = np.abs(z) ** 2 / sigma**2
    assert abs(power.mean() - 1) < 5 / np.sqrt(n)
    assert abs(np.mean(z * z)) / sigma**2 < 5 / np.sqrt(n)
    assert abs(np.mean(power**2) - 2) < 5 * np.sqrt(20 / n)
    # each part is N(0, sigma**2/2): the empirical CDF within the
    # Dvoretzky-Kiefer-Wolfowitz bound, exceeded with probability < 3e-8
    points = np.array([-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
    normal_cdf = np.array([0.5 * (1 + math.erf(x / np.sqrt(2))) for x in points])
    for part in (z.real, z.imag):
        x = np.sort(part / (sigma / np.sqrt(2)))
        ecdf = np.searchsorted(x, points, side="right") / n
        assert np.abs(ecdf - normal_cdf).max() < 3 / np.sqrt(n)


@pytest.mark.parametrize(
    "u0, radius", [(1 - 2.0**-53, np.sqrt(53 * np.log(2))), (0.0, 0.0)]
)
def test_circular_normals_at_the_ends_of_the_uniforms(monkeypatch, u0, radius):
    # a stub noise stream whose every radius uniform is u0: the largest
    # float64 uniform below 1 gives the largest radius, finite and without
    # a warning (pytest turns RuntimeWarnings into errors); 0 gives 0
    class Constant:
        def random(self, *, out):
            out[..., 0] = u0
            out[..., 1] = 0.125

    monkeypatch.setattr(simulate, "noise_rng", lambda *a: Constant())
    sigma = 1.5
    z = compressed_blocks((), small_geometry(), CosetPattern(8, (0, 3)), sigma**2, 5, 0).blocks
    assert np.isfinite(z).all()
    np.testing.assert_allclose(np.abs(z), sigma * radius, rtol=1e-6)
    np.testing.assert_allclose(np.angle(z[z != 0]), np.pi / 4, rtol=1e-6)


def test_huge_noise_variance_is_refused_as_non_finite():
    # past float32 range the draws overflow: the chunk's finiteness check
    # reports it, not a RuntimeWarning from a draw thread
    chunks = block_chunks(
        (), ArrayGeometry(2, 0.5, (0, 1)), CosetPattern(1, (0,)), 1e80, 10, 0, 1
    )
    with pytest.raises(ValueError, match="blocks must be finite"):
        next(chunks)


@pytest.mark.parametrize(
    "source_variance, noise_variance", [(1e80, 1.0), (1.0, 1e80), (1e80, 1e80)]
)
def test_huge_variance_with_a_source_is_refused_as_non_finite(
    source_variance, noise_variance
):
    # a source past float32 range overflows in the FIR and steering
    # products, noise past it in the draws: the chunk's finiteness check
    # reports either, not a RuntimeWarning from a product
    src = SourceSpec(0.0, (-0.5 * np.pi, 0.5 * np.pi), source_variance)
    chunks = block_chunks(
        (src,),
        ArrayGeometry(2, 0.5, (0, 1)),
        CosetPattern(4, (0, 1, 2, 3)),
        noise_variance,
        10,
        0,
        1,
    )
    with pytest.raises(ValueError, match="blocks must be finite"):
        next(chunks)


# ------------------------------------------------------------- sources


def test_synth_source_power_matches_filter_energy():
    spec = SourceSpec(0.0, TABLE_BAND, 5.0)
    taps = design_bandpass(TABLE_BAND, 84)
    expected = 5.0 * np.sum(np.abs(taps) ** 2)
    x = synth_source(spec, 200_000, 84, source_rng(123, 0))
    measured = np.mean(np.abs(x) ** 2)
    assert abs(measured - expected) / expected < 0.05


def test_synth_source_white_case_unit_variance():
    spec = SourceSpec(0.0, (-np.pi, np.pi), 1.0)
    n = 100_000
    x = synth_source(spec, n, 1, source_rng(7, 0))
    assert x.shape == (n,)
    assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 5 / np.sqrt(n)
    # circularity: pseudo-variance 0
    assert abs(np.mean(x * x)) < 5 / np.sqrt(n)


@pytest.mark.parametrize("total, n_taps", [(1000, 8), (997, 84), (50, 3)])
def test_synth_source_matches_direct_convolution(total, n_taps):
    # the blocked FIR against numpy's direct 'valid' convolution of the
    # same input draws; only the summation order differs
    spec = SourceSpec(0.0, (-0.3 * np.pi, 0.4 * np.pi), 2.0)
    draws = source_rng(4, 0).random((total + n_taps - 1, 2))
    white = np.empty(len(draws), dtype=np.complex64)
    simulate._circular_normals(draws, np.sqrt(spec.input_variance), white)
    expect = np.convolve(
        white.astype(complex), design_bandpass(spec.band, n_taps), mode="valid"
    )
    got = synth_source(spec, total, n_taps, source_rng(4, 0))
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_t", [1, 2, 8, 84])
def test_fir_blocks_match_the_copied_windows(n_t):
    # head and tail views against one copied (blocks, 2N_t-1) window per
    # block; at N_t = 1 the tail has no columns
    rng = np.random.default_rng(n_t)
    blocks = 7
    white = rng.standard_normal((blocks + 1) * n_t - 1) + 1j * rng.standard_normal(
        (blocks + 1) * n_t - 1
    )
    taps = simulate._tap_matrix(
        rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t), range(n_t), n_t
    )
    windows = np.lib.stride_tricks.sliding_window_view(white, 2 * n_t - 1)[::n_t]
    got = simulate._fir_blocks(white, taps, n_t)
    assert got.shape == (blocks, n_t)
    np.testing.assert_allclose(got, windows @ taps, rtol=0, atol=1e-13)


def test_synth_source_zero_length():
    spec = SourceSpec(0.0, TABLE_BAND, 1.0)
    assert synth_source(spec, 0, 84, source_rng(0, 0)).size == 0


def test_synth_source_stationary_from_first_sample():
    # transient-free: the head of the sequence has the same power as the
    # body, which fails if unsettled filter output is kept
    spec = SourceSpec(0.0, (-0.5 * np.pi, 0.5 * np.pi), 4.0)
    x = synth_source(spec, 80_000, 32, source_rng(11, 0))
    head = np.mean(np.abs(x[:4000]) ** 2)
    body = np.mean(np.abs(x[40_000:]) ** 2)
    assert abs(head - body) / body < 0.15


# ----------------------------------------------------------- snapshots


def test_noise_only_blocks_have_noise_power():
    geo = small_geometry()
    snaps = ula_snapshots((), geo, 3.0, 400, 8, master_seed=5)
    assert snaps.shape == (400, 8, 8)
    power = np.mean(np.abs(snaps.blocks) ** 2)
    assert abs(power - 3.0) / 3.0 < 0.05


def test_sourceless_noiseless_blocks_are_zero():
    snaps = ula_snapshots((), small_geometry(), 0.0, 3, 8, master_seed=5)
    assert np.all(snaps.blocks == 0)


def test_broadside_source_identical_across_antennas():
    spec = SourceSpec(0.0, TABLE_BAND, 5.0)
    snaps = ula_snapshots((spec,), small_geometry(), 0.0, 10, 84, master_seed=2)
    for i in range(1, 8):
        np.testing.assert_allclose(
            snaps.blocks[:, i, :], snaps.blocks[:, 0, :], rtol=0, atol=1e-12
        )


def test_single_white_source_covariance_is_rank_one():
    # N_t = 1 keeps the source white, so R = var * a a^H + noise * I
    theta = np.radians(20.0)
    spec = SourceSpec(theta, (-np.pi, np.pi), 2.0)
    geo = ArrayGeometry(4, 0.5, (0, 1, 2, 3))
    n = 60_000
    snaps = ula_snapshots((spec,), geo, 0.5, n, 1, master_seed=9)
    x = snaps.blocks[:, :, 0]
    r = x.T @ x.conj() / n
    a = np.exp(2j * np.pi * geo.positions * np.sin(theta))
    expected = 2.0 * np.outer(a, a.conj()) + 0.5 * np.eye(4)
    assert np.linalg.norm(r - expected) / np.linalg.norm(expected) < 0.02


def test_snapshots_deterministic_and_seed_sensitive():
    spec = SourceSpec(0.3, TABLE_BAND, 5.0)
    a = ula_snapshots((spec,), small_geometry(), 1.0, 6, 84, master_seed=42)
    b = ula_snapshots((spec,), small_geometry(), 1.0, 6, 84, master_seed=42)
    c = ula_snapshots((spec,), small_geometry(), 1.0, 6, 84, master_seed=43)
    np.testing.assert_array_equal(a.blocks, b.blocks)
    assert not np.array_equal(a.blocks, c.blocks)


def test_snapshots_prefix_stable_in_block_count():
    # growing the acquisition must not rewrite earlier blocks: every
    # stream is drawn in one fixed order and every chunk is computed at
    # full size, so the prefix is bit-exact
    spec = SourceSpec(-0.2, (-0.8 * np.pi, -0.5 * np.pi), 5.0)
    short = ula_snapshots((spec,), small_geometry(), 2.0, 5, 8, master_seed=3)
    long = ula_snapshots((spec,), small_geometry(), 2.0, 40, 8, master_seed=3)
    np.testing.assert_array_equal(long.blocks[:5], short.blocks)

    noise_short = ula_snapshots((), small_geometry(), 2.0, 5, 8, master_seed=3)
    noise_long = ula_snapshots((), small_geometry(), 2.0, 40, 8, master_seed=3)
    np.testing.assert_array_equal(noise_long.blocks[:5], noise_short.blocks)


PREFIX_N_T = 64
PREFIX_CHUNK = chunk_blocks(PREFIX_N_T)
PREFIX_SOURCES = (
    SourceSpec(-0.2, (-0.8 * np.pi, -0.5 * np.pi), 5.0),
    SourceSpec(0.7, (0.1 * np.pi, 0.3 * np.pi), 3.0),
)


@settings(max_examples=12, deadline=None)
@given(
    n_short=st.integers(1, 2 * PREFIX_CHUNK + 2),
    extra=st.integers(1, 2 * PREFIX_CHUNK + 2),
)
@example(n_short=PREFIX_CHUNK, extra=1)
@example(n_short=PREFIX_CHUNK - 1, extra=2)
@example(n_short=1, extra=2 * PREFIX_CHUNK)
def test_prefix_exact_across_chunk_boundaries(n_short, extra):
    assert PREFIX_CHUNK > 1
    n_long = n_short + extra
    geo = small_geometry()
    pattern = CosetPattern(PREFIX_N_T, (0, 1, 5, 17, 40, 63))
    for simulate in (
        lambda n: ula_snapshots(PREFIX_SOURCES, geo, 2.0, n, PREFIX_N_T, 3),
        lambda n: compressed_blocks(PREFIX_SOURCES, geo, pattern, 2.0, n, 3),
    ):
        short, long = simulate(n_short), simulate(n_long)
        assert long.n_blocks == n_long
        np.testing.assert_array_equal(long.blocks[:n_short], short.blocks)


def draw_pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith(DRAW_THREAD_PREFIX)]


def prefix_chunks(sources, noise_variance, n_blocks, workers):
    pattern = CosetPattern(PREFIX_N_T, (0, 1, 5, 17, 40, 63))
    return list(
        block_chunks(sources, small_geometry(), pattern, noise_variance, n_blocks, 3, workers)
    )


@pytest.mark.parametrize(
    "sources, noise_variance, n_blocks",
    [
        (PREFIX_SOURCES, 2.0, 3 * PREFIX_CHUNK + 5),
        (PREFIX_SOURCES, 0.0, 2 * PREFIX_CHUNK + 1),
        ((), 2.0, 2 * PREFIX_CHUNK + 1),
        (PREFIX_SOURCES, 2.0, PREFIX_CHUNK - 1),
        (PREFIX_SOURCES, 2.0, 2 * PREFIX_CHUNK),
    ],
    ids=["noisy", "noise-free", "no-sources", "below-one-chunk", "exact-multiple"],
)
def test_chunks_do_not_depend_on_the_draw_threads(sources, noise_variance, n_blocks):
    # each stream is drawn by one task at a time, in time order; three
    # threads on a short switch interval make a race likelier to show
    one = prefix_chunks(sources, noise_variance, n_blocks, 1)
    assert sum(len(c) for c in one) == n_blocks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (2, 3):
            many = prefix_chunks(sources, noise_variance, n_blocks, workers)
            assert len(many) == len(one)
            for a, b in zip(one, many):
                assert a.dtype == b.dtype == np.complex64
                np.testing.assert_array_equal(a, b)
    finally:
        sys.setswitchinterval(interval)
    assert draw_pool_threads() == []


def test_draws_run_on_the_pool_and_filters_on_the_caller(monkeypatch):
    draw_threads_seen, fir_threads = set(), set()

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def random(self, *, out):
            draw_threads_seen.add(threading.current_thread().name)
            return self.rng.random(out=out)

    for name in ("noise_rng", "source_rng"):
        orig = getattr(simulate, name)
        monkeypatch.setattr(simulate, name, lambda *a, _orig=orig: Recording(_orig(*a)))
    orig_fir = simulate._fir_blocks

    def recording_fir(*args):
        fir_threads.add(threading.current_thread())
        return orig_fir(*args)

    monkeypatch.setattr(simulate, "_fir_blocks", recording_fir)
    prefix_chunks(PREFIX_SOURCES, 2.0, 3 * PREFIX_CHUNK, 2)
    assert draw_threads_seen and all(
        name.startswith(DRAW_THREAD_PREFIX) for name in draw_threads_seen
    )
    assert fir_threads == {threading.current_thread()}


def test_closing_the_generator_stops_the_draw_threads():
    pattern = CosetPattern(PREFIX_N_T, (0, 1, 5, 17, 40, 63))
    chunks = block_chunks(
        PREFIX_SOURCES, small_geometry(), pattern, 2.0, 5 * PREFIX_CHUNK, 3, 3
    )
    next(chunks)
    assert draw_pool_threads()
    chunks.close()
    assert draw_pool_threads() == []


@pytest.mark.parametrize("stream, n_streams", [("noise_rng", 5), ("source_rng", 2)])
def test_failed_draw_is_raised_and_stops_the_draw_threads(monkeypatch, stream, n_streams):
    calls = []

    class FailsInSecondChunk:
        def __init__(self, rng):
            self.rng = rng

        def random(self, *, out):
            calls.append(1)
            if len(calls) == n_streams + 1:
                raise RuntimeError("stream failed")
            return self.rng.random(out=out)

    orig = getattr(simulate, stream)
    monkeypatch.setattr(simulate, stream, lambda *a: FailsInSecondChunk(orig(*a)))
    pattern = CosetPattern(PREFIX_N_T, (0, 1, 5, 17, 40, 63))
    chunks = block_chunks(
        PREFIX_SOURCES, small_geometry(), pattern, 2.0, 4 * PREFIX_CHUNK, 3, 3
    )
    next(chunks)
    with pytest.raises(RuntimeError, match="stream failed"):
        next(chunks)
    assert draw_pool_threads() == []


def test_draw_thread_count_is_capped_by_the_streams():
    # a pure function: no thread is started to answer it
    assert draw_threads(10**6, 22) == 22
    assert draw_threads(2, 22) == 2
    assert draw_threads(3, 0) == 1
    assert draw_threads(None, 10**6) == len(os.sched_getaffinity(0))


def test_compressed_blocks_are_compressed_snapshots():
    # the compressed path computes only the kept rows and columns; it
    # must agree with compressing the full array up to rounding of the
    # complex64 FIR and steering products, whose shapes differ
    geo = small_geometry()
    pattern = CosetPattern(PREFIX_N_T, (0, 1, 5, 17, 40, 63))
    n = PREFIX_CHUNK + 3
    full = ula_snapshots(PREFIX_SOURCES, geo, 2.0, n, PREFIX_N_T, 3)
    kept = compressed_blocks(PREFIX_SOURCES, geo, pattern, 2.0, n, 3)
    expect = temporal_compress(spatial_compress(full, geo), pattern)
    atol = 8 * np.finfo(np.float32).eps * np.abs(expect.blocks).max()
    np.testing.assert_allclose(kept.blocks, expect.blocks, rtol=0, atol=atol)


@st.composite
def noise_designs(draw):
    """A random antenna selection and coset pattern on a small array."""
    n_s = draw(st.integers(1, 9))
    n_t = draw(st.integers(1, 12))
    marks = draw(st.sets(st.integers(0, n_s - 1), min_size=1))
    rows = draw(st.sets(st.integers(0, n_t - 1), min_size=1))
    return ArrayGeometry(n_s, 0.5, tuple(marks)), CosetPattern(n_t, tuple(rows))


@settings(max_examples=40, deadline=None)
@given(design=noise_designs(), n_blocks=st.integers(1, 40), seed=st.integers(0, 2**32))
def test_noise_only_blocks_are_exactly_the_full_array_compressed(design, n_blocks, seed):
    # one noise stream per antenna mark: which other antennas and which
    # coset columns are kept changes no value bit
    geo, pattern = design
    kept = compressed_blocks((), geo, pattern, 2.0, n_blocks, seed)
    full = ula_snapshots((), geo, 2.0, n_blocks, pattern.n_t, seed)
    expect = temporal_compress(spatial_compress(full, geo), pattern)
    np.testing.assert_array_equal(kept.blocks, expect.blocks)


def test_shared_mark_has_the_same_noise_in_every_geometry():
    # mark 3 is row 1 of the first selection and row 2 of the second
    pattern = CosetPattern(8, (0, 1, 3))
    a = compressed_blocks((), ArrayGeometry(8, 0.5, (0, 3)), pattern, 1.5, 30, 6)
    b = compressed_blocks((), ArrayGeometry(12, 0.5, (1, 2, 3, 11)), pattern, 1.5, 30, 6)
    np.testing.assert_array_equal(a.blocks[:, 1, :], b.blocks[:, 2, :])
    assert not np.array_equal(a.blocks[:, 0, :], b.blocks[:, 0, :])


def test_noise_of_distinct_antennas_is_uncorrelated():
    # for independent circular noise of variance s2, sqrt(N) times the
    # normalized lag-0 cross-correlation of two antennas has modulus
    # Rayleigh(1/sqrt(2)): P(|z| > 5) = exp(-25).  Antennas sharing one
    # stream would give |z| = sqrt(N).
    geo = ArrayGeometry(8, 0.5, tuple(range(8)))
    snaps = ula_snapshots((), geo, 2.0, 500, 8, master_seed=13)
    x = snaps.blocks.transpose(1, 0, 2).reshape(8, -1)
    n = x.shape[1]
    z = np.sqrt(n) * (x @ x.conj().T) / (2.0 * n)
    off = z[~np.eye(8, dtype=bool)]
    assert np.abs(off).max() < 5.0
    assert np.abs(np.diag(z) / np.sqrt(n) - 1.0).max() < 0.1


def test_snapshot_power_bookkeeping():
    # per-antenna mean power = sum of source autocorrelations at lag 0
    # plus the noise power (sources and noise are independent)
    specs = (
        SourceSpec(0.1, (-0.3 * np.pi, 0.1 * np.pi), 3.0),
        SourceSpec(-0.4, (0.2 * np.pi, 0.7 * np.pi), 2.0),
    )
    expected = 1.5
    for s in specs:
        taps = design_bandpass(s.band, 16)
        expected += s.input_variance * np.sum(np.abs(taps) ** 2)
    snaps = ula_snapshots(specs, small_geometry(), 1.5, 4000, 16, master_seed=1)
    measured = np.mean(np.abs(snaps.blocks) ** 2)
    assert abs(measured - expected) / expected < 0.05


# --------------------------------------------------------- compression


def test_spatial_compress_selects_marked_rows():
    geo = small_geometry()
    full = ArrayGeometry(8, 0.5, tuple(range(8)))
    snaps = ula_snapshots((), full, 1.0, 7, 8, master_seed=0)
    sub = spatial_compress(snaps, geo)
    assert sub.shape == (7, 5, 8)
    np.testing.assert_array_equal(sub.blocks, snaps.blocks[:, (0, 1, 2, 3, 7), :])


def test_temporal_compress_selects_pattern_columns():
    snaps = ula_snapshots((), small_geometry(), 1.0, 7, 8, master_seed=0)
    pattern = CosetPattern(8, (0, 1, 2, 3, 7))
    sub = temporal_compress(snaps, pattern)
    assert sub.shape == (7, 8, 5)
    np.testing.assert_array_equal(sub.blocks, snaps.blocks[:, :, (0, 1, 2, 3, 7)])


def test_temporal_compress_checks_block_length():
    snaps = ula_snapshots((), small_geometry(), 1.0, 3, 8, master_seed=0)
    with pytest.raises(ValueError):
        temporal_compress(snaps, CosetPattern(9, (0, 1, 5)))


def test_compressions_commute():
    full = ArrayGeometry(8, 0.5, tuple(range(8)))
    spec = SourceSpec(0.25, (-0.2 * np.pi, 0.3 * np.pi), 5.0)
    snaps = ula_snapshots((spec,), full, 1.0, 9, 8, master_seed=4)
    geo = small_geometry()
    pattern = CosetPattern(8, (0, 2, 5, 7))
    a = temporal_compress(spatial_compress(snaps, geo), pattern)
    b = spatial_compress(temporal_compress(snaps, pattern), geo)
    np.testing.assert_array_equal(a.blocks, b.blocks)


# -------------------------------------------------------- coset design


def test_build_coset_small_is_pure_ruler():
    assert build_coset_pattern(4, 3, master_seed=0).rows == (0, 1, 3)
    assert build_coset_pattern(2, 2, master_seed=0).rows == (0, 1)
    assert build_coset_pattern(1, 1, master_seed=0).rows == (0,)


def test_build_coset_large_has_ruler_plus_extras():
    pattern = build_coset_pattern(84, 34, master_seed=0)
    assert pattern.m_t == 34
    ruler = {0, 1, 2, 4, 9, 19, 29, 39, 49, 59, 69, 72, 75, 80, 81, 83}
    assert ruler <= set(pattern.rows)
    assert pattern.m_t / pattern.n_t == pytest.approx(0.40476, abs=1e-4)
    # deterministic in the seed
    again = build_coset_pattern(84, 34, master_seed=0)
    assert again.rows == pattern.rows
    other = build_coset_pattern(84, 34, master_seed=1)
    assert other.rows != pattern.rows


def test_build_coset_rejects_insufficient_rows():
    with pytest.raises(ValueError):
        build_coset_pattern(84, 10, master_seed=0)


# ----------------------------------------------------------------- I/O


def test_snapshot_roundtrip(tmp_path):
    spec = SourceSpec(0.2, TABLE_BAND, 5.0)
    snaps = ula_snapshots((spec,), small_geometry(), 1.0, 11, 84, master_seed=8)
    path = tmp_path / "blocks.bin"
    write_snapshots(path, snaps)
    back = read_snapshots(path)
    np.testing.assert_array_equal(back.blocks, snaps.blocks)


def test_snapshot_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_snapshots(path)


def test_snapshot_read_rejects_truncation(tmp_path):
    snaps = ula_snapshots((), small_geometry(), 1.0, 4, 8, master_seed=0)
    path = tmp_path / "blocks.bin"
    write_snapshots(path, snaps)
    data = path.read_bytes()
    for bad in (data[:-16], data + b"\x00" * 16):
        path.write_bytes(bad)
        with pytest.raises(ValueError):
            read_snapshots(path)


def test_stream_separation():
    # source, noise, and coset draws come from distinct streams
    a = source_rng(0, 0).standard_normal(4)
    b = noise_rng(0).standard_normal(4)
    assert not np.allclose(a, b)
    c = source_rng(0, 1).standard_normal(4)
    assert not np.allclose(a, c)


def test_data_streams_are_sfc64_and_the_coset_stream_pcg64():
    assert isinstance(source_rng(0, 1).bit_generator, np.random.SFC64)
    assert isinstance(noise_rng(0, 7).bit_generator, np.random.SFC64)
    # the flagship's coset rows (N_t = 84, M_t = 34, coset seed 0)
    assert build_coset_pattern(84, 34, 0).rows == (
        0, 1, 2, 4, 8, 9, 16, 18, 19, 22, 23, 24, 26, 29, 32, 39, 41,
        46, 47, 49, 51, 55, 56, 59, 60, 63, 67, 69, 70, 72, 75, 80, 81, 83,
    )


def test_blocks_reject_non_finite():
    bad = np.ones((2, 3, 4), dtype=complex)
    bad[1, 2, 3] = np.nan
    with pytest.raises(ValueError):
        SnapshotBlocks(bad)
