"""Scenario synthesis: filtered-Gaussian sources on a ULA, then compression.

Sources are wide-sense stationary by construction: circular complex white
Gaussian noise pushed through a length-N_t FIR bandpass, so each source's
autocorrelation is exactly zero beyond lag N_t-1.  Snapshot blocks group
N_t consecutive array samples; spatial compression keeps the active
antenna rows, temporal compression keeps the multi-coset sample columns.

block_chunks is the one simulation path.  It generates blocks in fixed
chunks of _CHUNK_SAMPLES time samples (whole blocks) and computes only
the kept rows and columns: each source's FIR outputs at the coset
columns, steered onto the active antennas, plus the active antennas'
noise at those columns.  The random streams are drawn on a small thread
pool one chunk ahead, while the calling thread filters, steers and hands
out the current chunk.  Memory is therefore set by three chunks (the
caller's, the one being finished and the one drawn ahead), not by N_n;
block_buffer_bytes gives it in closed form.  compressed_blocks and
ula_snapshots (nothing compressed away) gather all chunks into one
array; scenario runs fold them into a running Gram instead
(estimate.accumulate_gram), and dump_chunks streams them to a file on
the way.  The scenario commands (run, sweep, certify) run under
one_blas_thread from design to solve: the design's SVDs, the calling
thread's FIRs, steering and Gram updates and the least-squares solves
run on one BLAS thread, so no idle OpenBLAS worker spins on a CPU the
draw pool needs.

Precision: each complex normal is the polar (Box-Muller) transform of
a pair of float64 uniforms, computed in float32 and written straight
into BLOCK_DTYPE (complex64) by _circular_normals: the radius
sqrt(-ln(1-u0)) with 1-u0 formed in float64, then the cosine and sine
of the phase 2*pi*u1.  Its tail reaches the uniforms' resolution, 2**-53,
a radius of 6.06 standard deviations.  The tap matrices, steering, FIR
outputs and blocks are complex64, and estimate.accumulate_gram sums each
chunk's complex64 Gram into a complex128 one.  The estimator's error is
set by the block count (sampling error near 0.2 relative on the
flagship), far above float32 rounding.  Blocks must lie within float32
range: a value past it is not finite and raises.  Scenario runs never
get there: resolve refuses variances summing past
scenario.MAX_TOTAL_VARIANCE, below which neither the blocks nor a
chunk's complex64 Gram overflows.

Seeding gives every source its own named stream, every antenna of the
underlying ULA its own noise stream keyed by its mark, and one stream to
the random extra coset rows.  The source and noise streams, which draw
nearly all the uniforms, run on SFC64, which draws them in about 11%
less time than PCG64, numpy's default; the coset stream runs on PCG64
and fixes each seed's coset rows.  Only the active antennas' noise
streams are drawn, a uniform pair for each of the N_t samples of a block
in time order, and only the pairs of the coset columns are transformed,
each on its own, so an antenna's noise does not depend on which other
antennas or columns are kept: the compressed blocks are an exact subset
of the full array's for the same seed.  Every stream is consumed in time
order, independent of the block count, the chunk size and the
compression, and the last chunk is computed at full size before it is
cut, so enlarging N_n appends blocks and leaves every earlier one
bit-identical.
"""

from __future__ import annotations

import ctypes
import functools
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import solve_sparse_ruler
from .model import ArrayGeometry, steering_vector

# stream labels folded into the seed sequence entropy
_STREAM_SOURCE = 1
_STREAM_NOISE = 2
_STREAM_COSET = 3

# Nyquist time samples per simulated chunk, rounded down to whole blocks:
# 195 blocks at N_t = 84, 2048 at N_t = 8
_CHUNK_SAMPLES = 1 << 14

_SNAP_MAGIC = b"JAFSSNAP"

# element type of every block block_chunks yields; the uniforms are float64
BLOCK_DTYPE = np.dtype(np.complex64)

# name prefix of block_chunks' draw threads
DRAW_THREAD_PREFIX = "jafs-draw"


class CosetCardinalityError(ValueError):
    """M_t is below the cardinality of the length-(N_t-1) coset ruler."""


@dataclass(frozen=True)
class SourceSpec:
    """One far-field source: arrival angle, occupied band, input power."""

    true_doa: float
    band: tuple
    input_variance: float

    def __post_init__(self):
        lo, hi = self.band
        if not (-np.pi <= lo < hi <= np.pi):
            raise ValueError("band must satisfy -pi <= f_lo < f_hi <= pi")
        if not (self.input_variance > 0):
            raise ValueError("input variance must be positive")
        if not (-np.pi / 2 < self.true_doa <= np.pi / 2):
            raise ValueError("DOA must lie in (-pi/2, pi/2] radians")


@dataclass(frozen=True)
class CosetPattern:
    """Multi-coset sampler: which M_t of every N_t Nyquist samples survive."""

    n_t: int
    rows: tuple

    def __post_init__(self):
        rows = tuple(sorted(int(r) for r in self.rows))
        object.__setattr__(self, "rows", rows)
        if self.n_t < 1:
            raise ValueError("N_t must be >= 1")
        if len(set(rows)) != len(rows):
            raise ValueError("coset rows must be distinct")
        if rows and (rows[0] < 0 or rows[-1] >= self.n_t):
            raise ValueError(f"coset rows must lie in [0, {self.n_t - 1}]")
        if not rows:
            raise ValueError("at least one coset row required")

    @property
    def m_t(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class SnapshotBlocks:
    """N_n stacked blocks, shape (N_n, rows, columns)."""

    blocks: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.blocks)
        if arr.ndim != 3:
            raise ValueError("blocks must be a (N_n, rows, cols) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("blocks must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "blocks", arr)

    @property
    def n_blocks(self) -> int:
        return self.blocks.shape[0]

    @property
    def shape(self) -> tuple:
        return self.blocks.shape


def _stream(
    master_seed: int, label: int, index: int = 0, bit_generator=np.random.SFC64
) -> np.random.Generator:
    return np.random.Generator(
        bit_generator(np.random.SeedSequence(entropy=[int(master_seed), label, index]))
    )


def source_rng(master_seed: int, source_index: int) -> np.random.Generator:
    """The white input of source ``source_index``, on SFC64."""
    return _stream(master_seed, _STREAM_SOURCE, source_index)


def noise_rng(master_seed: int, mark: int = 0) -> np.random.Generator:
    """The additive noise of the antenna at ``mark`` on the underlying
    ULA, on SFC64: a pair of uniforms for each of the N_t circular complex
    normals of a block, in time order."""
    return _stream(master_seed, _STREAM_NOISE, mark)


def band_resolvable(band: tuple, n_taps: int) -> bool:
    """True iff the band is at least one DFT bin (2*pi/n_taps) wide, the
    narrowest band a length-n_taps filter resolves."""
    lo, hi = band
    return hi - lo + 1e-12 >= 2 * np.pi / n_taps


def design_bandpass(band: tuple, n_taps: int) -> np.ndarray:
    """Complex FIR bandpass: windowed frequency-shifted sinc, unit gain at
    band center.

    A band narrower than one DFT bin (2*pi/n_taps) cannot be resolved at
    this filter length and is rejected.  One-sided bands give complex,
    non-conjugate-symmetric taps.
    """
    lo, hi = band
    if not (-np.pi <= lo < hi <= np.pi):
        raise ValueError("band must satisfy -pi <= f_lo < f_hi <= pi")
    if n_taps < 1:
        raise ValueError("need at least one tap")
    width = hi - lo
    if not band_resolvable(band, n_taps):
        raise ValueError(
            f"band width {width:.4g} is below the 2*pi/{n_taps} resolution limit"
        )
    center = 0.5 * (lo + hi)
    half_width = 0.5 * width
    k = np.arange(n_taps) - (n_taps - 1) / 2.0
    # ideal bandpass = lowpass of cutoff half_width shifted to the center
    ideal = (half_width / np.pi) * np.sinc(half_width * k / np.pi)
    taps = ideal * np.exp(1j * center * k) * np.hamming(n_taps)
    # unit gain at band center
    freq_response = np.sum(taps * np.exp(-1j * center * np.arange(n_taps)))
    return taps / np.abs(freq_response)


def _tap_matrix(taps: np.ndarray, columns: Sequence[int], n_t: int) -> np.ndarray:
    """(2N_t-1, len(columns)) matrix H such that window @ H gives a
    block's FIR outputs at ``columns``, where window holds the 2N_t-1
    white inputs from the block's first sample on (the N_t-1 inputs past
    the block feed its late outputs).  Output r of a block is
    sum_m taps[m] * window[r + N_t-1 - m]."""
    H = np.zeros((2 * n_t - 1, len(columns)), dtype=taps.dtype)
    for c, r in enumerate(columns):
        H[r : r + n_t, c] = taps[::-1]
    return H


def _fir_blocks(white: np.ndarray, tap_matrix: np.ndarray, n_t: int) -> np.ndarray:
    """FIR outputs of every whole block of ``white``, shape (blocks,
    tap_matrix columns).  A block's window is its own N_t inputs, times
    the tap matrix's first N_t rows, plus the next block's first N_t-1
    inputs, times the rest; both are strided views of ``white``, so no
    window is copied.  ``white`` holds N_t-1 inputs past the last
    block."""
    blocks = (len(white) - n_t + 1) // n_t
    head = white[: blocks * n_t].reshape(blocks, n_t)
    tail = sliding_window_view(white[n_t:], n_t - 1)[::n_t]
    out = head @ tap_matrix[:n_t]
    out += tail @ tap_matrix[n_t:]
    return out


def _circular_normals(u: np.ndarray, sigma: float, out: np.ndarray) -> None:
    """Circular complex normals of variance sigma**2 into the complex64
    ``out``, one per pair of float64 uniforms in ``u`` (shape out.shape
    + (2,)), by the polar form of Box-Muller: |z|**2 is exponential and
    the phase uniform, so z = sigma * sqrt(-ln(1-u0)) * exp(2j*pi*u1).

    1-u0 is formed in float64 and rounded to float32, where it is never
    0 (at least 2**-53, so the radius is at most sqrt(53 ln 2) = 6.06
    sigma); the logarithm, square root, scaling, cosine and sine run in
    float32, the cosine and sine apart.  A product past float32 range
    is left in ``out`` as inf or nan, without a warning, for the
    caller's finiteness check."""
    radius = np.empty(out.shape, dtype=np.float32)
    phase = np.empty(out.shape, dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(1.0, u[..., 0], out=radius, casting="same_kind")
        np.log(radius, out=radius)
        np.negative(radius, out=radius)
        np.sqrt(radius, out=radius)
        np.multiply(radius, sigma, out=radius, dtype=np.float32)
        np.multiply(u[..., 1], 2 * np.pi, out=phase, casting="same_kind")
        np.cos(phase, out=out.real)
        np.multiply(out.real, radius, out=out.real)
        np.sin(phase, out=phase)
        np.multiply(phase, radius, out=out.imag)


def synth_source(
    spec: SourceSpec,
    total_samples: int,
    n_taps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """WSS source sequence: i.i.d. circular complex Gaussian(0, variance)
    through the band's FIR taps.  The first n_taps-1 filter outputs are
    transient and discarded, so every returned sample is stationary.
    Computed as block_chunks computes each source, blocks of n_taps
    samples at a time; the input draws run to the end of the last block.
    The inputs are drawn as block_chunks draws them, in complex64, and
    filtered in complex128."""
    if total_samples < 0:
        raise ValueError("total_samples must be >= 0")
    taps = design_bandpass(spec.band, n_taps)
    n_in = -(-total_samples // n_taps) * n_taps + n_taps - 1
    white = np.empty(n_in, dtype=BLOCK_DTYPE)
    _circular_normals(rng.random((n_in, 2)), np.sqrt(spec.input_variance), white)
    if total_samples == 0:
        return np.zeros(0, dtype=complex)
    full = _tap_matrix(taps, range(n_taps), n_taps)
    return _fir_blocks(white.astype(complex), full, n_taps).ravel()[:total_samples]


def chunk_blocks(n_t: int) -> int:
    """Blocks per chunk that block_chunks yields at block length n_t."""
    return max(1, _CHUNK_SAMPLES // n_t)


def draw_threads(workers: Optional[int], n_streams: int) -> int:
    """Threads of block_chunks' draw pool: ``workers``, or the CPUs this
    process may run on when it is None, capped at the number of random
    streams drawn (one per source and, with noise, one per active
    antenna), and at least one."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            workers = len(os.sched_getaffinity(0))
        else:
            workers = os.cpu_count() or 1
    return max(1, min(workers, n_streams))


@functools.cache
def _numpy_blas():
    """numpy's extension module opened as a shared library, through which
    its BLAS's symbols resolve wherever that library lies; None if it
    cannot be opened."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        return ctypes.CDLL(umath.__file__)
    except OSError:
        return None


# the folds open in this process, and the BLAS thread count before the
# first of them opened: on a pthreads OpenBLAS the count is process-wide
_folds_lock = threading.Lock()
_open_folds = 0
_blas_threads_before = None


@contextmanager
def one_blas_thread():
    """Run the calling thread's BLAS on one thread inside the block and
    set it back to its previous count on the way out, also when the
    block raises.  Yields the count inside, 1, or None when numpy's BLAS
    has no openblas_set_num_threads_local (OpenBLAS 0.3.27 or later; not
    MKL or Accelerate), in which case nothing is changed.

    Each scenario command (run, sweep, certify) runs under it from its
    design to its solve, so no BLAS call of the command starts BLAS
    threads: the calling thread's small products would otherwise compete
    with the draw pool for the CPUs, and after any multi-threaded call
    OpenBLAS's idle worker busy-waits for a while (about 0.13 s of CPU
    after one flagship design or solve) on a CPU the draws need.  The
    estimate functions themselves leave the count alone, since a caller
    that correlates a large array in one product wants every BLAS
    thread.  On a pthreads build of
    OpenBLAS (numpy's wheels) the call sets the count of the whole
    process, so folds that overlap in different threads share it: every
    entry sets 1, the first saves the count before it, and the last to
    exit sets that count back, whatever order they close in.  An OpenMP
    build sets the calling thread's own count; there, overlapping folds
    set back only the thread whose fold closes last.
    """
    global _open_folds, _blas_threads_before
    setter = getattr(_numpy_blas(), "openblas_set_num_threads_local", None)
    if setter is None:
        yield None
        return
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    with _folds_lock:
        previous = setter(1)
        if _open_folds == 0:
            _blas_threads_before = previous
        _open_folds += 1
    try:
        yield 1
    finally:
        with _folds_lock:
            _open_folds -= 1
            if _open_folds == 0:
                setter(_blas_threads_before)


def block_chunks(
    sources: Sequence[SourceSpec],
    geometry: ArrayGeometry,
    pattern: CosetPattern,
    noise_variance: float,
    n_blocks: int,
    master_seed: int,
    workers: Optional[int] = None,
) -> Iterator[np.ndarray]:
    """The one simulator: N_n blocks as the sampler sees them, in chunks
    of chunk_blocks(N_t) blocks, each a fresh (blocks, M_s, M_t)
    BLOCK_DTYPE (complex64) array of the active antenna rows (mark order)
    and coset columns (row order).  The normals are float32 polar
    transforms of float64 uniforms (_circular_normals), written straight
    into complex64; the FIRs and the steering run in complex64, and
    estimate.accumulate_gram sums their Gram in complex128.

    Block n holds the ULA samples n*N_t .. (n+1)*N_t - 1.  Source k
    contributes steering_vector(theta_k) times its FIR-filtered white
    sequence; noise is i.i.d. circular complex Gaussian per antenna and
    time sample.  Each source stream and each active antenna's noise
    stream (noise_rng of its mark) is drawn for all N_t Nyquist samples
    of a block, in time order, and only the coset columns are computed
    further: a noise stream's uniforms at the other columns are drawn
    and dropped.  The last chunk is computed at full size and cut, so a
    block's value never depends on N_n: the blocks of a shorter run are a
    bit-exact prefix of a longer one.  Raises ValueError on non-finite
    data, chunk by chunk.

    The streams are drawn on a pool of draw_threads(workers, streams)
    threads, one chunk ahead of the caller: while chunk n is filtered,
    steered and consumed, chunk n+1's noise is drawn into its rows and
    each source's next inputs into its buffer.  A stream is drawn by one
    task at a time, in time order, so the blocks do not depend on the
    thread count; nothing is drawn past the last chunk.  The FIRs and
    the steering (all BLAS work) run on the calling thread, with its BLAS
    threads (one under one_blas_thread, as the scenario commands run).  Closing
    the generator, or a failed draw, shuts the pool down after its
    running tasks end.
    """
    if not noise_variance >= 0:
        raise ValueError("noise variance must be >= 0")
    n_t, m_s, m_t = pattern.n_t, geometry.m_active, pattern.m_t
    cols = np.asarray(pattern.rows)
    per = chunk_blocks(n_t)
    span = per * n_t
    n_chunks = -(-n_blocks // per)
    if n_chunks < 1:
        return
    noise_sigma = np.sqrt(noise_variance)
    noise_rngs = (
        [noise_rng(master_seed, m) for m in geometry.active_marks]
        if noise_variance > 0
        else []
    )
    # (M_s, K): one steering column per source
    steer = np.array(
        [steering_vector(s.true_doa, geometry.positions) for s in sources]
    ).T.astype(BLOCK_DTYPE)
    # per source: stream, input sigma, tap matrix, input window buffer
    # whose last N_t-1 samples carry over to the next chunk
    feeds = [
        (
            source_rng(master_seed, k),
            np.sqrt(spec.input_variance),
            _tap_matrix(design_bandpass(spec.band, n_t).astype(BLOCK_DTYPE), cols, n_t),
            np.empty(span + n_t - 1, dtype=BLOCK_DTYPE),
        )
        for k, spec in enumerate(sources)
    ]
    filtered = np.empty((len(sources), per, m_t), dtype=BLOCK_DTYPE)
    # each draw thread's float64 uniform pairs, one per complex normal
    local = threading.local()

    def thread_buffer(name, shape):
        buf = getattr(local, name, None)
        if buf is None:
            buf = np.empty(shape + (2,))
            setattr(local, name, buf)
        return buf

    def draw_noise(chunk, i, rng):
        uniforms = thread_buffer("noise", (per, n_t))
        kept = thread_buffer("kept", (per, m_t))
        rng.random(out=uniforms)
        # every column is drawn, only the kept ones are transformed;
        # mode="clip" writes straight into kept, "raise" buffers out
        np.take(uniforms, cols, axis=1, out=kept, mode="clip")
        _circular_normals(kept, noise_sigma, chunk[:, i, :])

    def draw_source(rng, sigma, white, first):
        if first:
            fresh = white
        else:
            white[: n_t - 1] = white[span:]
            fresh = white[n_t - 1 :]
        uniforms = thread_buffer("source", (len(white),))[: len(fresh)]
        rng.random(out=uniforms)
        _circular_normals(uniforms, sigma, fresh)

    def start_chunk():
        if not noise_rngs:
            return np.zeros((per, m_s, m_t), dtype=BLOCK_DTYPE), []
        chunk = np.empty((per, m_s, m_t), dtype=BLOCK_DTYPE)
        return chunk, [
            pool.submit(draw_noise, chunk, i, rng) for i, rng in enumerate(noise_rngs)
        ]

    pool = ThreadPoolExecutor(
        draw_threads(workers, len(feeds) + len(noise_rngs)),
        thread_name_prefix=DRAW_THREAD_PREFIX,
    )
    try:
        chunk, noise_tasks = start_chunk()
        source_tasks = [
            pool.submit(draw_source, rng, sigma, white, True)
            for rng, sigma, _, white in feeds
        ]
        for n in range(n_chunks):
            for task in noise_tasks:
                task.result()
            ahead = n + 1 < n_chunks
            if ahead:
                next_chunk, noise_tasks = start_chunk()
            # inputs past float32 range make inf - inf in the products;
            # the finiteness check below reports them
            with np.errstate(over="ignore", invalid="ignore"):
                for k, (rng, sigma, taps, white) in enumerate(feeds):
                    source_tasks[k].result()
                    filtered[k] = _fir_blocks(white, taps, n_t)
                    if ahead:
                        source_tasks[k] = pool.submit(
                            draw_source, rng, sigma, white, False
                        )
                if feeds:
                    steered = steer @ filtered.reshape(len(feeds), per * m_t)
                    chunk += steered.reshape(-1, per, m_t).transpose(1, 0, 2)
                    # not held across the yield
                    del steered
            chunk = chunk[: n_blocks - n * per]
            if not np.isfinite(chunk).all():
                raise ValueError("blocks must be finite")
            yield chunk
            if ahead:
                chunk = next_chunk
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def normals_drawn(
    n_sources: int, m_active: int, n_t: int, n_blocks: int, noisy: bool
) -> int:
    """Complex normals block_chunks draws for N_n blocks, one uniform
    pair each: N_t per block for each source and, when ``noisy``, each
    active antenna, over whole chunks, plus the N_t-1 inputs each
    source's FIR reads past the last whole chunk.  A noise stream's
    pairs outside the coset columns count too: they are drawn, though
    not transformed."""
    per = chunk_blocks(n_t)
    chunks = -(-n_blocks // per)
    streams = n_sources + (m_active if noisy else 0)
    return chunks * per * n_t * streams + n_sources * (n_t - 1)


def block_buffer_bytes(
    n_sources: int, m_active: int, n_t: int, m_t: int, noisy: bool, threads: int
) -> int:
    """Peak bytes of block_chunks' arrays, one chunk in flight, with a
    caller that holds one chunk while the next is made (as
    estimate.accumulate_gram does); independent of N_n.

    In BLOCK_DTYPE (8 bytes per value): three (blocks, M_s, M_t) chunks,
    the caller's, the one being finished and the one whose noise is
    drawn ahead; per source, its input buffer of one chunk plus N_t-1
    samples, its (2N_t-1, M_t) tap matrix and its filtered (blocks, M_t)
    outputs; the steering matrix; and the larger of the two temporaries
    on the calling thread, a FIR's two (blocks, M_t) products or the
    steered (M_s, blocks*M_t) product.  Per draw thread, for each
    complex normal it draws, a pair of float64 uniforms (16 bytes), and
    for each it transforms, a float32 radius and phase (8 bytes): a
    thread that draws noise holds (blocks, N_t) uniform pairs, the
    (blocks, M_t) kept ones taken from them and their radii and phases;
    a thread that draws source inputs holds one chunk plus N_t-1
    samples of uniform pairs, radii and phases.
    """
    value, uniforms, polar = BLOCK_DTYPE.itemsize, 16, 8
    per = chunk_blocks(n_t)
    window = (per + 1) * n_t - 1
    chunk = value * per * m_active * m_t
    per_source = value * (window + (2 * n_t - 1) * m_t + per * m_t)
    noise_thread = per * (uniforms * (n_t + m_t) + polar * m_t)
    noise = noise_thread * min(threads, m_active) if noisy else 0
    source_draws = (uniforms + polar) * window * min(threads, n_sources)
    # without sources the largest temporary is np.isfinite's mask
    temporary = max(2 * value * per * m_t, chunk) if n_sources else chunk // value
    steer = value * m_active * n_sources
    return (
        3 * chunk + n_sources * per_source + noise + source_draws + steer + temporary
    )


def compressed_blocks(
    sources: Sequence[SourceSpec],
    geometry: ArrayGeometry,
    pattern: CosetPattern,
    noise_variance: float,
    n_blocks: int,
    master_seed: int,
) -> SnapshotBlocks:
    """All of block_chunks' chunks in one complex64 array, shape (N_n,
    M_s, M_t)."""
    out = np.empty((n_blocks, geometry.m_active, pattern.m_t), dtype=BLOCK_DTYPE)
    start = 0
    for chunk in block_chunks(
        sources, geometry, pattern, noise_variance, n_blocks, master_seed
    ):
        out[start : start + len(chunk)] = chunk
        start += len(chunk)
    return SnapshotBlocks(blocks=out)


def ula_snapshots(
    sources: Sequence[SourceSpec],
    geometry: ArrayGeometry,
    noise_variance: float,
    n_blocks: int,
    n_t: int,
    master_seed: int,
) -> SnapshotBlocks:
    """Uncompressed array output, blocked: every antenna of the underlying
    ULA and every Nyquist sample, shape (N_n, N_s, N_t).  The same blocks
    as compressed_blocks with nothing compressed away."""
    n_s = geometry.n_underlying
    full = ArrayGeometry(n_s, geometry.spacing_d, tuple(range(n_s)))
    every = CosetPattern(n_t=n_t, rows=tuple(range(n_t)))
    return compressed_blocks(sources, full, every, noise_variance, n_blocks, master_seed)


def spatial_compress(snapshots: SnapshotBlocks, geometry: ArrayGeometry) -> SnapshotBlocks:
    """Keep the active-antenna rows of every block, in mark order."""
    marks = list(geometry.active_marks)
    if marks[-1] >= snapshots.blocks.shape[1]:
        raise ValueError("active marks exceed block row count")
    return SnapshotBlocks(blocks=snapshots.blocks[:, marks, :])


def temporal_compress(snapshots: SnapshotBlocks, pattern: CosetPattern) -> SnapshotBlocks:
    """Keep the multi-coset sample columns of every block, in row order."""
    if snapshots.blocks.shape[2] != pattern.n_t:
        raise ValueError("blocks must have N_t columns")
    return SnapshotBlocks(blocks=snapshots.blocks[:, :, list(pattern.rows)])


def build_coset_pattern(
    n_t: int,
    m_t: int,
    master_seed: int,
) -> CosetPattern:
    """Coset rows = length-(N_t-1) ruler marks plus seeded random extras.

    The ruler guarantees every lag 0..N_t-1 appears among row differences,
    which is what makes the lag-recovery system full column rank; the
    remaining m_t - |ruler| rows are drawn without replacement from the
    complement, deterministically from the master seed, on a PCG64
    stream (the data streams are SFC64; this one keeps the designs).
    """
    if n_t < 1:
        raise ValueError("N_t must be >= 1")
    marks = (0,) if n_t == 1 else solve_sparse_ruler(n_t - 1).marks
    if m_t < len(marks):
        raise CosetCardinalityError(
            f"M_t={m_t} is below the ruler cardinality {len(marks)}; "
            "the lag-recovery system cannot reach full column rank this way"
        )
    extra_count = m_t - len(marks)
    rows = set(marks)
    if extra_count:
        complement = np.array(sorted(set(range(n_t)) - rows))
        rng = _stream(master_seed, _STREAM_COSET, bit_generator=np.random.PCG64)
        extras = rng.choice(complement, size=extra_count, replace=False)
        rows |= set(int(e) for e in extras)
    return CosetPattern(n_t=n_t, rows=tuple(sorted(rows)))


def create_output(path, mode: str):
    """Open a new file at ``path`` in ``mode``, "x" or "xb", unlinking any
    file there first: every file jafs writes is created here.  An old
    file is replaced, never truncated or renamed over (on ext4 either
    blocked 40-100 ms per file): a reader holding it open, or a hard link
    to it, keeps its content, a symlink is replaced (its target is
    untouched), and the new file's mode follows the umask."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, mode)


def write_snapshots(path, snapshots: SnapshotBlocks) -> None:
    """Binary dump: 32-byte little-endian header (8-byte magic, then
    uint64 rows, columns, block count) followed by complex128 block data,
    row-major per block (interleaved re/im float64).  Simulated blocks
    are complex64; the dump holds their exact widening.  The file is
    created afresh (create_output)."""
    for _ in dump_chunks(path, (snapshots.blocks,), snapshots.shape):
        pass


def dump_chunks(
    path, chunks: Iterable[np.ndarray], shape: tuple, create=create_output
) -> Iterator[np.ndarray]:
    """Pass block chunks through unchanged while writing them to ``path``
    in write_snapshots' format, widened to complex128; ``shape`` is the
    (N_n, rows, columns) of all chunks together, written to the header
    up front.  ``create(path, "xb")`` opens the file when the first chunk
    is asked for: create_output, or a caller's own that records the path
    and calls it."""
    n_blocks, rows, cols = shape
    with create(path, "xb") as fh:
        fh.write(_SNAP_MAGIC + struct.pack("<QQQ", rows, cols, n_blocks))
        for chunk in chunks:
            fh.write(np.ascontiguousarray(chunk, dtype="<c16"))
            yield chunk


def read_snapshots(path) -> SnapshotBlocks:
    """Inverse of write_snapshots."""
    with open(path, "rb") as fh:
        header = fh.read(32)
    if len(header) != 32 or header[:8] != _SNAP_MAGIC:
        raise ValueError("not a snapshot dump (bad header)")
    rows, cols, n_blocks = struct.unpack("<QQQ", header[8:])
    size = os.path.getsize(path) - 32
    expect = n_blocks * rows * cols * 16
    if size != expect:
        raise ValueError(
            f"snapshot dump payload is {size} bytes, expected {expect}"
        )
    arr = np.fromfile(path, dtype="<c16", offset=32)
    shape = (int(n_blocks), int(rows), int(cols))
    return SnapshotBlocks(blocks=arr.reshape(shape).astype(np.complex128, copy=False))
