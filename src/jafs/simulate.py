"""Scenario synthesis: filtered-Gaussian sources on a ULA, then compression.

Sources are wide-sense stationary by construction: circular complex white
Gaussian noise pushed through a length-N_t FIR bandpass, so each source's
autocorrelation is exactly zero beyond lag N_t-1.  Snapshot blocks group
N_t consecutive array samples; spatial compression keeps the active
antenna rows, temporal compression keeps the multi-coset sample columns.

Seeding gives every source its own named stream, plus one for the
additive noise and one for the random extra coset rows.  Streams are
consumed in a fixed order independent of the block count, so enlarging
N_n extends each stream instead of reshuffling it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.signal import fftconvolve

from .geometry import solve_sparse_ruler
from .model import ArrayGeometry, steering_vector

# stream labels folded into the seed sequence entropy
_STREAM_SOURCE = 1
_STREAM_NOISE = 2
_STREAM_COSET = 3

# noise is drawn in fixed chunks of time samples; generation order is
# (time, antenna, re/im) so any prefix in time is seed-stable
_NOISE_CHUNK = 1 << 16

_SNAP_MAGIC = b"JAFSSNAP"


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


def _stream(master_seed: int, label: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=[int(master_seed), label, index])
    )


def source_rng(master_seed: int, source_index: int) -> np.random.Generator:
    return _stream(master_seed, _STREAM_SOURCE, source_index)


def noise_rng(master_seed: int) -> np.random.Generator:
    return _stream(master_seed, _STREAM_NOISE)


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


def synth_source(
    spec: SourceSpec,
    total_samples: int,
    n_taps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """WSS source sequence: i.i.d. circular complex Gaussian(0, variance)
    through the band's FIR taps.  The first n_taps-1 filter outputs are
    transient and discarded, so every returned sample is stationary."""
    if total_samples < 0:
        raise ValueError("total_samples must be >= 0")
    taps = design_bandpass(spec.band, n_taps)
    n_in = total_samples + n_taps - 1
    draws = rng.standard_normal((n_in, 2))
    white = np.sqrt(spec.input_variance / 2.0) * (draws[:, 0] + 1j * draws[:, 1])
    if total_samples == 0:
        return np.zeros(0, dtype=complex)
    return fftconvolve(white, taps, mode="valid")


def ula_snapshots(
    sources: Sequence[SourceSpec],
    geometry: ArrayGeometry,
    noise_variance: float,
    n_blocks: int,
    n_t: int,
    master_seed: int,
) -> SnapshotBlocks:
    """Uncompressed array output, blocked: X[n] = full-ULA samples
    n*N_t .. (n+1)*N_t - 1.

    Each source k contributes steering_vector(theta_k) times its scalar
    sequence; noise is i.i.d. circular complex Gaussian per antenna and
    time sample.  Deterministic in master_seed.
    """
    if noise_variance < 0:
        raise ValueError("noise variance must be >= 0")
    n_s = geometry.n_underlying
    positions = np.arange(n_s) * float(geometry.spacing_d)
    total = n_blocks * n_t
    x = np.zeros((n_s, total), dtype=complex)
    for k, spec in enumerate(sources):
        seq = synth_source(spec, total, n_t, source_rng(master_seed, k))
        x += np.outer(steering_vector(spec.true_doa, positions), seq)
    if noise_variance > 0:
        rng = noise_rng(master_seed)
        scale = np.sqrt(noise_variance / 2.0)
        for start in range(0, total, _NOISE_CHUNK):
            stop = min(start + _NOISE_CHUNK, total)
            draws = rng.standard_normal((stop - start, n_s, 2))
            x[:, start:stop] += scale * (draws[..., 0] + 1j * draws[..., 1]).T
    blocks = np.ascontiguousarray(
        x.reshape(n_s, n_blocks, n_t).transpose(1, 0, 2)
    )
    return SnapshotBlocks(blocks=blocks)


def compressed_blocks(
    sources: Sequence[SourceSpec],
    geometry: ArrayGeometry,
    pattern: CosetPattern,
    noise_variance: float,
    n_blocks: int,
    master_seed: int,
) -> SnapshotBlocks:
    """Simulated blocks as the compressed sampler sees them: the active
    antenna rows and coset columns of ula_snapshots.  The full Nyquist
    array is freed on return, before any estimation allocates."""
    snaps = ula_snapshots(
        sources, geometry, noise_variance, n_blocks, pattern.n_t, master_seed
    )
    return temporal_compress(spatial_compress(snaps, geometry), pattern)


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
    complement, deterministically from the master seed.
    """
    if n_t < 1:
        raise ValueError("N_t must be >= 1")
    marks = (0,) if n_t == 1 else solve_sparse_ruler(n_t - 1).marks
    if m_t < len(marks):
        raise ValueError(
            f"M_t={m_t} is below the ruler cardinality {len(marks)}; "
            "the lag-recovery system cannot reach full column rank this way"
        )
    extra_count = m_t - len(marks)
    rows = set(marks)
    if extra_count:
        complement = np.array(sorted(set(range(n_t)) - rows))
        rng = _stream(master_seed, _STREAM_COSET)
        extras = rng.choice(complement, size=extra_count, replace=False)
        rows |= set(int(e) for e in extras)
    return CosetPattern(n_t=n_t, rows=tuple(sorted(rows)))


def write_snapshots(path, snapshots: SnapshotBlocks) -> None:
    """Binary dump: 32-byte little-endian header (8-byte magic, then
    uint64 rows, columns, block count) followed by complex128 block data,
    row-major per block (interleaved re/im float64)."""
    n_blocks, rows, cols = snapshots.shape
    header = _SNAP_MAGIC + struct.pack("<QQQ", rows, cols, n_blocks)
    data = np.ascontiguousarray(snapshots.blocks, dtype=np.complex128)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.astype("<c16", copy=False).tobytes())


def read_snapshots(path) -> SnapshotBlocks:
    """Inverse of write_snapshots."""
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) != 32 or header[:8] != _SNAP_MAGIC:
            raise ValueError("not a snapshot dump (bad header)")
        rows, cols, n_blocks = struct.unpack("<QQQ", header[8:])
        payload = fh.read()
    expect = n_blocks * rows * cols * 16
    if len(payload) != expect:
        raise ValueError(
            f"truncated snapshot dump: {len(payload)} bytes, expected {expect}"
        )
    arr = np.frombuffer(payload, dtype="<c16").reshape(int(n_blocks), int(rows), int(cols))
    return SnapshotBlocks(blocks=arr.astype(np.complex128))
