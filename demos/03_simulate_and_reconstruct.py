#!/usr/bin/env python3
"""End-to-end reconstruction at toy scale, in library calls.

Three bandpass sources hit an 8-element array; we keep 5 antennas and 5
of every 8 time samples, then rebuild the full angle-frequency power
map from averaged correlations.  Everything runs in about a second.
"""

import numpy as np

from jafs.estimate import (
    accumulate_gram,
    assemble_all,
    build_rct,
    find_peaks,
    pair_vectors,
    recover_angular,
    recover_lags,
    spectrum,
)
from jafs.model import ArrayGeometry, inverse_sin_grid, manifold_and_kr
from jafs.oracle import exact_correlations, place_on_grid
from jafs.simulate import CosetPattern, SourceSpec, block_chunks

# ---------------------------------------------------------------------
# 1. Scene and sampling design
# ---------------------------------------------------------------------

geometry = ArrayGeometry(8, 0.5, (0, 1, 2, 3, 7))
pattern = CosetPattern(8, (0, 1, 2, 3, 7))
grid = inverse_sin_grid(15)
noise_var = 5.0

sources = (
    SourceSpec(float(np.arcsin(-0.4)), (-0.8 * np.pi, -0.5 * np.pi), 5.0),
    SourceSpec(0.0, (-0.1 * np.pi, 0.2 * np.pi), 5.0),
    SourceSpec(float(np.arcsin(8 / 15)), (0.4 * np.pi, 0.75 * np.pi), 5.0),
)
print("true sources (deg, band in pi units):")
for s in sources:
    print(
        f"  {np.degrees(s.true_doa):+7.2f}  "
        f"[{s.band[0] / np.pi:+.2f}, {s.band[1] / np.pi:+.2f}]"
    )

# ---------------------------------------------------------------------
# 2. Simulate, compress, correlate
# ---------------------------------------------------------------------

n_blocks = 2000
# only the kept antennas and samples are ever computed, chunk by chunk,
# and each chunk is folded into one running Gram of the flattened blocks
chunks = block_chunks(sources, geometry, pattern, noise_var, n_blocks, master_seed=0)
gram, n_kept = accumulate_gram(chunks)
kept = (n_kept, geometry.m_active, pattern.m_t)
full = (n_blocks, geometry.n_underlying, pattern.n_t)
print(f"\nkept data: {kept} of full {full}")

pairs = pair_vectors(gram, n_kept, pattern.m_t)
corr = recover_lags(build_rct(pattern), pairs)

# ---------------------------------------------------------------------
# 3. Angular recovery and the 2D spectrum
# ---------------------------------------------------------------------

mats = manifold_and_kr(geometry, grid)
rec = recover_angular(mats, assemble_all(corr))
print(f"noise power: estimated {rec.sigma_n_hat:.3f}, true {noise_var}")

spec = spectrum(rec.source_lags, grid, rec.sigma_n_hat)
for det in find_peaks(spec):
    bands = " ".join(
        f"[{lo / np.pi:+.2f}, {hi / np.pi:+.2f}]" for lo, hi in det.bands
    )
    print(
        f"  detected {np.degrees(det.angle):+7.2f} deg"
        f"  power {det.total_power:6.2f}  band {bands}"
    )

# ---------------------------------------------------------------------
# 4. Sanity: the same pipeline on exact correlations is lossless
# ---------------------------------------------------------------------
# Feeding closed-form correlations (infinite averaging) through the very
# same solvers reproduces the configured scene to machine precision.
# Estimation error therefore comes from finite averaging alone.

exact = exact_correlations(sources, geometry, grid, pattern, noise_var)
corr0 = recover_lags(build_rct(pattern), exact.pair_vecs)
rec0 = recover_angular(mats, assemble_all(corr0))
truth = place_on_grid(sources, grid, 8)
err = np.linalg.norm(rec0.source_lags - truth) / np.linalg.norm(truth)
print(f"\nexact-input relative error: {err:.2e}")
print(f"exact-input noise estimate: {rec0.sigma_n_hat:.12f}")

emp_err = np.linalg.norm(rec.source_lags - truth) / np.linalg.norm(truth)
print(f"{n_blocks}-block relative error: {emp_err:.3f}")
