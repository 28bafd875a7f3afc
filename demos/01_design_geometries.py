#!/usr/bin/env python3
"""Designing sparse sampling geometries.

A length-L sparse ruler is a set of integer marks containing 0 and L
whose pairwise differences cover every lag 1..L.  Thinning a uniform
array (or a Nyquist sample block) down to ruler marks keeps every
correlation lag observable, which is the whole game here: second-order
statistics survive compression even though the waveform does not.
"""

import numpy as np
from fractions import Fraction

from jafs.geometry import (
    check_sine_grid_residues,
    check_virtual_ula,
    difference_set,
    generate_coprime,
    generate_nested,
    solve_sparse_ruler,
    validate_ruler,
)

# ---------------------------------------------------------------------
# 1. Minimal rulers by exhaustive search
# ---------------------------------------------------------------------
# Up to length 13 the solver proves minimality by iterative deepening
# over the mark count, so these are certified smallest designs.

print("minimal sparse rulers, exhaustive search:")
for length in (3, 6, 10, 13):
    sol = solve_sparse_ruler(length)
    rate = len(sol.marks) / (length + 1)
    print(
        f"  L={length:3d}: {len(sol.marks)} marks {sol.marks}"
        f"   keep rate {rate:.2f}  minimal={sol.minimal}"
    )

# ---------------------------------------------------------------------
# 2. Larger designs from the library and from heuristics
# ---------------------------------------------------------------------
# Above the exhaustive limit the solver falls back to curated designs
# where it has them (35 and 83) and otherwise to a budgeted
# branch-and-bound that keeps its best ruler and looks for one with
# fewer marks.  Heuristic results are valid rulers, just not certified
# minimal.

big = solve_sparse_ruler(35)
print(f"\nL=35 library design: {len(big.marks)} marks, minimal={big.minimal}")
print("  marks:", big.marks)
assert validate_ruler(big.marks, 35)

heur = solve_sparse_ruler(20)
print(f"L=20 heuristic: {len(heur.marks)} marks, minimal={heur.minimal}")

# ---------------------------------------------------------------------
# 3. Structured alternatives: nested and coprime layouts
# ---------------------------------------------------------------------
# These classic constructions trade a few extra elements for a formulaic
# layout.  Their difference sets also cover a long contiguous lag run.

nested = generate_nested(3, 4)
coprime = generate_coprime(3, 5)
print(f"\nnested(3, 4)  -> {nested}")
print(f"coprime(3, 5) -> {coprime}")

# ---------------------------------------------------------------------
# 4. Rank certificates for the angular problem
# ---------------------------------------------------------------------
# Recovering a Q-point angular profile from antenna-pair correlations
# needs the Khatri-Rao system to have rank Q.  Two checkable conditions
# each guarantee it, both functions of the difference set alone.

d = Fraction(1, 2)  # element spacing in wavelengths
marks = (0, 1, 4, 10, 16, 22, 28, 30, 33, 35)  # 10-element span-35 ruler
diffs = difference_set(marks, d)
print(f"\n10-element layout, {len(diffs.values)} ordered differences")

for q in (71, 72):
    ula = check_virtual_ula(diffs, q, d)
    res = check_sine_grid_residues(diffs, q)
    print(
        f"  Q={q}: virtual-ula {'pass' if ula.passed else 'fail'} "
        f"(run {ula.witness['run_length']}), "
        f"residues {'pass' if res.passed else 'fail'} "
        f"({res.witness['distinct_residues']} distinct)"
    )

# A gappy layout fails: its co-array misses lags, the virtual ULA is
# short, and the residue count drops below Q.
gappy = (0, 1, 2, 3, 35)
gdiffs = difference_set(gappy, d)
gula = check_virtual_ula(gdiffs, 71, d)
print(
    f"\ngappy layout {gappy}: virtual run {gula.witness['run_length']}"
    f" of 71 needed -> {'pass' if gula.passed else 'fail'}"
)
