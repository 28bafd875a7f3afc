#!/usr/bin/env python3
"""The flagship study, driven through the scenario layer.

Runs the bundled 36-antenna configuration: 12 sources on a 9-degree
comb, 71 grid angles, 167 frequency bins, sampling at 40.5% of the
Nyquist rate on 27.8% of the antennas.  Then sweeps the block count on
the small scenario to show the 1/sqrt(N) error law.  Takes well under
a second.
"""

import tempfile
from pathlib import Path

import numpy as np

from jafs.scenario import load_scenario, run_scenario, run_sweep

HERE = Path(__file__).resolve().parent.parent / "scenarios"

# ---------------------------------------------------------------------
# 1. Full-scale run
# ---------------------------------------------------------------------

cfg = load_scenario(HERE / "mra36_q71.scenario")
with tempfile.TemporaryDirectory() as out:
    report = run_scenario(cfg, output_dir=out)
    files = sorted(p.name for p in Path(out).iterdir())

print("artifacts:", ", ".join(files))
print(f"noise power estimate: {report['sigma_n_hat']:.4f} (true 5)")
print(f"stage timings: " + ", ".join(
    f"{k[:-2]} {v:.2f}s" for k, v in report["timings"].items()
))

print(f"\n{len(report['detections'])} detections:")
true_doas = [s["doa_deg"] for s in report["config"]["sources"]]
for det in report["detections"]:
    nearest = min(true_doas, key=lambda d: abs(d - det["angle_deg"]))
    lo, hi = det["bands_rad"][0]
    print(
        f"  {det['angle_deg']:+8.3f} deg (true {nearest:+5.1f})"
        f"  band [{lo / np.pi:+.4f}, {hi / np.pi:+.4f}] pi"
        f"  power {det['total_power']:.1f}"
    )

# Grid quantization: detections land on the 71-point inverse-sine grid,
# so a source at -54 true degrees reports the nearest cell, -54.776.

# ---------------------------------------------------------------------
# 2. Error versus averaging length
# ---------------------------------------------------------------------
# The estimator is a sample average followed by fixed linear solves, so
# its error must fall as the square root of the block count.  The sweep
# writes one CSV row per (value, seed) pair.

smoke = load_scenario(HERE / "smoke.scenario")
with tempfile.TemporaryDirectory() as out:
    path = run_sweep(smoke, "n_blocks", [250, 1000, 4000], [0, 1], output_dir=out)
    rows = path.read_text().splitlines()

print("\nblock-count sweep on the small scenario:")
print("  " + rows[0])
for row in rows[1:]:
    print("  " + row)

errs = {}
for row in rows[1:]:
    _, value, _, rs, _, _ = row.split(",")
    errs.setdefault(int(value), []).append(float(rs))
counts = sorted(errs)
mean_errs = [np.mean(errs[c]) for c in counts]
slope = np.polyfit(np.log10(counts), np.log10(mean_errs), 1)[0]
print(f"\nlog-log error slope: {slope:.3f} (theory: -0.5)")
