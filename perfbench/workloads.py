"""The three benchmark workloads, driven through ``jafs``'s public
functions.

Every workload is closed-loop with one client: the next operation starts
when the previous one has finished.  Operation ``i`` of a run with
workload seed ``s`` draws its data from ``data_seed(s, i)``, so the same
seed always gives the same inputs.  Each operation checks its own output;
``run_op`` returns whether the check passed and how many blocks the
operation estimated.

Calls go through module attributes (``estimate.pair_correlations``, not a
name imported from it) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from jafs import estimate, model, scenario, simulate

FLAGSHIP_SCENARIO = "scenarios/mra36_q71.scenario"
SMOKE_SCENARIO = "scenarios/smoke.scenario"
SWEEP_VALUES = (1000, 10000, 100000)
SWEEP_SEEDS = 4
SWEEP_WORKERS = 2
SWEEP_DETECT_FROM = 10000


def data_seed(seed: int, op: int) -> int:
    return seed * 1_000_003 + op


def recovered(cfg, grid, detections, sigma_n_hat) -> bool:
    """The flagship acceptance rule: all but at most one source detected
    within one grid cell with band edges within two frequency bins, and a
    finite noise estimate.  ``detections`` are (grid_index, bands) pairs."""
    if not math.isfinite(sigma_n_hat):
        return False
    sines = np.sin(grid.angles)
    bin_w = 2 * np.pi / (2 * cfg.n_t - 1)
    hits = 0
    for src in cfg.sources:
        cell = int(np.argmin(np.abs(sines - np.sin(src.true_doa))))
        lo_t, hi_t = src.band
        hits += any(
            abs(index - cell) <= 1
            and hi > lo_t
            and lo < hi_t
            and abs(lo - lo_t) <= 2 * bin_w
            and abs(hi - hi_t) <= 2 * bin_w
            for index, bands in detections
            for lo, hi in bands
        )
    return hits >= len(cfg.sources) - 1


def shape_counters(cfg, m_s: int, n_blocks_total: int) -> dict:
    """Computed counters: they follow from the configuration's shapes and
    repeat exactly.  Gram flops count 8 real flops per complex
    multiply-add of the (M_s*M_t)^2 Gram over every block."""
    generated = cfg.n_underlying * cfg.n_t * n_blocks_total * 16 / 1e6
    kept = m_s * cfg.m_t * n_blocks_total * 16 / 1e6
    return {
        "simulate.generated_mb": generated,
        "simulate.kept_mb": kept,
        "simulate.kept_ratio": kept / generated,
        "estimate.gram_flops": 8.0 * n_blocks_total * (m_s * cfg.m_t) ** 2,
    }


class Flagship:
    """``run_scenario`` on the flagship scenario, rewriting one output
    directory each time."""

    name = "flagship"
    workers = 1
    output_note = "fresh for the warm-up operation, overwritten by every measured one"

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.out = work / "flagship_out"

    def setup(self, dump: bool) -> dict:
        self.cfg = scenario.load_scenario(self.root / FLAGSHIP_SCENARIO)
        scenario.run_certify(self.cfg)
        self.grid = scenario.grid_of(self.cfg)
        self.m_s = scenario.geometry_of(self.cfg).m_active
        return {}

    def run_op(self, i: int):
        report = scenario.run_scenario(
            self.cfg, output_dir=str(self.out), seed=data_seed(self.seed, i)
        )
        dets = [(d["grid_index"], d["bands_rad"]) for d in report["detections"]]
        ok = recovered(self.cfg, self.grid, dets, report["sigma_n_hat"])
        return ok, self.cfg.n_blocks

    def op_counters(self) -> dict:
        counters = shape_counters(self.cfg, self.m_s, self.cfg.n_blocks)
        counters["scenario.export_bytes"] = sum(
            p.stat().st_size for p in self.out.iterdir()
        )
        return counters


class Replay:
    """Estimation from recorded blocks: set-up simulates and dumps the
    flagship blocks once; each operation reads them back and estimates."""

    name = "replay"
    workers = 1
    output_note = "set-up writes the block dump to a new file; operations write nothing"

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.path = work / "blocks.bin"

    def setup(self, dump: bool) -> dict:
        cfg = self.cfg = scenario.load_scenario(self.root / FLAGSHIP_SCENARIO)
        geometry = scenario.geometry_of(cfg)
        self.m_s = geometry.m_active
        self.grid = scenario.grid_of(cfg)
        pattern = scenario.pattern_of(cfg)
        self.mats = model.manifold_and_kr(geometry, self.grid)
        self.rct = estimate.build_rct(pattern)
        if not dump:
            return {}
        snaps = simulate.ula_snapshots(
            cfg.sources, geometry, cfg.noise_variance, cfg.n_blocks, cfg.n_t,
            data_seed(self.seed, 0),
        )
        z = simulate.temporal_compress(
            simulate.spatial_compress(snaps, geometry), pattern
        )
        del snaps
        # a new file each time: truncating the previous dump in place
        # costs several times more, and would mix two set-up costs
        self.path.unlink(missing_ok=True)
        simulate.write_snapshots(self.path, z)
        counters = shape_counters(cfg, self.m_s, cfg.n_blocks)
        del counters["estimate.gram_flops"]
        return counters

    def run_op(self, i: int):
        cfg = self.cfg
        z = simulate.read_snapshots(self.path)
        corr = estimate.recover_lags(self.rct, estimate.pair_correlations(z))
        rec = estimate.recover_angular(
            self.mats,
            estimate.assemble_all(corr),
            noise_mode=cfg.noise_mode,
            noise_variance=cfg.noise_variance if cfg.noise_mode == "known" else None,
        )
        spec = estimate.spectrum(rec.source_lags, self.grid, rec.sigma_n_hat)
        dets = [
            (d.grid_index, d.bands)
            for d in estimate.find_peaks(spec, cfg.peak_threshold)
        ]
        return recovered(cfg, self.grid, dets, rec.sigma_n_hat), z.n_blocks

    def op_counters(self) -> dict:
        counters = shape_counters(self.cfg, self.m_s, self.cfg.n_blocks)
        return {"estimate.gram_flops": counters["estimate.gram_flops"]}


class Sweep:
    """``run_sweep`` over ``n_blocks`` on the smoke scenario, on a thread
    pool of ``SWEEP_WORKERS``."""

    name = "sweep"
    workers = SWEEP_WORKERS
    output_note = "sweep.csv fresh for the warm-up operation, overwritten by every measured one"

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.out = work / "sweep_out"

    def setup(self, dump: bool) -> dict:
        cfg = scenario.load_scenario(self.root / SMOKE_SCENARIO)
        self.cfg = replace(cfg, workers=SWEEP_WORKERS)
        scenario.run_certify(self.cfg)
        self.m_s = scenario.geometry_of(self.cfg).m_active
        return {}

    def run_op(self, i: int):
        seeds = [data_seed(self.seed, SWEEP_SEEDS * i + k) for k in range(SWEEP_SEEDS)]
        path = scenario.run_sweep(
            self.cfg, "n_blocks", SWEEP_VALUES, seeds, output_dir=str(self.out)
        )
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ok = len(rows) == len(SWEEP_VALUES) * SWEEP_SEEDS and all(
            math.isfinite(float(r["rs_rel_error"]))
            and math.isfinite(float(r["sigma_rel_error"]))
            and (int(r["value"]) < SWEEP_DETECT_FROM or float(r["detection_rate"]) == 1.0)
            for r in rows
        )
        return ok, sum(SWEEP_VALUES) * SWEEP_SEEDS

    def op_counters(self) -> dict:
        counters = {}
        for value in SWEEP_VALUES:
            for key, v in shape_counters(self.cfg, self.m_s, value * SWEEP_SEEDS).items():
                counters[key] = counters.get(key, 0.0) + v
        counters["simulate.kept_ratio"] = (
            counters["simulate.kept_mb"] / counters["simulate.generated_mb"]
        )
        counters["scenario.export_bytes"] = (self.out / "sweep.csv").stat().st_size
        return counters


WORKLOADS = {w.name: w for w in (Flagship, Replay, Sweep)}
