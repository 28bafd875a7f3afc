"""Scenario configuration, design gates, and orchestrated runs.

A scenario file is INI-style text with sections::

    [geometry]
    n_underlying = 36        ; underlying ULA size N_s
    spacing = 0.5            ; wavelengths, in (0, 0.5]
    marks = solve            ; active antennas: "solve" or explicit indices

    [coset]
    n_t = 84                 ; Nyquist samples per block
    m_t = 34                 ; kept samples per block
    ; rows = 0 1 2 ...       ; optional explicit rows (else ruler + extras)
    ; seed = 7               ; optional, defaults to the master seed

    [grid]
    q = 71
    mode = inverse-sin       ; or "explicit" with angles_deg = ...

    [source.1]
    doa_deg = -54
    band_lo_pi = -0.275      ; band edges in units of pi rad/sample
    band_hi_pi = -0.2
    variance = 5

    [noise]
    variance = 5
    mode = estimate          ; or "known"

    [run]
    n_blocks = 5951
    seed = 0
    output_dir = out
    ; peak_threshold = 0.35
    ; workers = 4            ; draw threads of run and sweep (default: the
    ;                        ; CPUs available); also settable via JAFS_WORKERS
    ; dump_snapshots = true  ; write compressed blocks next to the CSVs

load_scenario parses; resolve(cfg) judges the values, gates, builds and
certifies the design for run, certify and sweep alike, before anything is
simulated: certify reports every gate record, run and sweep stop on the
first failed hard one.  A sweep runs its jobs one after another; the
worker count sets the threads that draw each run's random streams, and
each run folds its chunks into its Gram on one BLAS thread.  resolve
refuses, as a bad value, a run whose predicted work exceeds
MAX_COMPLEX_NORMALS or MAX_GRAM_FLOPS.  Hard gates:
temporal-overdetermination (M_t**2 >= 2*N_t - 1, else the lag system is
underdetermined); band-resolution (every source band at least
2*pi/N_t wide, all the N_t-tap source filters resolve);
coset-ruler-cardinality (M_t reaches the cardinality of the length-(N_t-1)
coset ruler when the rows are built from it; recorded only when it fails,
since then no design exists); lag-coverage (the coset rows realize every
lag); kr-rank (the Khatri-Rao matrix has rank Q).  M_s**2 >= Q is a
warning (the angular system is certified anyway); Q <= 2*N_s - 1 is
advisory (more grid angles than the full co-array could ever resolve).
"""

from __future__ import annotations

import configparser
import json
import math
import os
import time
from contextlib import closing
from dataclasses import asdict, dataclass, replace as _replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import estimate as est
from .geometry import (
    check_sine_grid_residues,
    check_virtual_ula,
    difference_set,
    solve_sparse_ruler,
)
from .model import AngularGrid, ArrayGeometry, inverse_sin_grid
from .oracle import place_on_grid
from .simulate import (
    CosetCardinalityError,
    CosetPattern,
    SourceSpec,
    band_resolvable,
    block_buffer_bytes,
    block_chunks,
    build_coset_pattern,
    draw_threads,
    dump_chunks,
    normals_drawn,
    one_blas_thread,
)

WORKERS_ENV = "JAFS_WORKERS"

# the most work resolve admits in one run, about 10^5 flagship runs
MAX_COMPLEX_NORMALS = 10 ** 12
MAX_GRAM_FLOPS = 10 ** 15


class ConfigError(ValueError):
    """Scenario file failed to parse or validate."""


class DesignGateError(RuntimeError):
    """A hard design gate failed."""


@dataclass(frozen=True)
class ScenarioConfig:
    n_underlying: int
    spacing: float
    marks: tuple  # "marks = solve" is solved at load
    n_t: int
    m_t: int
    coset_rows: Optional[tuple]
    coset_seed: Optional[int]
    grid_q: int
    grid_angles: Optional[tuple]  # radians; None -> inverse-sin grid
    sources: tuple
    noise_variance: float
    noise_mode: str
    n_blocks: int
    master_seed: int
    output_dir: str
    peak_threshold: float = 0.35
    workers: Optional[int] = None
    dump_snapshots: bool = False


def _parse_int(section, key):
    raw = section.get(key)
    if raw is None:
        raise ConfigError(f"[{section.name}] missing key '{key}'")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not an integer")


def _parse_float(section, key, default=None):
    raw = section.get(key)
    if raw is None:
        if default is not None:
            return default
        raise ConfigError(f"[{section.name}] missing key '{key}'")
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not a number")
    if not math.isfinite(val):
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not finite")
    return val


def _parse_marks(raw):
    try:
        return tuple(int(tok) for tok in raw.split())
    except ValueError:
        raise ConfigError(f"mark list {raw!r} must be whitespace-separated integers")


def load_scenario(path) -> ScenarioConfig:
    """Parse a scenario file; ConfigError if it is unreadable or a value
    has the wrong form.  resolve judges whether the values are usable."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    path = Path(path)
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}")

    for name in ("geometry", "coset", "grid", "noise", "run"):
        if name not in parser:
            raise ConfigError(f"missing [{name}] section")

    geo = parser["geometry"]
    n_underlying = _parse_int(geo, "n_underlying")
    spacing = _parse_float(geo, "spacing")
    marks_raw = geo.get("marks", "solve").strip()
    marks = None if marks_raw.lower() == "solve" else _parse_marks(marks_raw)

    coset = parser["coset"]
    n_t = _parse_int(coset, "n_t")
    m_t = _parse_int(coset, "m_t")
    rows_raw = coset.get("rows")
    coset_rows = _parse_marks(rows_raw) if rows_raw else None
    coset_seed = _parse_int(coset, "seed") if coset.get("seed") else None
    if marks is None:
        if n_underlying < 1:
            raise ConfigError(f"[geometry] n_underlying = {n_underlying} must be >= 1")
        # one antenna is its own ruler, as build_coset_pattern has it for N_t = 1
        marks = (0,) if n_underlying == 1 else solve_sparse_ruler(n_underlying - 1).marks

    grid_sec = parser["grid"]
    grid_q = _parse_int(grid_sec, "q")
    mode = grid_sec.get("mode", "inverse-sin").strip().lower()
    if mode == "inverse-sin":
        grid_angles = None
    elif mode == "explicit":
        raw = grid_sec.get("angles_deg")
        if not raw:
            raise ConfigError("[grid] mode=explicit requires angles_deg")
        try:
            grid_angles = tuple(np.radians(float(tok)) for tok in raw.split())
        except ValueError:
            raise ConfigError("[grid] angles_deg must be numbers")
    else:
        raise ConfigError(f"[grid] unknown mode {mode!r}")

    sources = []
    src_names = [name for name in parser.sections() if name.startswith("source.")]
    try:
        src_names.sort(key=lambda name: int(name.split(".", 1)[1]))
    except ValueError:
        raise ConfigError("source sections must be [source.N] with an integer N")
    for name in src_names:
        sec = parser[name]
        try:
            sources.append(
                SourceSpec(
                    true_doa=float(np.radians(_parse_float(sec, "doa_deg"))),
                    band=(
                        _parse_float(sec, "band_lo_pi") * np.pi,
                        _parse_float(sec, "band_hi_pi") * np.pi,
                    ),
                    input_variance=_parse_float(sec, "variance"),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"[{name}] {exc}")

    noise = parser["noise"]
    noise_variance = _parse_float(noise, "variance")
    if noise_variance < 0:
        raise ConfigError("[noise] variance must be >= 0")
    noise_mode = noise.get("mode", "estimate").strip().lower()
    if noise_mode not in ("estimate", "known"):
        raise ConfigError("[noise] mode must be 'estimate' or 'known'")

    run = parser["run"]
    n_blocks = _parse_int(run, "n_blocks")
    master_seed = _parse_int(run, "seed")
    output_dir = run.get("output_dir", "out").strip()
    peak_threshold = _parse_float(run, "peak_threshold", default=0.35)
    if not (0 < peak_threshold <= 1):
        raise ConfigError("[run] peak_threshold must be in (0, 1]")
    workers_raw = run.get("workers") or os.environ.get(WORKERS_ENV)
    try:
        workers = int(workers_raw) if workers_raw else None
    except ValueError:
        raise ConfigError(f"worker count {workers_raw!r} is not an integer")
    dump = run.get("dump_snapshots", "false").strip().lower()
    if dump not in ("true", "false", "yes", "no", "1", "0"):
        raise ConfigError("[run] dump_snapshots must be a boolean")

    return ScenarioConfig(
        n_underlying=n_underlying,
        spacing=spacing,
        marks=marks,
        n_t=n_t,
        m_t=m_t,
        coset_rows=coset_rows,
        coset_seed=coset_seed,
        grid_q=grid_q,
        grid_angles=grid_angles,
        sources=tuple(sources),
        noise_variance=noise_variance,
        noise_mode=noise_mode,
        n_blocks=n_blocks,
        master_seed=master_seed,
        output_dir=output_dir,
        peak_threshold=peak_threshold,
        workers=workers,
        dump_snapshots=dump in ("true", "yes", "1"),
    )


def geometry_of(cfg: ScenarioConfig) -> ArrayGeometry:
    return ArrayGeometry(
        n_underlying=cfg.n_underlying,
        spacing_d=cfg.spacing,
        active_marks=tuple(cfg.marks),
    )


def grid_of(cfg: ScenarioConfig) -> AngularGrid:
    if cfg.grid_angles is None:
        return inverse_sin_grid(cfg.grid_q)
    return AngularGrid(q_count=cfg.grid_q, angles=np.asarray(cfg.grid_angles))


def pattern_of(cfg: ScenarioConfig) -> CosetPattern:
    if cfg.coset_rows is not None:
        pattern = CosetPattern(n_t=cfg.n_t, rows=cfg.coset_rows)
        if pattern.m_t != cfg.m_t:
            raise ConfigError(
                f"explicit coset rows count {pattern.m_t} != m_t {cfg.m_t}"
            )
        return pattern
    if cfg.m_t > cfg.n_t:
        raise ConfigError(f"m_t = {cfg.m_t} exceeds n_t = {cfg.n_t}")
    seed = cfg.coset_seed if cfg.coset_seed is not None else cfg.master_seed
    return build_coset_pattern(cfg.n_t, cfg.m_t, seed)


def _gate_record(name: str, level: str, passed: bool, detail: str) -> dict:
    return {"name": name, "level": level, "passed": bool(passed), "detail": detail}


def check_gates(cfg: ScenarioConfig) -> list:
    """Records of the cross-field design gates, which need no design;
    failed ones included (require_gates acts on them).  Resolve first."""
    m_s = len(cfg.marks)
    narrowest = min((s.band[1] - s.band[0] for s in cfg.sources), default=2 * np.pi)
    bin_pi = 2 / cfg.n_t
    return [
        _gate_record(
            "temporal-overdetermination",
            "hard",
            cfg.m_t ** 2 >= 2 * cfg.n_t - 1,
            f"M_t^2 = {cfg.m_t ** 2} vs 2N_t-1 = {2 * cfg.n_t - 1}",
        ),
        _gate_record(
            "band-resolution",
            "hard",
            all(band_resolvable(s.band, cfg.n_t) for s in cfg.sources),
            f"narrowest band {narrowest / np.pi:.4g}pi vs 2pi/N_t = {bin_pi:.4g}pi",
        ),
        _gate_record(
            "spatial-overdetermination",
            "warning",
            m_s ** 2 >= cfg.grid_q,
            f"M_s^2 = {m_s ** 2} vs Q = {cfg.grid_q}",
        ),
        _gate_record(
            "grid-size-advisory",
            "advisory",
            cfg.grid_q <= 2 * cfg.n_underlying - 1,
            f"Q = {cfg.grid_q} vs 2N_s-1 = {2 * cfg.n_underlying - 1}",
        ),
    ]


def require_gates(gates: list) -> None:
    """Raise DesignGateError on the first failed hard gate record."""
    for gate in gates:
        if gate["level"] == "hard" and not gate["passed"]:
            raise DesignGateError(f"{gate['name']} failed: {gate['detail']}")


class Resolution(NamedTuple):
    """A configuration's gate records, with its design and certificates
    unless the coset pattern could not be built (then a failed
    coset-ruler-cardinality record says why)."""

    gates: list
    design: Optional[est.Design]
    certificates: Optional[dict]


def resolve(cfg: ScenarioConfig) -> Resolution:
    """Judge the values, then gate, build and certify the design: the one
    front door of run, certify and sweep.  Failed gates are recorded, not
    raised; a value out of range, however it was set, and a configuration
    that describes no geometry, grid or coset pattern raise ConfigError,
    and so does one whose predicted_cost exceeds MAX_COMPLEX_NORMALS or
    MAX_GRAM_FLOPS."""
    for name, value, least in (
        ("[run] seed", cfg.master_seed, 0),
        ("[coset] seed", cfg.coset_seed, 0),
        ("[run] n_blocks", cfg.n_blocks, 1),
        ("[coset] m_t", cfg.m_t, 1),
        ("worker count", cfg.workers, 1),
    ):
        if value is not None and value < least:
            raise ConfigError(f"{name} = {value} must be >= {least}")
    try:
        parts = geometry_of(cfg), grid_of(cfg), pattern_of(cfg)
    except CosetCardinalityError as exc:
        gate = _gate_record("coset-ruler-cardinality", "hard", False, str(exc))
        return Resolution(check_gates(cfg) + [gate], None, None)
    except ValueError as exc:
        raise ConfigError(str(exc))
    cost = predicted_cost(cfg)
    if cost["complex_normals"] > MAX_COMPLEX_NORMALS or cost["gram_flops"] > MAX_GRAM_FLOPS:
        raise ConfigError(
            f"[run] n_blocks = {cfg.n_blocks} is too much work: "
            f"{cost['complex_normals']:.4g} complex normals drawn and "
            f"{cost['gram_flops']:.4g} Gram flops, against limits of "
            f"{MAX_COMPLEX_NORMALS:.0e} normals and {MAX_GRAM_FLOPS:.0e} flops"
        )
    gates = check_gates(cfg)
    design = est.Design(*parts)
    certs = design_certificates(design)
    uncovered = int((design.rct.pair_counts == 0).sum())
    lags = design.rct.n_lags
    lag_detail = f"{uncovered} of 2N_t-1 = {lags} lags without a coset row pair"
    rank, cond = certs["kr_rank"]["rank"], certs["kr_rank"]["condition_number"]
    kr_detail = f"Khatri-Rao rank {rank} vs Q = {cfg.grid_q}, condition {cond:.4g}"
    gates += [
        _gate_record("lag-coverage", "hard", uncovered == 0, lag_detail),
        _gate_record("kr-rank", "hard", rank >= cfg.grid_q, kr_detail),
    ]
    return Resolution(gates, design, certs)


def _draw_threads(cfg: ScenarioConfig) -> int:
    """Threads block_chunks draws a run's random streams on: the worker
    count, or the CPUs available, capped at one per source and, with
    noise, one per active antenna."""
    noisy_antennas = len(cfg.marks) if cfg.noise_variance > 0 else 0
    return draw_threads(cfg.workers, len(cfg.sources) + noisy_antennas)


def predicted_cost(cfg: ScenarioConfig) -> dict:
    """A run's work and memory in closed form, known before any
    simulation: the complex normals block_chunks draws, the real flops
    of the Gram updates (8 per complex multiply-add of the (M_s*M_t)^2
    Gram of every block), and the peak bytes of the simulator's buffers
    (simulate.block_buffer_bytes), which do not grow with N_n."""
    m_s, noisy = len(cfg.marks), cfg.noise_variance > 0
    n_sources = len(cfg.sources)
    return {
        "complex_normals": normals_drawn(n_sources, m_s, cfg.n_t, cfg.n_blocks, noisy),
        "gram_flops": 8 * cfg.n_blocks * (m_s * cfg.m_t) ** 2,
        "block_buffer_bytes": block_buffer_bytes(
            n_sources, m_s, cfg.n_t, cfg.m_t, noisy, _draw_threads(cfg)
        ),
    }


def design_certificates(design: est.Design) -> dict:
    """All design checks: ruler validity, lag-column coverage, both
    rank-condition certificates, and the realized Khatri-Rao rank."""
    geometry, pattern = design.geometry, design.pattern
    q_count = design.grid.q_count
    d = Fraction(repr(geometry.spacing_d))
    diffs = difference_set(geometry.active_marks, d)
    return {
        "geometry": {
            "n_underlying": geometry.n_underlying,
            "active_marks": list(geometry.active_marks),
            "m_active": geometry.m_active,
            "spatial_compression_rate": geometry.m_active / geometry.n_underlying,
        },
        "coset": {
            "rows": list(pattern.rows),
            "m_t": pattern.m_t,
            "temporal_compression_rate": pattern.m_t / pattern.n_t,
            # the rows form a length-(N_t-1) ruler iff every lag column is hit
            "rows_cover_all_lags": design.rct.full_column_rank,
        },
        "rct_full_column_rank": design.rct.full_column_rank,
        "virtual_ula": asdict(check_virtual_ula(diffs, q_count, d)),
        "sine_grid_residues": asdict(check_sine_grid_residues(diffs, q_count)),
        "kr_rank": dict(design.manifold.rank_info),
    }


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, rows) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _spectrum_csvs(out: Path, spec: est.SpectrumMatrix) -> list:
    """Raw (complex, natural bin order) and plot (clamped real, sorted
    frequency) spectrum CSVs plus the angular marginal."""
    angles_deg = np.degrees(spec.angle_grid.angles)
    written = []

    raw_path = out / "spectrum_raw.csv"
    rows = [["angle_deg"] + [_fmt(float(f)) for f in spec.freq_grid]]
    for q, adeg in enumerate(angles_deg):
        rows.append([_fmt(float(adeg))] + [repr(complex(v)) for v in spec.values[q]])
    _write_csv(raw_path, rows)
    written.append(raw_path)

    order = np.argsort(spec.freq_grid, kind="stable")
    clamped = spec.clamped_real()
    plot_path = out / "spectrum_plot.csv"
    rows = [["angle_deg"] + [_fmt(float(spec.freq_grid[k])) for k in order]]
    for q, adeg in enumerate(angles_deg):
        rows.append(
            [_fmt(float(adeg))] + [_fmt(float(clamped[q, k])) for k in order]
        )
    _write_csv(plot_path, rows)
    written.append(plot_path)

    marg_path = out / "angular_marginal.csv"
    marginal = clamped.sum(axis=1)
    rows = [["angle_deg", "power"]]
    rows += [
        [_fmt(float(a)), _fmt(float(m))] for a, m in zip(angles_deg, marginal)
    ]
    _write_csv(marg_path, rows)
    written.append(marg_path)
    return written


def run_scenario(
    cfg: ScenarioConfig,
    output_dir: Optional[str] = None,
    seed: Optional[int] = None,
) -> dict:
    """Full pipeline: design, simulate chunk by chunk into a running Gram,
    solve, export.  No block array is held beyond the chunks in flight.

    Writes spectrum CSVs, the angular marginal, and report.json into the
    output directory; returns the report.  The random streams are drawn
    one chunk ahead on ``draw_threads`` threads, while the calling thread
    runs the FIRs, the steering and the Gram updates on ``blas_threads``
    BLAS threads (one_blas_thread: 1, or None when numpy's BLAS cannot
    be limited), so ``timings["simulate_s"]`` is the run's wait on the
    simulator: the FIRs, the steering and any draw not yet done.
    ``timings["export_s"]`` covers writing the CSVs and assembling the
    report, not writing report.json, which holds it.  Partial outputs are removed if any
    stage fails.
    """
    if seed is not None:
        cfg = _replace(cfg, master_seed=seed)
    t0 = time.perf_counter()
    resolved = resolve(cfg)
    require_gates(resolved.gates)
    design = resolved.design
    timings = {"design_s": time.perf_counter() - t0}
    out = _output_dir(cfg, output_dir)
    written = []
    try:
        chunks = _simulated_chunks(cfg, design)
        if cfg.dump_snapshots:
            dump_path = out / "compressed_blocks.bin"
            written.append(dump_path)
            shape = (cfg.n_blocks, design.geometry.m_active, design.pattern.m_t)
            chunks = dump_chunks(dump_path, chunks, shape)
        timings["simulate_s"] = 0.0
        t0 = time.perf_counter()
        # closing ends the stream, and with it any open dump, on failure
        with one_blas_thread() as blas_threads, closing(chunks):
            gram, n_blocks = est.accumulate_gram(_timed(chunks, timings, "simulate_s"))
        timings["gram_s"] = time.perf_counter() - t0 - timings["simulate_s"]

        t0 = time.perf_counter()
        rec, spec = est.spectrum_from_gram(
            design, gram, n_blocks, cfg.noise_mode, cfg.noise_variance
        )
        detections = est.find_peaks(spec, cfg.peak_threshold)
        timings["estimate_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        written += _spectrum_csvs(out, spec)
        report = {
            "config": _config_echo(cfg),
            "gates": resolved.gates,
            "certificates": resolved.certificates,
            "cost": predicted_cost(cfg),
            "draw_threads": _draw_threads(cfg),
            "blas_threads": blas_threads,
            "sigma_n_hat": rec.sigma_n_hat,
            "noise_path": rec.noise_path,
            "residual_norms": [float(r) for r in rec.residual_norms],
            "detections": [_detection_record(d) for d in detections],
            "timings": timings,
        }
        report_path = out / "report.json"
        written.append(report_path)
        timings["export_s"] = time.perf_counter() - t0
        with open(report_path, "w") as fh:
            json.dump(report, fh, indent=2)
        return report
    except Exception:
        for p in written:
            try:
                os.unlink(p)
            except OSError:
                pass
        raise


def _output_dir(cfg: ScenarioConfig, override: Optional[str]) -> Path:
    """The output directory, ``override`` if given, created if missing."""
    out = Path(override if override is not None else cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot use output directory {str(out)!r}: {exc}")
    return out


def _simulated_chunks(cfg: ScenarioConfig, design: est.Design):
    """The configuration's simulated data, as the design samples it, in
    chunks of blocks drawn on the configured worker count."""
    return block_chunks(
        cfg.sources,
        design.geometry,
        design.pattern,
        cfg.noise_variance,
        cfg.n_blocks,
        cfg.master_seed,
        cfg.workers,
    )


def _timed(items, timings: dict, key: str):
    """Pass ``items`` through, adding the time spent producing each one to
    ``timings[key]``."""
    it = iter(items)
    while True:
        t0 = time.perf_counter()
        item = next(it, None)
        timings[key] += time.perf_counter() - t0
        if item is None:
            return
        yield item


def run_certify(cfg: ScenarioConfig) -> dict:
    """Design checks only, every gate record kept, and the predicted cost
    of a run with its draw threads; no simulation, nothing written.
    ``certificates`` is None when no design exists."""
    resolved = resolve(cfg)
    return {
        "config": _config_echo(cfg),
        "gates": resolved.gates,
        "certificates": resolved.certificates,
        "cost": predicted_cost(cfg),
        "draw_threads": _draw_threads(cfg),
    }


def run_sweep(
    cfg: ScenarioConfig,
    param: str,
    values: Sequence[int],
    seeds: Sequence[int],
    output_dir: Optional[str] = None,
) -> Path:
    """One pipeline run per (value, seed); consolidated error metrics.

    ``param`` is "n_blocks" or "m_t".  Per run the CSV records the
    relative error of the recovered per-angle lag matrix against the
    closed-form one (NaN when any source is off-grid, where exact truth
    is undefined), the noise-power error, and the fraction of true
    sources matched by a detection within one grid cell.  Every run's
    design is resolved, and its gates required, before any run starts;
    runs then execute one after another, in job order, each drawing its
    streams on the config's worker count (see block_chunks) and folding
    them into its Gram on one BLAS thread (one_blas_thread).
    """
    if param not in ("n_blocks", "m_t"):
        raise ConfigError(f"sweep parameter must be n_blocks or m_t, got {param!r}")
    # without a pinned coset seed the pattern depends on the run's seed
    jobs = []
    for value in values:
        for seed in seeds:
            sub = _replace(cfg, master_seed=seed, **{param: value})
            resolved = resolve(sub)
            require_gates(resolved.gates)
            jobs.append((value, seed, sub, resolved.design))
    out = _output_dir(cfg, output_dir)
    results = [
        (value, seed) + _sweep_metrics(sub, design) for value, seed, sub, design in jobs
    ]

    path = out / "sweep.csv"
    rows = [["param", "value", "seed", "rs_rel_error", "sigma_rel_error", "detection_rate"]]
    rows += [[param, v, s, _fmt(e), _fmt(se), _fmt(dr)] for v, s, e, se, dr in results]
    _write_csv(path, rows)
    return path


def _sweep_metrics(cfg: ScenarioConfig, design: est.Design):
    grid = design.grid
    with one_blas_thread(), closing(_simulated_chunks(cfg, design)) as chunks:
        gram, n_blocks = est.accumulate_gram(chunks)
    rec, spec = est.spectrum_from_gram(
        design, gram, n_blocks, cfg.noise_mode, cfg.noise_variance
    )
    try:
        truth = place_on_grid(cfg.sources, grid, cfg.n_t)
        rs_err = float(
            np.linalg.norm(rec.source_lags - truth) / np.linalg.norm(truth)
        )
    except ValueError:
        rs_err = float("nan")
    sigma_err = (
        abs(rec.sigma_n_hat - cfg.noise_variance) / cfg.noise_variance
        if cfg.noise_variance > 0
        else float("nan")
    )
    detections = est.find_peaks(spec, cfg.peak_threshold)
    sines = np.sin(grid.angles)
    hits = 0
    for src in cfg.sources:
        cell = int(np.argmin(np.abs(sines - np.sin(src.true_doa))))
        if any(abs(d.grid_index - cell) <= 1 for d in detections):
            hits += 1
    rate = hits / len(cfg.sources) if cfg.sources else float("nan")
    return rs_err, float(sigma_err), float(rate)


def _config_echo(cfg: ScenarioConfig) -> dict:
    echo = asdict(cfg)
    echo["sources"] = [
        {
            "doa_deg": float(np.degrees(s.true_doa)),
            "band_lo_pi": s.band[0] / np.pi,
            "band_hi_pi": s.band[1] / np.pi,
            "variance": s.input_variance,
        }
        for s in cfg.sources
    ]
    return echo


def _detection_record(d: est.Detection) -> dict:
    return {
        "grid_index": d.grid_index,
        "angle_deg": float(np.degrees(d.angle)),
        "rows": list(d.rows),
        "bands_rad": [[lo, hi] for lo, hi in d.bands],
        "total_power": d.total_power,
    }
