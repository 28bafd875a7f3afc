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
    mode = inverse-sin       ; or "explicit", with angles_deg
    ; angles_deg = -30 0 30  ; explicit grid angles in degrees, increasing

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

KEYS declares every key a file may hold, with its type, default and
bounds; load_scenario reads the file through it, values taken literally
(a "%" is only a "%"), and refuses any other section or key.
resolve(cfg) judges the bounds again, so that --seed, --seeds and
--values (for a field in SWEEP_PARAMS) are held to them, then gates,
builds and certifies the design for run, certify and sweep alike, before
anything is simulated: certify reports every gate record, run and sweep
stop on the first failed hard one; certify's report opens a run's.  A
run and each sweep run estimate through one path, _estimate: it folds
the run's chunks into its Gram on one BLAS thread, solves it and finds
the peaks.  A sweep runs its jobs one after another; the worker count
sets the threads that draw each run's random streams.  resolve refuses,
as a bad value, a run whose predicted work exceeds MAX_COMPLEX_NORMALS
or MAX_GRAM_FLOPS.  Hard gates:
temporal-overdetermination (M_t**2 >= 2*N_t - 1, else the lag system is
underdetermined); band-resolution (every source band at least 2*pi/N_t
wide, all the N_t-tap source filters resolve); coset-ruler-cardinality
(M_t reaches the cardinality of the length-(N_t-1) coset ruler when the
rows are built from it; recorded only when it fails, since then no
design exists); lag-coverage (the coset rows realize every lag); kr-rank
(the Khatri-Rao matrix has rank Q).  M_s**2 >= Q is a warning (the
angular system is certified anyway); Q <= 2*N_s - 1 is advisory (more
grid angles than the full co-array could ever resolve).
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
    peak_threshold: float
    workers: Optional[int]
    dump_snapshots: bool


class Key(NamedTuple):
    """A key of ``section`` ("source.N": every [source.N]) read into
    ``field`` (None: read by hand) as ``kind`` (int, float, str, (int,)
    or (float,) for a list, or a dict from accepted words to values), else
    ``default`` (...: required; a blank value unsets a None default).
    _judge holds it within ``bounds`` (a key of _BOUNDS), naming it
    ``label``, else "[section] key"."""

    section: str
    key: str
    field: Optional[str] = None
    kind: object = None
    default: object = ...
    bounds: Optional[str] = None
    label: Optional[str] = None


_BOUNDS = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
}
_BOOLEAN = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}

# every key a scenario file may hold
KEYS = (
    Key("geometry", "n_underlying", "n_underlying", int, bounds=">= 1"),
    Key("geometry", "spacing", "spacing", float),
    Key("geometry", "marks"),
    Key("coset", "n_t", "n_t", int),
    Key("coset", "m_t", "m_t", int, bounds=">= 1"),
    Key("coset", "rows", "coset_rows", (int,), None),
    Key("coset", "seed", "coset_seed", int, None, ">= 0"),
    Key("grid", "q", "grid_q", int),
    Key("grid", "mode"),
    Key("grid", "angles_deg"),
    Key("source.N", "doa_deg", "doa_deg", float),
    Key("source.N", "band_lo_pi", "band_lo_pi", float),
    Key("source.N", "band_hi_pi", "band_hi_pi", float),
    Key("source.N", "variance", "variance", float),
    Key("noise", "variance", "noise_variance", float, bounds=">= 0"),
    Key("noise", "mode", "noise_mode", {"estimate": "estimate", "known": "known"}, "estimate"),
    Key("run", "n_blocks", "n_blocks", int, bounds=">= 1"),
    Key("run", "seed", "master_seed", int, bounds=">= 0"),
    Key("run", "output_dir", "output_dir", str, "out"),
    Key("run", "peak_threshold", "peak_threshold", float, 0.35, "in (0, 1]"),
    # unset: WORKERS_ENV, else the CPUs available
    Key("run", "workers", "workers", int, None, ">= 1", "worker count"),
    Key("run", "dump_snapshots", "dump_snapshots", _BOOLEAN, False),
)
# the fields run_sweep and ``jafs sweep --param`` vary
SWEEP_PARAMS = ("n_blocks", "m_t")


def _parse(raw: str, kind, label: str):
    """``raw`` as a value of a Key's ``kind``; ``label`` names it in errors."""
    if isinstance(kind, tuple):
        return tuple(_parse(tok, kind[0], label) for tok in raw.split())
    if isinstance(kind, dict):
        if raw.lower() not in kind:
            raise ConfigError(f"{label} = {raw!r} must be one of {', '.join(kind)}")
        return kind[raw.lower()]
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{label} = {raw!r} is not {noun}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{label} = {raw!r} is not finite")
    return value


def _read(section, declared: str) -> dict:
    """The values, by field, of the KEYS of section ``declared`` in ``section``."""
    values = {}
    for spec in (k for k in KEYS if k.section == declared and k.field):
        raw = section.get(spec.key)
        if raw is None or (not raw and spec.default is None):
            if spec.default is ...:
                raise ConfigError(f"[{section.name}] missing key '{spec.key}'")
            values[spec.field] = spec.default
        else:
            values[spec.field] = _parse(raw, spec.kind, f"[{section.name}] {spec.key}")
    return values


def _judge(values: dict) -> None:
    """ConfigError naming the first set value (by field) out of bounds."""
    for spec in KEYS:
        value = values[spec.field] if spec.bounds else None
        if value is not None and not _BOUNDS[spec.bounds](value):
            label = spec.label or f"[{spec.section}] {spec.key}"
            raise ConfigError(f"{label} = {value} must be {spec.bounds}")


def load_scenario(path) -> ScenarioConfig:
    """Parse a scenario file; ConfigError if it is unreadable, holds a
    section or key that KEYS does not declare, or a value has the wrong
    form or is out of bounds.  resolve judges the bounds again."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), interpolation=None
    )
    path = Path(path)
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}")

    sections = ("geometry", "coset", "grid", "noise", "run")
    keys = {(k.section, k.key) for k in KEYS}
    for name in parser.sections():
        declared = "source.N" if name.startswith("source.") else name
        if declared not in sections + ("source.N",):
            raise ConfigError(f"unknown section [{name}]")
        # a section's keys include configparser's [DEFAULT] ones
        for key in parser[name]:
            if (declared, key) not in keys:
                raise ConfigError(f"[{name}] unknown key {key!r}")

    values = {}
    for name in sections:
        if name not in parser:
            raise ConfigError(f"missing [{name}] section")
        values.update(_read(parser[name], name))
    if values["workers"] is None and os.environ.get(WORKERS_ENV):
        values["workers"] = _parse(os.environ[WORKERS_ENV], int, WORKERS_ENV)
    _judge(values)

    marks = parser["geometry"].get("marks", "solve")
    if marks.lower() != "solve":
        values["marks"] = _parse(marks, (int,), "[geometry] marks")
    elif values["n_underlying"] == 1:
        # one antenna is its own ruler, as build_coset_pattern has it for N_t = 1
        values["marks"] = (0,)
    else:
        values["marks"] = solve_sparse_ruler(values["n_underlying"] - 1).marks

    grid = parser["grid"]
    mode = grid.get("mode", "inverse-sin").lower()
    if mode == "inverse-sin":
        values["grid_angles"] = None
    elif mode == "explicit" and grid.get("angles_deg"):
        degrees = _parse(grid["angles_deg"], (float,), "[grid] angles_deg")
        values["grid_angles"] = tuple(np.radians(degrees))
    elif mode == "explicit":
        raise ConfigError("[grid] mode=explicit requires angles_deg")
    else:
        raise ConfigError(f"[grid] unknown mode {mode!r}")

    sources = [name for name in parser.sections() if name.startswith("source.")]
    try:
        sources.sort(key=lambda name: int(name.split(".", 1)[1]))
    except ValueError:
        raise ConfigError("source sections must be [source.N] with an integer N")
    values["sources"] = tuple(_source(parser[name]) for name in sources)
    return ScenarioConfig(**values)


def _source(section) -> SourceSpec:
    src = _read(section, "source.N")
    band = (src["band_lo_pi"] * np.pi, src["band_hi_pi"] * np.pi)
    try:
        return SourceSpec(float(np.radians(src["doa_deg"])), band, src["variance"])
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {exc}")


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
    _judge(vars(cfg))
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


def _write_csv(fh, rows) -> None:
    """Rows of Python strings and numbers to the open file ``fh``, each
    cell as its str (for a float, the shortest decimal that reads back
    to it)."""
    fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _spectrum_csvs(out: Path, spec: est.SpectrumMatrix, written: list) -> None:
    """Write the raw (complex, natural bin order) and plot (clamped real,
    sorted frequency) spectrum CSVs and the angular marginal, adding each
    path to ``written`` before it is opened."""
    angles_deg = np.degrees(spec.angle_grid.angles).tolist()
    order = np.argsort(spec.freq_grid, kind="stable")
    clamped = spec.clamped_real()
    tables = {
        "spectrum_raw.csv": (spec.freq_grid.tolist(), spec.values),
        "spectrum_plot.csv": (spec.freq_grid[order].tolist(), clamped[:, order]),
        "angular_marginal.csv": (["power"], clamped.sum(axis=1)[:, None]),
    }
    for name, (header, values) in tables.items():
        written.append(out / name)
        rows = ([a, *row] for a, row in zip(angles_deg, values.tolist()))
        with open(out / name, "w") as fh:
            _write_csv(fh, [["angle_deg", *header], *rows])


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
    report, not writing report.json, which holds it.  Partial outputs are
    removed if any stage fails; an output that cannot be written raises
    ConfigError naming it.
    """
    if seed is not None:
        cfg = _replace(cfg, master_seed=seed)
    t0 = time.perf_counter()
    resolved = resolve(cfg)
    require_gates(resolved.gates)
    timings = {"design_s": time.perf_counter() - t0}
    out = _output_dir(cfg, output_dir)
    written = []
    try:
        dump = None
        if cfg.dump_snapshots:
            dump = out / "compressed_blocks.bin"
            written.append(dump)
        rec, spec, detections, blas_threads = _estimate(
            cfg, resolved.design, timings, dump
        )

        t0 = time.perf_counter()
        _spectrum_csvs(out, spec, written)
        report = _design_record(cfg, resolved) | {
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
    except Exception as exc:
        for p in written:
            try:
                os.unlink(p)
            except OSError:
                pass
        # only the writes do I/O, and the last path listed is the one open
        if isinstance(exc, OSError) and written:
            raise ConfigError(f"cannot write {written[-1]}: {exc.strerror or exc}")
        raise


def _estimate(cfg: ScenarioConfig, design: est.Design, timings: dict, dump=None):
    """The one estimation path of run and sweep: fold the simulated
    chunks into a Gram on one BLAS thread (writing them to ``dump`` as
    they pass, when given), solve it and find the peaks.  Sets
    ``timings``' simulate_s, gram_s and estimate_s; returns (rec, spec,
    detections, blas_threads)."""
    chunks = _simulated_chunks(cfg, design)
    if dump is not None:
        shape = (cfg.n_blocks, design.geometry.m_active, design.pattern.m_t)
        chunks = dump_chunks(dump, chunks, shape)
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
    return rec, spec, detections, blas_threads


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
    of a run with its draw threads; no simulation, nothing written."""
    return _design_record(cfg, resolve(cfg))


def _design_record(cfg: ScenarioConfig, resolved: Resolution) -> dict:
    """What certify reports and a run's report begins with: the
    configuration, every gate record, the certificates (None when no
    design exists), the predicted cost and the draw threads."""
    sources = [
        {
            "doa_deg": float(np.degrees(s.true_doa)),
            "band_lo_pi": s.band[0] / np.pi,
            "band_hi_pi": s.band[1] / np.pi,
            "variance": s.input_variance,
        }
        for s in cfg.sources
    ]
    return {
        "config": asdict(cfg) | {"sources": sources},
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
    """One run per (value, seed), estimated as run_scenario estimates it;
    consolidated error metrics.

    ``param`` is one of SWEEP_PARAMS.  Per run the CSV records the
    relative error of the recovered per-angle lag matrix against the
    closed-form one (NaN when any source is off-grid, where exact truth
    is undefined), the noise-power error, and the fraction of true
    sources matched by a detection within one grid cell.  Every run's
    design is resolved, and its gates required, and sweep.csv opened,
    before any run starts, so an output that cannot be written raises
    ConfigError before any simulation; runs then execute one after
    another, in job order, each drawing its streams on the config's
    worker count (see block_chunks) and folding them into its Gram on
    one BLAS thread (one_blas_thread).  The rows are written after the
    last run; a failed run removes sweep.csv.
    """
    if param not in SWEEP_PARAMS:
        params = " or ".join(SWEEP_PARAMS)
        raise ConfigError(f"sweep parameter must be {params}, got {param!r}")
    # without a pinned coset seed the pattern depends on the run's seed
    jobs = []
    for value in values:
        for seed in seeds:
            sub = _replace(cfg, master_seed=seed, **{param: value})
            resolved = resolve(sub)
            require_gates(resolved.gates)
            jobs.append((value, seed, sub, resolved.design))
    header = ["param", "value", "seed", "rs_rel_error", "sigma_rel_error", "detection_rate"]
    path = _output_dir(cfg, output_dir) / "sweep.csv"
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")
    try:
        with fh:
            rows = [
                [param, value, seed, *_sweep_metrics(sub, design)]
                for value, seed, sub, design in jobs
            ]
            _write_csv(fh, [header, *rows])
    except BaseException as exc:
        path.unlink(missing_ok=True)
        # the runs do no I/O, so an OSError is the write's
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")
        raise
    return path


def _sweep_metrics(cfg: ScenarioConfig, design: est.Design):
    """A sweep run's scores, from the estimate run_scenario makes."""
    rec, _, detections, _ = _estimate(cfg, design, {})
    grid = design.grid
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
    sines = np.sin(grid.angles)
    hits = 0
    for src in cfg.sources:
        cell = int(np.argmin(np.abs(sines - np.sin(src.true_doa))))
        if any(abs(d.grid_index - cell) <= 1 for d in detections):
            hits += 1
    rate = hits / len(cfg.sources) if cfg.sources else float("nan")
    return rs_err, float(sigma_err), float(rate)


def _detection_record(d: est.Detection) -> dict:
    return {
        "grid_index": d.grid_index,
        "angle_deg": float(np.degrees(d.angle)),
        "rows": list(d.rows),
        "bands_rad": [[lo, hi] for lo, hi in d.bands],
        "total_power": d.total_power,
    }
