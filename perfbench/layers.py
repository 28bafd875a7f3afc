"""Which ``jafs`` functions are traced, and how their spans become the
per-layer metrics.  Layers are the package modules: geometry, model,
simulate, estimate, oracle, scenario and cli."""

from __future__ import annotations

from jafs import cli, estimate, geometry, model, oracle, scenario, simulate
from tracing import summarize

MODULES = {
    m.__name__.rsplit(".", 1)[1]: m
    for m in (geometry, model, simulate, estimate, oracle, scenario, cli)
}

# (module name, function, mem): the span is named "<module>.<function>";
# mem spans record their peak traced allocation
TRACED = [
    ("simulate", "synth_source", False),
    ("simulate", "ula_snapshots", True),
    ("simulate", "spatial_compress", True),
    ("simulate", "temporal_compress", True),
    ("simulate", "read_snapshots", True),
    ("simulate", "write_snapshots", False),
    ("estimate", "build_rct", False),
    ("estimate", "pair_correlations", True),
    ("estimate", "recover_lags", True),
    ("estimate", "assemble_all", True),
    ("estimate", "recover_angular", True),
    ("estimate", "spectrum", True),
    ("estimate", "find_peaks", True),
    ("model", "manifold_and_kr", False),
    ("model", "rank_report", False),
    ("geometry", "solve_sparse_ruler", False),
    ("oracle", "place_on_grid", False),
    ("scenario", "run_certify", False),
    ("scenario", "check_gates", False),
    ("scenario", "design_certificates", False),
    ("scenario", "geometry_of", False),
    ("scenario", "grid_of", False),
    ("scenario", "pattern_of", False),
    ("scenario", "run_scenario", False),
    ("scenario", "run_sweep", False),
    ("scenario", "_sweep_metrics", False),
]

# spans that make up the design stage; nested ones are counted once
DESIGN = {
    "scenario.run_certify",
    "scenario.check_gates",
    "scenario.design_certificates",
    "scenario.geometry_of",
    "scenario.grid_of",
    "scenario.pattern_of",
    "model.manifold_and_kr",
    "estimate.build_rct",
}


def instrument(tracer):
    tracer.instrument(
        list(MODULES.values()),
        [(MODULES[mod], func, f"{mod}.{func}", mem) for mod, func, mem in TRACED],
    )


def layer_values(spans, counters: dict, workers: int) -> dict:
    """Per-layer metrics of one operation (or one set-up) from its spans
    and computed counters."""
    by = summarize(spans)
    names = {s["id"]: s["name"] for s in spans}

    def incl(*keys):
        return sum(by[k]["incl_s"] for k in keys if k in by)

    def self_time(*keys):
        return sum(by[k]["self_s"] for k in keys if k in by)

    def peak(prefix):
        return max(
            (row["peak_mb"] for key, row in by.items() if key.startswith(prefix)),
            default=0.0,
        )

    sweep_wall = incl("scenario.run_sweep")
    values = {
        "simulate.synth_s": incl("simulate.synth_source"),
        "simulate.snapshots_self_s": self_time("simulate.ula_snapshots"),
        "simulate.compress_s": incl("simulate.spatial_compress", "simulate.temporal_compress"),
        "simulate.peak_traced_mb": peak("simulate."),
        "simulate.read_s": incl("simulate.read_snapshots"),
        "simulate.write_s": incl("simulate.write_snapshots"),
        "estimate.pair_corr_s": incl("estimate.pair_correlations"),
        "estimate.lags_s": incl("estimate.recover_lags", "estimate.assemble_all"),
        "estimate.angular_s": self_time("estimate.recover_angular"),
        "estimate.spectrum_s": incl("estimate.spectrum"),
        "estimate.peaks_s": incl("estimate.find_peaks"),
        "estimate.peak_traced_mb": peak("estimate."),
        "model.manifold_s": incl("model.manifold_and_kr"),
        "model.rank_report_calls": by.get("model.rank_report", {}).get("calls", 0),
        "model.rank_report_s": incl("model.rank_report"),
        "scenario.self_s": sum(
            row["self_s"] for key, row in by.items() if key.startswith("scenario.")
        ),
        "scenario.design_s": sum(
            s["end"] - s["start"]
            for s in spans
            if s["name"] in DESIGN and names.get(s["parent"]) not in DESIGN
        ),
        "scenario.sweep_busy_ratio": (
            incl("scenario._sweep_metrics") / (workers * sweep_wall) if sweep_wall else 0.0
        ),
        "geometry.ruler_calls": by.get("geometry.solve_sparse_ruler", {}).get("calls", 0),
        "geometry.ruler_s": incl("geometry.solve_sparse_ruler"),
        "oracle.place_on_grid_s": incl("oracle.place_on_grid"),
    }
    values.update(counters)
    pair_s = values["estimate.pair_corr_s"]
    values["estimate.pair_corr_gflops"] = (
        counters.get("estimate.gram_flops", 0.0) / pair_s / 1e9 if pair_s else 0.0
    )
    return values
