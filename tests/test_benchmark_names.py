"""The benchmark harness calls and traces package functions by name; each
name must still exist in ``jafs``, and the spans its metrics read must
still be reached as it reads them.  The harness files are read as
source, never imported."""

import ast
import importlib
from dataclasses import fields
from pathlib import Path

from jafs import scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SMOKE = PERFBENCH.parent / "scenarios" / "smoke.scenario"
MODULES = ("simulate", "estimate", "model", "scenario")


def traced_names():
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    for node in tree.body:
        targets = getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "TRACED" for t in targets):
            return [(module, name) for module, name, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/layers.py defines no TRACED list")


def workload_names():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return sorted(
        {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES
        }
    )


def test_benchmark_names_exist():
    names = traced_names() + workload_names()
    assert len(names) > len(traced_names())  # the workloads call something
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"jafs.{module}"), name)
    ]
    assert missing == []


def test_workload_config_fields_exist():
    # every keyword of replace(...) and every attribute read on cfg or
    # self.cfg in the workloads is a ScenarioConfig field
    used = set()
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "replace":
            used |= {kw.arg for kw in node.keywords}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if ast.unparse(node.value) in ("cfg", "self.cfg"):
                used.add(node.attr)
    assert {"workers", "n_blocks"} <= used
    assert used - {f.name for f in fields(scenario.ScenarioConfig)} == set()


def test_sweep_calls_sweep_metrics_once_per_job(tmp_path, monkeypatch):
    # scenario.sweep_busy_ratio is the time spent in this span
    calls = []
    orig = scenario._sweep_metrics

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(scenario, "_sweep_metrics", counted)
    cfg = scenario.load_scenario(SMOKE)
    scenario.run_sweep(cfg, "n_blocks", [100, 200], [0, 1], output_dir=str(tmp_path))
    assert len(calls) == 4


def test_run_scenario_does_not_call_run_certify(tmp_path, monkeypatch):
    # run_certify is a design span: a run calling it would count its
    # design twice in scenario.design_s
    def no_certify(cfg):
        raise AssertionError("run_scenario called run_certify")

    monkeypatch.setattr(scenario, "run_certify", no_certify)
    report = scenario.run_scenario(scenario.load_scenario(SMOKE), output_dir=str(tmp_path))
    assert report["detections"]
