"""The benchmark harness calls and traces package functions by name; each
name must still exist in ``jafs``.  The harness files are read as source,
never imported."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
