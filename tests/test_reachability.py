"""Every top-level definition in ``src/jafs`` must be reachable by name
from what users run: ``cli.main``, every name the demos use, and every
name the acceptance criteria import.  The sources are read with ``ast``,
never imported.

A definition is reached when a reached definition, or a module-level
statement that runs on import, names it, as a bare name or as an
attribute, in any module of the package.  Matching by name alone can
only over-reach, so a definition this test calls unreachable is dead.

UNREACHABLE lists the definitions that no run path reaches yet, each
with the ROADMAP item that will delete it or give it a caller.  The
list may only shrink: the test also fails when a listed name becomes
reachable or is no longer defined, so that it is taken off the list.  A
change that adds a name to it declares that in CHANGES.md, as a change
to a check."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jafs"

UNREACHABLE = {
    # perfbench traces these; item 11 moves the benchmark off them and
    # item 3 then deletes them
    "estimate.pair_correlations": "items 11 and 3",
    "simulate.synth_source": "items 11 and 3",
    "simulate.ula_snapshots": "items 11 and 3",
    "simulate.spatial_compress": "items 11 and 3",
    "simulate.temporal_compress": "items 11 and 3",
    # the dump format: item 14's read path gives them a caller, or
    # deletes them with the dump
    "simulate.write_snapshots": "item 14",
    "simulate.read_snapshots": "item 14",
}


def referenced(nodes):
    """Every identifier the nodes name, as a bare name or an attribute."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def package_definitions():
    """({"module.name": defining node}, module-level statements that run
    on import and define nothing)."""
    definitions, on_import = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = defined_names(node)
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    definitions[f"{path.stem}.{name}"] = node
            if not names and not isinstance(node, (ast.Import, ast.ImportFrom)):
                on_import.append(node)
    return definitions, on_import


def package_imports(tree):
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("jafs")
        for alias in node.names
    }


def root_names():
    names = {"main"}  # cli.main
    for demo in sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(demo.read_text())
        names |= referenced([tree]) | package_imports(tree)
    acceptance = ROOT / "tests" / "test_acceptance.py"
    return names | package_imports(ast.parse(acceptance.read_text()))


def unreachable():
    definitions, on_import = package_definitions()
    reached_names = root_names() | referenced(on_import)
    reached = set()
    while True:
        new = {
            key
            for key in definitions
            if key not in reached and key.split(".", 1)[1] in reached_names
        }
        if not new:
            break
        reached |= new
        reached_names |= referenced([definitions[key] for key in new])
    return set(definitions) - reached, set(definitions)


def test_every_definition_is_reachable_or_listed():
    dead, _ = unreachable()
    assert sorted(dead - set(UNREACHABLE)) == []


def test_unreachable_list_only_shrinks():
    dead, defined = unreachable()
    assert sorted(set(UNREACHABLE) - defined) == [], "listed but no longer defined"
    assert sorted(set(UNREACHABLE) - dead) == [], "listed but now reachable"
