"""Every top-level definition in ``src/jafs`` must be reachable by name
from what users run: ``cli.main``, every name the demos use, and every
name the acceptance criteria import.  The sources are read with ``ast``,
never imported.

A definition is reached when a reached definition, or a module-level
statement that runs on import, names it, as a bare name or as an
attribute, in any module of the package.  Matching by name alone can
only over-reach, so a definition this test calls unreachable is dead.

The public methods and properties of a reached class are held to the
same rule: each must be named as an attribute by a reached definition, a
demo or the acceptance criteria.

UNREACHABLE lists the definitions that no run path reaches yet, each
with the ROADMAP item that will delete it or give it a caller, and
UNUSED_MEMBERS the members that only the unit tests name.  Both lists
may only shrink: the tests also fail when a listed name becomes
reachable or is no longer defined, so that it is taken off the list.  A
change that adds a name to either declares that in CHANGES.md, as a
change to a check."""

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

UNUSED_MEMBERS = {
    # the dense form of the selection-sum matrix, the unit tests'
    # reference for the np.linalg.lstsq checks of the closed-form solve
    "estimate.RctMatrix.as_dense": "unit-test reference",
    # a ruler's mark count, which item 6 reports over lengths 14-300
    "geometry.RulerSolution.cardinality": "item 6",
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


ACCEPTANCE = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())


def root_names():
    names = {"main"}  # cli.main
    for demo in sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(demo.read_text())
        names |= referenced([tree]) | package_imports(tree)
    return names | package_imports(ACCEPTANCE)


def closure():
    """(every definition, the reached ones, every name the roots and the
    reached definitions use)."""
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
    return definitions, reached, reached_names


def unreachable():
    definitions, reached, _ = closure()
    return set(definitions) - reached, set(definitions)


def unused_members():
    """({"module.Class.member": used}, over the public methods and
    properties of every reached class); a member is used when the
    acceptance criteria or anything reached names it."""
    definitions, reached, reached_names = closure()
    named = reached_names | referenced([ACCEPTANCE])
    return {
        f"{key}.{node.name}": node.name in named
        for key, cls in definitions.items()
        if isinstance(cls, ast.ClassDef) and key in reached
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    }


def test_every_definition_is_reachable_or_listed():
    dead, _ = unreachable()
    assert sorted(dead - set(UNREACHABLE)) == []


def test_unreachable_list_only_shrinks():
    dead, defined = unreachable()
    assert sorted(set(UNREACHABLE) - defined) == [], "listed but no longer defined"
    assert sorted(set(UNREACHABLE) - dead) == [], "listed but now reachable"


def test_every_public_member_of_a_reached_class_is_used_or_listed():
    unused = {member for member, used in unused_members().items() if not used}
    assert sorted(unused - set(UNUSED_MEMBERS)) == []


def test_unused_member_list_only_shrinks():
    members = unused_members()
    assert sorted(set(UNUSED_MEMBERS) - set(members)) == [], "listed but no longer defined"
    assert sorted(m for m in UNUSED_MEMBERS if members[m]) == [], "listed but now used"
