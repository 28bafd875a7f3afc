"""Every file ``src/jafs`` writes is created by one helper,
``simulate.create_output``, which unlinks any file at the path and then
creates the file in exclusive mode ("x" or "xb").  An output is thus
replaced, never truncated, appended to or renamed over: on an ext4
volume, truncating a file written a moment before, or renaming a new one
over it, blocked 40-100 ms per file, where unlink and create took under
1 ms.  The sources are read with ``ast``, never imported.

Outside the helper the test fails on an ``open`` call (bare or a method)
whose mode writes ("w", "a", "x" or "+") or is not a literal, on
``os.replace`` and ``os.rename``, and on the writing methods
``rename``, ``write_text``, ``write_bytes`` and ``tofile``.  A literal
mode passed to the helper, or to the output frame's ``create`` that
calls it, must be "x" or "xb"."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jafs"
HELPER = "simulate.create_output"
CREATORS = {"create_output", "create"}
WRITING_METHODS = {"rename", "write_text", "write_bytes", "tofile"}


def called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def open_mode(call):
    """The mode node of an open call, or None for the default "r"."""
    if len(call.args) > 1:
        return call.args[1]
    return next((k.value for k in call.keywords if k.arg == "mode"), None)


def writes(call):
    """Whether the call can write a file other than through the helper."""
    name, func = called_name(call), call.func
    if name == "open":
        mode = open_mode(call)
        if mode is None:
            return False
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return True
        return any(c in mode.value for c in "wax+")
    if isinstance(func, ast.Attribute):
        owner = func.value
        if isinstance(owner, ast.Name) and owner.id == "os":
            return name in ("replace", "rename")
        return name in WRITING_METHODS
    return False


def calls_by_definition():
    """(module.definition, call) for every call in the package, keyed by
    the top-level definition holding it ("module" for module-level)."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", None)
            owner = f"{path.stem}.{name}" if name else path.stem
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    yield owner, sub


def test_only_the_creation_helper_opens_a_file_for_writing():
    offenders = [
        f"{owner} line {call.lineno}: {ast.unparse(call)}"
        for owner, call in calls_by_definition()
        if owner != HELPER and writes(call)
    ]
    assert not offenders, offenders


def test_the_creation_helper_exists_and_opens_files():
    helper = [call for owner, call in calls_by_definition() if owner == HELPER]
    assert any(called_name(call) == "unlink" for call in helper)
    assert any(called_name(call) == "open" for call in helper)


def test_files_are_created_in_exclusive_mode():
    modes = [
        (owner, call.lineno, call.args[1].value)
        for owner, call in calls_by_definition()
        if called_name(call) in CREATORS
        and len(call.args) > 1
        and isinstance(call.args[1], ast.Constant)
    ]
    assert modes, "no literal mode passed to the creation helper"
    assert all(mode in ("x", "xb") for _, _, mode in modes), modes
