"""No library module imports a name it never uses, the module lists name every module, and
start-up loads no module only code generation needs."""

import ast
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "satkit"

# Imported on purpose and never used: perfbench's span test reads satake.substitute
# to check that a traced run wraps a function in every module that binds it.
UNUSED_ON_PURPOSE = {("satake", "substitute")}


def imported(tree):
    """The names a module's import statements bind, __future__ features left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def used(tree):
    """The names a module reads: in code, in quoted annotations and in __all__."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    quoted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            quoted.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            quoted.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names |= {entry.value for entry in node.value.elts}
    for note in quoted:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            names |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text())
    unused = sorted(set(imported(tree)) - used(tree) - {n for m, n in UNUSED_ON_PURPOSE if m == path.stem})
    assert unused == []


def test_the_names_kept_on_purpose_are_imported_and_unused():
    for module, name in UNUSED_ON_PURPOSE:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert name in set(imported(tree)) and name not in used(tree)


def test_module_lists_name_exactly_the_modules():
    stems = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    doc = ast.get_docstring(ast.parse((SRC / "__init__.py").read_text()))
    submodules = set(re.findall(r"^    (\w+) ", doc.split("Submodules:")[1], re.M))
    layout = (ROOT / "README.md").read_text().split("## Layout")[1].split("\n## ")[0]
    rows = set(re.findall(r"^\| `satkit\.(\w+)`", layout, re.M))
    assert submodules == stems
    assert rows == stems


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every command is a new process, so satkit's imports are start-up time.  -S keeps the
    modules that site loads out of the check, and -B writes no bytecode into the checkout."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import satkit.cli; print(*sorted(sys.modules))"
    argv = [sys.executable, "-I", "-S", "-B", "-c", code, str(ROOT / "src")]
    run = subprocess.run(argv, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert "satkit.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect"})
