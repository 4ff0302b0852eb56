"""Every name a module of the package imports is used in that module, so a
refactor that deletes the last use of a name cannot leave its import behind;
and every public definition of the package is used by the program, by the
benchmark or by the README, so no function lives on for the tests alone."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "langdei"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in ``source`` that no
    expression reads. ``__future__`` imports bind nothing and are skipped."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_found():
    assert {"allocator.py", "cli.py", "curves.py", "io.py", "metrics.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_checker_flags_a_leftover_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from langdei.errors import ComputationError, InputError\n"
        "def f(x) -> np.ndarray:\n"
        "    if os.path.exists(x):\n"
        "        raise InputError(x)\n"
    )
    assert unused_imports(source) == ["ComputationError"]



ROOT = PACKAGE.parents[1]
# Public names kept although nothing in the program, bench/ or README.md
# names them: reference oracles that tests compare the program against.
ORACLES = {"metrics.gini_from_lorenz"}  # the Lorenz oracle of tests/_props.py


def public_definitions(source: str) -> list[str]:
    """Names of the top-level functions and classes of ``source`` that do
    not start with an underscore."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def code_references(source: str) -> set[str]:
    """Every name the code of ``source`` reads, as a bare name, an attribute
    or an import; a ``def`` or ``class`` statement and docstrings name nothing."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced(module: str) -> list[str]:
    """Public definitions of ``module`` that no code of the package reads
    and that no file under bench/ (which looks names up as strings) and
    not README.md names as a whole word."""
    used = set().union(*(code_references(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")))
    files = [p for p in (ROOT / "bench").rglob("*") if p.is_file()] + [ROOT / "README.md"]
    text = "\n".join(p.read_text(encoding="utf-8", errors="replace") for p in files)
    stem = module.removesuffix(".py")
    return [name for name in public_definitions((PACKAGE / module).read_text(encoding="utf-8"))
            if name not in used and f"{stem}.{name}" not in ORACLES and not re.search(rf"\b{name}\b", text)]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_definition_is_used(module):
    assert unreferenced(module) == []


def test_docstring_mention_is_not_a_use():
    source = (
        "def kept():\n"
        "    return used()\n"
        "def used():\n"
        '    """Unlike spare, this one is called."""\n'
        "def spare():\n"
        "    pass\n"
    )
    references = code_references(source)
    assert [name for name in public_definitions(source) if name not in references] == ["kept", "spare"]
