"""Every name a module of the package imports is used in that module, so a
refactor that deletes the last use of a name cannot leave its import behind;
every public definition of the package is used by the program, by the
benchmark or by the README, so no function lives on for the tests alone;
and every optional parameter of a public function is set by a call in the
program, the benchmark or the README, so no option lives on that nothing
sets."""

import ast
import math
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "langdei"
SOURCES = sorted(PACKAGE.rglob("*.py"))  # the subpackages' modules included
# The package's __init__ only re-exports names.
MODULES = [p.relative_to(PACKAGE).as_posix() for p in SOURCES if p != PACKAGE / "__init__.py"]


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
    assert {"allocator.py", "cli.py", "curves.py", "io.py", "metrics.py", "commands/report.py"} <= set(MODULES)


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
# Public names, and optional parameters, kept although nothing in the
# program, bench/ or README.md names or sets them: reference oracles that
# tests compare the program against.
ORACLES = {
    "curves.fit_power_law.c_range",  # the one-pair oracle of the batch fit in tests/test_curves.py
}


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
    used = set().union(*(code_references(p.read_text(encoding="utf-8")) for p in SOURCES))
    files = [p for p in (ROOT / "bench").rglob("*") if p.is_file()] + [ROOT / "README.md"]
    text = "\n".join(p.read_text(encoding="utf-8", errors="replace") for p in files)
    stem = module.removesuffix(".py").replace("/", ".")
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


def optional_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position) for each parameter with a default of
    the top-level public functions of ``source``; a keyword-only parameter
    has no position."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            found += [(node.name, arg.arg, i) for i, arg in enumerate(positional) if i >= first]
            found += [(node.name, arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
    return found


def unset_parameters(source: str, callers: list[str]) -> list[str]:
    """``function.parameter`` for each optional parameter of the public
    functions of ``source`` that no call in ``callers`` sets, by keyword or
    by position. Calls match by name, so ``x.f(...)`` counts as a call of
    ``f``; ``*args`` sets every position and ``**kwargs`` every keyword."""
    keywords, positions = set(), {}
    for node in (node for caller in callers for node in ast.walk(ast.parse(caller))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords.update((name, k.arg) for k in node.keywords)  # arg is None for **kwargs
            given = math.inf if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            positions[name] = max(positions.get(name, 0), given)
    return [f"{name}.{param}" for name, param, position in optional_parameters(source)
            if not {(name, param), (name, None)} & keywords
            and not (position is not None and positions.get(name, 0) > position)]


def readme_code() -> list[str]:
    """The python blocks and the inline code spans of README.md that parse."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = []
    for block, span in re.findall(r"```python\n(.*?)```|`([^`\n]+)`", text, re.S):
        try:
            ast.parse(block or span)
        except SyntaxError:
            continue
        code.append(block or span)
    return code


@pytest.mark.parametrize("module", MODULES)
def test_every_optional_parameter_is_set(module):
    files = [*SOURCES, *(ROOT / "bench").rglob("*.py")]
    callers = [p.read_text(encoding="utf-8") for p in files] + readme_code()
    stem = module.removesuffix(".py").replace("/", ".")
    unset = unset_parameters((PACKAGE / module).read_text(encoding="utf-8"), callers)
    assert [name for name in unset if f"{stem}.{name}" not in ORACLES] == []


def test_checker_flags_an_unset_parameter():
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    pass\n"
        "def g(x=1):\n"
        "    pass\n"
        "def _h(y=1):\n"
        "    pass\n"
    )
    callers = ["f(0, 1)\nobj.f(0, e=5)\n", "g(*args)\n"]
    assert unset_parameters(source, callers) == ["f.c", "f.d"]
