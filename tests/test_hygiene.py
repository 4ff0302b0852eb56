"""Every name a module of the package imports is used in that module, so a
refactor that deletes the last use of a name cannot leave its import behind;
every public definition of the package is used by the program, by the
benchmark or by the README, so no function lives on for the tests alone;
and every optional parameter of a public function is set by a call in the
program, the benchmark or the README, so no option lives on that nothing
sets; and only ``io`` imports the csv module or splits text at commas, and
only ``io`` spells a CSV header, so one function owns the reading of a
table and the finding of its first fault; and every private top-level
definition of the package is read by its code, so a refactor cannot leave
a helper behind; and no two modules of the package import each other, lazily
or not, but ``io`` and ``metrics``; and no code of the package compares the
text of an error it caught, so a fault is told apart by what it carries
(such as its ``row``), not by its message; and ``cli`` spells no flag or
dest of a subcommand, so each file flag's role is declared once, in its
subcommand's ``OPTIONS``."""

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


def imports_module(source: str, name: str) -> bool:
    """Whether ``source`` imports the top-level module ``name`` anywhere,
    inside a function included."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == name for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == name:
            return True
    return False


def test_only_io_imports_csv():
    importers = [p.relative_to(PACKAGE).as_posix() for p in SOURCES
                 if imports_module(p.read_text(encoding="utf-8"), "csv")]
    assert importers == ["io.py"]


def test_checker_finds_a_lazy_import():
    assert imports_module("def f():\n    from csv import reader\n", "csv")
    assert not imports_module("import csvkit\nfrom . import csv\n", "csv")


def runtime_nodes(node: ast.AST):
    """``node`` and the nodes under it, but not the body of an ``if
    TYPE_CHECKING:`` block, which never runs."""
    yield node
    checking = isinstance(node, ast.If) and getattr(node.test, "id", getattr(node.test, "attr", None)) == "TYPE_CHECKING"
    for child in node.orelse if checking else ast.iter_child_nodes(node):
        yield from runtime_nodes(child)


def package_imports(source: str) -> set[str]:
    """The dotted names, below ``langdei``, that ``source`` imports when it
    runs, inside a function included: ``from langdei import io`` gives
    ``io``, and ``from langdei.commands import x`` gives ``commands`` and
    ``commands.x``. The package uses no relative imports."""
    names = set()
    for node in runtime_nodes(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.removeprefix("langdei.") for alias in node.names
                         if alias.name.startswith("langdei."))
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "langdei":
            stem = node.module.partition(".")[2]  # "" for the package itself, which names no module
            names.add(stem)
            names.update(f"{stem}.{alias.name}".lstrip(".") for alias in node.names)
    return names


def import_cycles(sources: dict[str, str]) -> list[tuple[str, ...]]:
    """The sets of modules, each sorted, that import one another in a cycle,
    from each module's dotted name and source."""
    graph = {module: package_imports(source) & sources.keys() for module, source in sources.items()}
    reach = {}
    for module in graph:
        seen, stack = set(), [module]
        while stack:
            for imported in graph[stack.pop()] - seen:
                seen.add(imported)
                stack.append(imported)
        reach[module] = seen
    return sorted({tuple(sorted(other for other in reach[module] if module in reach[other]))
                   for module in graph if module in reach[module]})


def test_no_import_cycle_but_io_and_metrics():
    # io and metrics import each other lazily: bench/run.py times
    # io.load_performance and io.render_lorenz, which build metrics'
    # PerformanceTable and Lorenz sums, so both loaders stay in io.
    sources = {p.relative_to(PACKAGE).with_suffix("").as_posix().removesuffix("/__init__").replace("/", "."):
               p.read_text(encoding="utf-8") for p in SOURCES}
    assert import_cycles(sources) == [("io", "metrics")]


def test_checker_finds_a_lazy_cycle():
    sources = {
        "a": "from langdei import b, c\n",
        "b": "def f():\n    from langdei.a import x\n",
        "c": "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from langdei import a\n",
        "d": "import langdei.e\n",
        "e": "from langdei.f import y\n",
        "f": "from langdei import d\n",
    }
    assert import_cycles(sources) == [("a", "b"), ("d", "e", "f")]


def comma_splits(source: str) -> list[str]:
    """The top-level functions of ``source`` that call ``.split(",")``
    (with or without a limit), once each; a split outside a function is
    listed as ``<module>``."""
    found = []
    for node in ast.parse(source).body:
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "split"
                    and call.args and isinstance(call.args[0], ast.Constant) and call.args[0].value == ","):
                found.append(node.name if isinstance(node, ast.FunctionDef) else "<module>")
                break
    return found


def test_only_io_splits_at_commas():
    # The two exceptions parse an argparse value, not a file.
    splits = {(module, name) for module in MODULES if module != "io.py"
              for name in comma_splits((PACKAGE / module).read_text(encoding="utf-8"))}
    assert splits == {("commands/efficiency.py", "_weights"), ("commands/allocate.py", "_comma_list")}


def test_checker_finds_a_comma_split():
    source = 'ROW = "a,b".split(",")\ndef f(t):\n    return t.split(",", 1)\ndef g(t):\n    return t.split(";")\n'
    assert comma_splits(source) == ["<module>", "f"]


def test_only_io_spells_a_csv_header():
    from langdei import io

    headers = {",".join(value) for name, value in vars(io).items() if name.endswith("_HEADER")}
    assert len(headers) >= 5  # scorecard, Lorenz, AMRS, efficiency and trace
    constants = {node.value for p in SOURCES for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert constants & headers == set()


def message_matches(source: str) -> list[int]:
    """The lines of ``source`` that compare the text of a caught error, or
    return it to a caller that may: a comparison with an operand
    ``str(name)``, or a ``return str(name)``, where ``name`` is bound by an
    ``except ... as name`` clause of ``source``."""
    tree = ast.parse(source)
    caught = {node.name for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.name}

    def text_of_caught(node) -> bool:
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "str" and len(node.args) == 1
                and getattr(node.args[0], "id", None) in caught)

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and any(map(text_of_caught, [node.left, *node.comparators]))
                  or isinstance(node, ast.Return) and text_of_caught(node.value))


@pytest.mark.parametrize("module", MODULES)
def test_no_error_is_told_apart_by_its_message(module):
    assert message_matches((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_checker_flags_a_message_match():
    source = (
        "def f(message):\n"
        "    try:\n"
        "        g()\n"
        "    except InputError as exc:\n"
        "        if str(exc) == message:\n"
        "            raise\n"
        "        if message in str(exc) or str(other) == message:\n"
        "            raise usage_error(str(exc)) from None\n"
        "def fault():\n"
        "    try:\n"
        "        g()\n"
        "    except ValueError as error:\n"
        "        return str(error)\n"
        "    return str(3)\n"
    )
    assert message_matches(source) == [5, 7, 13]


ROOT = PACKAGE.parents[1]
# Public names, and optional parameters, kept although nothing in the
# program, bench/ or README.md names or sets them: reference oracles that
# tests compare the program against.
ORACLES: set[str] = set()


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


def unread_private_definitions(sources: list[str]) -> list[str]:
    """The top-level functions and classes of ``sources`` whose name starts
    with one underscore that no code of ``sources`` reads."""
    used = set().union(*map(code_references, sources))
    return [node.name for source in sources for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and re.match(r"_[^_]", node.name)
            and node.name not in used]


def test_every_private_definition_is_read():
    assert unread_private_definitions([p.read_text(encoding="utf-8") for p in SOURCES]) == []


def test_checker_flags_an_unread_private_definition():
    sources = [
        "def _kept():\n"
        "    pass\n"
        "class _Spare:\n"
        '    """Unlike _kept, nothing reads this one."""\n'
        "def __getattr__(name):\n"
        "    pass\n",
        "from m import _kept\n",
    ]
    assert unread_private_definitions(sources) == ["_Spare"]


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


def string_constants(source: str, exempt: str) -> set[str]:
    """The string constants of ``source``, but those of the value that a
    top-level assignment binds to the name ``exempt``."""
    tree = ast.parse(source)
    skipped = {id(node) for statement in tree.body if isinstance(statement, ast.Assign)
               and any(getattr(target, "id", None) == exempt for target in statement.targets)
               for node in ast.walk(statement.value)}
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skipped}


def test_cli_names_no_flag_of_a_subcommand():
    # A subcommand's OPTIONS declare its flags and each file flag's role; the
    # cli reads them there, so a new file flag cannot escape its checks. The
    # subcommands' names are exempt: ``efficiency`` is a dest of report too.
    from langdei import cli

    flags = {flag for name in cli.SUBCOMMANDS for flag in cli._command(name).OPTIONS}
    names = flags | {flag[2:].replace("-", "_") for flag in flags}
    assert string_constants((PACKAGE / "cli.py").read_text(encoding="utf-8"), "SUBCOMMANDS") & names == set()


def test_checker_finds_a_flag_constant():
    source = 'SUBCOMMANDS = ("fit", "report")\nfor dest in ("out", "fit"):\n    getattr(args, dest)\n'
    assert string_constants(source, "SUBCOMMANDS") == {"out", "fit"}
