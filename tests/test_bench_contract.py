"""The benchmark finds program functions by name: bench/trace_cli.py wraps
them with setattr, and bench/run.py sums the spans it names. A renamed or
deleted function would make a traced run fail or silently read 0, so every
such name must still be a callable attribute of its module, and every span
name a function that its module defines."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

from langdei import allocator, cli, curves, efficiency, io, metrics

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = {"cli": cli, "io": io, "metrics": metrics, "efficiency": efficiency,
           "curves": curves, "allocator": allocator}


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def _counted() -> set[str]:
    """Every (module, "name") pair in install_counts: tuples and call arguments."""
    tree = ast.parse((BENCH / "trace_cli.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(_function(tree, "install_counts")):
        parts = node.elts if isinstance(node, ast.Tuple) else node.args if isinstance(node, ast.Call) else []
        if (len(parts) >= 2 and isinstance(parts[0], ast.Name) and parts[0].id in MODULES
                and isinstance(parts[1], ast.Constant) and isinstance(parts[1].value, str)):
            names.add(f"{parts[0].id}.{parts[1].value}")
    return names


def _spanned() -> set[str]:
    """Every span name in run.py's SPAN_METRICS."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    assign = next(n for n in tree.body if isinstance(n, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "SPAN_METRICS" for t in n.targets))
    return {name for names in ast.literal_eval(assign.value).values() for name in names}


NAMES = sorted(_counted() | _spanned())


def test_names_were_found():
    assert {"metrics.demand", "metrics.gini", "metrics.utility", "curves.predict",
            "allocator.greedy_allocate", "io.render_trace"} <= _counted()
    assert {"io.load_performance", "metrics.dei_scorecard", "metrics.lorenz_points"} <= _spanned()


@pytest.mark.parametrize("name", NAMES)
def test_benchmark_name_is_callable(name):
    layer, attribute = name.split(".")
    assert callable(getattr(MODULES[layer], attribute, None)), f"bench/ looks up {name}"


@pytest.mark.parametrize("name", sorted(_spanned()))
def test_spanned_name_is_defined_in_its_module(name):
    """trace_cli._public_functions wraps only the functions a module defines
    itself, so a span name that a module imported from another one would
    read 0. install_spans wraps the AllocationRequest class by name."""
    layer, attribute = name.split(".")
    obj = getattr(MODULES[layer], attribute)
    assert inspect.isfunction(obj) or name == "allocator.AllocationRequest", f"{name} is not a function"
    assert obj.__module__ == MODULES[layer].__name__, f"{name} is defined in {obj.__module__}"


@pytest.fixture()
def workloads(monkeypatch):
    """bench/workloads.py, imported without writing bytecode under bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leaves bench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads


def test_scale_tables_outputs_match_recorded_digests(workloads, tmp_path, monkeypatch):
    """The scale-tables workload's invocations, run in-process through
    cli.main on the seed-0 inputs that bench/gen.py writes, write the bytes
    whose sha256 bench/digests.json records."""
    import hashlib
    import json

    (tmp_path / "in").mkdir()
    (tmp_path / "out").mkdir()
    invocations, _ = workloads.WORKLOADS["scale-tables"](0, io.DATA_ROOT, tmp_path)
    monkeypatch.chdir(tmp_path)
    digests = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))["scale-tables"]
    assert [inv.subcommand for inv in invocations] == ["metrics", "metrics", "efficiency"]
    for inv in invocations:
        assert cli.main(inv.argv) == 0
        assert inv.check(tmp_path) is None
    written = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for inv in invocations for name in inv.outputs}
    assert written == digests


def test_no_workload_argv_reaches_argparse(workloads, tmp_path):
    """cli.main parses every invocation of every workload with cli._fast_args,
    as argparse would, so the argparse path, which only help and usage errors
    take, moves no benchmark figure."""
    argvs = []
    for name, workload in workloads.WORKLOADS.items():
        (tmp_path / name / "in").mkdir(parents=True)
        invocations, _ = workload(0, io.DATA_ROOT, tmp_path / name)
        argvs += [inv.argv for inv in invocations]
    assert len(argvs) == 49
    assert [argv for argv in argvs if cli._fast_args(argv) is None] == []
    parser = cli.build_parser()
    for argv in argvs:
        assert vars(cli._fast_args(argv)) == vars(parser.parse_args(argv)), argv
