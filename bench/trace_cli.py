"""Run one langdei CLI invocation with its module attributes wrapped.

    python3 bench/trace_cli.py spans|counts OUT.json INVOCATION_ID -- <cli args>

The wrappers are installed from outside the package by replacing attributes
of ``langdei.cli``, ``io``, ``metrics``, ``efficiency``, ``curves`` and
``allocator`` before ``cli.main`` runs, so the program's own code is unchanged.

``spans`` records one span (name, start, end, parent) per call of every
public function of those modules, plus the construction of
``allocator.AllocationRequest``, except for the hot inner functions in HOT.
``counts`` records nothing but call counts of those hot functions and a few
work counters; it runs as a pass of its own so that counting does not inflate
span times. Everything is kept in memory and written to OUT.json once, when
the invocation ends.

Blind spot: a call through a name a module imported directly is not seen.
``io`` imports ``memory_saved`` from ``efficiency`` and the dataclasses from
the other modules, so ``io.render_efficiency`` calls ``memory_saved``
unwrapped, and no dataclass construction other than AllocationRequest's is
timed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

from langdei import allocator, cli, curves, efficiency, io, metrics

MODULES = {"cli": cli, "io": io, "metrics": metrics, "efficiency": efficiency,
           "curves": curves, "allocator": allocator}
# Called per cell, per row or per greedy candidate: timing them would cost
# more than the work they do, so they are only counted.
HOT = {"io.fmt_num", "curves.predict", "metrics.gini", "metrics.utility", "metrics.demand"}


def _public_functions(layer: str, module):
    for name, obj in sorted(vars(module).items()):
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield f"{layer}.{name}", name, obj


def install_spans(spans: list) -> None:
    stack: list[int] = []
    clock = time.perf_counter

    def wrap(label, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
        return wrapper

    for layer, module in MODULES.items():
        for label, name, fn in _public_functions(layer, module):
            if label not in HOT:
                setattr(module, name, wrap(label, fn))
    allocator.AllocationRequest = wrap("allocator.AllocationRequest", allocator.AllocationRequest)


def install_counts(counts: dict) -> None:
    def count_calls(module, name):
        fn = getattr(module, name)
        key = f"{module.__name__.split('.')[-1]}.{name}.calls"
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        setattr(module, name, wrapper)

    for module, name in ((curves, "predict"), (metrics, "gini"), (metrics, "utility"),
                         (metrics, "demand"), (curves, "fit_power_law")):
        count_calls(module, name)

    def add(key: str, value: int) -> None:
        counts[key] = counts.get(key, 0) + value

    def after(module, name, on_call):
        fn = getattr(module, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(args, result)
            return result
        setattr(module, name, wrapper)

    for _, name, _fn in _public_functions("io", io):
        if name.startswith("load_"):
            after(io, name, lambda args, _r: add("io.parse_lines", Path(args[0]).read_bytes().count(b"\n")))
        elif name.startswith("render_"):
            after(io, name, lambda _a, result: add("io.render_bytes", len(result.encode("utf-8"))))
    after(allocator, "greedy_allocate", lambda _a, plan: add("allocator.trace_steps_built", len(plan.trace)))
    after(io, "render_trace", lambda args, _r: add("allocator.trace_rows_written", len(args[0])))


def main(argv: list[str]) -> int:
    mode, out, invocation = argv[0], argv[1], argv[2]
    if argv[3] != "--" or mode not in ("spans", "counts"):
        raise SystemExit(f"usage: {__doc__.splitlines()[2].strip()}")
    spans: list = []
    counts: dict = {}
    if mode == "spans":
        install_spans(spans)
    else:
        install_counts(counts)
    status = 1
    try:
        status = cli.main(argv[4:])
    finally:
        record = {"invocation": invocation, "exit": status, "spans": spans, "counts": counts}
        Path(out).write_text(json.dumps(record), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
