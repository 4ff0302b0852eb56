"""The three benchmark workloads: their inputs, CLI invocations and output checks.

A workload prepares its inputs once per run under ``<run>/in`` and lists the
invocations of one pass. Every pass writes under ``<run>/out`` and runs with
``<run>`` as working directory, so every path the program sees (and the
report prints) is relative and the same on every run.
"""

from __future__ import annotations

import csv
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen

BUNDLED = ("fixtures_ner_equal.csv", "tasks.csv", "speakers.csv", "goods.csv",
           "amrs_printed.csv", "curves_muril.txt", "curves_xlmr.txt")
REGISTRY_OF_MODEL = {"xlmr_large": "curves_xlmr.txt", "muril_large": "curves_muril.txt"}


@dataclass
class Invocation:
    """One CLI run: its arguments, the outputs it writes and the work it does."""

    name: str
    argv: list[str]
    outputs: list[str]
    # Work units for the subcommand throughput: score cells, goods rows, fit
    # pairs or greedy steps (0 for the allocation baselines, which take no
    # greedy step). Report invocations count the lines they read instead.
    units: int = 0
    reads: list[str] = field(default_factory=list)
    check: Callable[[Path], str | None] = lambda run_dir: None

    @property
    def subcommand(self) -> str:
        return self.argv[0]


class CheckFailed(Exception):
    pass


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row]


def _number(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{where}: not a number: {text!r}") from None
    if math.isnan(value):
        raise CheckFailed(f"{where}: NaN")
    return value


def _kv_records(path: Path) -> list[tuple[str, dict[str, str]]]:
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            kind, *tokens = line.split()
            records.append((kind, dict(t.split("=", 1) for t in tokens)))
    return records


def _expect(actual, expected, what: str) -> None:
    if actual != expected:
        raise CheckFailed(f"{what}: expected {expected}, got {actual}")


def _guarded(check: Callable[[Path], None]) -> Callable[[Path], str | None]:
    def run(run_dir: Path) -> str | None:
        try:
            check(run_dir)
        except CheckFailed as exc:
            return str(exc)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None
    return run


# ---------------------------------------------------------------------------
# Structural checks, valid on every seed
# ---------------------------------------------------------------------------

def check_scorecard(out: str, groups: int, universe: int | None, lorenz: str | None = None):
    """Row count matches the input groups, every number parses and lies in
    range; with Lorenz output, each row has universe + 1 points."""
    def check(run_dir: Path) -> None:
        rows = _rows(run_dir / out)
        _expect(rows[0], ["task", "model", "train_lang", "m_tau", "gini", "tested", "universe"], out)
        _expect(len(rows) - 1, groups, f"{out} rows")
        points = 0
        for row in rows[1:]:
            m, g = _number(row[3], out), _number(row[4], out)
            tested, size = int(row[5]), int(row[6])
            if not (0 <= m <= 100 and 0 <= g < 1 and 1 <= tested <= 23):
                raise CheckFailed(f"{out}: value out of range in {row}")
            _expect(size, universe if universe is not None else tested, f"{out} universe column")
            points += size + 1
        if lorenz:
            lrows = _rows(run_dir / lorenz)
            _expect(len(lrows) - 1, points, f"{lorenz} rows")
            for row in lrows[1:]:
                _number(row[3], lorenz), _number(row[4], lorenz)
    return _guarded(check)


def check_efficiency(out: str, goods_rows: int, amrs_out: str | None, groups: int):
    def check(run_dir: Path) -> None:
        rows = _rows(run_dir / out)
        _expect(len(rows) - 1, goods_rows, f"{out} rows")
        for row in rows[1:]:
            for cell in row[3:]:
                _number(cell, out)
        if amrs_out:
            arows = _rows(run_dir / amrs_out)
            _expect(len(arows) - 1, 2 * groups, f"{amrs_out} rows")
            for row in arows[1:]:
                if _number(row[3], amrs_out) <= 0:
                    raise CheckFailed(f"{amrs_out}: non-positive rate in {row}")
    return _guarded(check)


def check_curves(out: str, fitted: int, rejected: int):
    def check(run_dir: Path) -> None:
        records = _kv_records(run_dir / out)
        _expect(len(records), fitted, f"{out} curves")
        for _, fields in records:
            for key in ("a", "b", "c", "r2"):
                _number(fields[key], out)
        text = (run_dir / out).read_text(encoding="utf-8")
        _expect(text.count("# reject "), rejected, f"{out} rejects")
    return _guarded(check)


def check_plan(out: str, budget: int, trace: str | None = None):
    """Plan counts sum to the budget; the trace has one row per step."""
    def check(run_dir: Path) -> None:
        records = _kv_records(run_dir / out)
        _expect(records[0][1]["budget"], str(budget), f"{out} budget")
        counts = [int(f["samples"]) for kind, f in records if kind == "alloc"]
        _expect(sum(counts), budget, f"{out} allocated samples")
        for kind, fields in records:
            for key in ("gm", "gini", "m", "utility"):
                if key in fields:
                    _number(fields[key], out)
        if trace:
            rows = _rows(run_dir / trace)
            _expect(len(rows) - 1, budget, f"{trace} steps")
    return _guarded(check)


def check_report(out: str, plans: int, traces: int):
    def check(run_dir: Path) -> None:
        text = (run_dir / out).read_text(encoding="utf-8")
        _expect(text.count("\n## Plan: "), plans, f"{out} plan sections")
        _expect(text.count("\n## Trace: "), traces, f"{out} trace sections")
    return _guarded(check)


# ---------------------------------------------------------------------------
# Input shapes the checks compare against
# ---------------------------------------------------------------------------

def perf_shape(path: Path) -> tuple[int, int]:
    """(groups, cells) of a performance CSV."""
    rows = _rows(path)[1:]
    return len({tuple(r[:3]) for r in rows}), len(rows)


def goods_shape(path: Path) -> tuple[int, int]:
    """(rows, (group, task) groups) of a goods CSV."""
    rows = _rows(path)[1:]
    return len(rows), len({(r[1], r[2]) for r in rows})


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _copy_bundled(data_dir: Path, inputs: Path, names) -> None:
    for name in names:
        shutil.copyfile(data_dir / name, inputs / name)


def _metrics(perf: str, groups: int, cells: int, tau: str, tested_only: bool, lorenz: bool) -> Invocation:
    tag = f"tau{tau}" + ("_tested" if tested_only else "")
    out = f"out/scorecard_{tag}.csv"
    argv = ["metrics", "--perf", perf, "--tasks", "in/tasks.csv", "--tau", tau, "--out", out]
    if tau != "0":
        argv += ["--speakers", "in/speakers.csv"]
    if tested_only:
        argv.append("--tested-only")
    outputs = [out]
    if lorenz:
        outputs.append(f"out/lorenz_{tag}.csv")
        argv += ["--lorenz-out", outputs[-1]]
    universe = None if tested_only else len(gen.UNIVERSE)
    return Invocation(f"metrics-{tag}", argv, outputs, cells,
                      check=check_scorecard(out, groups, universe, outputs[1] if lorenz else None))


def _efficiency_computed(goods: str, rows: int, groups: int) -> Invocation:
    return Invocation("efficiency-computed",
                      ["efficiency", "--goods", goods, "--out", "out/efficiency.csv", "--amrs-out", "out/amrs.csv"],
                      ["out/efficiency.csv", "out/amrs.csv"], rows,
                      check=check_efficiency("out/efficiency.csv", rows, "out/amrs.csv", groups))


def paper_tables(seed: int, data_dir: Path, run_dir: Path) -> tuple[list[Invocation], dict]:
    """The paper's own traffic over the bundled data; the seed is unused."""
    inputs = run_dir / "in"
    _copy_bundled(data_dir, inputs, BUNDLED)
    groups, cells = perf_shape(inputs / "fixtures_ner_equal.csv")
    goods_rows, goods_groups = goods_shape(inputs / "goods.csv")
    perf = "in/fixtures_ner_equal.csv"
    invs = [
        _metrics(perf, groups, cells, "1", tested_only=False, lorenz=True),
        _metrics(perf, groups, cells, "0", tested_only=False, lorenz=False),
        _metrics(perf, groups, cells, "1", tested_only=True, lorenz=False),
    ]
    invs.append(_efficiency_computed("in/goods.csv", goods_rows, goods_groups))
    invs.append(Invocation(
        "efficiency-printed",
        ["efficiency", "--goods", "in/goods.csv", "--amrs-override", "in/amrs_printed.csv",
         "--out", "out/efficiency_printed.csv"],
        ["out/efficiency_printed.csv"], goods_rows,
        check=check_efficiency("out/efficiency_printed.csv", goods_rows, None, goods_groups)))

    plans: dict[str, list[str]] = {m: [] for m in REGISTRY_OF_MODEL}
    traces: dict[str, list[str]] = {m: [] for m in REGISTRY_OF_MODEL}
    steps = 0
    for row in _rows(data_dir / "allocations_reference.csv")[1:]:
        metric, budget, model = row[0], int(row[1]), row[2]
        tau = "0" if metric == "gm_tau0" else "1"
        tag = f"{model}_{metric}_{budget}"
        plan, trace = f"out/greedy_{tag}.txt", f"out/trace_{tag}.csv"
        argv = ["allocate", "--curves", f"in/{REGISTRY_OF_MODEL[model]}", "--budget", str(budget),
                "--strategy", "greedy", "--beta", "0", "--missing", "permissive", "--tau", tau]
        if tau == "1":
            argv += ["--speakers", "in/speakers.csv"]
        invs.append(Invocation(f"greedy-{tag}", argv + ["--out", plan, "--trace-out", trace],
                               [plan, trace], budget, check=check_plan(plan, budget, trace)))
        plans[model].append(plan)
        traces[model].append(trace)
        steps += budget

    model_budgets = sorted({(r[2], int(r[1])) for r in _rows(data_dir / "budgets_reference.csv")[1:]})
    for model, budget in model_budgets:
        for strategy in ("egalitarian", "single:en", "single:hi"):
            plan = f"out/{strategy.replace(':', '-')}_{model}_{budget}.txt"
            invs.append(Invocation(
                f"{strategy.replace(':', '-')}-{model}-{budget}",
                ["allocate", "--curves", f"in/{REGISTRY_OF_MODEL[model]}", "--budget", str(budget),
                 "--strategy", strategy, "--tau", "1", "--speakers", "in/speakers.csv",
                 "--missing", "permissive", "--out", plan],
                [plan], 0, check=check_plan(plan, budget)))
            plans[model].append(plan)

    for model, registry in REGISTRY_OF_MODEL.items():
        out = f"out/report_{model}.md"
        reads = [f"in/{registry}", *plans[model], *traces[model]]
        argv = ["report", "--curves", f"in/{registry}"]
        argv += [a for p in plans[model] for a in ("--plan", p)]
        argv += [a for t in traces[model] for a in ("--trace", t)]
        invs.append(Invocation(f"report-{model}", argv + ["--out", out], [out], reads=reads,
                               check=check_report(out, len(plans[model]), len(traces[model]))))

    props = {"invocations": len(invs), "perf_cells": cells, "goods_rows": goods_rows,
             "greedy_steps": steps, "greedy_runs": sum(len(t) for t in traces.values()),
             "baseline_runs": 3 * len(model_budgets)}
    return invs, props


def scale_tables(seed: int, data_dir: Path, run_dir: Path) -> tuple[list[Invocation], dict]:
    """Seeded 4.4k-row scorecard input and 10k-row goods at ROADMAP size."""
    inputs = run_dir / "in"
    _copy_bundled(data_dir, inputs, ("tasks.csv", "speakers.csv"))
    props = gen.scale_tables(seed, inputs)
    groups, cells = perf_shape(inputs / "perf.csv")
    goods_rows, goods_groups = goods_shape(inputs / "goods.csv")
    invs = [
        _metrics("in/perf.csv", groups, cells, "1", tested_only=False, lorenz=True),
        _metrics("in/perf.csv", groups, cells, "0", tested_only=True, lorenz=False),
        _efficiency_computed("in/goods.csv", goods_rows, goods_groups),
    ]
    return invs, props


def scale_curves(seed: int, data_dir: Path, run_dir: Path) -> tuple[list[Invocation], dict]:
    """Seeded fits and greedy runs on 23 x 23 registries, in parts of about
    one second each, plus one egalitarian baseline."""
    inputs = run_dir / "in"
    _copy_bundled(data_dir, inputs, ("speakers.csv",))
    props = gen.scale_curves(seed, inputs)
    budget = props["greedy_budget"]
    invs = []
    for k in range(props["parts"]):
        out = f"out/curves_{k}.txt"
        invs.append(Invocation(f"fit-{k}", ["fit", "--trajectories", f"in/trajectories_{k}.csv", "--out", out],
                               [out], props["fit_pairs"],
                               check=check_curves(out, props["fit_fitted_pairs"], props["fit_rejected_pairs"])))
    for k in range(props["parts"]):
        out = f"out/greedy_{k}.txt"
        invs.append(Invocation(f"greedy-{k}",
                               ["allocate", "--curves", f"in/registry_{k}.txt", "--budget", str(budget),
                                "--strategy", "greedy", "--tau", "1", "--speakers", "in/speakers.csv", "--out", out],
                               [out], budget, check=check_plan(out, budget)))
    invs.append(Invocation("egalitarian",
                           ["allocate", "--curves", "in/registry_0.txt", "--budget", str(budget),
                            "--strategy", "egalitarian", "--tau", "1", "--speakers", "in/speakers.csv",
                            "--out", "out/egalitarian.txt"],
                           ["out/egalitarian.txt"], 0, check=check_plan("out/egalitarian.txt", budget)))
    return invs, props


WORKLOADS = {"paper-tables": paper_tables, "scale-tables": scale_tables, "scale-curves": scale_curves}
