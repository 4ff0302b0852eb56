"""``langdei report``: prior outputs assembled into one markdown report,
and the plan and trace readers only the report runs."""

import argparse
import collections
import csv
import math
from pathlib import Path
from typing import Sequence

from langdei import io
from langdei.errors import InputError, check_id
from langdei.records import AllocationPlan, PlanEvaluation, check_plan_settings, parse_strategy

HELP = "assemble prior outputs into one markdown report"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scorecard", help="scorecard CSV from `metrics`")
    p.add_argument("--lorenz", help="Lorenz-points CSV from `metrics`")
    p.add_argument("--amrs", help="substitution-rate CSV from `efficiency`")
    p.add_argument("--efficiency", help="efficiency CSV from `efficiency`")
    p.add_argument("--curves", action="append", help="curve registry (repeatable)")
    p.add_argument("--plan", action="append", help="plan file (repeatable)")
    p.add_argument("--trace", action="append", help="trace CSV (repeatable)")
    p.add_argument("--out", required=True, help="markdown report output path")


def load_plan(path: str | Path) -> AllocationPlan:
    """Parse a plan file, which must hold a plan that allocate could write:
    settings that pass the request's rule, a known strategy (a single source
    among the alloc lines), an eval line, sample counts >= 0 that sum to the
    budget, and gm and gini on exactly the funded sources. The step trace
    lives in its own CSV."""
    header: dict[str, str] | None = None
    counts: dict[str, int] = {}
    final_gm: dict[str, float] = {}
    final_gini: dict[str, float] = {}
    eval_fields: dict[str, str] | None = None
    utilities: dict[str, float] = {}
    for where, line in io._records(path):
        kind = line.split(None, 1)[0]
        fields = io._parse_kv_line(line, where)
        if kind == "plan":
            if header is not None:
                raise InputError(f"{where}: duplicate plan header")
            io._require(fields, ("strategy", "budget", "alpha", "beta", "missing"), where)
            header = fields
        elif kind == "alloc":
            io._require(fields, ("source", "samples"), where)
            source = io._located(where, check_id, fields["source"], "source language")
            if source in counts:
                raise InputError(f"{where}: duplicate alloc line for source {source!r}")
            counts[source] = io._parse_int(fields["samples"], where)
            if counts[source] < 0:
                raise InputError(f"{where}: sample count must be >= 0, got {counts[source]}")
            if counts[source] > 0:
                io._require(fields, ("gm", "gini"), where)
                final_gm[source] = io._parse_float(fields["gm"], where)
                final_gini[source] = io._parse_float(fields["gini"], where)
            elif fields.keys() & {"gm", "gini"}:
                raise InputError(f"{where}: source {source!r} has no samples, so no gm or gini")
        elif kind == "eval":
            if eval_fields is not None:
                raise InputError(f"{where}: duplicate eval line")
            io._require(fields, ("mode", "clamp", "m", "gini"), where)
            if fields["clamp"] != "false":
                raise InputError(f"{where}: expected clamp=false, got clamp={fields['clamp']}")
            eval_fields = fields
        elif kind == "pred":
            io._require(fields, ("target", "utility"), where)
            if eval_fields is None:
                raise InputError(f"{where}: pred line before eval line")
            target = io._located(where, check_id, fields["target"], "target language")
            if target in utilities:
                raise InputError(f"{where}: duplicate pred line for target {target!r}")
            utilities[target] = io._parse_float(fields["utility"], where)
        else:
            raise InputError(f"{where}: unknown record kind {kind!r}")
    if header is None:
        raise InputError(f"{path}: missing plan header")
    if eval_fields is None:
        raise InputError(f"{path}: plan has no eval line")
    plan = AllocationPlan(
        strategy=header["strategy"],
        budget=io._parse_int(header["budget"], f"{path}: plan"),
        counts=counts,
        final_gm=final_gm,
        final_gini=final_gini,
        alpha=io._parse_float(header["alpha"], f"{path}: plan"),
        beta=io._parse_float(header["beta"], f"{path}: plan"),
        missing=header["missing"],
        evaluation=PlanEvaluation(
            mode=eval_fields["mode"],
            utilities=utilities,
            m_tau=io._parse_float(eval_fields["m"], f"{path}: eval"),
            gini_coeff=io._parse_float(eval_fields["gini"], f"{path}: eval"),
        ),
    )
    io._located(str(path), check_plan_settings, plan.budget, plan.alpha, plan.beta, plan.missing, plan.evaluation.mode)
    single = io._located(str(path), parse_strategy, plan.strategy)[1]
    if single is not None and single not in counts:
        raise InputError(f"{path}: strategy {plan.strategy} names a source without an alloc line")
    if sum(counts.values()) != plan.budget:
        raise InputError(f"{path}: alloc samples sum to {sum(counts.values())}, not the budget {plan.budget}")
    return plan


def count_trace(path: str | Path) -> int:
    """The number of rows of a trace file, each checked as ``load_trace``
    checks it but none kept, in one pass of ``csv.reader``. A row that
    fails the check is reported by ``load_trace``, reading the file again."""
    try:
        with io._open_utf8(path, newline="") as fh:
            reader = csv.reader(fh)
            io._skip_header(reader, path, io._TRACE_HEADER)
            count = 0
            isnan = math.isnan
            for cells in reader:
                if cells:
                    step, _, gain, gm, g = cells  # a ValueError for a row that is not 5 fields
                    int(step)
                    a, b, c = float(gain), float(gm), float(g)
                    if isnan(a + b + c) and (isnan(a) or isnan(b) or isnan(c)):  # inf - inf is no fault
                        raise ValueError
                    count += 1
        return count
    except (ValueError, csv.Error):
        return len(io.load_trace(path))


def _md_row(cells: Sequence[object]) -> str:
    """A markdown table row; a '|' in a cell is escaped so it stays in its cell."""
    return "| " + " | ".join(str(cell).replace("|", "\\|") for cell in cells) + " |"


def _md_table_from_csv(path: str) -> list[str]:
    rows = [line.split(",") for line in io.read_text(path).strip().splitlines()]
    if not rows:
        raise InputError(f"{path}: empty file (expected a CSV header)")
    return [_md_row(rows[0]), "|" + "---|" * len(rows[0]), *map(_md_row, rows[1:])]


def run(args: argparse.Namespace) -> tuple[dict[str, str], str]:
    inputs: list[tuple[str, str]] = []  # (role, path)
    for role in ("scorecard", "lorenz", "amrs", "efficiency"):
        value = getattr(args, role)
        if value:
            inputs.append((role, value))
    for role in ("curves", "plan", "trace"):
        for value in getattr(args, role) or ():
            inputs.append((role, value))
    if not inputs:
        raise InputError("report needs at least one input artifact")

    lines = ["# Language DEI evaluation report", "", "## Inputs", "", "| role | path | sha256 |", "|---|---|---|"]
    lines.extend(_md_row((role, path, io.sha256_of(path))) for role, path in inputs)
    lines.append("")

    if args.scorecard:
        lines += ["## Scorecard", ""]
        lines += _md_table_from_csv(args.scorecard)
        lines += ["", "The gini column is a unitless dispersion index in [0, 1); lower is more equitable."]
        if args.lorenz:
            lines.append(f"Lorenz points backing each gini value: `{args.lorenz}`.")
        lines.append("")
    if args.amrs:
        lines += ["## Substitution rates (AMRS)", ""]
        lines += _md_table_from_csv(args.amrs)
        lines += [
            "",
            "Rates derived from adjacent model pairs are sensitive to rounding in the",
            "underlying goods; externally supplied rates rounded to one decimal can move",
            "efficiency scores by a few points.",
            "",
        ]
    if args.efficiency:
        lines += ["## Efficiency scores", ""]
        lines += _md_table_from_csv(args.efficiency)
        lines.append("")
    for path in args.curves or ():
        registry = io.load_curve_registry(path)
        lines += [f"## Curves: `{path}`", ""]
        lines.append(f"{len(registry)} fitted curves.")
        if registry:
            exponents = [c.c for c in registry.values()]
            lines.append(f"Decay exponents span [{io.fmt_num(min(exponents))}, {io.fmt_num(max(exponents))}].")
            per_source = collections.Counter(s for s, _ in registry)
            summary = ", ".join(f"{s}: {n}" for s, n in sorted(per_source.items()))
            lines.append(f"Curves per source language: {summary}.")
        lines.append("")
    for path in args.plan or ():
        plan = load_plan(path)
        lines += [f"## Plan: `{path}`", ""]
        lines.append(f"Strategy `{plan.strategy}`, budget {plan.budget}.")
        lines += ["", "| source | samples |", "|---|---|"]
        lines.extend(_md_row((s, plan.counts[s])) for s in sorted(plan.counts))
        ev = plan.evaluation
        lines += ["", "**Surrogate evaluation** (predicted from fitted curves, not measured):",
                  f"composition `{ev.mode}`, M = {io.fmt_num(ev.m_tau)}, Gini = {io.fmt_num(ev.gini_coeff)}.", ""]
    for path in args.trace or ():
        lines += [f"## Trace: `{path}`", "", f"{count_trace(path)} greedy steps recorded.", ""]

    return {args.out: "\n".join(lines).rstrip("\n") + "\n"}, f"report: {len(inputs)} artifacts -> {args.out}"
