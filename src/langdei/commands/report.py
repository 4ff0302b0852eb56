"""``langdei report``: prior outputs assembled into one markdown report,
and the plan reader only the report runs."""

import collections
import math
from pathlib import Path
from typing import Sequence

from langdei import io
from langdei.commands import files
from langdei.errors import InputError, check_id
from langdei.records import AllocationPlan, PlanEvaluation, baseline_counts, check_plan_settings, parse_strategy

HELP = "assemble prior outputs into one markdown report"


OPTIONS = {
    "--scorecard": dict(role="input", help="scorecard CSV from `metrics`"),
    "--lorenz": dict(role="input", help="Lorenz-points CSV from `metrics`"),
    "--amrs": dict(role="input", help="substitution-rate CSV from `efficiency`"),
    "--efficiency": dict(role="input", help="efficiency CSV from `efficiency`"),
    "--curves": dict(role="input", action="append", help="curve registry (repeatable)"),
    "--plan": dict(role="input", action="append", help="plan file (repeatable)"),
    "--trace": dict(role="input", action="append", help="trace CSV (repeatable)"),
    "--out": dict(role="output", required=True, help="markdown report output path"),
}


# The fields each kind of plan line must have.
_PLAN_FIELDS = {"plan": ("strategy", "budget", "alpha", "beta", "missing"), "alloc": ("source", "samples"),
                "eval": ("mode", "clamp", "m", "gini"), "pred": ("target", "utility")}
# The kinds a plan has one line of: the name a second one is reported under, and the fault if none.
_ONE_LINE = {"plan": ("plan header", "missing plan header"), "eval": ("eval line", "plan has no eval line")}


def load_plan(path: str | Path) -> AllocationPlan:
    """Parse a plan file, which must hold a plan that allocate could write:
    settings that pass the request's rule, a known strategy (a single source
    among the alloc lines), an eval line, sample counts >= 0 that sum to the
    budget (a baseline's as ``baseline_counts`` splits it), and gm and gini
    on exactly the funded sources. The step trace lives in its own CSV."""
    once: dict[str, dict[str, str]] = {}  # the fields of each _ONE_LINE kind's line
    counts: dict[str, int] = {}
    final_gm: dict[str, float] = {}
    final_gini: dict[str, float] = {}
    utilities: dict[str, float] = {}
    for where, line in io._records(path):
        kind = line.split(None, 1)[0]
        fields = io._parse_kv_line(line, where)
        if kind not in _PLAN_FIELDS:
            raise InputError(f"{where}: unknown record kind {kind!r}")
        if kind in once:
            raise InputError(f"{where}: duplicate {_ONE_LINE[kind][0]}")
        io._require(fields, _PLAN_FIELDS[kind], where)
        if kind in _ONE_LINE:
            if kind == "eval" and fields["clamp"] != "false":
                raise InputError(f"{where}: expected clamp=false, got clamp={fields['clamp']}")
            once[kind] = fields
        elif kind == "alloc":
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
        else:  # pred
            if "eval" not in once:
                raise InputError(f"{where}: pred line before eval line")
            target = io._located(where, check_id, fields["target"], "target language")
            if target in utilities:
                raise InputError(f"{where}: duplicate pred line for target {target!r}")
            utilities[target] = io._parse_float(fields["utility"], where)
    for kind, (_, absent) in _ONE_LINE.items():
        if kind not in once:
            raise InputError(f"{path}: {absent}")
    header, eval_fields = once["plan"], once["eval"]
    plan = AllocationPlan(
        strategy=header["strategy"], budget=io._parse_int(header["budget"], f"{path}: plan"),
        counts=counts, final_gm=final_gm, final_gini=final_gini, missing=header["missing"],
        alpha=io._parse_float(header["alpha"], f"{path}: plan"), beta=io._parse_float(header["beta"], f"{path}: plan"),
        evaluation=PlanEvaluation(mode=eval_fields["mode"], utilities=utilities,
                                  m_tau=io._parse_float(eval_fields["m"], f"{path}: eval"),
                                  gini_coeff=io._parse_float(eval_fields["gini"], f"{path}: eval")))
    io._located(str(path), check_plan_settings, plan.budget, plan.alpha, plan.beta, plan.missing, plan.evaluation.mode)
    strategy, single = io._located(str(path), parse_strategy, plan.strategy)
    if single is not None and single not in counts:
        raise InputError(f"{path}: strategy {plan.strategy} names a source without an alloc line")
    if sum(counts.values()) != plan.budget:
        raise InputError(f"{path}: alloc samples sum to {sum(counts.values())}, not the budget {plan.budget}")
    if strategy != "greedy" and counts != baseline_counts(plan.budget, sorted(counts), single):
        raise InputError(f"{path}: alloc samples are not the {plan.strategy} split of the budget {plan.budget}")
    return plan


def _md_row(cells: Sequence[object]) -> str:
    """A markdown table row; a '|' in a cell is escaped so it stays in its cell."""
    return "| " + " | ".join(str(cell).replace("|", "\\|") for cell in cells) + " |"


def _checked_rows(path: str, role: str) -> list[tuple[str, list[str]]]:
    """The (``file:line``, cells) rows of a CSV file of ``role``: at least
    one, under the role's header. No two rows share their key
    (``io._unique_rows``), an id column's cells keep ``check_id``'s rule, a
    number column's parse and lie in the range its writer keeps, and a
    scorecard row's ``tested`` <= its ``universe``."""
    header, width = _CSV_ROLES[role]
    rows = []
    for where, cells in io._unique_rows(io._read_csv_rows(path, header), width, "row for"):
        numbers = {}
        for name, cell in zip(header, cells):
            if name not in _NUMBER_COLUMNS:
                io._located(where, check_id, cell, f"{name} cell")
            else:
                parse, in_range, expected = _NUMBER_COLUMNS[name]
                numbers[name] = parse(cell, where)
                if not in_range(numbers[name]):
                    raise InputError(f"{where}: {name} must be {expected}, got {cell}")
        if "universe" in numbers and numbers["tested"] > numbers["universe"]:
            raise InputError(f"{where}: tested must be <= universe, got {numbers['tested']} > {numbers['universe']}")
        rows.append((where, cells))
    if not rows:  # metrics and efficiency write no header-only file
        raise InputError(f"{path}: no {role} rows")
    return rows


def _md_table(header: Sequence[str], rows: list[tuple[str, list[str]]]) -> list[str]:
    """The markdown table of (``file:line``, cells) rows, their cells as read."""
    return [_md_row(header), "|" + "---|" * len(header), *(_md_row(cells) for _, cells in rows)]


# The header of each CSV role that ``_checked_rows`` checks, and the width of
# its key, the first cells, which no two of its rows share.
_CSV_ROLES = {"scorecard": (io._SCORECARD_HEADER, 3), "lorenz": (io._LORENZ_HEADER, 4),
              "efficiency": (io._EFFICIENCY_HEADER, 2)}
# Each number column of those files: its parser, and the range its writer keeps.
_UNIT = (io._parse_float, lambda v: 0 <= v <= 1, "in [0, 1]")
_POSITIVE = (io._parse_float, lambda v: 0 < v < math.inf, "finite and > 0")
_NON_NEGATIVE = (io._parse_float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_NUMBER_COLUMNS = {"m_tau": (io._parse_float, lambda v: 0 <= v <= 100, "in [0, 100]"),
                   "gini": (io._parse_float, lambda v: 0 <= v < 1, "in [0, 1)"),
                   "tested": (io._parse_int, lambda v: v >= 1, ">= 1"),
                   "universe": (io._parse_int, lambda v: v >= 1, ">= 1"),
                   "population_fraction": _UNIT, "cumulative_share": _UNIT,
                   "throughput": _POSITIVE, "perf": _NON_NEGATIVE, "memory_saved": _NON_NEGATIVE,
                   "efficiency": (io._parse_float, lambda v: v >= 0, ">= 0")}


def _check_lorenz_points(lorenz: list[tuple[str, list[str]]],
                         scorecard: list[tuple[str, list[str]]] | None) -> None:
    """The Lorenz points of each ``task,model,train_lang`` run from (0, 0) to
    (1, 1) in n + 1 points, as ``metrics`` writes them: point k has the
    population fraction ``fmt_num(k / n)``, in value, and no share is below
    the one before it. With the scorecard, each Lorenz row's key is a
    scorecard row's and n is that row's universe; without it, n is the key's
    point count - 1, so a key with one point is a fault."""
    points: dict[tuple[str, ...], list[tuple[str, list[str]]]] = {tuple(cells[:3]): [] for _, cells in scorecard or ()}
    for where, cells in lorenz:
        if scorecard is not None and tuple(cells[:3]) not in points:
            raise InputError(f"{where}: no scorecard row for {tuple(cells[:3])}")
        points.setdefault(tuple(cells[:3]), []).append((where, cells[3:]))
    if scorecard is None:  # (where a wrong point count is reported, key, n)
        sizes = [(curve[0][0], key, len(curve) - 1) for key, curve in points.items()]
    else:  # the last cell is the universe size
        sizes = [(where, tuple(cells[:3]), int(cells[-1])) for where, cells in scorecard]
    for where, key, n in sizes:
        curve = points[key]
        if len(curve) != n + 1:
            raise InputError(f"{where}: {key} has {len(curve)} Lorenz points, expected universe + 1 = {n + 1}")
        if n == 0:
            raise InputError(f"{where}: {key} has 1 Lorenz point, expected at least 2")
        last = "0"
        for k, (at, (x, y)) in enumerate(curve):
            fraction = io.fmt_num(k / n)
            if k in (0, n) and (float(x), float(y)) != (k / n, k / n):
                raise InputError(f"{at}: the Lorenz points of {key} must run from (0, 0) to (1, 1), got ({x}, {y})")
            if float(x) != float(fraction):
                raise InputError(f"{at}: Lorenz point {k} of {key} must have population_fraction {fraction}, got {x}")
            if float(y) < float(last):
                raise InputError(f"{at}: the cumulative_share of {key} must not decrease, got {y} after {last}")
            last = y


def run(args) -> tuple[dict[str, str], str]:
    inputs = [(flag[2:], path) for flag, path in files(OPTIONS, args, "input")]  # (role, path)
    if not inputs:
        raise InputError("report needs at least one input artifact")

    lines = ["# Language DEI evaluation report", "", "## Inputs", "", "| role | path | sha256 |", "|---|---|---|"]
    lines.extend(_md_row((role, path, io.sha256_of(path))) for role, path in inputs)
    lines.append("")
    if args.amrs:  # the AMRS rule and its messages are efficiency's
        from langdei import efficiency

        efficiency.load_amrs(args.amrs)
    # Every CSV file is read and checked, though the report names the Lorenz points only by path.
    rows = {role: _checked_rows(path, role) for role, path in inputs if role in _CSV_ROLES}
    if args.lorenz:
        _check_lorenz_points(rows["lorenz"], rows.get("scorecard"))

    if args.scorecard:
        lines += ["## Scorecard", ""]
        lines += _md_table(io._SCORECARD_HEADER, rows["scorecard"])
        lines += ["", "The gini column is a unitless dispersion index in [0, 1); lower is more equitable."]
        if args.lorenz:
            lines.append(f"Lorenz points backing each gini value: `{args.lorenz}`.")
        lines.append("")
    if args.amrs:
        lines += ["## Substitution rates (AMRS)", ""]
        lines += _md_table(io._AMRS_HEADER, list(io._read_csv_rows(args.amrs, io._AMRS_HEADER)))
        lines += [
            "",
            "Rates derived from adjacent model pairs are sensitive to rounding in the",
            "underlying goods; externally supplied rates rounded to one decimal can move",
            "efficiency scores by a few points.",
            "",
        ]
    if args.efficiency:
        lines += ["## Efficiency scores", ""]
        lines += _md_table(io._EFFICIENCY_HEADER, rows["efficiency"])
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
        lines += [f"## Trace: `{path}`", "", f"{len(io.load_trace(path))} greedy steps recorded.", ""]

    return {args.out: "\n".join(lines).rstrip("\n") + "\n"}, f"report: {len(inputs)} artifacts -> {args.out}"
