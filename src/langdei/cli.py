"""Command-line front end.

Subcommands: metrics, efficiency, fit, allocate, report. Every run is
deterministic; outputs are computed fully before anything is written, so a
failing run leaves no new files behind. Exit codes: 0 success, 1 a metric was
mathematically undefined, 2 bad input or configuration. Each warning a run
raises is printed as one ``warning: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys
import tempfile
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from langdei import io, records
from langdei.errors import ComputationError, InputError

# Each subcommand imports the modules it computes with when it runs. Only
# curves needs numpy, so no subcommand but `fit` loads it.
if TYPE_CHECKING:
    from langdei import scalar


def _tau(text: str) -> float:
    try:
        return records.check_tau(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _c_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers in LO:HI, got {text!r}") from None
    try:
        return records.check_c_range((lo, hi))
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _weights(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected W_PERF,W_THROUGHPUT,W_MEMORY, got {text!r}")
    try:
        return tuple(map(float, parts))  # type: ignore[return-value]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers, got {text!r}") from None


def _comma_list(text: str) -> tuple[str, ...]:
    items = tuple(t.strip() for t in text.split(",") if t.strip())
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list of language codes")
    return items


def _write_outputs(outputs: dict[str, str]) -> None:
    # Called only after all computation succeeded. Stage every file under a
    # new name in its destination's directory (mkstemp never takes an
    # existing name, another output's included), then rename; a failed write
    # or rename removes every staged file left. mkstemp creates mode 0600,
    # so each staged file gets the mode a plain write would give.
    umask = os.umask(0)
    os.umask(umask)
    staged: list[tuple[str, str]] = []
    try:
        for path, text in outputs.items():
            final = Path(path)
            fd, temp = tempfile.mkstemp(prefix=final.name + ".", suffix=".tmp", dir=final.parent)
            staged.append((temp, path))
            os.fchmod(fd, 0o666 & ~umask)
            os.close(fd)
            io.write_text(temp, text)
        for temp, path in staged:
            os.replace(temp, path)
    except BaseException:
        for temp, _ in staged:
            Path(temp).unlink(missing_ok=True)
        raise


def _load_speakers(args) -> scalar.SpeakerTable:
    from langdei import scalar

    if args.speakers:
        return io.load_speakers(args.speakers)
    if args.tau > 0:
        raise InputError("--tau > 0 needs speaker counts; pass --speakers FILE")
    return scalar.SpeakerTable({})


def _check_distinct_outputs(args) -> None:
    """Two output flags naming one file would leave only the last write, an
    output naming an input would replace it, and an output naming a
    directory could not be written at all."""
    seen: dict[Path, str] = {}
    for dest in ("perf", "tasks", "speakers", "universe", "goods", "amrs_override", "trajectories",
                 "curves", "scorecard", "lorenz", "amrs", "efficiency", "plan", "trace"):
        value = getattr(args, dest, None)
        for path in value if isinstance(value, list) else [value] if value else []:
            seen.setdefault(Path(path).resolve(), "--" + dest.replace("_", "-"))
    for dest in ("out", "lorenz_out", "amrs_out", "trace_out"):
        value = getattr(args, dest, None)
        if not value:
            continue
        flag = "--" + dest.replace("_", "-")
        path = Path(value).resolve()
        if path.is_dir():
            raise InputError(f"{flag} names a directory: {value}")
        if path in seen:
            raise InputError(f"{seen[path]} and {flag} name the same file: {value}")
        seen[path] = flag


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_metrics(args: argparse.Namespace) -> int:
    from langdei import metrics

    tasks = io.load_tasks(args.tasks)
    universe = metrics.DEFAULT_UNIVERSE if args.universe is None else io.load_universe(args.universe)
    speakers = _load_speakers(args)
    # The performance table is not kept: the rows carry what the outputs need.
    rows = metrics.dei_scorecard(
        io.load_performance(args.perf, scale=args.scale),
        speakers, tasks, universe, tau=args.tau, tested_only=args.tested_only,
    )
    outputs = {args.out: io.render_scorecard(rows, scale=args.scale)}
    if args.lorenz_out:
        outputs[args.lorenz_out] = io.render_lorenz(rows)
    _write_outputs(outputs)
    print(f"metrics: wrote {len(rows)} rows -> {args.out}")
    return 0


def cmd_efficiency(args: argparse.Namespace) -> int:
    from langdei import efficiency

    goods = io.load_goods(args.goods)
    w_perf, w_tp, w_mem = args.weights
    config = efficiency.EfficiencyConfig(
        max_memory=args.max_memory, w_perf=w_perf, w_throughput=w_tp, w_memory=w_mem
    )
    saved = efficiency.memory_saved(goods, config)
    table = io.load_amrs(args.amrs_override) if args.amrs_override else efficiency.compute_amrs_table(goods, saved, config)
    scores = efficiency.efficiency_score(goods, saved, table, config)
    outputs = {args.out: io.render_efficiency(goods, saved, scores)}
    if args.amrs_out:
        outputs[args.amrs_out] = io.render_amrs(table)
    _write_outputs(outputs)
    print(f"efficiency: scored {len(scores)} models -> {args.out}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    from langdei import curves

    pairs = io.load_trajectories(args.trajectories, scale=args.scale)
    if not pairs:
        raise InputError(f"{args.trajectories}: no trajectory points")
    fittable = {pair: points for pair, points in sorted(pairs.items()) if len(points) >= curves.MIN_POINTS}
    rejects = [(source, target, f"needs >= {curves.MIN_POINTS} points, has {len(points)}")
               for (source, target), points in sorted(pairs.items()) if len(points) < curves.MIN_POINTS]
    registry = dict(zip(fittable, curves.fit_power_laws(list(fittable.values()), c_range=args.c_range)))
    _write_outputs({args.out: io.render_curves(registry, rejects)})
    print(f"fit: {len(registry)} curves, {len(rejects)} rejected pairs -> {args.out}")
    return 0


def cmd_allocate(args: argparse.Namespace) -> int:
    from langdei import allocator, scalar

    registry = io.load_curve_registry(args.curves)
    if not registry:
        raise InputError(f"{args.curves}: registry contains no curves")
    sources = args.sources or tuple(sorted({s for s, _ in registry}))
    targets = args.targets or tuple(sorted({t for _, t in registry}))
    demand = scalar.demand(_load_speakers(args), targets, args.tau)
    strategy, single_source = records.parse_strategy(args.strategy)
    request = allocator.AllocationRequest(
        budget=args.budget,
        sources=sources,
        targets=targets,
        registry=registry,
        demand=demand,
        alpha=args.alpha,
        beta=args.beta,
        missing=args.missing,
        composition=args.composition,
    )
    if strategy == "greedy":
        plan = allocator.greedy_allocate(request, trace=bool(args.trace_out))
    elif strategy == "egalitarian":
        plan = allocator.egalitarian_allocate(request)
    else:
        plan = allocator.single_source_allocate(request, single_source)
    outputs = {args.out: io.render_plan(plan)}
    if args.trace_out:
        outputs[args.trace_out] = io.render_trace(plan.trace)
    _write_outputs(outputs)
    print(f"allocate: {plan.strategy} plan over {len(sources)} sources -> {args.out}")
    return 0


def _md_row(cells: Sequence[object]) -> str:
    """A markdown table row; a '|' in a cell is escaped so it stays in its cell."""
    return "| " + " | ".join(str(cell).replace("|", "\\|") for cell in cells) + " |"


def _md_table_from_csv(path: str) -> list[str]:
    rows = [line.split(",") for line in io.read_text(path).strip().splitlines()]
    if not rows:
        raise InputError(f"{path}: empty file (expected a CSV header)")
    return [_md_row(rows[0]), "|" + "---|" * len(rows[0]), *map(_md_row, rows[1:])]


def cmd_report(args: argparse.Namespace) -> int:
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
        plan = io.load_plan(path)
        lines += [f"## Plan: `{path}`", ""]
        lines.append(f"Strategy `{plan.strategy}`, budget {plan.budget}.")
        lines += ["", "| source | samples |", "|---|---|"]
        lines.extend(_md_row((s, plan.counts[s])) for s in sorted(plan.counts))
        ev = plan.evaluation
        lines += ["", "**Surrogate evaluation** (predicted from fitted curves, not measured):",
                  f"composition `{ev.mode}`, M = {io.fmt_num(ev.m_tau)}, Gini = {io.fmt_num(ev.gini_coeff)}.", ""]
    for path in args.trace or ():
        lines += [f"## Trace: `{path}`", "", f"{io.count_trace(path)} greedy steps recorded.", ""]

    _write_outputs({args.out: "\n".join(lines).rstrip("\n") + "\n"})
    print(f"report: {len(inputs)} artifacts -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langdei",
        description="Language-level diversity/equity/inclusion metrics and budget allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="demand-weighted global metric and Gini per scorecard row")
    p.add_argument("--perf", required=True, help="performance CSV (task,model,train_lang,target_lang,score)")
    p.add_argument("--tasks", required=True, help="task CSV (task,max_performance)")
    p.add_argument("--speakers", help="speaker CSV (lang,speakers_millions); required when --tau > 0")
    p.add_argument("--universe", help="language universe file, one code per line (default: bundled 23)")
    p.add_argument("--tau", type=_tau, default=1.0, help="demand exponent in [0,1] (default 1)")
    p.add_argument("--tested-only", action="store_true", help="restrict each row's universe to tested languages")
    p.add_argument("--scale", choices=io.SCALES, default="percent", help="score scale of the input file and of the m_tau output column")
    p.add_argument("--out", required=True, help="scorecard CSV output path")
    p.add_argument("--lorenz-out", help="optional Lorenz-points CSV output path")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("efficiency", help="substitution rates and efficiency scores from model goods")
    p.add_argument("--goods", required=True, help="goods CSV (model,group,task,throughput,memory_gb,perf)")
    p.add_argument("--amrs-override", help="CSV of externally supplied substitution rates (group,task,metric,amrs)")
    p.add_argument("--weights", type=_weights, default=(0.5, 0.25, 0.25), help="w_perf,w_throughput,w_memory (default 0.5,0.25,0.25)")
    p.add_argument("--max-memory", type=float, default=records.DEFAULT_MAX_MEMORY_GB, help="memory ceiling in GB (default 16)")
    p.add_argument("--out", required=True, help="efficiency CSV output path")
    p.add_argument("--amrs-out", help="optional output CSV of the substitution rates used")
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("fit", help="fit power-law learning curves to trajectories")
    p.add_argument("--trajectories", required=True, help="trajectory CSV (source,target,samples,score)")
    p.add_argument("--scale", choices=io.SCALES, default="percent", help="score scale of the trajectory file")
    p.add_argument("--c-range", type=_c_range, default=records.DEFAULT_C_RANGE, help="exponent search range LO:HI (default 0:2)")
    p.add_argument("--out", required=True, help="curve registry output path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("allocate", help="allocate an annotation budget across source languages")
    p.add_argument("--curves", required=True, help="curve registry file")
    p.add_argument("--budget", type=int, required=True, help="total samples to allocate")
    p.add_argument("--strategy", required=True, help="greedy | egalitarian | single:<lang>")
    p.add_argument("--sources", type=_comma_list, help="source languages (default: all in the registry)")
    p.add_argument("--targets", type=_comma_list, help="target languages (default: all in the registry)")
    p.add_argument("--tau", type=_tau, default=1.0, help="demand exponent over targets (default 1)")
    p.add_argument("--speakers", help="speaker CSV; required when --tau > 0")
    p.add_argument("--alpha", type=float, default=1.0, help="weight of the global-metric gain (default 1)")
    p.add_argument("--beta", type=float, default=1.0, help="weight of the Gini reduction (default 1)")
    p.add_argument("--missing", choices=records.MISSING_POLICIES, default="strict", help="missing-curve policy (default strict)")
    p.add_argument("--composition", choices=records.COMPOSITION_MODES, default="best-source", help="per-target composition for the surrogate evaluation")
    p.add_argument("--out", required=True, help="plan output path")
    p.add_argument("--trace-out", help="optional per-step trace CSV output path")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("report", help="assemble prior outputs into one markdown report")
    p.add_argument("--scorecard", help="scorecard CSV from `metrics`")
    p.add_argument("--lorenz", help="Lorenz-points CSV from `metrics`")
    p.add_argument("--amrs", help="substitution-rate CSV from `efficiency`")
    p.add_argument("--efficiency", help="efficiency CSV from `efficiency`")
    p.add_argument("--curves", action="append", help="curve registry (repeatable)")
    p.add_argument("--plan", action="append", help="plan file (repeatable)")
    p.add_argument("--trace", action="append", help="trace CSV (repeatable)")
    p.add_argument("--out", required=True, help="markdown report output path")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            _check_distinct_outputs(args)
            return args.func(args)
        except (InputError, ComputationError, OSError) as exc:
            error = exc
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    print(f"error: {error}", file=sys.stderr)
    return 1 if isinstance(error, ComputationError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
