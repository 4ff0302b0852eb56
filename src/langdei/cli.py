"""Command-line front end.

Subcommands: metrics, efficiency, fit, allocate, report. Every run is
deterministic; outputs are computed fully before anything is written, so a
failing run leaves no new files behind. Exit codes: 0 success, 1 a metric was
mathematically undefined, 2 bad input or configuration.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from langdei import allocator, curves, efficiency, io, metrics
from langdei.errors import ComputationError, InputError


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _tau(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"tau must lie in [0, 1], got {value}")
    return value


def _c_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers in LO:HI, got {text!r}") from None
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"need 0 <= LO <= HI, got {text!r}")
    return lo, hi


def _weights(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected W_PERF,W_THROUGHPUT,W_MEMORY, got {text!r}")
    try:
        w = tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers, got {text!r}") from None
    if any(x < 0 for x in w):
        raise argparse.ArgumentTypeError("weights must be non-negative")
    return w  # type: ignore[return-value]


def _comma_list(text: str) -> tuple[str, ...]:
    items = tuple(t.strip() for t in text.split(",") if t.strip())
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list of language codes")
    return items


def _write_outputs(outputs: dict[str, str]) -> None:
    # Called only after all computation succeeded. Stage every file next to
    # its destination first, then rename: a failure in any write leaves no
    # new output behind.
    staged: list[tuple[Path, Path]] = []
    try:
        for path, text in outputs.items():
            final = Path(path)
            temp = final.with_name(final.name + ".tmp")
            io.write_text(temp, text)
            staged.append((temp, final))
    except OSError:
        for temp, _ in staged:
            temp.unlink(missing_ok=True)
        raise
    for temp, final in staged:
        temp.replace(final)


def _load_universe_arg(path: str | None) -> tuple[str, ...]:
    if path is None:
        return metrics.DEFAULT_UNIVERSE
    return io.load_universe(path)


def _load_speakers(args) -> metrics.SpeakerTable:
    if args.speakers:
        return io.load_speakers(args.speakers)
    if args.tau > 0:
        raise InputError("--tau > 0 needs speaker counts; pass --speakers FILE")
    return metrics.SpeakerTable({})


def _check_distinct_outputs(args) -> None:
    """Two output flags naming one file would leave only the last write."""
    seen: dict[Path, str] = {}
    for dest in ("out", "lorenz_out", "amrs_out", "trace_out"):
        value = getattr(args, dest, None)
        if not value:
            continue
        flag = "--" + dest.replace("_", "-")
        path = Path(value).resolve()
        if path in seen:
            raise InputError(f"{seen[path]} and {flag} name the same file: {value}")
        seen[path] = flag


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_metrics(args: argparse.Namespace) -> int:
    tasks = io.load_tasks(args.tasks)
    universe = _load_universe_arg(args.universe)
    speakers = _load_speakers(args)
    # The performance table is not kept: the rows carry what the outputs need.
    rows = metrics.dei_scorecard(
        io.load_performance(args.perf, scale=args.scale),
        speakers, tasks, universe, tau=args.tau, tested_only=args.tested_only,
    )
    outputs = {args.out: io.render_scorecard(rows, scale=args.scale)}
    if args.lorenz_out:
        points = {(r.task, r.model, r.train_lang): metrics.lorenz_points(r.utilities) for r in rows}
        outputs[args.lorenz_out] = io.render_lorenz(points)
    _write_outputs(outputs)
    print(f"metrics: wrote {len(rows)} rows -> {args.out}")
    return 0


def cmd_efficiency(args: argparse.Namespace) -> int:
    goods = io.load_goods(args.goods)
    w_perf, w_tp, w_mem = args.weights
    config = efficiency.EfficiencyConfig(
        max_memory=args.max_memory, w_perf=w_perf, w_throughput=w_tp, w_memory=w_mem
    )
    if args.amrs_override:
        table = io.load_amrs(args.amrs_override)
    else:
        table = efficiency.compute_amrs_table(goods, config)
    scored = [(g, efficiency.efficiency_score(g, table, config)) for g in goods]
    outputs = {args.out: io.render_efficiency(scored, config)}
    if args.amrs_out:
        outputs[args.amrs_out] = io.render_amrs(table)
    _write_outputs(outputs)
    print(f"efficiency: scored {len(scored)} models -> {args.out}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    pairs = io.load_trajectories(args.trajectories, scale=args.scale)
    if not pairs:
        raise InputError(f"{args.trajectories}: no trajectory points")
    registry: dict[tuple[str, str], curves.LearningCurve] = {}
    rejects: list[tuple[str, str, str]] = []
    for (source, target), points in sorted(pairs.items()):
        if len(points) < 3:
            rejects.append((source, target, f"needs >= 3 points, has {len(points)}"))
            continue
        registry[(source, target)] = curves.fit_power_law(points, c_range=args.c_range)
    _write_outputs({args.out: io.render_curves(registry, rejects)})
    print(f"fit: {len(registry)} curves, {len(rejects)} rejected pairs -> {args.out}")
    return 0


def _parse_strategy(text: str) -> tuple[str, str | None]:
    if text in ("greedy", "egalitarian"):
        return text, None
    if text.startswith("single:") and len(text) > len("single:"):
        return "single", text.split(":", 1)[1]
    raise InputError(f"unknown strategy {text!r}; expected greedy, egalitarian, or single:<lang>")


def cmd_allocate(args: argparse.Namespace) -> int:
    registry = io.load_curve_registry(args.curves)
    if not registry:
        raise InputError(f"{args.curves}: registry contains no curves")
    sources = args.sources or tuple(sorted({s for s, _ in registry}))
    targets = args.targets or tuple(sorted({t for _, t in registry}))
    demand = metrics.demand(_load_speakers(args), targets, args.tau)
    strategy, single_source = _parse_strategy(args.strategy)
    request = allocator.AllocationRequest(
        budget=args.budget,
        sources=sources,
        targets=targets,
        registry=registry,
        demand=demand,
        alpha=args.alpha,
        beta=args.beta,
        missing=args.missing,
    )
    if strategy == "greedy":
        plan = allocator.greedy_allocate(request)
    elif strategy == "egalitarian":
        plan = allocator.egalitarian_allocate(request)
    else:
        plan = allocator.single_source_allocate(request, single_source)
    evaluation = allocator.evaluate_plan(
        plan, registry, demand, targets, mode=args.composition, missing=args.missing
    )
    plan = allocator.with_evaluation(plan, evaluation)
    outputs = {args.out: io.render_plan(plan)}
    if args.trace_out:
        outputs[args.trace_out] = io.render_trace(plan.trace)
    _write_outputs(outputs)
    print(f"allocate: {plan.strategy} plan over {len(sources)} sources -> {args.out}")
    return 0


def _md_table_from_csv(text: str) -> list[str]:
    rows = [line.split(",") for line in text.strip().splitlines()]
    header, body = rows[0], rows[1:]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines.extend("| " + " | ".join(row) + " |" for row in body)
    return lines


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
    for _, path in inputs:
        if not Path(path).is_file():
            raise InputError(f"referenced artifact not found: {path}")

    lines = ["# Language DEI evaluation report", "", "## Inputs", "", "| role | path | sha256 |", "|---|---|---|"]
    lines.extend(f"| {role} | {path} | {io.sha256_of(path)} |" for role, path in inputs)
    lines.append("")

    if args.scorecard:
        lines += ["## Scorecard", ""]
        lines += _md_table_from_csv(io.read_text(args.scorecard))
        lines += ["", "The gini column is a unitless dispersion index in [0, 1); lower is more equitable."]
        if args.lorenz:
            lines.append(f"Lorenz points backing each gini value: `{args.lorenz}`.")
        lines.append("")
    if args.amrs:
        lines += ["## Substitution rates (AMRS)", ""]
        lines += _md_table_from_csv(io.read_text(args.amrs))
        lines += [
            "",
            "Rates derived from adjacent model pairs are sensitive to rounding in the",
            "underlying goods; externally supplied rates rounded to one decimal can move",
            "efficiency scores by a few points.",
            "",
        ]
    if args.efficiency:
        lines += ["## Efficiency scores", ""]
        lines += _md_table_from_csv(io.read_text(args.efficiency))
        lines.append("")
    for path in args.curves or ():
        registry = io.load_curve_registry(path)
        lines += [f"## Curves: `{path}`", ""]
        lines.append(f"{len(registry)} fitted curves.")
        if registry:
            exponents = [c.c for c in registry.values()]
            lines.append(f"Decay exponents span [{io.fmt_num(min(exponents))}, {io.fmt_num(max(exponents))}].")
        per_source: dict[str, int] = {}
        for s, _ in registry:
            per_source[s] = per_source.get(s, 0) + 1
        if per_source:
            summary = ", ".join(f"{s}: {n}" for s, n in sorted(per_source.items()))
            lines.append(f"Curves per source language: {summary}.")
        lines.append("")
    for path in args.plan or ():
        plan = io.load_plan(path)
        lines += [f"## Plan: `{path}`", ""]
        lines.append(f"Strategy `{plan.strategy}`, budget {plan.budget}.")
        lines += ["", "| source | samples |", "|---|---|"]
        lines.extend(f"| {s} | {plan.counts[s]} |" for s in sorted(plan.counts))
        if plan.evaluation is not None:
            ev = plan.evaluation
            lines += [
                "",
                "**Surrogate evaluation** (predicted from fitted curves, not measured):",
                f"composition `{ev.mode}`, M = {io.fmt_num(ev.m_tau)}, Gini = {io.fmt_num(ev.gini_coeff)}.",
            ]
        lines.append("")
    for path in args.trace or ():
        steps = io.load_trace(path)
        lines += [f"## Trace: `{path}`", "", f"{len(steps)} greedy steps recorded.", ""]

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
    p.add_argument("--max-memory", type=float, default=efficiency.DEFAULT_MAX_MEMORY_GB, help="memory ceiling in GB (default 16)")
    p.add_argument("--out", required=True, help="efficiency CSV output path")
    p.add_argument("--amrs-out", help="optional output CSV of the substitution rates used")
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("fit", help="fit power-law learning curves to trajectories")
    p.add_argument("--trajectories", required=True, help="trajectory CSV (source,target,samples,score)")
    p.add_argument("--scale", choices=io.SCALES, default="percent", help="score scale of the trajectory file")
    p.add_argument("--c-range", type=_c_range, default=curves.DEFAULT_C_RANGE, help="exponent search range LO:HI (default 0:2)")
    p.add_argument("--out", required=True, help="curve registry output path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("allocate", help="allocate an annotation budget across source languages")
    p.add_argument("--curves", required=True, help="curve registry file")
    p.add_argument("--budget", type=_positive_int, required=True, help="total samples to allocate")
    p.add_argument("--strategy", required=True, help="greedy | egalitarian | single:<lang>")
    p.add_argument("--sources", type=_comma_list, help="source languages (default: all in the registry)")
    p.add_argument("--targets", type=_comma_list, help="target languages (default: all in the registry)")
    p.add_argument("--tau", type=_tau, default=1.0, help="demand exponent over targets (default 1)")
    p.add_argument("--speakers", help="speaker CSV; required when --tau > 0")
    p.add_argument("--alpha", type=float, default=1.0, help="weight of the global-metric gain (default 1)")
    p.add_argument("--beta", type=float, default=1.0, help="weight of the Gini reduction (default 1)")
    p.add_argument("--missing", choices=allocator.MISSING_POLICIES, default="strict", help="missing-curve policy (default strict)")
    p.add_argument("--composition", choices=allocator.COMPOSITION_MODES, default="best-source", help="per-target composition for the surrogate evaluation")
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
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        _check_distinct_outputs(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
