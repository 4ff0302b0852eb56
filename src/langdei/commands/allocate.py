"""``langdei allocate``: a budget plan, and optionally its greedy trace."""

import argparse

from langdei import io, records
from langdei.commands import parse_tau, speaker_table
from langdei.errors import InputError

HELP = "allocate an annotation budget across source languages"


def _comma_list(text: str) -> tuple[str, ...]:
    items = tuple(t.strip() for t in text.split(",") if t.strip())
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list of language codes")
    return items


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--curves", required=True, help="curve registry file")
    p.add_argument("--budget", type=int, required=True, help="total samples to allocate")
    p.add_argument("--strategy", required=True, help="greedy | egalitarian | single:<lang>")
    p.add_argument("--sources", type=_comma_list, help="source languages (default: all in the registry)")
    p.add_argument("--targets", type=_comma_list, help="target languages (default: all in the registry)")
    p.add_argument("--tau", type=parse_tau, default=1.0, help="demand exponent over targets (default 1)")
    p.add_argument("--speakers", help="speaker CSV; required when --tau > 0")
    p.add_argument("--alpha", type=float, default=1.0, help="weight of the global-metric gain (default 1)")
    p.add_argument("--beta", type=float, default=1.0, help="weight of the Gini reduction (default 1)")
    p.add_argument("--missing", choices=records.MISSING_POLICIES, default="strict", help="missing-curve policy (default strict)")
    p.add_argument("--composition", choices=records.COMPOSITION_MODES, default="best-source", help="per-target composition for the surrogate evaluation")
    p.add_argument("--out", required=True, help="plan output path")
    p.add_argument("--trace-out", help="optional per-step trace CSV output path")


def run(args: argparse.Namespace) -> tuple[dict[str, str], str]:
    from langdei import allocator, scalar

    registry = io.load_curve_registry(args.curves)
    if not registry:
        raise InputError(f"{args.curves}: registry contains no curves")
    sources = args.sources or tuple(sorted({s for s, _ in registry}))
    targets = args.targets or tuple(sorted({t for _, t in registry}))
    demand = scalar.demand(speaker_table(args), targets, args.tau)
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
    return outputs, f"allocate: {plan.strategy} plan over {len(sources)} sources -> {args.out}"
