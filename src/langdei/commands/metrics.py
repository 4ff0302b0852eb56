"""``langdei metrics``: the scorecard, and the Lorenz points behind each Gini."""

import argparse

from langdei import io
from langdei.commands import parse_tau, speaker_table

HELP = "demand-weighted global metric and Gini per scorecard row"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--perf", required=True, help="performance CSV (task,model,train_lang,target_lang,score)")
    p.add_argument("--tasks", required=True, help="task CSV (task,max_performance)")
    p.add_argument("--speakers", help="speaker CSV (lang,speakers_millions); required when --tau > 0")
    p.add_argument("--universe", help="language universe file, one code per line (default: bundled 23)")
    p.add_argument("--tau", type=parse_tau, default=1.0, help="demand exponent in [0,1] (default 1)")
    p.add_argument("--tested-only", action="store_true", help="restrict each row's universe to tested languages")
    p.add_argument("--scale", choices=io.SCALES, default="percent", help="score scale of the input file and of the m_tau output column")
    p.add_argument("--out", required=True, help="scorecard CSV output path")
    p.add_argument("--lorenz-out", help="optional Lorenz-points CSV output path")


def run(args: argparse.Namespace) -> tuple[dict[str, str], str]:
    from langdei import metrics

    tasks = metrics.load_tasks(args.tasks)
    universe = metrics.DEFAULT_UNIVERSE if args.universe is None else metrics.load_universe(args.universe)
    speakers = speaker_table(args)
    # The performance table is not kept: the rows carry what the outputs need.
    rows = metrics.dei_scorecard(
        io.load_performance(args.perf, scale=args.scale),
        speakers, tasks, universe, tau=args.tau, tested_only=args.tested_only,
    )
    outputs = {args.out: metrics.render_scorecard(rows, scale=args.scale)}
    if args.lorenz_out:
        outputs[args.lorenz_out] = io.render_lorenz(rows)
    return outputs, f"metrics: wrote {len(rows)} rows -> {args.out}"
