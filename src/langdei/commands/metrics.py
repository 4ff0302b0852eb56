"""``langdei metrics``: the scorecard, and the Lorenz points behind each Gini."""

from langdei import io
from langdei.commands import parse_tau, speaker_table
from langdei.errors import InputError, LangDeiError

HELP = "demand-weighted global metric and Gini per scorecard row"


OPTIONS = {
    "--perf": dict(role="input", required=True, help="performance CSV (task,model,train_lang,target_lang,score)"),
    "--tasks": dict(role="input", required=True, help="task CSV (task,max_performance)"),
    "--speakers": dict(role="input", help="speaker CSV (lang,speakers_millions); required when --tau > 0"),
    "--universe": dict(role="input", help="language universe file, one code per line (default: bundled 23)"),
    "--tau": dict(type=parse_tau, default=1.0, help="demand exponent in [0,1] (default 1)"),
    "--tested-only": dict(action="store_true", help="restrict each row's universe to tested languages"),
    "--scale": dict(choices=io.SCALES, default="percent", help="score scale of the input file and of the m_tau output column"),
    "--out": dict(role="output", required=True, help="scorecard CSV output path"),
    "--lorenz-out": dict(role="output", help="optional Lorenz-points CSV output path"),
}


def run(args) -> tuple[dict[str, str], str]:
    from langdei import metrics

    tasks = metrics.load_tasks(args.tasks)
    universe = metrics.DEFAULT_UNIVERSE if args.universe is None else metrics.load_universe(args.universe)
    speakers = speaker_table(args)
    perf = io.load_performance(args.perf, scale=args.scale)
    try:
        rows = metrics.dei_scorecard(perf, speakers, tasks, universe, tau=args.tau, tested_only=args.tested_only)
    except LangDeiError as exc:
        raise io._locate_row(exc, args.perf, metrics._PERF_HEADER) from None
    del perf  # not kept: the rows, one per key of it, carry what the outputs need
    if not rows:
        raise InputError(f"{args.perf}: no performance rows")
    outputs = {args.out: metrics.render_scorecard(rows, scale=args.scale)}
    if args.lorenz_out:
        outputs[args.lorenz_out] = io.render_lorenz(rows)
    return outputs, f"metrics: wrote {len(rows)} rows -> {args.out}"

