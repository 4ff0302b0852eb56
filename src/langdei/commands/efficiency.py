"""``langdei efficiency``: substitution rates and efficiency scores."""

import argparse

from langdei import records

HELP = "substitution rates and efficiency scores from model goods"


def _weights(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected W_PERF,W_THROUGHPUT,W_MEMORY, got {text!r}")
    try:
        return tuple(map(float, parts))  # type: ignore[return-value]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers, got {text!r}") from None


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--goods", required=True, help="goods CSV (model,group,task,throughput,memory_gb,perf)")
    p.add_argument("--amrs-override", help="CSV of externally supplied substitution rates (group,task,metric,amrs)")
    p.add_argument("--weights", type=_weights, default=(0.5, 0.25, 0.25), help="w_perf,w_throughput,w_memory (default 0.5,0.25,0.25)")
    p.add_argument("--max-memory", type=float, default=records.DEFAULT_MAX_MEMORY_GB, help="memory ceiling in GB (default 16)")
    p.add_argument("--out", required=True, help="efficiency CSV output path")
    p.add_argument("--amrs-out", help="optional output CSV of the substitution rates used")


def run(args: argparse.Namespace) -> tuple[dict[str, str], str]:
    from langdei import efficiency

    goods = efficiency.GoodsTable.read_csv(args.goods)
    w_perf, w_tp, w_mem = args.weights
    config = efficiency.EfficiencyConfig(max_memory=args.max_memory, w_perf=w_perf, w_throughput=w_tp,
                                         w_memory=w_mem)
    saved = efficiency.memory_saved(goods, config)
    table = efficiency.load_amrs(args.amrs_override) if args.amrs_override else efficiency.compute_amrs_table(goods, saved, config)
    scores = efficiency.efficiency_score(goods, saved, table, config)
    outputs = {args.out: efficiency.render_efficiency(goods, saved, scores)}
    if args.amrs_out:
        outputs[args.amrs_out] = efficiency.render_amrs(table)
    return outputs, f"efficiency: scored {len(scores)} models -> {args.out}"
