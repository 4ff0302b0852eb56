"""``langdei efficiency``: substitution rates and efficiency scores."""

from langdei import io, records
from langdei.commands import usage_error
from langdei.errors import InputError, LangDeiError

HELP = "substitution rates and efficiency scores from model goods"


def _weights(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise usage_error(f"expected W_PERF,W_THROUGHPUT,W_MEMORY, got {text!r}")
    try:
        return tuple(map(float, parts))  # type: ignore[return-value]
    except ValueError:
        raise usage_error(f"expected numbers, got {text!r}") from None


OPTIONS = {
    "--goods": dict(role="input", required=True, help="goods CSV (model,group,task,throughput,memory_gb,perf)"),
    "--amrs-override": dict(role="input", help="CSV of externally supplied substitution rates (group,task,metric,amrs)"),
    "--weights": dict(type=_weights, default=(0.5, 0.25, 0.25), help="w_perf,w_throughput,w_memory (default 0.5,0.25,0.25)"),
    "--max-memory": dict(type=float, default=records.DEFAULT_MAX_MEMORY_GB, help="memory ceiling in GB (default 16)"),
    "--out": dict(role="output", required=True, help="efficiency CSV output path"),
    "--amrs-out": dict(role="output", help="optional output CSV of the substitution rates used"),
}


def run(args) -> tuple[dict[str, str], str]:
    from langdei import efficiency

    goods = efficiency.GoodsTable.read_csv(args.goods)
    if not goods.model:
        raise InputError(f"{args.goods}: no goods rows")
    config = efficiency.EfficiencyConfig(args.max_memory, *args.weights)
    try:
        saved = efficiency.memory_saved(goods, config)
        table = efficiency.load_amrs(args.amrs_override) if args.amrs_override else efficiency.compute_amrs_table(goods, saved)
        scores = efficiency.efficiency_score(goods, saved, table, config)
    except LangDeiError as exc:
        raise io._locate_row(exc, args.goods, efficiency._GOODS_HEADER) from None
    outputs = {args.out: efficiency.render_efficiency(goods, saved, scores)}
    if args.amrs_out:
        outputs[args.amrs_out] = efficiency.render_amrs(table)
    return outputs, f"efficiency: scored {len(scores)} models -> {args.out}"
