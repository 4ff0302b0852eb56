"""Summarise one result set, or compare two.

    python3 bench/compare.py RESULTS_DIR              # medians and quartiles
    python3 bench/compare.py PARENT_DIR CHANGE_DIR    # plus win share and verdict

A result set is a directory of the JSON records run.py writes to
``.bench_out/results``. Records are grouped by workload and trace mode; two
sets are paired by seed. For each metric the tool prints the median, the
quartiles and the spread (interquartile distance over the median). When
comparing, it also prints the change of the median, the share of seed pairs
the change wins (ties count for neither) and a verdict:

- ``regression``: the median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- ``unresolved``: within the bound, but the parent's own spread exceeds it
  and not every change run beats every parent run;
- ``gain``: the change wins at least 9 of 10 pairs and the medians differ by
  more than the parent's interquartile distance;
- ``within bound`` otherwise. Metrics without a bound get no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict[tuple[str, int], dict[int, dict[str, tuple[float, str]]]]:
    """(workload, trace) -> seed -> metric -> (value, unit)."""
    sets: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        metrics = {k: (v["value"], v["unit"]) for k, v in record["result"]["metrics"].items()}
        metrics.update({k: tuple(v) for k, v in record.get("throughput", {}).items()})
        metrics["error_rate"] = (record["error_rate"], "ratio")
        sets.setdefault((record["workload"], record["trace"]), {})[record["seed"]] = metrics
    return sets


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spec() -> dict[str, dict]:
    bench = json.loads(BENCHMARK.read_text())
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def verdict(a: list[float], b: list[float], wins: float, lower: bool, bound: float | None) -> str:
    q1, med_a, q3 = quartiles(a)
    if bound is None or med_a == 0:
        return ""
    med_b = statistics.median(b)
    worse = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
    if worse > bound:
        return "regression"
    if wins >= 0.9 and abs(med_b - med_a) > q3 - q1:
        return "gain"
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    if (q3 - q1) / med_a > bound and not all_better:
        return "unresolved"
    return "within bound"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    metrics_spec = spec()
    for key in sorted(sets[0]):
        workload, trace = key
        runs_a = sets[0][key]
        runs_b = sets[1].get(key, {}) if len(sets) == 2 else {}
        print(f"\n{workload} (trace {trace}): {len(runs_a)} runs" + (f" vs {len(runs_b)}" if runs_b else ""))
        names = sorted({name for m in runs_a.values() for name in m})
        for name in names:
            a = [m[name][0] for m in runs_a.values() if name in m]
            unit = next(m[name][1] for m in runs_a.values() if name in m)
            q1, med, q3 = quartiles(a)
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {name:34s} {med:>14.6g} {unit:7s} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.2%}"
            if runs_b:
                info = metrics_spec.get(name, {})
                # Metrics outside BENCHMARK.json are throughputs, and error_rate.
                lower = info.get("better", "lower" if name == "error_rate" else "higher") == "lower"
                pairs = [(runs_a[s][name][0], runs_b[s][name][0]) for s in runs_a if s in runs_b and name in runs_b[s]]
                b = [y for _, y in pairs]
                if not b:
                    continue
                wins = sum((y < x) if lower else (y > x) for x, y in pairs) / len(pairs)
                change = (statistics.median(b) - med) / med if med else 0.0
                line += (f" | change {statistics.median(b):<12.6g} {change:+7.2%} wins {wins:4.0%} "
                         f"{verdict(a, b, wins, lower, info.get('bound'))}")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
