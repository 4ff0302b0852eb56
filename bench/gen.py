"""Seeded input generators for the synthetic workloads.

Every generator draws from ``random.Random(seed)`` and writes text with
fixed formatting, so one seed always gives byte-identical input files on
any platform. Each returns the properties of what it wrote; the runner
records them with the result so a later change can cite shares of the
input (for example the share of clamped scores).
"""

from __future__ import annotations

import random
from pathlib import Path

# The bundled 23-language universe, in the order the program uses.
UNIVERSE = (
    "as", "bn", "brx", "doi", "en", "gu", "hi", "kn", "kok", "ks", "mai",
    "ml", "mni", "mr", "ne", "or", "pa", "sa", "sat", "sd", "ta", "te", "ur",
)
# Task maxima of the bundled tasks.csv; the generator needs them to decide
# which scores exceed the maximum.
TASK_MAX = {"ner": 97.6, "pos": 97.0, "nli": 92.8, "qa_xquad": 91.2, "qa_tydiqa": 90.1}

PERF_MODELS = 88
PERF_TRAIN_LANGS = ("bn", "en", "gu", "hi", "kn", "ml", "mr", "ta", "te", "ur")
CLAMP_SHARE = 0.01

GOODS_GROUPS = 500
GOODS_TASKS = ("ner", "pos", "nli", "qa")
GOODS_MODELS_PER_GROUP = 5

# The curve work is split into CURVE_PARTS files of about one second of work
# each: the calibration that converts times to reference seconds (run.py)
# tracks the machine's speed only over short invocations.
CURVE_PARTS = 4
FIT_SOURCES = 5  # per part
FIT_TARGETS = 25
FIT_SAMPLES = (50, 100, 200, 500, 1000, 2000, 5000, 10000)
FIT_SHORT_PAIRS = 3  # per part; fewer than 3 points: listed as rejects
FIT_CONSTANT_PAIRS = 3  # per part; all scores equal: the degenerate fit

GREEDY_BUDGET = 12_500  # per part


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def performance_table(rng: random.Random, path: Path) -> dict:
    """Scores for 5 tasks x 88 models x 10 training languages; each row tests
    a random 8-23 universe languages and about 1% of scores exceed the task
    maximum."""
    lines = ["task,model,train_lang,target_lang,score"]
    histogram: dict[int, int] = {}
    clamped = 0
    for task, maximum in TASK_MAX.items():
        for m in range(PERF_MODELS):
            for train in PERF_TRAIN_LANGS:
                k = rng.randint(8, len(UNIVERSE))
                histogram[k] = histogram.get(k, 0) + 1
                for lang in rng.sample(UNIVERSE, k):
                    if rng.random() < CLAMP_SHARE:
                        score = maximum + rng.uniform(0.01, 3.0)
                        clamped += 1
                    else:
                        score = rng.uniform(0.3, 0.99) * maximum
                    lines.append(f"{task},m{m:03d},{train},{lang},{score:.2f}")
    _write(path, lines)
    cells = len(lines) - 1
    return {
        "perf_rows": sum(histogram.values()),
        "perf_cells": cells,
        "tested_per_row_histogram": {str(k): histogram[k] for k in sorted(histogram)},
        "clamped_scores": clamped,
        "clamped_share": clamped / cells,
    }


def goods_table(rng: random.Random, path: Path) -> dict:
    """500 groups x 4 tasks, 5 models per group: 10k rows in 2k (group, task)
    groups. Performance is distinct within a group, so every substitution
    rate is defined."""
    lines = ["model,group,task,throughput,memory_gb,perf"]
    for g in range(GOODS_GROUPS):
        for task in GOODS_TASKS:
            perfs = rng.sample(range(300, 990), GOODS_MODELS_PER_GROUP)
            for m, perf in enumerate(perfs):
                lines.append(
                    f"g{g:03d}m{m},grp{g:03d},{task},{rng.uniform(1.0, 200.0):.1f},"
                    f"{rng.uniform(0.1, 15.9):.2f},{perf / 10:.1f}"
                )
    _write(path, lines)
    return {"goods_rows": len(lines) - 1, "goods_groups": GOODS_GROUPS * len(GOODS_TASKS)}


def trajectories(rng: random.Random, path: Path) -> dict:
    """Percent-scale trajectories drawn from a + b * x^(-c) plus noise, 8
    points per pair, plus short pairs (rejected) and constant pairs."""
    lines = ["source,target,samples,score"]

    def grid() -> list[int]:
        return [round(x * rng.uniform(0.9, 1.1)) for x in FIT_SAMPLES]

    for s in range(FIT_SOURCES):
        for t in range(FIT_TARGETS):
            a, b, c = rng.uniform(55, 90), rng.uniform(-400, -50), rng.uniform(0.2, 0.9)
            for x in grid():
                score = a + b * x ** (-c) + rng.gauss(0.0, 0.5)
                lines.append(f"s{s:02d},t{t:02d},{x},{score:.3f}")
    for i in range(FIT_SHORT_PAIRS):
        for x in grid()[:2]:
            lines.append(f"short{i:02d},t00,{x},{rng.uniform(20, 80):.3f}")
    for i in range(FIT_CONSTANT_PAIRS):
        score = rng.uniform(20, 80)
        for x in grid():
            lines.append(f"const{i:02d},t00,{x},{score:.3f}")
    _write(path, lines)
    fitted = FIT_SOURCES * FIT_TARGETS + FIT_CONSTANT_PAIRS
    return {
        "fit_pairs": fitted + FIT_SHORT_PAIRS,
        "fit_fitted_pairs": fitted,
        "fit_rejected_pairs": FIT_SHORT_PAIRS,
        "fit_constant_pairs": FIT_CONSTANT_PAIRS,
        "fit_points": len(lines) - 1,
    }


def registry(rng: random.Random, path: Path) -> dict:
    """A full 23 x 23 curve registry over the universe, unit scale."""
    lines = []
    for s in UNIVERSE:
        for t in UNIVERSE:
            a, c = rng.uniform(0.5, 0.95), rng.uniform(0.3, 0.6)
            # Predictions start negative at one sample and turn positive
            # before 1000, like the bundled registries.
            b = -rng.uniform(1.0, min(30.0, 0.8 * a * 1000**c))
            lines.append(f"curve source={s} target={t} a={a:.4g} b={b:.4g} c={c:.4g} r2={rng.uniform(0.8, 0.99):.3g}")
    _write(path, lines)
    return {"registry_sources": len(UNIVERSE), "registry_targets": len(UNIVERSE), "greedy_budget": GREEDY_BUDGET}


def scale_tables(seed: int, out: Path) -> dict:
    rng = random.Random(seed)
    props = performance_table(rng, out / "perf.csv")
    props.update(goods_table(rng, out / "goods.csv"))
    return props


def scale_curves(seed: int, out: Path) -> dict:
    """Writes trajectories_<k>.csv and registry_<k>.txt for each part k;
    returns the properties of one part (all parts have the same shape)."""
    rng = random.Random(seed)
    for k in range(CURVE_PARTS):
        props = trajectories(rng, out / f"trajectories_{k}.csv")
        props.update(registry(rng, out / f"registry_{k}.txt"))
    return {"parts": CURVE_PARTS, **props}
