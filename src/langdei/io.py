"""File formats, bundled datasets, and canonical serialization.

Flat tables are CSV; nested records (curve registries, plans) are key=value
text. Input is read as UTF-8 with an optional byte-order mark. All output is
canonical: keys sorted, numbers at up to 12 significant digits, LF line
endings, trailing newline. Identical inputs always produce byte-identical
output.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TextIO

from langdei.allocator import AllocationPlan, PlanEvaluation, TraceStep
from langdei.curves import LearningCurve, TrajectoryPoint
from langdei.efficiency import AmrsTable, EfficiencyConfig, ModelGoods, memory_saved
from langdei.errors import InputError, check_id
from langdei.metrics import PerformanceTable, ScorecardRow, SpeakerTable, TaskSpec

DATA_ROOT = Path(__file__).resolve().parent / "data"

SCALES = ("percent", "unit")


def bundled_path(name: str) -> Path:
    """Path of a dataset shipped with the package."""
    path = DATA_ROOT / name
    if not path.is_file():
        available = ", ".join(sorted(p.name for p in DATA_ROOT.iterdir()))
        raise InputError(f"no bundled dataset named {name!r}; available: {available}")
    return path


def fmt_num(x: float) -> str:
    """Canonical number rendering: up to 12 significant digits."""
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0:
        x = abs(x)  # avoid "-0"
    return format(float(x), ".12g")


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"{where}: malformed number {text!r}") from None
    if math.isnan(value):
        raise InputError(f"{where}: number must not be NaN")
    return value


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{where}: malformed integer {text!r}") from None


def _located(where: str, make, *args):
    """``make(*args)``, with any InputError it raises prefixed by ``where``."""
    try:
        return make(*args)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def _check_file(path: str | Path) -> Path:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"input file not found: {path}")
    return path


@contextmanager
def _open_utf8(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """The file opened as UTF-8 text, an optional BOM skipped; bytes that do
    not decode are an InputError, like any other malformed input."""
    try:
        with open(_check_file(path), newline=newline, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 ({exc.reason})") from None


def read_text(path: str | Path) -> str:
    """A whole input file as text, read as every input is."""
    with _open_utf8(path) as fh:
        return fh.read()


def _read_lines(path: str | Path) -> list[str]:
    return read_text(path).splitlines()


def _read_csv_rows(path: str | Path, header: Sequence[str]) -> list[tuple[int, list[str]]]:
    with _open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    if not rows:
        raise InputError(f"{path}: empty file (expected header {','.join(header)})")
    first_line, first = rows[0]
    if [cell.strip() for cell in first] != list(header):
        raise InputError(f"{path}:{first_line}: expected header {','.join(header)!r}, got {','.join(first)!r}")
    out = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise InputError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        out.append((lineno, [cell.strip() for cell in row]))
    return out


def _check_scale(scale: str) -> str:
    if scale not in SCALES:
        raise InputError(f"unknown scale {scale!r}; expected one of {SCALES}")
    return scale


# ---------------------------------------------------------------------------
# Flat-table loaders
# ---------------------------------------------------------------------------

def load_speakers(path: str | Path) -> SpeakerTable:
    """CSV with header ``lang,speakers_millions``."""
    entries: dict[str, float] = {}
    for lineno, (lang, count_text) in _read_csv_rows(path, ("lang", "speakers_millions")):
        where = f"{path}:{lineno}"
        if lang in entries:
            raise InputError(f"{where}: duplicate language {lang!r}")
        count = _parse_float(count_text, where)
        _located(where, SpeakerTable.check_entry, lang, count)
        entries[lang] = count
    return SpeakerTable(entries)


def load_tasks(path: str | Path) -> list[TaskSpec]:
    """CSV with header ``task,max_performance`` (percent scale)."""
    specs: dict[str, TaskSpec] = {}
    for lineno, (task, max_text) in _read_csv_rows(path, ("task", "max_performance")):
        where = f"{path}:{lineno}"
        if task in specs:
            raise InputError(f"{where}: duplicate task {task!r}")
        specs[task] = _located(where, TaskSpec, task, _parse_float(max_text, where))
    return list(specs.values())


def load_universe(path: str | Path) -> tuple[str, ...]:
    """Plain text, one language code per line; ``#`` comments allowed."""
    codes: list[str] = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        code = line.strip()
        if not code or code.startswith("#"):
            continue
        if code in codes:
            raise InputError(f"{path}:{lineno}: duplicate language {code!r}")
        codes.append(_located(f"{path}:{lineno}", check_id, code, "language code"))
    return tuple(codes)


def load_performance(path: str | Path, scale: str = "percent") -> PerformanceTable:
    """CSV with header ``task,model,train_lang,target_lang,score``.

    ``scale`` declares the score scale of the file; unit-scale scores are
    converted to percent, the internal raw-score convention.
    """
    _check_scale(scale)
    factor = 100.0 if scale == "unit" else 1.0
    scores: dict[tuple[str, str, str, str], float] = {}
    valid_ids: set[str] = set()  # each distinct id is checked once
    header = ("task", "model", "train_lang", "target_lang", "score")
    for lineno, (task, model, train, target, score_text) in _read_csv_rows(path, header):
        where = f"{path}:{lineno}"
        key = (task, model, train, target)
        if key in scores:
            raise InputError(f"{where}: duplicate row for {key}")
        if task not in valid_ids or model not in valid_ids or train not in valid_ids:
            for ident, what in ((task, "task id"), (model, "model id"), (train, "train language")):
                _located(where, check_id, ident, what)
            valid_ids.update((task, model, train))
        score = _parse_float(score_text, where) * factor
        if not math.isfinite(score) or score < 0:
            raise InputError(f"{where}: score must be finite and non-negative, got {score_text}")
        scores[key] = score
    return PerformanceTable(scores)


def load_trajectories(path: str | Path, scale: str = "percent") -> dict[tuple[str, str], list[TrajectoryPoint]]:
    """CSV with header ``source,target,samples,score``.

    Scores are normalized to the unit scale internally; sample counts must be
    strictly increasing within each pair.
    """
    _check_scale(scale)
    factor = 0.01 if scale == "percent" else 1.0
    pairs: dict[tuple[str, str], list[TrajectoryPoint]] = {}
    for lineno, (source, target, samples_text, score_text) in _read_csv_rows(
        path, ("source", "target", "samples", "score")
    ):
        where = f"{path}:{lineno}"
        point = _located(
            where, TrajectoryPoint, source, target,
            _parse_int(samples_text, where), _parse_float(score_text, where) * factor,
        )
        points = pairs.setdefault((source, target), [])
        if points and point.samples <= points[-1].samples:
            raise InputError(
                f"{where}: sample counts for pair ({source}, {target}) must be strictly increasing "
                f"({point.samples} after {points[-1].samples})"
            )
        points.append(point)
    return pairs


def load_goods(path: str | Path) -> list[ModelGoods]:
    """CSV with header ``model,group,task,throughput,memory_gb,perf``."""
    goods: list[ModelGoods] = []
    seen: set[tuple[str, str]] = set()
    header = ("model", "group", "task", "throughput", "memory_gb", "perf")
    for lineno, (model, group, task, tp_text, mem_text, perf_text) in _read_csv_rows(path, header):
        where = f"{path}:{lineno}"
        key = (model, task)
        if key in seen:
            raise InputError(f"{where}: duplicate goods row for model {model!r}, task {task!r}")
        seen.add(key)
        numbers = [_parse_float(text, where) for text in (tp_text, mem_text, perf_text)]
        goods.append(_located(where, ModelGoods, model, group, task, *numbers))
    return goods


def load_amrs(path: str | Path) -> AmrsTable:
    """CSV with header ``group,task,metric,amrs``; every rate must be positive."""
    entries: dict[tuple[str, str, str], float] = {}
    for lineno, (group, task, metric, value_text) in _read_csv_rows(path, ("group", "task", "metric", "amrs")):
        where = f"{path}:{lineno}"
        key = (group, task, metric)
        if key in entries:
            raise InputError(f"{where}: duplicate substitution rate for {key}")
        value = _parse_float(value_text, where)
        _located(where, AmrsTable.check_entry, key, value)
        entries[key] = value
    return AmrsTable(entries)


# ---------------------------------------------------------------------------
# Curve registry text format
# ---------------------------------------------------------------------------

def render_curves(registry: Mapping[tuple[str, str], LearningCurve], rejects: Sequence[tuple[str, str, str]] = ()) -> str:
    """Canonical text of a curve registry; rejected pairs become comments."""
    lines = []
    for source, target in sorted(registry):
        c = registry[(source, target)]
        lines.append(
            f"curve source={source} target={target} a={fmt_num(c.a)} b={fmt_num(c.b)} "
            f"c={fmt_num(c.c)} r2={fmt_num(c.r_squared)}"
        )
    for source, target, reason in sorted(rejects):
        lines.append(f"# reject source={source} target={target} reason={reason}")
    return "\n".join(lines) + "\n"


def _parse_kv_line(line: str, where: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for token in line.split()[1:]:
        if "=" not in token:
            raise InputError(f"{where}: expected key=value token, got {token!r}")
        key, value = token.split("=", 1)
        if key in fields:
            raise InputError(f"{where}: duplicate key {key!r}")
        fields[key] = value
    return fields


def _require(fields: Mapping[str, str], keys: Sequence[str], where: str) -> None:
    missing = [k for k in keys if k not in fields]
    if missing:
        raise InputError(f"{where}: missing fields: {', '.join(missing)}")


def load_curve_registry(path: str | Path) -> dict[tuple[str, str], LearningCurve]:
    """Parse a curve registry file; duplicate pairs are rejected."""
    registry: dict[tuple[str, str], LearningCurve] = {}
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        where = f"{path}:{lineno}"
        if not line or line.startswith("#"):
            continue
        if not line.startswith("curve "):
            raise InputError(f"{where}: expected a 'curve' record, got {line!r}")
        fields = _parse_kv_line(line, where)
        _require(fields, ("source", "target", "a", "b", "c", "r2"), where)
        key = (fields["source"], fields["target"])
        if key in registry:
            raise InputError(f"{where}: duplicate curve for pair {key}")
        numbers = [_parse_float(fields[k], where) for k in ("a", "b", "c", "r2")]
        registry[key] = _located(where, LearningCurve, *key, *numbers)
    return registry


# ---------------------------------------------------------------------------
# Plan and trace formats
# ---------------------------------------------------------------------------

def render_plan(plan: AllocationPlan) -> str:
    lines = [
        f"plan strategy={plan.strategy} budget={plan.budget} alpha={fmt_num(plan.alpha)} "
        f"beta={fmt_num(plan.beta)} missing={plan.missing}"
    ]
    for source in sorted(plan.counts):
        line = f"alloc source={source} samples={plan.counts[source]}"
        if source in plan.final_gm:
            line += f" gm={fmt_num(plan.final_gm[source])} gini={fmt_num(plan.final_gini[source])}"
        lines.append(line)
    ev = plan.evaluation
    if ev is not None:
        lines.append(
            f"eval mode={ev.mode} clamp={'true' if ev.clamped else 'false'} "
            f"m={fmt_num(ev.m_tau)} gini={fmt_num(ev.gini_coeff)} surrogate=true"
        )
        for target in sorted(ev.utilities):
            lines.append(f"pred target={target} utility={fmt_num(ev.utilities[target])}")
    return "\n".join(lines) + "\n"


def load_plan(path: str | Path) -> AllocationPlan:
    """Parse a plan file. The step trace lives in its own CSV, not here."""
    header: dict[str, str] | None = None
    counts: dict[str, int] = {}
    final_gm: dict[str, float] = {}
    final_gini: dict[str, float] = {}
    eval_fields: dict[str, str] | None = None
    utilities: dict[str, float] = {}
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        where = f"{path}:{lineno}"
        if not line or line.startswith("#"):
            continue
        kind = line.split(None, 1)[0]
        fields = _parse_kv_line(line, where)
        if kind == "plan":
            if header is not None:
                raise InputError(f"{where}: duplicate plan header")
            _require(fields, ("strategy", "budget", "alpha", "beta", "missing"), where)
            header = fields
        elif kind == "alloc":
            _require(fields, ("source", "samples"), where)
            source = fields["source"]
            if source in counts:
                raise InputError(f"{where}: duplicate alloc line for source {source!r}")
            counts[source] = _parse_int(fields["samples"], where)
            if "gm" in fields:
                _require(fields, ("gm", "gini"), where)
                final_gm[source] = _parse_float(fields["gm"], where)
                final_gini[source] = _parse_float(fields["gini"], where)
        elif kind == "eval":
            if eval_fields is not None:
                raise InputError(f"{where}: duplicate eval line")
            _require(fields, ("mode", "clamp", "m", "gini"), where)
            eval_fields = fields
        elif kind == "pred":
            _require(fields, ("target", "utility"), where)
            if eval_fields is None:
                raise InputError(f"{where}: pred line before eval line")
            utilities[fields["target"]] = _parse_float(fields["utility"], where)
        else:
            raise InputError(f"{where}: unknown record kind {kind!r}")
    if header is None:
        raise InputError(f"{path}: missing plan header")
    if not counts:
        raise InputError(f"{path}: plan has no alloc lines")
    evaluation = None
    if eval_fields is not None:
        evaluation = PlanEvaluation(
            mode=eval_fields["mode"],
            utilities=utilities,
            m_tau=_parse_float(eval_fields["m"], f"{path}: eval"),
            gini_coeff=_parse_float(eval_fields["gini"], f"{path}: eval"),
            clamped=eval_fields["clamp"] == "true",
        )
    return AllocationPlan(
        strategy=header["strategy"],
        budget=_parse_int(header["budget"], f"{path}: plan"),
        counts=counts,
        final_gm=final_gm,
        final_gini=final_gini,
        alpha=_parse_float(header["alpha"], f"{path}: plan"),
        beta=_parse_float(header["beta"], f"{path}: plan"),
        missing=header["missing"],
        evaluation=evaluation,
    )


def render_trace(trace: Sequence[TraceStep]) -> str:
    lines = ["step,source,marginal_gain,gm,gini"]
    for t in trace:
        lines.append(f"{t.step},{t.source},{fmt_num(t.marginal_gain)},{fmt_num(t.gm)},{fmt_num(t.gini)}")
    return "\n".join(lines) + "\n"


def load_trace(path: str | Path) -> tuple[TraceStep, ...]:
    steps = []
    for lineno, (step, source, gain, gm, g) in _read_csv_rows(
        path, ("step", "source", "marginal_gain", "gm", "gini")
    ):
        where = f"{path}:{lineno}"
        steps.append(
            TraceStep(
                step=_parse_int(step, where),
                source=source,
                marginal_gain=_parse_float(gain, where),
                gm=_parse_float(gm, where),
                gini=_parse_float(g, where),
            )
        )
    return tuple(steps)


# ---------------------------------------------------------------------------
# Report-style CSV renderers
# ---------------------------------------------------------------------------

def render_scorecard(rows: Sequence[ScorecardRow], scale: str = "percent") -> str:
    _check_scale(scale)
    factor = 100.0 if scale == "percent" else 1.0
    lines = ["task,model,train_lang,m_tau,gini,tested,universe"]
    for r in rows:
        lines.append(
            f"{r.task},{r.model},{r.train_lang},{fmt_num(r.m_tau * factor)},"
            f"{fmt_num(r.gini_coeff)},{r.tested},{r.universe_size}"
        )
    return "\n".join(lines) + "\n"


def render_lorenz(points_by_row: Mapping[tuple[str, str, str], Sequence[tuple[float, float]]]) -> str:
    lines = ["task,model,train_lang,population_fraction,cumulative_share"]
    for task, model, train in sorted(points_by_row):
        for x, y in points_by_row[(task, model, train)]:
            lines.append(f"{task},{model},{train},{fmt_num(x)},{fmt_num(y)}")
    return "\n".join(lines) + "\n"


def render_amrs(table: AmrsTable) -> str:
    lines = ["group,task,metric,amrs"]
    for group, task, metric in sorted(table.entries):
        lines.append(f"{group},{task},{metric},{fmt_num(table.entries[(group, task, metric)])}")
    return "\n".join(lines) + "\n"


def render_efficiency(
    rows: Sequence[tuple[ModelGoods, float]], config: EfficiencyConfig
) -> str:
    lines = ["task,model,group,perf,throughput,memory_saved,efficiency"]
    for goods, score in sorted(rows, key=lambda r: (r[0].task_id, r[0].model_id)):
        lines.append(
            f"{goods.task_id},{goods.model_id},{goods.group},{fmt_num(goods.performance)},"
            f"{fmt_num(goods.throughput)},{fmt_num(memory_saved(goods, config))},{fmt_num(score)}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Bundled datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceAllocation:
    """One published allocation row: counts per source under a budget."""

    metric: str
    budget: int
    model: str
    counts: Mapping[str, int]


def load_reference_allocations(path: str | Path) -> list[ReferenceAllocation]:
    header = ("metric", "budget", "model", "bn", "en", "hi", "ml", "mr", "ta", "ur")
    rows = []
    for lineno, cells in _read_csv_rows(path, header):
        where = f"{path}:{lineno}"
        metric, budget_text, model = cells[0], cells[1], cells[2]
        budget = _parse_int(budget_text, where)
        counts = {lang: _parse_int(cells[i + 3], where) for i, lang in enumerate(header[3:])}
        if sum(counts.values()) != budget:
            raise InputError(f"{where}: allocation sums to {sum(counts.values())}, expected budget {budget}")
        rows.append(ReferenceAllocation(metric, budget, model, counts))
    return rows


def load_reference_rows(path: str | Path, header: Sequence[str]) -> list[dict[str, str]]:
    """Generic loader for reference tables; empty cells mean 'not published'."""
    return [dict(zip(header, cells)) for _, cells in _read_csv_rows(path, header)]


@dataclass(frozen=True)
class DataBundle:
    speakers: SpeakerTable
    tasks: list[TaskSpec]
    goods: list[ModelGoods]
    curves: dict[str, dict[tuple[str, str], LearningCurve]]
    reference_allocations: list[ReferenceAllocation]
    reference_dei: list[dict[str, str]]
    reference_gini_tested: list[dict[str, str]]
    reference_budgets: list[dict[str, str]]
    printed_amrs: AmrsTable
    universe: tuple[str, ...]

    def validate(self) -> None:
        checks = [
            (len(self.speakers), 23, "speaker rows"),
            (len(self.tasks), 5, "task specs (two maxima for qa)"),
            (len(self.goods), 20, "model-goods rows"),
            (len(self.curves["muril"]), 69, "muril curves"),
            (len(self.curves["xlmr"]), 68, "xlmr curves"),
            (len(self.reference_allocations), 12, "reference allocation rows"),
            (len(self.printed_amrs.entries), 16, "printed substitution rates"),
            (len(self.universe), 23, "universe languages"),
        ]
        for actual, expected, what in checks:
            if actual != expected:
                raise InputError(f"bundled data corrupt: expected {expected} {what}, found {actual}")


def load_bundle() -> DataBundle:
    """Load and validate every dataset shipped with the package."""
    bundle = DataBundle(
        speakers=load_speakers(bundled_path("speakers.csv")),
        tasks=load_tasks(bundled_path("tasks.csv")),
        goods=load_goods(bundled_path("goods.csv")),
        curves={
            "muril": load_curve_registry(bundled_path("curves_muril.txt")),
            "xlmr": load_curve_registry(bundled_path("curves_xlmr.txt")),
        },
        reference_allocations=load_reference_allocations(bundled_path("allocations_reference.csv")),
        reference_dei=load_reference_rows(
            bundled_path("dei_baseline.csv"),
            ("task", "model", "train_lang", "baseline", "m_tau1", "m_tau0", "gini", "efficiency"),
        ),
        reference_gini_tested=load_reference_rows(
            bundled_path("gini_tested_only.csv"),
            ("train_lang", "model", "ner", "pos", "nli", "qa"),
        ),
        reference_budgets=load_reference_rows(
            bundled_path("budgets_reference.csv"),
            ("metric", "budget", "model", "english", "hindi", "egalitarian", "greedy"),
        ),
        printed_amrs=load_amrs(bundled_path("amrs_printed.csv")),
        universe=load_universe(bundled_path("universe_23.txt")),
    )
    bundle.validate()
    return bundle


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def sha256_of(path: str | Path) -> str:
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
