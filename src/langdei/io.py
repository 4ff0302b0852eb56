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
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence, TextIO

from langdei.efficiency import AmrsTable, EfficiencyConfig, ModelGoods, memory_saved
from langdei.errors import InputError, check_id
from langdei.records import (AllocationPlan, LearningCurve, PlanEvaluation, TraceStep, TrajectoryPoint,
                             check_plan_settings, parse_strategy)

if TYPE_CHECKING:  # metrics needs numpy: its loaders import it when they run
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
    """Canonical number rendering: up to 12 significant digits; infinities
    render as ``inf``/``-inf``, and ``+ 0.0`` turns -0.0 into 0."""
    return format(float(x) + 0.0, ".12g")


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


def _records(path: str | Path) -> Iterator[tuple[str, str]]:
    """(``file:line``, stripped line) for each line of a text file that is
    neither blank nor a ``#`` comment."""
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield f"{path}:{lineno}", line


def _read_csv_rows(path: str | Path, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """The data rows of a CSV file that starts with ``header``, as (line
    number, stripped cells), yielded as they are read; blank lines are
    skipped. A row's number is the physical line it starts on (a quoted cell
    may span lines), read by zip from line_num before the reader moves on.
    A row the csv module cannot parse (such as a cell over its field size
    limit) is an InputError at the line where parsing stopped."""
    with _open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = ((lineno, row) for lineno, row in zip(iter(lambda: reader.line_num + 1, 0), reader) if row)
        try:
            first_line, first = next(rows, (0, None))
            if first is None:
                raise InputError(f"{path}: empty file (expected header {','.join(header)})")
            if [cell.strip() for cell in first] != list(header):
                raise InputError(f"{path}:{first_line}: expected header {','.join(header)!r}, got {','.join(first)!r}")
            width = len(header)
            for lineno, row in rows:
                if len(row) != width:
                    raise InputError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
                yield lineno, list(map(str.strip, row))
        except csv.Error as exc:
            raise InputError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from None


def _check_scale(scale: str) -> str:
    if scale not in SCALES:
        raise InputError(f"unknown scale {scale!r}; expected one of {SCALES}")
    return scale


# ---------------------------------------------------------------------------
# Flat-table loaders
# ---------------------------------------------------------------------------

def load_speakers(path: str | Path) -> SpeakerTable:
    """CSV with header ``lang,speakers_millions``."""
    from langdei.metrics import SpeakerTable

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
    from langdei.metrics import TaskSpec

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
    for where, code in _records(path):
        if code in codes:
            raise InputError(f"{where}: duplicate language {code!r}")
        codes.append(_located(where, check_id, code, "language code"))
    return tuple(codes)


def load_performance(path: str | Path, scale: str = "percent") -> PerformanceTable:
    """CSV with header ``task,model,train_lang,target_lang,score``.

    ``scale`` declares the score scale of the file; unit-scale scores are
    converted to percent, the internal raw-score convention.
    """
    from langdei.metrics import PerformanceTable

    _check_scale(scale)
    factor = 100.0 if scale == "unit" else 1.0
    scores: dict[tuple[str, str, str, str], float] = {}
    valid_ids: set[str] = set()  # each distinct id is checked once
    header = ("task", "model", "train_lang", "target_lang", "score")
    # The file:line prefix is formatted only on the error paths.
    for lineno, (task, model, train, target, score_text) in _read_csv_rows(path, header):
        key = (task, model, train, target)
        if key in scores:
            raise InputError(f"{path}:{lineno}: duplicate row for {key}")
        if task not in valid_ids or model not in valid_ids or train not in valid_ids:
            for ident, what in ((task, "task id"), (model, "model id"), (train, "train language")):
                _located(f"{path}:{lineno}", check_id, ident, what)
            valid_ids.update((task, model, train))
        try:
            score = float(score_text) * factor
        except ValueError:
            score = math.nan
        if not 0.0 <= score < math.inf:  # also false for NaN
            _parse_float(score_text, f"{path}:{lineno}")  # raises if malformed or NaN
            raise InputError(f"{path}:{lineno}: score must be finite and non-negative, got {score_text}")
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
    for where, line in _records(path):
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
    lines.append(f"eval mode={ev.mode} clamp=false m={fmt_num(ev.m_tau)} gini={fmt_num(ev.gini_coeff)} surrogate=true")
    for target in sorted(ev.utilities):
        lines.append(f"pred target={target} utility={fmt_num(ev.utilities[target])}")
    return "\n".join(lines) + "\n"


def load_plan(path: str | Path) -> AllocationPlan:
    """Parse a plan file, which must hold a plan that allocate could write:
    settings that pass the request's rule, a known strategy (a single source
    among the alloc lines), an eval line, sample counts >= 0 that sum to the
    budget, and gm and gini on exactly the funded sources. The step trace
    lives in its own CSV."""
    header: dict[str, str] | None = None
    counts: dict[str, int] = {}
    final_gm: dict[str, float] = {}
    final_gini: dict[str, float] = {}
    eval_fields: dict[str, str] | None = None
    utilities: dict[str, float] = {}
    for where, line in _records(path):
        kind = line.split(None, 1)[0]
        fields = _parse_kv_line(line, where)
        if kind == "plan":
            if header is not None:
                raise InputError(f"{where}: duplicate plan header")
            _require(fields, ("strategy", "budget", "alpha", "beta", "missing"), where)
            header = fields
        elif kind == "alloc":
            _require(fields, ("source", "samples"), where)
            source = _located(where, check_id, fields["source"], "source language")
            if source in counts:
                raise InputError(f"{where}: duplicate alloc line for source {source!r}")
            counts[source] = _parse_int(fields["samples"], where)
            if counts[source] < 0:
                raise InputError(f"{where}: sample count must be >= 0, got {counts[source]}")
            if counts[source] > 0:
                _require(fields, ("gm", "gini"), where)
                final_gm[source] = _parse_float(fields["gm"], where)
                final_gini[source] = _parse_float(fields["gini"], where)
            elif fields.keys() & {"gm", "gini"}:
                raise InputError(f"{where}: source {source!r} has no samples, so no gm or gini")
        elif kind == "eval":
            if eval_fields is not None:
                raise InputError(f"{where}: duplicate eval line")
            _require(fields, ("mode", "clamp", "m", "gini"), where)
            if fields["clamp"] != "false":
                raise InputError(f"{where}: expected clamp=false, got clamp={fields['clamp']}")
            eval_fields = fields
        elif kind == "pred":
            _require(fields, ("target", "utility"), where)
            if eval_fields is None:
                raise InputError(f"{where}: pred line before eval line")
            target = _located(where, check_id, fields["target"], "target language")
            if target in utilities:
                raise InputError(f"{where}: duplicate pred line for target {target!r}")
            utilities[target] = _parse_float(fields["utility"], where)
        else:
            raise InputError(f"{where}: unknown record kind {kind!r}")
    if header is None:
        raise InputError(f"{path}: missing plan header")
    if eval_fields is None:
        raise InputError(f"{path}: plan has no eval line")
    plan = AllocationPlan(
        strategy=header["strategy"],
        budget=_parse_int(header["budget"], f"{path}: plan"),
        counts=counts,
        final_gm=final_gm,
        final_gini=final_gini,
        alpha=_parse_float(header["alpha"], f"{path}: plan"),
        beta=_parse_float(header["beta"], f"{path}: plan"),
        missing=header["missing"],
        evaluation=PlanEvaluation(
            mode=eval_fields["mode"],
            utilities=utilities,
            m_tau=_parse_float(eval_fields["m"], f"{path}: eval"),
            gini_coeff=_parse_float(eval_fields["gini"], f"{path}: eval"),
        ),
    )
    _located(str(path), check_plan_settings, plan.budget, plan.alpha, plan.beta, plan.missing, plan.evaluation.mode)
    single = _located(str(path), parse_strategy, plan.strategy)[1]
    if single is not None and single not in counts:
        raise InputError(f"{path}: strategy {plan.strategy} names a source without an alloc line")
    if sum(counts.values()) != plan.budget:
        raise InputError(f"{path}: alloc samples sum to {sum(counts.values())}, not the budget {plan.budget}")
    return plan


def render_trace(trace: Sequence[TraceStep]) -> str:
    lines = ["step,source,marginal_gain,gm,gini"]
    for t in trace:
        lines.append(f"{t.step},{t.source},{fmt_num(t.marginal_gain)},{fmt_num(t.gm)},{fmt_num(t.gini)}")
    return "\n".join(lines) + "\n"


def _trace_rows(path: str | Path) -> Iterator[tuple[int, str, float, float, float]]:
    """The checked fields of each trace row, yielded as they are read."""
    for lineno, (step, source, gain, gm, g) in _read_csv_rows(
        path, ("step", "source", "marginal_gain", "gm", "gini")
    ):
        # The file:line prefix is formatted only when a plain conversion
        # fails or the sum is NaN (for a NaN field, or for inf - inf, which
        # the checked conversions then accept).
        try:
            row = (int(step), source, float(gain), float(gm), float(g))
        except ValueError:
            row = None
        if row is None or math.isnan(row[2] + row[3] + row[4]):
            where = f"{path}:{lineno}"
            row = (_parse_int(step, where), source, _parse_float(gain, where), _parse_float(gm, where),
                   _parse_float(g, where))
        yield row


def load_trace(path: str | Path) -> tuple[TraceStep, ...]:
    return tuple(TraceStep(*row) for row in _trace_rows(path))


def count_trace(path: str | Path) -> int:
    """The number of rows of a trace file, each checked but none kept."""
    return sum(1 for _ in _trace_rows(path))


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
    x_text: dict[float, str] = {}  # rows of one length share their k/n column
    for task, model, train in sorted(points_by_row):
        for x, y in points_by_row[(task, model, train)]:
            if x not in x_text:
                x_text[x] = fmt_num(x)
            lines.append(f"{task},{model},{train},{x_text[x]},{fmt_num(y)}")
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


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def sha256_of(path: str | Path) -> str:
    import hashlib

    return hashlib.sha256(_check_file(path).read_bytes()).hexdigest()
