"""File formats, bundled datasets, and canonical serialization.

Flat tables are CSV; nested records (curve registries, plans) are key=value
text. Input is read as UTF-8 with an optional byte-order mark. All output is
canonical: keys sorted, numbers at up to 12 significant digits, LF line
endings, trailing newline. Identical inputs always produce byte-identical
output.

A format that only one subcommand uses lives with it (``metrics.load_tasks``).
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence, TextIO

from langdei.errors import InputError
from langdei.records import AllocationPlan, LearningCurve, TraceStep

if TYPE_CHECKING:  # imported by the loaders when they run, not when io is
    from langdei.metrics import PerformanceTable, ScorecardRow
    from langdei.scalar import SpeakerTable

DATA_ROOT = Path(__file__).resolve().parent / "data"

SCALES = ("percent", "unit")


def bundled_path(name: str) -> Path:
    """Path of a dataset shipped with the package."""
    path = DATA_ROOT / name
    if not path.is_file():
        available = ", ".join(sorted(p.name for p in DATA_ROOT.iterdir()))
        raise InputError(f"no bundled dataset named {name!r}; available: {available}")
    return path


_NUMBER = ".12g"  # the format of every number written; "%.12g" in a %-template


def fmt_num(x: float) -> str:
    """Canonical number rendering: up to 12 significant digits; infinities
    render as ``inf``/``-inf``, and ``+ 0.0`` turns -0.0 into 0."""
    return format(float(x) + 0.0, _NUMBER)


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


def _skip_header(reader, path: str | Path, header: Sequence[str]) -> None:
    """Read the first row of ``reader`` that is not blank, which must be
    ``header`` (cells stripped); the reader's next row is the first data row."""
    lineno = 1
    for row in reader:
        if row:
            if [cell.strip() for cell in row] != list(header):
                raise InputError(f"{path}:{lineno}: expected header {','.join(header)!r}, got {','.join(row)!r}")
            return
        lineno = reader.line_num + 1
    raise InputError(f"{path}: empty file (expected header {','.join(header)})")


def _read_csv_rows(path: str | Path, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """The data rows of a CSV file that starts with ``header``, as (line
    number, stripped cells), yielded as they are read; blank lines are
    skipped. A row's number is the physical line it starts on (a quoted cell
    may span lines): one past the line the previous row ended on. A row the
    csv module cannot parse (such as a cell over its field size limit) is an
    InputError at the line where parsing stopped.

    The loaders of the large tables loop over ``csv.reader`` themselves and
    read a file again with this reader only to find the line of a fault."""
    width = len(header)
    with _open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            _skip_header(reader, path, header)
            lineno = reader.line_num + 1
            for row in reader:
                if row:
                    if len(row) != width:
                        raise InputError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
                    yield lineno, list(map(str.strip, row))
                lineno = reader.line_num + 1
        except csv.Error as exc:
            raise InputError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from None


def _row_at(path: str | Path, header: Sequence[str], index: int) -> tuple[str, list[str]]:
    """``file:line`` and stripped cells of data row ``index`` of a CSV file,
    found by reading the file again; a fault of the reader on the way raises
    as ``_read_csv_rows`` raises it."""
    lineno, cells = next(islice(_read_csv_rows(path, header), index, None))
    return f"{path}:{lineno}", cells


def _check_scale(scale: str) -> str:
    if scale not in SCALES:
        raise InputError(f"unknown scale {scale!r}; expected one of {SCALES}")
    return scale


def load_speakers(path: str | Path) -> SpeakerTable:
    """CSV with header ``lang,speakers_millions``."""
    from langdei.scalar import SpeakerTable

    entries: dict[str, float] = {}
    for lineno, (lang, count_text) in _read_csv_rows(path, ("lang", "speakers_millions")):
        where = f"{path}:{lineno}"
        if lang in entries:
            raise InputError(f"{where}: duplicate language {lang!r}")
        count = _parse_float(count_text, where)
        _located(where, SpeakerTable.check_entry, lang, count)
        entries[lang] = count
    return SpeakerTable(entries)


def load_performance(path: str | Path, scale: str = "percent") -> PerformanceTable:
    """CSV with header ``task,model,train_lang,target_lang,score``, on the
    score scale ``scale``; read by ``PerformanceTable.read_csv``."""
    from langdei.metrics import PerformanceTable

    return PerformanceTable.read_csv(path, scale)


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


def render_trace(trace: Sequence[TraceStep]) -> str:
    lines = ["step,source,marginal_gain,gm,gini"]
    for t in trace:
        lines.append("%d,%s,%.12g,%.12g,%.12g" % (t.step, t.source, t.marginal_gain + 0.0, t.gm + 0.0, t.gini + 0.0))
    return "\n".join(lines) + "\n"


_TRACE_HEADER = ("step", "source", "marginal_gain", "gm", "gini")


def load_trace(path: str | Path) -> tuple[TraceStep, ...]:
    """The steps of a trace file; a fault is reported at its ``file:line``."""
    steps = []
    for lineno, (step, source, gain, gm, g) in _read_csv_rows(path, _TRACE_HEADER):
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
        steps.append(TraceStep(*row))
    return tuple(steps)


def render_lorenz(rows: Sequence[ScorecardRow]) -> str:
    """The Lorenz points of each scorecard row's utilities, in row order:
    point k of a row of n utilities is (k/n, the share of the row's total
    held by its k smallest utilities), for k = 0..n. The utilities are those
    ``dei_scorecard`` builds, finite and >= 0, so each row's running sums
    (``metrics.lorenz_sums``) are not checked again. Each row's
    ``task,model,train_lang,`` prefix is formatted once, and each row by one
    ``%`` template per row length, which holds each distinct k/n; the prefix
    is an argument of it, so a ``%`` in an id stays text."""
    from langdei.metrics import lorenz_sums

    templates: dict[int, str] = {}
    blocks = []
    for row in rows:
        sums = lorenz_sums(row.utilities)
        n, total = len(sums), sums[-1]
        if n not in templates:
            templates[n] = "\n".join(f"%s{fmt_num(k / n)},%.12g" for k in range(n + 1))
        args = [f"{row.task},{row.model},{row.train_lang},"] * (2 * n + 2)
        args[1::2] = [y / total + 0.0 for y in [0.0, *sums]]
        blocks.append(templates[n] % tuple(args))
    return "\n".join(["task,model,train_lang,population_fraction,cumulative_share", *blocks]) + "\n"


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def sha256_of(path: str | Path) -> str:
    import hashlib

    return hashlib.sha256(_check_file(path).read_bytes()).hexdigest()
