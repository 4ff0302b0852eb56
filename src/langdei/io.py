"""File formats, bundled datasets, and canonical serialization.

Flat tables are CSV; nested records (curve registries, plans) are key=value
text. Input is read as UTF-8 with an optional byte-order mark. All output is
canonical: keys sorted, numbers at up to 12 significant digits, LF line
endings, trailing newline. Identical inputs always produce byte-identical
output.

A format that only one subcommand uses lives with it (``metrics.load_tasks``);
a CSV header that two subcommands share (a writer and ``report``) lives here.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence, TextIO

from langdei.errors import InputError, LangDeiError, check_id
from langdei.records import AllocationPlan, LearningCurve

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


def _records(path: str | Path) -> Iterator[tuple[str, str]]:
    """(``file:line``, stripped line) for each line of a text file that is
    neither blank nor a ``#`` comment. A line ends at a newline (CR LF and CR
    read as one), as ``csv`` counts lines, not at a form feed or separator."""
    with _open_utf8(path) as fh:
        lines = fh.read().split("\n")
    for lineno, raw in enumerate(lines, start=1):
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


def _read_csv_rows(path: str | Path, header: Sequence[str]) -> Iterator[tuple[str, list[str]]]:
    """The data rows of a CSV file that starts with ``header``, as
    (``file:line``, stripped cells), yielded as they are read; blank lines
    are skipped. A row's line is the physical line it starts on (a quoted
    cell may span lines): one past the line the previous row ended on. A row
    the csv module cannot parse (such as a cell over its field size limit)
    is an InputError at the line where parsing stopped."""
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
                    yield f"{path}:{lineno}", list(map(str.strip, row))
                lineno = reader.line_num + 1
        except csv.Error as exc:
            raise InputError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from None


def _locate_row(exc: LangDeiError, path: str | Path, header: Sequence[str]) -> LangDeiError:
    """``exc`` as its class prefixed by the ``file:line`` of the first row of the CSV file ``path``
    with ``header`` whose cells named in ``exc.row`` equal it; ``exc`` if no row does, or it names none."""
    for where, row in _read_csv_rows(path, header) if exc.row else ():
        if all(row[header.index(name)] == cell for name, cell in exc.row.items()):
            return type(exc)(f"{where}: {exc}")
    return exc


def _read_table(path: str | Path, header: Sequence[str], fast, locate):
    """``fast(rows)`` over the data rows of a CSV file that starts with
    ``header``, for the readers of the large tables: the rows reach ``fast``
    as ``csv.reader`` parses them, blank ones dropped, their cells neither
    stripped nor counted. ``fast`` only builds its result, and stops at the
    first fault it meets: a row that is not the header's width fails its
    tuple unpack, a bad number its ``float``, a broken rule its check.

    On an ``InputError``, ``ValueError`` or ``csv.Error`` (a file that is
    missing, not UTF-8 or not CSV included) the file is read again, one row
    at a time: ``locate`` gets the rows of ``_read_csv_rows`` and must raise
    the first fault in file order at its ``file:line``. A ``locate`` that
    returns finds no fault where ``fast`` met one: an AssertionError."""
    try:
        with _open_utf8(path, newline="") as fh:
            reader = csv.reader(fh)
            _skip_header(reader, path, header)
            return fast(filter(None, reader))
    except (InputError, ValueError, csv.Error):
        pass
    locate(_read_csv_rows(path, header))
    raise AssertionError(f"{path}: no fault found again")


def _check_scale(scale: str) -> str:
    if scale not in SCALES:
        raise InputError(f"unknown scale {scale!r}; expected one of {SCALES}")
    return scale


def _unique_rows(rows, width: int, what: str) -> Iterator[tuple[str, Sequence[str]]]:
    """The (``file:line``, cells) ``rows``, passed through unchanged, until
    one repeats an earlier row's key, its first ``width`` cells (the cell
    itself when ``width`` is 1): ``{file:line}: duplicate {what} {key!r}``."""
    seen = set()
    for where, cells in rows:
        key = cells[0] if width == 1 else tuple(cells[:width])
        if key in seen:
            raise InputError(f"{where}: duplicate {what} {key!r}")
        seen.add(key)
        yield where, cells


def _read_numbers(path: str | Path, header: Sequence[str], what: str, check) -> dict:
    """{key: last cell's number} of a small CSV file's rows, in file order;
    the key is the one cell before the number, or the tuple of them. A
    row's fault, at its ``file:line``, is a repeated key (``_unique_rows``),
    then its number, then the rule ``check(key, number)``."""
    entries = {}
    for where, (*cells, text) in _unique_rows(_read_csv_rows(path, header), len(header) - 1, what):
        key = cells[0] if len(cells) == 1 else tuple(cells)
        entries[key] = _parse_float(text, where)
        _located(where, check, key, entries[key])
    return entries


def load_speakers(path: str | Path) -> SpeakerTable:
    """CSV with header ``lang,speakers_millions``."""
    from langdei.scalar import SpeakerTable

    return SpeakerTable(_read_numbers(path, ("lang", "speakers_millions"), "language", SpeakerTable.check_entry))


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
    """Parse a curve registry file; a repeated pair is rejected (``_unique_rows``)."""

    def records():
        for where, line in _records(path):
            if not line.startswith("curve "):
                raise InputError(f"{where}: expected a 'curve' record, got {line!r}")
            fields = _parse_kv_line(line, where)
            _require(fields, ("source", "target", "a", "b", "c", "r2"), where)
            yield where, (fields["source"], fields["target"], fields)

    registry: dict[tuple[str, str], LearningCurve] = {}
    for where, (source, target, fields) in _unique_rows(records(), 2, "curve for pair"):
        numbers = [_parse_float(fields[k], where) for k in ("a", "b", "c", "r2")]
        registry[source, target] = _located(where, LearningCurve, source, target, *numbers)
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


# The header of each CSV file that one subcommand writes and ``report`` reads.
_SCORECARD_HEADER = ("task", "model", "train_lang", "m_tau", "gini", "tested", "universe")
_LORENZ_HEADER = ("task", "model", "train_lang", "population_fraction", "cumulative_share")
_AMRS_HEADER = ("group", "task", "metric", "amrs")
_EFFICIENCY_HEADER = ("task", "model", "group", "perf", "throughput", "memory_saved", "efficiency")
_TRACE_HEADER = ("step", "source", "marginal_gain", "gm", "gini")  # the fields of a greedy trace row


def render_trace(trace: Sequence[tuple[int, str, float, float, float]]) -> str:
    lines = [",".join(_TRACE_HEADER)]
    for step, source, gain, gm, gini in trace:
        lines.append("%d,%s,%.12g,%.12g,%.12g" % (step, source, gain + 0.0, gm + 0.0, gini + 0.0))
    return "\n".join(lines) + "\n"


def load_trace(path: str | Path) -> tuple[tuple[int, str, float, float, float], ...]:
    """The rows of a trace file, read by ``_read_table``; a fault (a bad
    step, or one that is not its data row's number, as ``render_trace``
    writes them, an invalid source id, a malformed or NaN number, a row that
    is not 5 fields) is reported at its ``file:line``."""

    def fast(rows):
        built = []
        for i, (step, source, gain, gm, gini) in enumerate(rows, 1):
            a, b, c = float(gain), float(gm), float(gini)
            if a != a or b != b or c != c or int(step) != i:  # a NaN, or a step out of place
                raise ValueError
            built.append((i, source.strip(), a, b, c))
        for source in {row[1] for row in built}:
            check_id(source, "source language")
        return tuple(built)

    def locate(rows):
        for i, (where, (step, source, *numbers)) in enumerate(rows, 1):
            if _parse_int(step, where) != i:
                raise InputError(f"{where}: expected step {i}, got {step}")
            _located(where, check_id, source, "source language")
            for text in numbers:
                _parse_float(text, where)

    return _read_table(path, _TRACE_HEADER, fast, locate)


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
    return "\n".join([",".join(_LORENZ_HEADER), *blocks]) + "\n"


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def sha256_of(path: str | Path) -> str:
    import hashlib

    return hashlib.sha256(_check_file(path).read_bytes()).hexdigest()
