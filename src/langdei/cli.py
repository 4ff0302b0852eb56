"""Command-line front end.

Subcommands: metrics, efficiency, fit, allocate, report. Every run is
deterministic; outputs are computed fully before anything is written, so a
failing run leaves no new files behind. Exit codes: 0 success, 1 a metric was
mathematically undefined, 2 bad input or configuration. Each warning a run
raises is printed as one ``warning: <message>`` line on stderr.

Each subcommand is a module of ``langdei.commands`` that only its own runs
import, so that a run compiles only its own code.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Sequence

from langdei import io
from langdei.errors import ComputationError, InputError


def _write_outputs(outputs: dict[str, str]) -> None:
    # Called only after all computation succeeded. Stage every file under a
    # new name in its destination's directory (mkstemp never takes an
    # existing name, another output's included), then rename; a failed write
    # or rename removes every staged file left, and its error names the
    # output, not the staged file. mkstemp creates mode 0600, so each staged
    # file gets the mode a plain write would give.
    umask = os.umask(0)
    os.umask(umask)
    staged: list[tuple[str, str]] = []
    try:
        for path, text in outputs.items():
            final = Path(path)
            fd, temp = tempfile.mkstemp(prefix=final.name + ".", suffix=".tmp", dir=final.parent)
            staged.append((temp, path))
            os.fchmod(fd, 0o666 & ~umask)
            os.close(fd)
            io.write_text(temp, text)
        for temp, path in staged:
            os.replace(temp, path)
    except BaseException as exc:
        for temp, _ in staged:
            Path(temp).unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _check_distinct_outputs(args) -> None:
    """Two output flags naming one file would leave only the last write, an
    output naming an input would replace it, and an output naming a
    directory, or a file in a directory that does not exist, could not be
    written at all."""
    seen: dict[Path, str] = {}
    for dest in ("perf", "tasks", "speakers", "universe", "goods", "amrs_override", "trajectories",
                 "curves", "scorecard", "lorenz", "amrs", "efficiency", "plan", "trace"):
        value = getattr(args, dest, None)
        for path in value if isinstance(value, list) else [value] if value else []:
            seen.setdefault(Path(path).resolve(), "--" + dest.replace("_", "-"))
    for dest in ("out", "lorenz_out", "amrs_out", "trace_out"):
        value = getattr(args, dest, None)
        if not value:
            continue
        flag = "--" + dest.replace("_", "-")
        path = Path(value).resolve()
        if path.is_dir():
            raise InputError(f"{flag} names a directory: {value}")
        if not path.parent.is_dir():
            raise InputError(f"{flag} names a file in a directory that does not exist: {value}")
        if path in seen:
            raise InputError(f"{seen[path]} and {flag} name the same file: {value}")
        seen[path] = flag


SUBCOMMANDS = ("metrics", "efficiency", "fit", "allocate", "report")


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The parser of ``argv``: when ``argv`` starts with a subcommand's name,
    only that subcommand's module is imported and its arguments added, as
    argparse reads no other's; otherwise all five are (for ``--help``)."""
    parser = argparse.ArgumentParser(
        prog="langdei",
        description="Language-level diversity/equity/inclusion metrics and budget allocation.",
    )
    names = argv[:1] if argv and argv[0] in SUBCOMMANDS else SUBCOMMANDS
    # With one subcommand, the metavar makes an error's usage line name all five.
    metavar = "{" + ",".join(SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        # __import__, unlike importlib.import_module, is timed by -X importtime.
        command = __import__(f"langdei.commands.{name}", fromlist=["run"])
        p = sub.add_parser(name, help=command.HELP)
        command.add_arguments(p)
        p.set_defaults(func=command.run)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            _check_distinct_outputs(args)
            outputs, summary = args.func(args)
            _write_outputs(outputs)
            print(summary)
            return 0
        except (InputError, ComputationError, OSError) as exc:
            error = exc
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    print(f"error: {error}", file=sys.stderr)
    return 1 if isinstance(error, ComputationError) else 2


def run_process() -> None:
    """The process entry: exit with the status of ``main()``. The GC is
    frozen before the exit, a usage error's included: that moves every live
    object to the permanent generation, which the shutdown collections skip.
    atexit handlers, the flush of stdout and stderr and module teardown run
    as before. Only a process about to exit may freeze, so ``main`` never
    does."""
    try:
        raise SystemExit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run_process()
