"""Command-line front end.

Subcommands: metrics, efficiency, fit, allocate, report. Every run is
deterministic; outputs are computed fully before anything is written, so a
failing run leaves no new files behind. Exit codes: 0 success, 1 a metric was
mathematically undefined, 2 bad input or configuration. Each warning a run
raises is printed as one ``warning: <message>`` line on stderr.

Each subcommand is a module of ``langdei.commands`` that only its own runs
import, so that a run compiles only its own code. A plain argv (the
subcommand, then each of its flags spelt in full with its value) is parsed
from the subcommand's ``OPTIONS`` without argparse; anything else goes to
the argparse parser of all five subcommands, so that help and every usage
error come from one parser.
"""

from __future__ import annotations

import gc
import os
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

from langdei import io
from langdei.commands import files
from langdei.errors import ComputationError, InputError

if TYPE_CHECKING:  # imported by build_parser when it runs
    import argparse


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
    written at all; ``files`` rejects an empty path. A flag's role is its
    subcommand's ``OPTIONS`` entry's."""
    options = _command(args.command).OPTIONS
    seen: dict[Path, str] = {}
    for flag, path in files(options, args, "input"):
        seen.setdefault(Path(path).resolve(), flag)
    for flag, value in files(options, args, "output"):
        path = Path(value).resolve()
        if path.is_dir():
            raise InputError(f"{flag} names a directory: {value}")
        if not path.parent.is_dir():
            raise InputError(f"{flag} names a file in a directory that does not exist: {value}")
        if path in seen:
            raise InputError(f"{seen[path]} and {flag} name the same file: {value}")
        seen[path] = flag


SUBCOMMANDS = ("metrics", "efficiency", "fit", "allocate", "report")


def _command(name: str):
    # __import__, unlike importlib.import_module, is timed by -X importtime.
    return __import__(f"langdei.commands.{name}", fromlist=["run"])


def _fast_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse would parse from ``argv``, or None when argparse
    must parse it: help, and any argv but a subcommand's name and then its
    flags, each spelt in full and, unless a switch, followed by a value that
    does not start with ``-``, that its type accepts and that is among its
    choices, with every required flag given. The rules are argparse's: a
    repeated flag is typed each time and its last value kept, an ``append``
    flag collects its values, and an absent flag takes its default."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    command = _command(argv[0])
    given: dict[str, object] = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = command.OPTIONS.get(flag)
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = spec["type"](text) if "type" in spec else text
        except Exception:  # argparse, parsing again, reports it as a usage error or raises it
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        if spec.get("action") == "append":
            given.setdefault(flag, []).append(value)
        else:
            given[flag] = value
    args = SimpleNamespace(command=argv[0])
    for flag, spec in command.OPTIONS.items():
        if flag not in given and spec.get("required"):
            return None
        default = spec.get("default", False if spec.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, which prints help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="langdei",
        description="Language-level diversity/equity/inclusion metrics and budget allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        command = _command(name)
        p = sub.add_parser(name, help=command.HELP)
        for flag, spec in command.OPTIONS.items():
            p.add_argument(flag, **{key: value for key, value in spec.items() if key != "role"})
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_args(argv) or build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            _check_distinct_outputs(args)
            outputs, summary = _command(args.command).run(args)
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
