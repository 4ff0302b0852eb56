"""The subcommands of ``langdei.cli``, one module each: ``HELP``, ``OPTIONS``
(each ``--flag`` and its ``add_argument`` keywords, in order, and a file flag's
``role``, input or output) and ``run(args)``, which returns ``({path: text},
summary line)`` for ``cli.main`` to write; and what two of them share."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from langdei import io, records
from langdei.errors import InputError

if TYPE_CHECKING:  # imported by speaker_table when it runs
    from langdei.scalar import SpeakerTable


def files(options: dict, args, role: str) -> Iterator[tuple[str, str]]:
    """(flag, path) of each path that ``args`` gives a flag of ``options``
    whose role is ``role``, in ``options`` order, then in the order given.
    An empty path names no file, so it is an error that names its flag."""
    for flag, spec in options.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if spec.get("role") == role and value is not None:
            for path in value if spec.get("action") == "append" else [value]:
                if not path:
                    raise InputError(f"{flag} names no file")
                yield flag, path


def usage_error(message: str) -> Exception:
    """The error an argument type raises for a malformed value: argparse's
    ``ArgumentTypeError``, which argparse prints as a usage error. Only a
    malformed value imports argparse here."""
    import argparse

    return argparse.ArgumentTypeError(message)


def parse_tau(text: str) -> float:
    """The argument type of ``--tau``."""
    try:
        return records.check_tau(float(text))
    except ValueError:
        raise usage_error(f"expected a number, got {text!r}") from None
    except InputError as exc:
        raise usage_error(str(exc)) from None


def speaker_table(args) -> SpeakerTable:
    """The speaker counts of ``--speakers``, which ``--tau`` > 0 needs."""
    from langdei.scalar import SpeakerTable

    if args.speakers:
        return io.load_speakers(args.speakers)
    if args.tau > 0:
        raise InputError("--tau > 0 needs speaker counts; pass --speakers FILE")
    return SpeakerTable({})
