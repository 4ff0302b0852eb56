"""The subcommands of ``langdei.cli``, one module each: ``HELP``, ``OPTIONS``
(each ``--flag`` and its ``add_argument`` keywords, in order) and
``run(args)``, which returns ``({path: text}, summary line)`` for
``cli.main`` to write; and what two of them share."""

from __future__ import annotations

from typing import TYPE_CHECKING

from langdei import io, records
from langdei.errors import InputError

if TYPE_CHECKING:  # imported by speaker_table when it runs
    from langdei.scalar import SpeakerTable


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
