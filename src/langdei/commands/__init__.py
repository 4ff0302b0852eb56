"""The subcommands of ``langdei.cli``, one module each: ``HELP``,
``add_arguments(parser)`` and ``run(args)``, which returns ``({path: text},
summary line)`` for ``cli.main`` to write; and what two of them share."""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from langdei import io, records
from langdei.errors import InputError

if TYPE_CHECKING:  # imported by speaker_table when it runs
    from langdei.scalar import SpeakerTable


def parse_tau(text: str) -> float:
    """The argument type of ``--tau``."""
    try:
        return records.check_tau(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def speaker_table(args: argparse.Namespace) -> SpeakerTable:
    """The speaker counts of ``--speakers``, which ``--tau`` > 0 needs."""
    from langdei.scalar import SpeakerTable

    if args.speakers:
        return io.load_speakers(args.speakers)
    if args.tau > 0:
        raise InputError("--tau > 0 needs speaker counts; pass --speakers FILE")
    return SpeakerTable({})
