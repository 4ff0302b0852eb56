"""Exception types and the identifier rule shared across the toolkit."""

import re

# Characters that would split a CSV cell or a key=value token, or open a
# quoted CSV field, when an id is written back out.
_FORBIDDEN_IN_ID = re.compile(r'[\s,="]')


class LangDeiError(Exception):
    """Base class of this package's errors; ``row``: the cells, by column, of the input row at fault."""

    def __init__(self, message: str, row: dict[str, str] | None = None) -> None:
        super().__init__(message)
        self.row = row


class InputError(LangDeiError):
    """Invalid input data, file content, or configuration (CLI exit code 2)."""


class ComputationError(LangDeiError):
    """A metric or fit is mathematically undefined for the given values (CLI exit code 1)."""


def check_id(value: str, what: str) -> str:
    """Return ``value`` if it is a valid identifier (language code, task,
    model, group): non-empty, with no whitespace, ',', '=' or '"'."""
    if not value or _FORBIDDEN_IN_ID.search(value):
        raise InputError(f"invalid {what}: {value!r} (ids must be non-empty, without whitespace, ',', '=' or '\"')")
    return value
