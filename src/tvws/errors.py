"""Shared exception types, and the input-file reader that raises them."""

from __future__ import annotations


class ParseError(ValueError):
    """An input file or location string could not be parsed.

    Carries optional ``source`` (file name or description) and ``line``
    (1-based line number) so callers can report where the problem is.
    """

    def __init__(self, message: str, *, source: str | None = None, line: int | None = None):
        self.source = source
        self.line = line
        super().__init__(message)

    def __str__(self) -> str:
        prefix = ""
        if self.source is not None:
            prefix = self.source
        if self.line is not None:
            prefix = f"{prefix}:{self.line}" if prefix else f"line {self.line}"
        msg = super().__str__()
        return f"{prefix}: {msg}" if prefix else msg


def read_text(path: str) -> str:
    """An input file's text; a file that does not decode is a :class:`ParseError` naming it.

    One leading byte-order mark, which spreadsheet "CSV UTF-8" exports
    write, is dropped.  It is decoded first, so an error's byte offset
    counts from the file's first byte, the mark included.
    """
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not text: {exc.reason} at byte {exc.start}", source=path) from None
