"""Exception types shared across the package.

Each class maps onto one CLI exit code so failures stay scriptable:
bad parameters exit 2, invalid data 3, numerical trouble 4, I/O 5.
"""

from collections.abc import Iterator
from contextlib import contextmanager


class ArgumentError(ValueError):
    """A parameter value is outside its documented range."""


class ValidationError(ValueError):
    """Input data violates a documented invariant; ``row`` indexes the entry at fault, if known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ParseError(ValidationError):
    """A file row could not be parsed.

    Carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class CoverageError(ValidationError):
    """A word cannot be segmented because a required unit is missing."""


class NumericalError(ArithmeticError):
    """A numerical operation left its valid domain."""


class CorpusIOError(OSError):
    """Corpus input could not be read or decoded."""


@contextmanager
def rows_from_line(first_line: int) -> Iterator[None]:
    """Re-raise a ValidationError that names a ``row`` as a ParseError at its file line.

    ``first_line`` is the 1-based line of row 0.
    """
    try:
        yield
    except ValidationError as exc:
        if exc.row is None:
            raise
        raise ParseError(str(exc), first_line + exc.row) from None
