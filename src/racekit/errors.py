"""Exception types shared by every racekit module.

Each class carries the exit code the ``racekit`` CLI returns for it as
``exit_code``, and subclasses inherit it:

- ``2`` usage or invalid parameters: :class:`RaceError` itself,
  :class:`InvalidParameterError`, :class:`InsufficientRowsError`,
  :class:`OptimizerDivergenceError`;
- ``3`` data and parse errors: :class:`CsvError` (non-UTF-8 bytes in a cell
  included), :class:`DimensionMismatchError`, :class:`ZeroVectorError`,
  :class:`SketchFormatError`; the CLI also returns 3 for an ``OSError``;
- ``4`` contract violations: :class:`FrozenSketchError`,
  :class:`IncompatibleSketchError`, :class:`DoubleReleaseError` (a budget
  file that is not a JSON object counts as spent).
"""


class RaceError(Exception):
    """Base class for all racekit errors."""

    exit_code = 2


class InvalidParameterError(RaceError, ValueError):
    """A constructor or operation argument is out of its valid domain."""


class DimensionMismatchError(RaceError, ValueError):
    """A point's dimension does not match the hash family's dimension."""

    exit_code = 3


class ZeroVectorError(RaceError, ValueError):
    """An angle-based computation received a zero vector."""

    exit_code = 3


class FrozenSketchError(RaceError):
    """Attempted to mutate or merge a privatized (released) sketch."""

    exit_code = 4


class IncompatibleSketchError(RaceError):
    """Merge attempted across sketches with different descriptors."""

    exit_code = 4


class DoubleReleaseError(RaceError):
    """A privacy budget was spent more than once."""

    exit_code = 4


class InsufficientRowsError(RaceError):
    """Too few sketch rows for the requested median-of-means grouping."""


class OptimizerDivergenceError(RaceError):
    """Derivative-free search never reached a finite objective value."""


class SketchFormatError(RaceError):
    """A serialized sketch, or a JSON side file beside one (transform, manifest), is unreadable."""

    exit_code = 3


class MalformedHeaderError(SketchFormatError):
    """Bad magic bytes or an undecodable header."""


class VersionMismatchError(SketchFormatError):
    """The serialized format version is not supported."""


class TruncationError(SketchFormatError):
    """The byte stream ended before the declared payload."""


class CsvError(RaceError, ValueError):
    """A CSV ingestion problem, located by 1-based row and column."""

    exit_code = 3

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class NonFiniteValueError(CsvError):
    """A parsed cell was NaN or infinite."""


class RaggedRowError(CsvError):
    """A CSV row had a different number of fields than the first row."""
