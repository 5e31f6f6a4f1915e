"""Exception types shared by every racekit module."""


class RaceError(Exception):
    """Base class for all racekit errors."""


class InvalidParameterError(RaceError, ValueError):
    """A constructor or operation argument is out of its valid domain."""


class DimensionMismatchError(RaceError, ValueError):
    """A point's dimension does not match the hash family's dimension."""


class ZeroVectorError(RaceError, ValueError):
    """An angle-based computation received a zero vector."""


class FrozenSketchError(RaceError):
    """Attempted to mutate or merge a privatized (released) sketch."""


class IncompatibleSketchError(RaceError):
    """Merge attempted across sketches with different descriptors."""


class DoubleReleaseError(RaceError):
    """A privacy budget was spent more than once."""


class InsufficientRowsError(RaceError):
    """Too few sketch rows for the requested median-of-means grouping."""


class OptimizerDivergenceError(RaceError):
    """Derivative-free search never reached a finite objective value."""


class SketchFormatError(RaceError):
    """A serialized sketch, or a JSON side file beside one (transform, manifest), is unreadable."""


class MalformedHeaderError(SketchFormatError):
    """Bad magic bytes or an undecodable header."""


class VersionMismatchError(SketchFormatError):
    """The serialized format version is not supported."""


class TruncationError(SketchFormatError):
    """The byte stream ended before the declared payload."""


class CsvError(RaceError, ValueError):
    """A CSV ingestion problem, located by 1-based row and column."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class NonFiniteValueError(CsvError):
    """A parsed cell was NaN or infinite."""


class RaggedRowError(CsvError):
    """A CSV row had a different number of fields than the first row."""
