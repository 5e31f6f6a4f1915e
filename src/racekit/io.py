"""Dataset ingestion from CSV, and scaling transforms.

``load_csv`` parses the whole file with ``np.loadtxt``; a file numpy refuses,
or one with a non-finite value, is parsed again cell by cell by
``stream_csv``, which reads row-at-a-time with the stdlib reader and reports
the fault. ``stream_csv`` also lets arbitrarily long files be sketched without
materializing the matrix, as
``build((vec for _, vec in stream_csv(path)), family, rows)``. Values must be
finite decimal floats; parse problems, bytes that are not UTF-8 included, are
reported with 1-based (row, column) locations.

Hash kernels behave best on bounded inputs, so two scaling modes are
provided: ``sphere`` divides each row by its own L2 norm (rows of norm zero
are rejected), and ``cube`` min-max maps each feature into [0, 1] using the
training minima and maxima (a constant feature maps to 0.5;
``fit_regression`` follows with ``2t - 1``). The fitted transform is stored
with the dataset so later queries can be mapped with :func:`apply_transform`.
The CLI writes it as ``<output>.transform.json``; ``classify-predict`` reads
its model's own, and ``query`` the one given with ``--transform``.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CsvError,
    InvalidParameterError,
    NonFiniteValueError,
    RaggedRowError,
    ZeroVectorError,
)

_MODES = ("none", "sphere", "cube")


@dataclass(frozen=True, eq=False)
class Transform:
    """Fitted scaling parameters; ``mins``/``maxs`` are set for cube only.

    Compared by identity (``eq=False``): the bounds are ndarrays, and nothing
    compares two transforms.
    """

    mode: str = "none"
    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise InvalidParameterError(f"unknown scaling mode {self.mode!r}")


@dataclass
class Dataset:
    """Dense point matrix plus the transform its coordinates went through."""

    points: np.ndarray
    transform: Transform = field(default_factory=Transform)
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2:
            raise InvalidParameterError(
                f"points must be a 2-D matrix, got shape {self.points.shape}")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _parse_cell(cell: str, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise CsvError(f"row {row}, column {col}: not a number: {cell!r}",
                       row=row, column=col) from None
    if not math.isfinite(value):
        raise NonFiniteValueError(
            f"row {row}, column {col}: non-finite value {cell!r}", row=row, column=col)
    return value


def _open_text(path):
    """Open a CSV as UTF-8 text; a byte that is not UTF-8 reads as U+FFFD.

    The text layer decodes in blocks, so a strict decoder raises while the
    parse is still rows short of the bad byte; replacing the byte lets
    ``_parse_cell`` reject it at its own (row, column), and lets a skipped
    header hold any bytes.
    """
    return open(path, newline="", encoding="utf-8", errors="replace")


def stream_csv(path, *, header: bool = False, delimiter: str = ","):
    """Yield ``(line, row)`` pairs one row at a time; validates arity and finiteness."""
    with _open_text(path) as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        arity = None
        for i, raw in enumerate(reader, start=1):
            if header and i == 1:
                continue
            if not raw or (len(raw) == 1 and raw[0].strip() == ""):
                continue  # blank line
            if arity is None:
                arity = len(raw)
            elif len(raw) != arity:
                raise RaggedRowError(
                    f"row {i}: expected {arity} fields, got {len(raw)}", row=i)
            yield i, np.array([_parse_cell(c, i, j)
                               for j, c in enumerate(raw, start=1)])


def _loadtxt(path, header: bool, delimiter: str) -> np.ndarray | None:
    """Whole-file numpy parse; None unless it gives a non-empty, all-finite matrix.

    numpy accepts a subset of the files ``stream_csv`` accepts (it refuses
    quotes, empty fields, ragged rows, whitespace-only lines and ``1_0``) and
    parses each cell it accepts with the same correctly rounded decimal parser
    as ``float``, so a matrix it returns is the one ``stream_csv`` yields. On
    anything else the caller falls back to ``stream_csv``, which raises the
    error class and (row, column) of the fault.
    """
    with _open_text(path) as fh:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty file only warns
                matrix = np.loadtxt(fh, delimiter=delimiter, skiprows=int(header),
                                    comments=None, ndmin=2, dtype=np.float64)
        except (ValueError, TypeError, Warning):
            # TypeError: numpy refuses delimiters (such as "\n") that csv takes
            return None
    if matrix.size == 0 or not np.isfinite(matrix).all():
        return None
    return matrix


def load_csv(path, *, header: bool = False, delimiter: str = ",",
             label_column: int | None = None) -> Dataset:
    """Parse a CSV file into a Dataset.

    ``label_column`` (0-based; negative indices count from the end) splits
    one column off into ``Dataset.labels``.
    """
    matrix = _loadtxt(path, header, delimiter)
    if matrix is None:
        rows = [vec for _, vec in stream_csv(path, header=header, delimiter=delimiter)]
        if not rows:
            return Dataset(points=np.zeros((0, 0)))
        matrix = np.vstack(rows)
    labels = None
    if label_column is not None:
        ncol = matrix.shape[1]
        col = label_column if label_column >= 0 else ncol + label_column
        if not 0 <= col < ncol:
            raise InvalidParameterError(
                f"label column {label_column} out of range for {ncol} columns")
        labels = matrix[:, col].copy()
        matrix = np.delete(matrix, col, axis=1)
    return Dataset(points=matrix, labels=labels)


def scale(dataset: Dataset, mode: str) -> Dataset:
    """Return a scaled copy of the dataset with the fitted transform recorded."""
    if mode not in _MODES:
        raise InvalidParameterError(f"unknown scaling mode {mode!r}")
    if dataset.transform.mode != "none":
        raise InvalidParameterError(
            f"dataset is already scaled with {dataset.transform.mode!r}")
    if mode == "none":
        return Dataset(points=dataset.points.copy(), labels=dataset.labels)
    if mode == "sphere":
        norms = np.linalg.norm(dataset.points, axis=1)
        if np.any(norms == 0.0):
            bad = int(np.argmax(norms == 0.0)) + 1
            raise ZeroVectorError(f"row {bad} has zero norm; cannot project to the sphere")
        scaled = dataset.points / norms[:, None]
        return Dataset(points=scaled, transform=Transform(mode="sphere"),
                       labels=dataset.labels)
    mins = dataset.points.min(axis=0)
    maxs = dataset.points.max(axis=0)
    transform = Transform(mode="cube", mins=mins, maxs=maxs)
    return Dataset(points=apply_transform(transform, dataset.points),
                   transform=transform, labels=dataset.labels)


def apply_transform(transform: Transform, point):
    """Map a raw point (or matrix of points) with a fitted transform."""
    pts = np.asarray(point, dtype=np.float64)
    if transform.mode == "none":
        return pts.copy()
    if transform.mode == "sphere":
        norms = np.linalg.norm(pts, axis=-1, keepdims=True)
        if np.any(norms == 0.0):
            raise ZeroVectorError("cannot project a zero vector to the sphere")
        return pts / norms
    span = transform.maxs - transform.mins
    constant = span == 0.0
    safe_span = np.where(constant, 1.0, span)
    scaled = (pts - transform.mins) / safe_span
    return np.where(constant, 0.5, scaled)
