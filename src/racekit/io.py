"""Dataset ingestion from CSV, and scaling transforms.

``csv_chunks`` reads a file in order as matrices of up to a given number of
rows (the whole file by default), each parsed by ``np.loadtxt``; at the first
chunk numpy refuses, or that holds a non-finite value, the stdlib csv reader
parses the file again cell by cell, from the rows not yet yielded on, and
reports the fault. ``load_csv`` takes the whole file as one chunk;
``stream_csv`` yields the rows one at a time through the csv reader alone.
An arbitrarily long file is sketched without materializing its matrix as
``build((m for _, m in csv_chunks(path, 8000)), family, rows)``, which is
what ``racekit build`` does (through ``scale_chunks``). Values must be finite
decimal floats; parse problems, bytes that are not UTF-8 included, are
reported with 1-based (row, column) locations.

Hash kernels behave best on bounded inputs, so two scaling modes are
provided: ``sphere`` divides each row by its own L2 norm (rows of norm zero
are rejected), and ``cube`` min-max maps each feature into [0, 1] using the
training minima and maxima (a constant feature maps to 0.5;
``fit_regression`` follows with ``2t - 1``). The fitted transform is stored
with the dataset so later queries can be mapped with :func:`apply_transform`.
``scale_chunks`` scales a stream of chunks, and ``scale`` is it run over one
chunk, so both give their stacked matrix bit for bit; ``cube``, whose bounds
depend on every point, holds the raw chunks once until they are known.
The CLI writes it as ``<output>.transform.json``; ``classify-predict`` reads
its model's own, and ``query`` the one given with ``--transform``.
"""

from __future__ import annotations

import csv
import itertools
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


def _csv_rows(lines, first: int, delimiter: str):
    """Yield ``(row, vector)`` for the records of ``lines``, numbered from ``first``.

    Blank records are skipped; every other record must have as many fields
    as the first, each a finite number.
    """
    arity = None
    for i, raw in enumerate(csv.reader(lines, delimiter=delimiter), start=first):
        if not raw or (len(raw) == 1 and raw[0].strip() == ""):
            continue  # blank line
        if arity is None:
            arity = len(raw)
        elif len(raw) != arity:
            raise RaggedRowError(f"row {i}: expected {arity} fields, got {len(raw)}", row=i)
        yield i, np.array([_parse_cell(c, i, j) for j, c in enumerate(raw, start=1)])


def _skip_header(fh, header: bool, delimiter: str) -> int:
    """Read past the header record, of any bytes, if there is one; the next record's number."""
    if header:
        next(csv.reader(fh, delimiter=delimiter), None)
    return 1 + header


def stream_csv(path, *, header: bool = False, delimiter: str = ","):
    """Yield ``(line, row)`` pairs one row at a time; validates arity and finiteness."""
    with _open_text(path) as fh:
        yield from _csv_rows(fh, _skip_header(fh, header, delimiter), delimiter)


def _loadtxt(lines, rows: int | None, delimiter: str) -> np.ndarray | None:
    """numpy's parse of up to ``rows`` data rows of ``lines``; None unless non-empty and finite.

    numpy accepts a subset of the lines ``_csv_rows`` accepts (it refuses
    quotes, empty fields, ragged rows, whitespace-only lines and ``1_0``) and
    parses each cell it accepts with the same correctly rounded decimal parser
    as ``float``, so a matrix it returns is the one ``_csv_rows`` yields. It
    skips empty lines without counting them as rows, and takes lines from an
    iterator one at a time, so it stops on the line of the last row. On
    anything else the caller falls back to ``_csv_rows``, which raises the
    error class and (row, column) of the fault.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # lines without data only warn
            matrix = np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2,
                                dtype=np.float64, max_rows=rows)
    except (ValueError, TypeError, Warning):
        # TypeError: numpy refuses delimiters (such as "\n") that csv takes
        return None
    if matrix.size == 0 or not np.isfinite(matrix).all():
        return None
    return matrix


def csv_chunks(path, rows: int | None = None, *, header: bool = False, delimiter: str = ","):
    """Yield ``(first_row, matrix)`` for each run of up to ``rows`` data rows of a CSV.

    ``first_row`` is the number of data rows before ``matrix[0]``, and
    ``rows=None`` reads the whole file as one chunk. numpy parses each chunk
    from one open handle, so a file of any length needs one chunk's matrix at
    a time. At the first chunk numpy refuses (or whose width differs from the
    first chunk's), the csv reader parses the file again from its start on a
    second handle, passing over the rows already yielded, so that every fault
    is raised at its own row and column as ``stream_csv`` numbers them.
    """
    done, arity = 0, None
    with _open_text(path) as fh:
        _skip_header(fh, header, delimiter)
        while (peek := next(fh, None)) is not None:
            matrix = _loadtxt(itertools.chain([peek], fh), rows, delimiter)
            if matrix is None or arity not in (None, matrix.shape[1]):
                break
            arity = matrix.shape[1]
            yield done, matrix
            done += len(matrix)
        else:
            return  # numpy parsed the whole file
    with _open_text(path) as fh:
        first = _skip_header(fh, header, delimiter)
        rest = itertools.islice(_csv_rows(fh, first, delimiter), done, None)
        while batch := list(itertools.islice(rest, rows)):
            yield done, np.vstack([vec for _, vec in batch])
            done += len(batch)


def load_csv(path, *, header: bool = False, delimiter: str = ",",
             label_column: int | None = None) -> Dataset:
    """Parse a CSV file into a Dataset.

    ``label_column`` (0-based; negative indices count from the end) splits
    one column off into ``Dataset.labels``.
    """
    chunks = [matrix for _, matrix in csv_chunks(path, header=header, delimiter=delimiter)]
    if not chunks:
        return Dataset(points=np.zeros((0, 0)))
    (matrix,) = chunks  # the whole file is one chunk
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


def _sphere_norms(points: np.ndarray, before: int) -> np.ndarray:
    """The (n, 1) row norms; a zero row is an error naming its 1-based row past ``before``."""
    norms = np.linalg.norm(points, axis=1)
    if np.any(norms == 0.0):
        bad = before + int(np.argmax(norms == 0.0)) + 1
        raise ZeroVectorError(f"row {bad} has zero norm; cannot project to the sphere")
    return norms[:, None]


def _to_cube(transform: Transform, pts: np.ndarray, out: np.ndarray | None = None):
    """``(pts - mins) / span``, a constant feature at 0.5, written into ``out`` if given."""
    span = transform.maxs - transform.mins
    constant = span == 0.0
    scaled = np.subtract(pts, transform.mins, out=out)
    scaled /= np.where(constant, 1.0, span)
    scaled[..., constant] = 0.5
    return scaled


def scale(dataset: Dataset, mode: str) -> Dataset:
    """Return a scaled copy of the dataset with the fitted transform recorded.

    The copy is one chunk that :func:`scale_chunks` scales in place.
    """
    if dataset.transform.mode != "none":
        raise InvalidParameterError(
            f"dataset is already scaled with {dataset.transform.mode!r}")
    transform, (points,) = scale_chunks([(0, dataset.points.copy())], mode)
    return Dataset(points=points, transform=transform, labels=dataset.labels)


def scale_chunks(chunks, mode: str):
    """``(transform, matrices)``: a stream of ``csv_chunks`` scaled, each matrix in place.

    The one implementation of every mode; ``scale`` runs it over one chunk,
    so the matrices, stacked, are bit for bit what ``scale`` makes of the
    stacked chunks. ``none`` and ``sphere`` map each point alone, so chunks
    pass through as they arrive. ``cube`` needs the bounds of every point
    first: it reads every chunk, holding the raw matrix once, before it
    returns.
    """
    if mode not in _MODES:
        raise InvalidParameterError(f"unknown scaling mode {mode!r}")
    if mode == "none":
        return Transform(), (matrix for _, matrix in chunks)
    if mode == "sphere":
        return Transform(mode="sphere"), _sphere_chunks(chunks)
    raw = [matrix for _, matrix in chunks]
    transform = Transform("cube", np.min([m.min(axis=0) for m in raw], axis=0),
                          np.max([m.max(axis=0) for m in raw], axis=0))
    return transform, (_to_cube(transform, m, out=m) for m in raw)


def _sphere_chunks(chunks):
    for before, matrix in chunks:
        matrix /= _sphere_norms(matrix, before)
        yield matrix


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
    return _to_cube(transform, pts)
