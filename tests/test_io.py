import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import racekit as rk
from racekit import io as rio
from racekit.errors import (
    CsvError,
    InvalidParameterError,
    NonFiniteValueError,
    RaggedRowError,
    ZeroVectorError,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_basic(tmp_path):
    ds = rk.load_csv(_write(tmp_path, "1.0,2.0\n3.0,4.0\n"))
    assert ds.points.shape == (2, 2)
    assert ds.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert ds.labels is None
    assert ds.transform.mode == "none"


def test_load_csv_nan_reports_location(tmp_path):
    with pytest.raises(NonFiniteValueError) as err:
        rk.load_csv(_write(tmp_path, "1.0,NaN\n"))
    assert err.value.row == 1 and err.value.column == 2


def test_load_csv_header_mismatch(tmp_path):
    path = _write(tmp_path, "a,b\n1.0,2.0\n")
    with pytest.raises(CsvError) as err:
        rk.load_csv(path)  # header present but not declared
    assert err.value.row == 1
    ds = rk.load_csv(path, header=True)
    assert ds.points.shape == (1, 2)


def test_load_csv_ragged_row(tmp_path):
    with pytest.raises(RaggedRowError) as err:
        rk.load_csv(_write(tmp_path, "1.0,2.0\n3.0\n"))
    assert err.value.row == 2


def test_load_csv_custom_delimiter_and_infinity(tmp_path):
    ds = rk.load_csv(_write(tmp_path, "1.0;2.0\n"), delimiter=";")
    assert ds.points.tolist() == [[1.0, 2.0]]
    with pytest.raises(NonFiniteValueError):
        rk.load_csv(_write(tmp_path, "inf,1.0\n", name="inf.csv"))


def test_load_csv_label_column(tmp_path):
    path = _write(tmp_path, "1.0,2.0,0\n3.0,4.0,1\n")
    ds = rk.load_csv(path, label_column=2)
    assert ds.points.shape == (2, 2)
    assert ds.labels.tolist() == [0.0, 1.0]
    ds = rk.load_csv(path, label_column=-1)
    assert ds.labels.tolist() == [0.0, 1.0]
    with pytest.raises(InvalidParameterError):
        rk.load_csv(path, label_column=5)


def test_load_csv_empty_file(tmp_path):
    ds = rk.load_csv(_write(tmp_path, ""))
    assert len(ds) == 0


def test_scale_sphere():
    ds = rk.scale(rk.Dataset(np.array([[3.0, 4.0], [0.0, 2.0]])), "sphere")
    assert ds.points[0].tolist() == [0.6, 0.8]
    assert np.allclose(np.linalg.norm(ds.points, axis=1), 1.0)
    with pytest.raises(ZeroVectorError):
        rk.scale(rk.Dataset(np.array([[0.0, 0.0], [1.0, 1.0]])), "sphere")


def test_scale_cube_and_constant_feature():
    raw = np.array([[2.0, 7.0], [4.0, 7.0], [3.0, 7.0]])
    ds = rk.scale(rk.Dataset(raw), "cube")
    assert ds.points[:, 0].tolist() == [0.0, 1.0, 0.5]
    assert (ds.points[:, 1] == 0.5).all()  # constant feature convention
    assert ds.points.min() >= 0.0 and ds.points.max() <= 1.0


def test_apply_transform_reproduces_training_rows():
    rng = np.random.default_rng(2)
    raw = rng.uniform(-5, 5, size=(30, 3))
    cube = rk.scale(rk.Dataset(raw), "cube")
    assert np.array_equal(rk.apply_transform(cube.transform, raw), cube.points)
    sphere = rk.scale(rk.Dataset(raw), "sphere")
    assert np.array_equal(rk.apply_transform(sphere.transform, raw), sphere.points)
    # single query point maps like a matrix row
    one = rk.apply_transform(cube.transform, raw[4])
    assert np.array_equal(one, cube.points[4])


def test_apply_transform_sphere_rejects_zero_query():
    sphere = rk.scale(rk.Dataset(np.ones((3, 2))), "sphere")
    with pytest.raises(ZeroVectorError):
        rk.apply_transform(sphere.transform, np.zeros(2))


def test_scale_twice_is_rejected():
    ds = rk.scale(rk.Dataset(np.random.default_rng(0).uniform(1, 2, (5, 2))), "cube")
    with pytest.raises(InvalidParameterError):
        rk.scale(ds, "sphere")


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((25, 4)) * np.logspace(-8, 8, 4)
    path = tmp_path / "round.csv"
    np.savetxt(path, pts, delimiter=",", fmt="%.17g")
    again = rk.load_csv(path)
    assert np.array_equal(again.points, pts)


def test_stream_csv_feeds_build(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((120, 2))
    path = tmp_path / "stream.csv"
    np.savetxt(path, pts, delimiter=",", fmt="%.17g")
    fam = rk.new_family("srp", dim=2, depth=3, width=16, seed=5)
    streamed = rk.build((vec for _, vec in rk.stream_csv(path)), fam, rows=20)
    assert streamed == rk.build(pts, fam, rows=20)


@st.composite
def _csv_texts(draw):
    """(text, header, matrix): finite float64 cells as %.17g or repr, blank lines."""
    matrix = draw(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                         elements=st.floats(allow_nan=False, allow_infinity=False)
                         | st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310,
                                            1.7976931348623157e308])))
    fmt = draw(st.sampled_from(["%.17g", "%r"]))
    header = draw(st.booleans())
    lines = ["x" * matrix.shape[1]] if header else []
    for row in matrix:
        lines.append(",".join(fmt % float(v) for v in row))
        lines.extend([""] * draw(st.integers(0, 2)))
    return "\n".join(lines) + "\n", header, matrix


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_csv_texts())
def test_load_csv_matches_stream_csv_bit_for_bit(tmp_path, case):
    text, header, matrix = case
    path = _write(tmp_path, text)
    with open(path, newline="") as fh:
        lines = fh.readlines()[int(header):]
    fast = rio._loadtxt(lines, None, ",")
    assert fast is not None  # the numpy path takes every such file
    streamed = np.vstack([vec for _, vec in rio.stream_csv(path, header=header)])
    loaded = rk.load_csv(path, header=header).points
    assert loaded.tobytes() == streamed.tobytes() == matrix.tobytes()


_NAN_LAST = "".join(f"{i}.25,{-i}\n" for i in range(49_999)) + "7,NaN\n"


@pytest.mark.parametrize("text,kwargs,expected", [
    ("1,2#3\n", {}, (CsvError, 1, 2)),
    ("# c\n1,2\n", {}, (CsvError, 1, 1)),
    ('"1.5",2\n', {}, [[1.5, 2.0]]),
    ("1,2,\n", {}, (CsvError, 1, 3)),
    ("1,,2\n", {}, (CsvError, 1, 2)),
    ("1,0x1p3\n", {}, (CsvError, 1, 2)),
    ("1d3,1\n", {}, (CsvError, 1, 1)),
    ("1_0,2\n", {}, [[10.0, 2.0]]),
    ("1,2\n   \n3,4\n", {}, [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\r\n3,4\r\n", {}, [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\r3,4\r", {}, [[1.0, 2.0], [3.0, 4.0]]),
    (" 1 ,\t2 \n", {}, [[1.0, 2.0]]),
    ("\na,b\n1,2\n", {"header": True}, (CsvError, 2, 1)),
    ("a,b\n", {"header": True}, []),
    ("1,1e400\n", {}, (NonFiniteValueError, 1, 2)),
    ("1,1e-400\n", {}, [[1.0, 0.0]]),
    ("1\n2\n", {"delimiter": "\n"}, [[1.0], [2.0]]),
    ("1\n", {"delimiter": "ab"}, (TypeError, None, None)),
    (_NAN_LAST, {}, (NonFiniteValueError, 50_000, 2)),
], ids=["hash-in-cell", "hash-line", "quoted", "trailing-delimiter", "empty-field",
        "hex-float", "fortran-exponent", "underscore", "whitespace-line", "crlf",
        "lone-cr", "padded-cells", "blank-line-before-header", "header-only",
        "overflow", "underflow", "newline-delimiter", "two-char-delimiter",
        "nan-last-of-50k"])
def test_load_csv_edge_cases_keep_their_result(tmp_path, text, kwargs, expected):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode())
    if isinstance(expected, list):
        assert rk.load_csv(path, **kwargs).points.tolist() == expected
        return
    cls, row, column = expected
    with pytest.raises(cls) as err:
        rk.load_csv(path, **kwargs)
    assert type(err.value) is cls
    assert getattr(err.value, "row", None) == row
    assert getattr(err.value, "column", None) == column


def test_non_utf8_byte_is_a_csv_error_at_its_cell(tmp_path):
    # 3000 rows put the bad byte several decode blocks past the first row
    lines = [b"%d.5,1.0" % i for i in range(3000)]
    lines[2500] = b"0.5,1\xff0"
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(CsvError) as err:
        rk.load_csv(path)
    assert type(err.value) is CsvError
    assert (err.value.row, err.value.column) == (2501, 2)
    seen = []
    with pytest.raises(CsvError):
        for i, _ in rio.stream_csv(path):
            seen.append(i)
    assert seen[-1] == 2500


def test_latin1_header_is_skipped(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("température,y\n1.0,2.0\n".encode("latin-1"))
    assert rk.load_csv(path, header=True).points.tolist() == [[1.0, 2.0]]
    assert [vec.tolist() for _, vec in rio.stream_csv(path, header=True)] == [[1.0, 2.0]]
    with pytest.raises(CsvError) as err:
        rk.load_csv(path)
    assert (err.value.row, err.value.column) == (1, 1)


@pytest.mark.parametrize("rows", [1, 2, 3, 8192])
@pytest.mark.parametrize("header", [False, True])
def test_csv_chunks_are_the_loaded_matrix_with_the_rows_before_each(tmp_path, rows, header):
    # blank lines numpy skips, and a quoted record spanning two lines that
    # hands the rest of the file to the csv reader
    text = "a,b\n" if header else ""
    text += "\n1,2\n\n3,4\n5,6\n\n\n7,8\n9,10\n\"11\n\",12\n13,14\n\n15,16\n"
    path = _write(tmp_path, text)
    chunks = list(rio.csv_chunks(path, rows, header=header))
    streamed = list(rio.stream_csv(path, header=header))
    assert all(len(m) <= rows for _, m in chunks)
    stacked = np.vstack([m for _, m in chunks])
    assert stacked.tobytes() == np.vstack([v for _, v in streamed]).tobytes()
    sizes = [len(m) for _, m in chunks]
    assert [first for first, _ in chunks] == np.cumsum([0] + sizes[:-1]).tolist()


@pytest.mark.parametrize("rows", [0, -1, 2.5, "3"])
def test_csv_chunks_rejects_a_chunk_length_that_is_not_a_positive_integer(tmp_path, rows):
    # rows=0 would yield no chunk at all, and rows=-1 an islice ValueError
    path = _write(tmp_path, "1,2\n3,4\n5,6\n")
    with pytest.raises(InvalidParameterError):
        list(rio.csv_chunks(path, rows))
    whole = list(rio.csv_chunks(path, None))  # None is the whole file, as one chunk
    assert [(first, m.tolist()) for first, m in whole] == [(0, [[1, 2], [3, 4], [5, 6]])]


@pytest.mark.parametrize("mode", ["none", "sphere", "cube"])
def test_scale_chunks_is_scale_bit_for_bit(mode):
    raw = np.random.default_rng(5).uniform(-5, 5, (40, 3))
    raw[:, 2] = 1.5  # a constant feature
    transform, matrices = rio.scale_chunks(((i, raw[i:i + 7].copy())
                                            for i in range(0, 40, 7)), mode)
    want = rk.scale(rk.Dataset(raw), mode)
    assert np.vstack(list(matrices)).tobytes() == want.points.tobytes()
    assert transform.mode == want.transform.mode
    if mode == "cube":
        assert transform.mins.tobytes() == want.transform.mins.tobytes()
        assert transform.maxs.tobytes() == want.transform.maxs.tobytes()


def test_scale_chunks_names_a_zero_row_by_its_place_in_the_stream():
    raw = np.ones((20, 2))
    raw[16] = 0.0
    _, matrices = rio.scale_chunks(((i, raw[i:i + 7].copy()) for i in range(0, 20, 7)),
                                   "sphere")
    with pytest.raises(ZeroVectorError, match="row 17 has zero norm"):
        list(matrices)
    with pytest.raises(ZeroVectorError, match="row 17 has zero norm"):
        rk.scale(rk.Dataset(raw), "sphere")
    with pytest.raises(InvalidParameterError):
        rio.scale_chunks(iter([]), "ball")
