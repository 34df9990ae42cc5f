import csv
import warnings

import numpy as np
import pytest

from oracles import matrix_csv_by_rows

from mmdot import dataio
from mmdot.dataio import (
    CsvFormatError,
    LabeledDataset,
    read_labeled_csv,
    read_matrix_csv,
    write_matrix_csv,
)
from mmdot.errors import DatasetError


def test_write_matrix_csv_exact_text(tmp_path):
    path = tmp_path / "m.csv"
    M = np.array([[-0.0, 1e-300], [0.1, 1.0 / 3.0]])
    write_matrix_csv(path, M, extra_columns=[("fallback", np.array([0, 1]))])
    assert path.read_text() == (
        "y0,y1,fallback\n"
        "-0.0,1e-300,0\n"
        "0.1,0.3333333333333333,1\n"
    )
    back = read_matrix_csv(path)[:, :2]
    assert np.array_equal(back, M)
    assert np.array_equal(np.signbit(back), np.signbit(M))


def test_write_matrix_csv_integer_input_written_as_floats(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, np.array([[1, -2]]))
    assert path.read_text() == "y0,y1\n1.0,-2.0\n"


def csv_module_rows(path):
    """Every row after the header through the csv module and float()."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh)][1:]
    return [[float(cell) for cell in row] for row in rows if row]


@pytest.mark.parametrize("seed", range(10))
def test_read_matches_csv_module_bit_for_bit(tmp_path, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 8))
    M = rng.normal(size=(int(rng.integers(1, 80)), k))
    M *= 10.0 ** rng.integers(-300, 301, size=M.shape)
    lines = [",".join(f"c{j}" for j in range(k))]
    for row in M.tolist():
        lines.append(",".join(map(repr, row)))
        if rng.random() < 0.2:
            lines.append("")
    path = tmp_path / "m.csv"
    path.write_text("\n".join(lines) + "\n")
    got = read_labeled_csv(path)
    assert got.labels is None
    assert got.features.shape == M.shape
    assert got.features.tobytes() == M.tobytes()
    assert got.features.tobytes() == np.array(csv_module_rows(path)).tobytes()


@pytest.mark.parametrize("body", [
    '"1.5",2\n',  # quoted cell
    "1_000,2\n",  # float() takes underscores
    " 1.5 , -2e-3 \r\n3,4\r\n",
    "nan,-inf\n",
])
def test_read_accepts_what_float_accepts(tmp_path, body):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n" + body, newline="")
    got = read_matrix_csv(path)
    np.testing.assert_array_equal(got, csv_module_rows(path))


@pytest.mark.parametrize("body, where", [
    ("1,2\n3\n", "line 3: expected 2 columns, got 1"),  # ragged row
    ("1,2,3\n4,5,6\n", "line 2: expected 2 columns, got 3"),  # header mismatch
    ("1,2\n#3,4\n", "line 3: column 'a': not a number: '#3'"),
    ("1,2\n3,x\n", "line 3: column 'b': not a number: 'x'"),
    ("1,2\n,4\n", "line 3: column 'a': not a number: ''"),
])
def test_read_error_names_file_line_column(tmp_path, body, where):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n" + body)
    with pytest.raises(CsvFormatError) as info:
        read_matrix_csv(path)
    assert str(info.value) == f"{path}: {where}"


@pytest.mark.parametrize("text, where", [
    # A quoted newline in the header: the bad cell is on physical line 4.
    ('"a\nb",c\n1,2\n3,x\n', "line 4: column 'c': not a number: 'x'"),
    # A quoted newline in a data row (float() strips it) shifts later lines.
    ('a,b\n"1\n",2\n3,4\n5\n', "line 5: expected 2 columns, got 1"),
])
def test_read_error_counts_physical_lines(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text, newline="")
    with pytest.raises(CsvFormatError) as info:
        read_matrix_csv(path)
    assert str(info.value) == f"{path}: {where}"


@pytest.mark.parametrize("text, where", [
    ("", "empty file, expected a header row"),
    ("label,a\n1,2\n1.5,3\n", "line 3: column 'label': not an integer: '1.5'"),
    ("label,a\n1,2\n", "matrix CSV must not carry a 'label' column"),
], ids=["empty", "label_not_integer", "matrix_with_label"])
def test_read_error_names_file(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError) as info:
        read_matrix_csv(path)
    assert str(info.value) == f"{path}: {where}"


@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
def test_byte_order_mark_is_not_header_text(tmp_path, bom):
    path = tmp_path / "l.csv"
    path.write_text(bom + "label,x0,x1\n1,0.5,2\n", encoding="utf-8")
    got = read_labeled_csv(path)
    assert got.labels.tolist() == [1]
    assert got.features.tolist() == [[0.5, 2.0]]
    # The loadtxt route, and the csv-module scan that rereads the file.
    for body in ("1,2\n", '"1",2\n'):
        path.write_text(bom + "a,b\n" + body, encoding="utf-8")
        assert read_matrix_csv(path).tolist() == [[1.0, 2.0]]


def test_atomic_write_removes_temp_file_on_failure(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(dataio.os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        write_matrix_csv(tmp_path / "m.csv", np.eye(2))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rows", [0, 1, 37])
def test_write_matrix_csv_matches_row_by_row_text(tmp_path, rows):
    rng = np.random.default_rng(rows)
    M = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 301, size=(rows, 3))
    if rows:
        M[0] = [1e300, -1e-300, -0.0]
    extras = [
        ("flag", rng.random(rows) < 0.5),
        ("count", rng.integers(-5, 5, size=rows)),
    ]
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M, extra_columns=extras)
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.read() == matrix_csv_by_rows(M, extras)


@pytest.mark.parametrize("body", ["", "\n", "\n\n"])
def test_header_only_gives_zero_rows(tmp_path, body):
    path = tmp_path / "empty.csv"
    path.write_text("a,b,c\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = read_matrix_csv(path)
    assert got.shape == (0, 3)


def test_one_dimensional_features_are_one_column():
    ds = LabeledDataset(features=[0.5, 1.5, 2.5], labels=[0, 1, 1])
    assert ds.features.shape == (3, 1)
    assert len(ds) == 3


def test_label_count_must_match_rows():
    with pytest.raises(DatasetError, match="2 labels for 3 feature rows"):
        LabeledDataset(features=[0.5, 1.5, 2.5], labels=[0, 1])


def test_label_column_read_by_csv_module(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("x,label,y\n0.5,1,2\n\n-1e-300,0,3\n")
    got = read_labeled_csv(path)
    assert got.features.tobytes() == np.array([[0.5, 2.0], [-1e-300, 3.0]]).tobytes()
    assert got.labels.tolist() == [1, 0]
