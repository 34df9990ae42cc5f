import numpy as np

from mmdot.dataio import read_matrix_csv, write_matrix_csv


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
    write_matrix_csv(path, np.array([[1, -2]]), header=["a", "b"])
    assert path.read_text() == "a,b\n1.0,-2.0\n"
