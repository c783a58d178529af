import numpy as np
import pytest

from laoa import SnapshotMatrix, read_matrix_file, write_matrix_file
from laoa.errors import ParseError
from laoa.synthesis import Subarray


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(40)
    data = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    snap = SnapshotMatrix(data, Subarray.X)
    path = tmp_path / "snap.mat"
    write_matrix_file(snap, path)
    back = read_matrix_file(path)
    assert np.array_equal(back.data, data)
    assert back.subarray is Subarray.X


def test_explicit_format(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("aoa-matrix 1 2 2 Z\n1:0 0:1\n-1:0 0:-1\n")
    snap = read_matrix_file(path)
    np.testing.assert_array_equal(snap.data, [[1, 1j], [-1, -1j]])
    assert snap.subarray is Subarray.Z


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("# a comment\naoa-matrix 1 2 1 Z\n\n1:2\n# another\n3:4\n")
    snap = read_matrix_file(path)
    np.testing.assert_array_equal(snap.data, [[1 + 2j], [3 + 4j]])


def test_short_row_reports_line(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("aoa-matrix 1 2 3 Z\n1:0 2:0 3:0\n1:0 2:0\n")
    with pytest.raises(ParseError, match="row 2"):
        read_matrix_file(path)


def test_row_count_mismatch(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("aoa-matrix 1 3 1 Z\n1:0\n2:0\n")
    with pytest.raises(ParseError, match=r"header declares 3 rows, file has 2 \(line 1\)"):
        read_matrix_file(path)


def test_bad_entry_reports_position(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("aoa-matrix 1 2 2 Z\n1:0 nope\n1:0 2:0\n")
    with pytest.raises(ParseError) as exc:
        read_matrix_file(path)
    assert exc.value.line == 2
    assert exc.value.column == 2


@pytest.mark.parametrize("entry", ["inf:0", "0:-inf", "nan:0"])
def test_non_finite_entry_reports_position(tmp_path, entry):
    path = tmp_path / "m.mat"
    path.write_text(f"aoa-matrix 1 2 3 Z\n# comment\n1:0 2:0 3:0\n1:0 {entry} 3:0\n")
    with pytest.raises(ParseError, match=r"non-finite entry .* \(line 4, column 2\)"):
        read_matrix_file(path)


@pytest.mark.parametrize("header", ["wrong 1 2 2 Z", "aoa-matrix 9 2 2 Z", "aoa-matrix 1 2 2 Y", "aoa-matrix 1 a 2 Z"])
def test_bad_headers(tmp_path, header):
    path = tmp_path / "m.mat"
    path.write_text(header + "\n1:0 2:0\n3:0 4:0\n")
    with pytest.raises(ParseError):
        read_matrix_file(path)
