import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max, -sys.float_info.max,
               0.1, 1.0, -2.5, 1e-05, 1e16, 123456789012345678.0, np.pi]
_entries = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


def test_writer_keeps_the_shortest_round_trip_format(tmp_path):
    # the file is byte for byte what formatting each entry's parts with repr gives
    values = np.array(EDGE_VALUES)
    data = values + 1j * values[::-1]
    snap = SnapshotMatrix(np.vstack([data, data[::-1]]), Subarray.Z)
    path = tmp_path / "edge.mat"
    write_matrix_file(snap, path)
    rows = [" ".join(f"{float(v.real)!r}:{float(v.imag)!r}" for v in row) for row in snap.data]
    assert path.read_text() == f"aoa-matrix 1 2 {len(values)} Z\n" + "".join(row + "\n" for row in rows)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    shape=st.tuples(st.integers(2, 4), st.integers(1, 6)),
    data=st.data(),
    subarray=st.sampled_from(list(Subarray)),
)
def test_write_then_read_is_bit_exact(shape, data, subarray):
    parts = data.draw(st.lists(_entries, min_size=2 * shape[0] * shape[1], max_size=2 * shape[0] * shape[1]))
    values = np.array(parts).view(complex).reshape(shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.mat"
        write_matrix_file(SnapshotMatrix(values, subarray), path)
        back = read_matrix_file(path)
    # compares the bits, so -0.0 and 0.0 differ
    assert back.data.tobytes() == values.tobytes()
    assert back.subarray is subarray


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


@pytest.mark.parametrize("text", ["", "# only a comment\n", "\n   # indented comment\n\n\t\n"],
                         ids=["empty", "comment", "comments_and_blanks"])
def test_a_file_without_a_header_is_empty(tmp_path, text):
    path = tmp_path / "m.mat"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        read_matrix_file(path)
    assert "empty matrix file" in str(info.value)


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


# 1.8e308 is past the largest double, so it parses to inf
@pytest.mark.parametrize("entry", ["inf:0", "0:-inf", "nan:0", "1.8e308:0", "0:-1.8e308"])
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


# SnapshotMatrix needs m >= 2 and M >= 1; the header is rejected first, on its own line
@pytest.mark.parametrize("header, body", [
    ("aoa-matrix 1 0 3 Z", ""),
    ("aoa-matrix 1 1 2 Z", "1:0 2:0\n"),
    ("aoa-matrix 1 2 -1 Z", "1:0\n2:0\n"),
    ("aoa-matrix 1 2 0 X", "\n"),
])
def test_degenerate_dimensions_report_the_header_line(tmp_path, header, body):
    path = tmp_path / "m.mat"
    path.write_text("# comment\n" + header + "\n" + body)
    with pytest.raises(ParseError, match=r"need rows >= 2 and cols >= 1 \(line 2\)") as exc:
        read_matrix_file(path)
    assert exc.value.column is None


@pytest.mark.parametrize("body", ["# café\n1:0 2:0\n3:0 4:0\n", "1:0 2:0\n3:0 é4:0\n"], ids=["comment", "entry"])
def test_a_non_ascii_byte_is_a_parse_error(tmp_path, body):
    path = tmp_path / "m.mat"
    path.write_bytes(("aoa-matrix 1 2 2 Z\n" + body).encode())
    with pytest.raises(ParseError, match="not ASCII text: byte 0xc3"):
        read_matrix_file(path)
