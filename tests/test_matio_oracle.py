"""``read_matrix_file`` against an entry-by-entry reference reader.

The reference below is the reader as it was before the body was parsed in
bulk: every entry goes through ``str.split`` and ``float``.  On any file the
reader must return the same bits, or raise the same error at the same line
and column.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laoa import SnapshotMatrix, matio, read_matrix_file, write_matrix_file
from laoa.errors import ParseError
from laoa.synthesis import Subarray


def oracle_read(path) -> SnapshotMatrix:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()

    content = [(i + 1, ln.strip()) for i, ln in enumerate(lines)
               if ln.strip() and not ln.lstrip().startswith("#")]
    if not content:
        raise ParseError("empty matrix file")

    lineno, header = content[0]
    parts = header.split()
    if len(parts) != 5 or parts[0] != "aoa-matrix":
        raise ParseError(f"bad header {header!r}, expected 'aoa-matrix 1 <rows> <cols> <Z|X>'", line=lineno)
    if parts[1] != "1":
        raise ParseError(f"unsupported format version {parts[1]!r}", line=lineno)
    try:
        rows, cols = int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(f"non-integer dimensions in header {header!r}", line=lineno)
    if parts[4] not in ("Z", "X"):
        raise ParseError(f"subarray must be Z or X, got {parts[4]!r}", line=lineno)
    subarray = Subarray(parts[4])

    body = content[1:]
    if len(body) != rows:
        raise ParseError(f"header declares {rows} rows, file has {len(body)}", line=lineno)

    data = np.empty((rows, cols), dtype=complex)
    for r, (lineno, line) in enumerate(body):
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(
                f"row {r + 1} has {len(tokens)} entries, header declares {cols}",
                line=lineno,
            )
        for c, tok in enumerate(tokens):
            try:
                re_s, im_s = tok.split(":")
                data[r, c] = complex(float(re_s), float(im_s))
            except ValueError:
                raise ParseError(f"bad complex entry {tok!r}", line=lineno, column=c + 1)
    if not np.all(np.isfinite(data)):
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise ParseError(f"non-finite entry {body[r][1].split()[c]!r}", line=body[r][0], column=c + 1)
    return SnapshotMatrix(data, subarray)


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # the exception itself is what gets compared
        return exc


def assert_reads_like_the_oracle(path):
    expected = _outcome(oracle_read, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(read_matrix_file, path)
    if isinstance(expected, Exception):
        assert type(got) is type(expected), got
        assert str(got) == str(expected)
        assert (got.line, got.column) == (expected.line, expected.column)
    else:
        assert isinstance(got, SnapshotMatrix), got
        assert got.data.dtype == expected.data.dtype and got.data.shape == expected.data.shape
        assert got.data.tobytes() == expected.data.tobytes()
        assert got.subarray is expected.subarray


_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 0.1, 1.0, -2.5, 1e16]),
    st.floats(allow_nan=False, allow_infinity=False),
)

# entries float() reads but numpy's reader does not (1_0), non-finite ones,
# empty halves, extra colons, hex and other malformed text
_ODD_TOKENS = ["1_0:0", "0:1_0", "nan:0", "0:inf", "-inf:1", "1e999:0", "0:-1.8e308", "infinity:0", "+nan:0",
               "0x10:0", "1:", ":2", ":", "1:2:3", "1::2", "1", "12", "+1.:-.5", ".5:5.", "1E5:1e-5", "1d5:0",
               "--1:0", "1,0:2", "1j:0", "#1:0", "1:0#"]
_SEPARATORS = ["\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "  ", " \t ", "\x00", ","]
_EXTRA_LINES = ["", "   ", "# comment", "  # indented comment", "#"]
_ASCII = [chr(i) for i in range(128) if chr(i) not in "\n\r"]
# edits that keep the row count come up more often, so fewer files fail on it alone
_EDITS = ["token"] * 3 + ["column", "move_colon"] * 2 + ["separator", "extra_line", "drop_token", "add_token",
                                                          "drop_row", "add_row", "pad", "char"]


@st.composite
def matrix_files(draw):
    """(text, newline): a writer-made file, then a few random edits to its body."""
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    parts = draw(st.lists(_parts, min_size=2 * rows * cols, max_size=2 * rows * cols))
    data = np.array(parts).view(complex).reshape(rows, cols)
    subarray = draw(st.sampled_from(list(Subarray)))
    header = f"aoa-matrix 1 {rows} {cols} {subarray.value}"
    body = [" ".join(f"{v.real!r}:{v.imag!r}" for v in row.tolist()) for row in data]

    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(_EDITS))
        r = draw(st.integers(0, len(body) - 1)) if body else None
        tokens = body[r].split(" ") if body else []
        c = draw(st.integers(0, len(tokens) - 1)) if tokens else None
        if kind == "token" and tokens:
            tokens[c] = draw(st.sampled_from(_ODD_TOKENS))
            body[r] = " ".join(tokens)
        elif kind == "column" and tokens:
            # the same odd entry in every row keeps the rows' part counts equal
            odd = draw(st.sampled_from(_ODD_TOKENS))
            body = [" ".join(t[:c] + [odd] + t[c + 1:]) for t in (row.split(" ") for row in body)]
        elif kind == "move_colon" and len(tokens) > 1:
            # in every row, entry c loses its colon and imaginary part and entry d gets a
            # second colon before the last character of its real part: the row keeps its
            # colon count and its part count
            d = draw(st.integers(0, len(tokens) - 1).filter(lambda d: d != c))
            for i, row in enumerate(body):
                t = row.split(" ")
                if max(c, d) < len(t) and ":" in t[c] and ":" in t[d]:
                    t[c] = t[c].split(":")[0]
                    k = t[d].index(":") - 1
                    t[d] = t[d][:k] + ":" + t[d][k:]
                    body[i] = " ".join(t)
        elif kind == "separator" and len(tokens) > 1:
            c = min(c, len(tokens) - 2)
            body[r] = " ".join(tokens[:c + 1]) + draw(st.sampled_from(_SEPARATORS)) + " ".join(tokens[c + 1:])
        elif kind == "extra_line":
            body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(_EXTRA_LINES)))
        elif kind == "drop_token" and tokens:
            body[r] = " ".join(tokens[:c] + tokens[c + 1:])
        elif kind == "add_token" and tokens:
            body[r] = " ".join(tokens + [tokens[c]])
        elif kind == "drop_row" and body:
            del body[r]
        elif kind == "add_row" and body:
            body.insert(r, body[r])
        elif kind == "pad" and body:
            body[r] = draw(st.sampled_from([" ", "\t", "\x0b"])) + body[r] + draw(st.sampled_from(["", " ", "\t"]))
        elif kind == "char" and body:
            pos = draw(st.integers(0, len(body[r])))
            body[r] = body[r][:pos] + draw(st.sampled_from(_ASCII)) + body[r][pos:]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return "\n".join([header] + body) + "\n", newline


@settings(max_examples=400, deadline=None, derandomize=True)
@given(file=matrix_files())
def test_reader_matches_the_entry_by_entry_oracle(tmp_path_factory, file):
    text, newline = file
    path = tmp_path_factory.mktemp("oracle") / "m.mat"
    path.write_text(text, encoding="ascii", newline=newline)
    assert_reads_like_the_oracle(path)


@pytest.mark.parametrize("cols, body", [
    (2, "1_0:0 2:0\n3:0 4:0"),        # float() syntax numpy's reader rejects: parsed by the loop
    (1, ":\n:"),                      # rows of bare colons, which loadtxt skips, warning if all are
    (2, "1:0 2:0\n: :"),
    (2, "1: :2\n3: :4"),              # empty halves, as many in every row
    (2, "1:2:3 4::\n1:0 2:0"),        # 2 * cols parts, but not one colon per entry
    (2, "1:2:3 4\n1:0 2:0"),          # as many colons as entries, but not one per entry
    (2, "1e999:0 2:0\n3:0 4:0"),      # overflows to inf
    (2, "1:0\x1c2:0\n3:0\t4:0"),      # whitespace both readers split on
    # whitespace inside an entry, which numpy strips from a field and str.split splits on
    (2, "1\t:2 3:4\n5:6 7:8"),
    (2, "1:\t2 3:4\n5:6 7:8"),
    (2, "1:2\x1c 3:4\n5:6 7:8"),
    (2, "1:2 3\x0b:4\n5:6 7:8"),
    (2, "1: 2:3\n5:6 7:8"),          # an empty half beside a single space
    (2, "1:2 :3\n5:6 7:8"),
    (2, "1:0  2:0\n3:0 4:0"),        # separators other than one space
    (2, "1:0\t2:0\n3:0 4:0"),
])
def test_reader_matches_the_oracle_on_edge_bodies(tmp_path, cols, body):
    path = tmp_path / "m.mat"
    path.write_text(f"aoa-matrix 1 2 {cols} Z\n" + body + "\n", encoding="ascii")
    assert_reads_like_the_oracle(path)


def test_a_writer_made_file_never_reaches_the_entry_loop(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    data = rng.standard_normal((8, 2000)) + 1j * rng.standard_normal((8, 2000))
    data[0, :3] = [-0.0, 5e-324, complex(1.7976931348623157e308, -2.2250738585072014e-308)]
    path = tmp_path / "z.mat"
    write_matrix_file(SnapshotMatrix(data, Subarray.Z), path)

    def entry_loop(*args):
        raise AssertionError("the bulk parse fell back to the entry loop")

    monkeypatch.setattr(matio, "_parse_entries", entry_loop)
    back = read_matrix_file(path)
    assert back.data.tobytes() == data.tobytes()
    assert back.subarray is Subarray.Z


def test_only_a_body_laid_out_as_the_writer_writes_it_skips_the_entry_loop(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    data = rng.standard_normal((4, 30)) + 1j * rng.standard_normal((4, 30))
    path = tmp_path / "x.mat"
    write_matrix_file(SnapshotMatrix(data, Subarray.X), path)
    header, *rows = path.read_text(encoding="ascii").splitlines()
    commented = tmp_path / "commented.mat"
    commented.write_text("\n".join([header, "# rows follow"] + [f"{row}\n\n  # after a row" for row in rows]) + "\n",
                         encoding="ascii")
    tabbed = tmp_path / "tabbed.mat"
    tabbed.write_text("\n".join([header] + [row.replace(" ", "\t") for row in rows]) + "\n", encoding="ascii")

    calls = []
    entry_loop = matio._parse_entries

    def counted(*args):
        calls.append(args)
        return entry_loop(*args)

    monkeypatch.setattr(matio, "_parse_entries", counted)
    assert read_matrix_file(commented).data.tobytes() == data.tobytes()
    assert not calls
    assert read_matrix_file(tabbed).data.tobytes() == data.tobytes()
    assert len(calls) == 1
