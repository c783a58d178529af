"""Snapshot-matrix file format.

Line 1: ``aoa-matrix 1 <rows> <cols> <Z|X>`` with rows >= 2 and cols >= 1.
Then one line per row with ``cols`` whitespace-separated entries formatted
``<re>:<im>``; each part follows Python ``float()`` syntax, and the writer
uses the shortest decimal representation that round-trips to the identical
float.  Lines whose first non-blank character is ``#`` are comments; there
are no trailing comments.  The file is ASCII text, comments included.
Every entry must be finite.  Write -> read is bit-exact.

A body laid out as the writer writes it (one ``:`` per entry, one space
between entries) is parsed in one pass by numpy's C text reader, which
converts each part exactly as ``float()`` does.  Any other body reads with the
same values and errors, only slower, through the per-entry loop: the only place
body ``ParseError``s are raised, so each names an entry-by-entry read's line and column.
"""

import numpy as np

from .errors import ParseError
from .synthesis import SnapshotMatrix, Subarray

_MAGIC = "aoa-matrix"
_VERSION = "1"
# every byte but ":" and the ASCII whitespace str.split splits on (numpy strips it inside a field)
_NOT_LAYOUT = bytes(b for b in range(256) if b > 127 or not (chr(b) == ":" or chr(b).isspace()))


def write_matrix_file(snap: SnapshotMatrix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_MAGIC} {_VERSION} {snap.m} {snap.snapshots} {snap.subarray.value}\n")
        for row in snap.data:
            fh.write(" ".join(f"{re!r}:{im!r}" for re, im in zip(row.real.tolist(), row.imag.tolist())) + "\n")


def read_matrix_file(path) -> SnapshotMatrix:
    try:
        with open(path, "r", encoding="ascii") as fh:
            content = [(i + 1, s) for i, ln in enumerate(fh) if (s := ln.strip()) and s[0] != "#"]
    except UnicodeDecodeError as exc:
        # the decoder's position counts from its buffer, not from the file, so no line is named
        raise ParseError(f"not ASCII text: byte {exc.object[exc.start]:#04x}") from exc
    if not content:
        raise ParseError("empty matrix file")

    lineno, header = content[0]
    parts = header.split()
    if len(parts) != 5 or parts[0] != _MAGIC:
        raise ParseError(f"bad header {header!r}, expected '{_MAGIC} {_VERSION} <rows> <cols> <Z|X>'", line=lineno)
    if parts[1] != _VERSION:
        raise ParseError(f"unsupported format version {parts[1]!r}", line=lineno)
    try:
        rows, cols = int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(f"non-integer dimensions in header {header!r}", line=lineno)
    if rows < 2 or cols < 1:
        raise ParseError(f"header declares {rows} x {cols}, need rows >= 2 and cols >= 1", line=lineno)
    if parts[4] not in ("Z", "X"):
        raise ParseError(f"subarray must be Z or X, got {parts[4]!r}", line=lineno)
    subarray = Subarray(parts[4])

    body = content[1:]
    if len(body) != rows:
        raise ParseError(f"header declares {rows} rows, file has {len(body)}", line=lineno)

    data = _parse_bulk(body, rows, cols)
    if data is None:
        data = _parse_entries(body, rows, cols)
    return SnapshotMatrix(data, subarray)


def _parse_bulk(body, rows, cols):
    """Parse a body laid out as the writer writes it in one numpy pass; None sends it to ``_parse_entries``.

    The pass is taken only when each row's colons and whitespace read ``: : ... :``,
    ``cols`` colons with one space between.  numpy's reader converts each part with
    the routine ``float()`` uses, so values are bit-identical, but it accepts less
    (not ``1_0`` or an empty half); its result is kept only if it is finite and has
    the declared shape.
    """
    for _, line in body:
        layout = line.encode("ascii").translate(None, _NOT_LAYOUT)
        # the length first: the pattern is sized by the header, which only a row this long confirms
        if len(layout) != 2 * cols - 1 or layout != b": " * (cols - 1) + b":":
            return None
    try:
        # a generator, so only one row's text is copied at a time
        flat = np.loadtxt((line.replace(":", " ") for _, line in body), dtype=float, comments=None, delimiter=" ")
    except ValueError:
        return None
    if flat.shape != (rows, 2 * cols) or not np.all(np.isfinite(flat)):
        return None
    return flat.view(complex)


def _parse_entries(body, rows, cols):
    """Parse entry by entry, raising a ``ParseError`` at the first bad row or entry."""
    entries = []
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
                entries.append(complex(float(re_s), float(im_s)))
            except ValueError:
                raise ParseError(f"bad complex entry {tok!r}", line=lineno, column=c + 1)
    data = np.array(entries, dtype=complex).reshape(rows, cols)  # sized by the rows read, not by the header
    if not np.all(np.isfinite(data)):
        # one whole-array check; the position is looked up only on failure
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise ParseError(f"non-finite entry {body[r][1].split()[c]!r}", line=body[r][0], column=c + 1)
    return data
