"""Snapshot-matrix file format.

Line 1: ``aoa-matrix 1 <rows> <cols> <Z|X>`` with rows >= 2 and cols >= 1.
Then one line per row with ``cols`` whitespace-separated entries formatted
``<re>:<im>``; each part follows Python ``float()`` syntax, and the writer
uses the shortest decimal representation that round-trips to the identical
float.  Lines whose first non-blank character is ``#`` are comments; there
are no trailing comments.  The file is ASCII text, comments included.
Every entry must be finite.  Write -> read is bit-exact.

A canonical body (every row ``cols`` tokens with one ``:`` each) is parsed
in one pass by numpy's C text reader, which converts each part exactly as
``float()`` does.  A body that pass does not accept goes through the
per-entry loop, which is the only place body ``ParseError``s are raised, so
every error names the same line and column as an entry-by-entry read.
"""

import numpy as np

from .errors import ParseError
from .synthesis import SnapshotMatrix, Subarray

_MAGIC = "aoa-matrix"
_VERSION = "1"


def write_matrix_file(snap: SnapshotMatrix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_MAGIC} {_VERSION} {snap.m} {snap.snapshots} {snap.subarray.value}\n")
        for row in snap.data:
            fh.write(" ".join(f"{re!r}:{im!r}" for re, im in zip(row.real.tolist(), row.imag.tolist())) + "\n")


def read_matrix_file(path) -> SnapshotMatrix:
    try:
        with open(path, "r", encoding="ascii") as fh:
            content = [(i + 1, ln.strip()) for i, ln in enumerate(fh)
                       if ln.strip() and not ln.lstrip().startswith("#")]
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
    """Parse a canonical body in one numpy pass; None sends it to ``_parse_entries``.

    The pass is taken only when every row has ``cols`` tokens, ``cols`` colons
    and a colon in each token, i.e. one colon per token.  numpy's reader
    converts each part with the routine ``float()`` uses, so values are
    bit-identical, but it accepts less (not ``1_0``, for one); its result is
    kept only if it has 2 * cols finite parts per row.
    """
    for _, line in body:
        tokens = line.split()
        if len(tokens) != cols or line.count(":") != cols or not all(":" in tok for tok in tokens):
            return None
        if ":" in tokens:
            # a bare colon is a bad entry; a row of them would be blank to loadtxt,
            # which skips blank rows and warns when no row is left
            return None
    try:
        # a generator, so only one row's text is copied at a time
        flat = np.loadtxt((line.replace(":", " ") for _, line in body), dtype=float, comments=None, ndmin=2)
    except ValueError:
        return None
    if flat.shape != (rows, 2 * cols) or not np.all(np.isfinite(flat)):
        return None
    return flat.view(complex)


def _parse_entries(body, rows, cols):
    """Parse entry by entry, raising a ``ParseError`` at the first bad row or entry."""
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
        # one whole-array check; the position is looked up only on failure
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise ParseError(f"non-finite entry {body[r][1].split()[c]!r}", line=body[r][0], column=c + 1)
    return data
