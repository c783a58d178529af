"""Snapshot-matrix file format.

Line 1: ``aoa-matrix 1 <rows> <cols> <Z|X>``.  Then one line per row with
``cols`` whitespace-separated entries formatted ``<re>:<im>``, using the
shortest decimal representation that round-trips to the identical float.
Lines starting with ``#`` are comments.  Every entry must be finite.
Write -> read is bit-exact.
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
            fh.write(" ".join(f"{float(v.real)!r}:{float(v.imag)!r}" for v in row) + "\n")


def read_matrix_file(path) -> SnapshotMatrix:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()

    content = [(i + 1, ln.strip()) for i, ln in enumerate(lines)
               if ln.strip() and not ln.lstrip().startswith("#")]
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
        # one whole-array check; the position is looked up only on failure
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise ParseError(f"non-finite entry {body[r][1].split()[c]!r}", line=body[r][0], column=c + 1)
    return SnapshotMatrix(data, subarray)
