"""Every on-disk format of the toolkit: the GEBT tensor container, the CSV
tables, and the atomic file writer they share.

The GEBT layout is deliberately minimal so a hex dump is enough to audit a
file:

    bytes 0..3   magic  b"GEBT"
    byte  4      format version (1)
    byte  5      dtype code, always 2 (float64, little-endian)
    byte  6      ndim (1..5)
    next 4*ndim  dims, unsigned 32-bit little-endian, each >= 1
    rest         row-major little-endian payload, 8 * prod(dims) bytes

There is no compression.  Per-frame feature tables are float64
``[N, 27]``, one row per frame, so the classifier inputs built from them
are exact.  :func:`read_tensor` is the one GEBT reader;
:func:`read_tensor_file` hands it the file's bytes.

Every table is a CSV with a header row, written by :func:`write_csv` and
read by :func:`read_csv`, the one CSV reader; a field holding a comma, quote
or newline is quoted as the :mod:`csv` module does, and a row of the wrong
width is named by file and line.  Every artifact, binary or text, is written
through :func:`atomic_open`.  Only the tensor functions import numpy, so the
CSV tables and the writer load without it.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import struct

MAGIC = b"GEBT"
VERSION = 1
DTYPE_F64 = 2
MAX_NDIM = 5


class ContainerError(ValueError):
    """Raised for malformed or unsupported GEBT data."""


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Open a temp file that replaces ``path`` only when the block succeeds.

    A write that raises removes the temp file and leaves any earlier
    ``path`` as it was, so an interrupted run never leaves a truncated file
    under the final name.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write ``header`` then ``rows`` atomically; a float cell is its ``repr``."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv_lines(path, header):
    """Yield ``(line number, row)`` for each row of a CSV table with the
    columns ``header``, each row a list of strings.

    Blank rows are skipped, and so is a first line whose first field is
    ``header[0]`` (any case), so the header row is optional.  A row of another
    width raises ``ValueError`` naming the file and line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or (reader.line_num == 1
                           and row[0].lower() == header[0].lower()):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: expected "
                                 f"{','.join(header)}, got {len(row)} fields")
            yield reader.line_num, row


def read_csv(path, header) -> list:
    """The rows of :func:`read_csv_lines` without their line numbers."""
    return [row for _, row in read_csv_lines(path, header)]


def _parse_header(blob: bytes):
    """``(dims, payload offset)`` of the GEBT file ``blob``."""
    if len(blob) < 7 or blob[:4] != MAGIC:
        raise ContainerError("not a GEBT file (bad magic)")
    version, dtype, ndim = struct.unpack("<BBB", blob[4:7])
    if version != VERSION:
        raise ContainerError(f"unsupported GEBT version {version}")
    if dtype != DTYPE_F64:
        raise ContainerError(f"unsupported dtype code {dtype}")
    if not 1 <= ndim <= MAX_NDIM:
        raise ContainerError(f"ndim out of range: {ndim}")
    dims_end = 7 + 4 * ndim
    if len(blob) < dims_end:
        raise ContainerError("truncated header: payload length mismatch")
    dims = list(struct.unpack("<" + "I" * ndim, blob[7:dims_end]))
    if any(d < 1 for d in dims):
        raise ContainerError(f"every dim must be >= 1, got {dims}")
    got = len(blob) - dims_end
    expected = 8 * math.prod(dims)
    if got != expected:
        raise ContainerError(f"payload length mismatch: got {got} bytes, "
                             f"expected {expected}")
    return dims, dims_end


def write_tensor(dims, data) -> bytes:
    """Serialize ``data`` (flat or shaped) with shape ``dims`` to float64 GEBT."""
    dims = [int(d) for d in dims]
    if not 1 <= len(dims) <= MAX_NDIM:
        raise ContainerError(f"ndim must be in [1,{MAX_NDIM}], got {len(dims)}")
    if any(d < 1 for d in dims):
        raise ContainerError(f"every dim must be >= 1, got {dims}")
    import numpy as np
    n = math.prod(dims)
    if np.size(data) != n:
        raise ContainerError(f"data length mismatch: {np.size(data)} values "
                             f"for dims {dims} (need {n})")
    return (MAGIC + struct.pack("<BBB", VERSION, DTYPE_F64, len(dims))
            + struct.pack("<" + "I" * len(dims), *dims)
            + np.asarray(data, dtype="<f8").tobytes())


def read_tensor(blob: bytes):
    """Parse GEBT bytes into ``(dims, data)``, ``data`` a flat float64 array.

    Rejects bad magic, unknown version/dtype, out-of-range dims and any
    payload length mismatch (including trailing bytes).
    """
    import numpy as np
    dims, offset = _parse_header(blob)
    return dims, np.frombuffer(blob, dtype="<f8", offset=offset).copy()


def write_tensor_file(path, dims, data) -> None:
    """Write a GEBT file atomically (see :func:`atomic_open`)."""
    with atomic_open(path, "wb") as fh:
        fh.write(write_tensor(dims, data))


def read_tensor_file(path):
    """Read a GEBT file; returns ``(dims, data)`` like :func:`read_tensor`."""
    with open(path, "rb") as fh:
        return read_tensor(fh.read())
