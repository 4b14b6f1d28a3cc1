"""Minimal binary PGM (P5) / PPM (P6) reader and writer, 8-bit only.

Frame directories ingested by the sampler hold one image per frame named
``frame_%06d.pgm`` or ``.ppm``.  Values map to floats in [0,1] on read and
back to rounded 8-bit on write.
"""

from __future__ import annotations

import numpy as np

from .container import atomic_open


class PNMError(ValueError):
    pass


def _next_token(blob: bytes):
    # header tokens separated by whitespace; '#' starts a comment to end of line
    i, n = 0, len(blob)
    while i < n:
        c = blob[i : i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < n and blob[i : i + 1] != b"\n":
                i += 1
        else:
            break
    start = i
    while i < n and not blob[i : i + 1].isspace():
        i += 1
    if start == i:
        raise PNMError("truncated PNM header")
    return blob[start:i], i


def read_pnm(path) -> np.ndarray:
    """Read a P5/P6 file; returns float64 (H,W) for P5 or (H,W,3) for P6 in [0,1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, i = _next_token(blob)
    if magic not in (b"P5", b"P6"):
        raise PNMError(f"{path}: unsupported PNM magic {magic!r}")
    fields = []
    for _ in range(3):
        tok, j = _next_token(blob[i:])
        fields.append(int(tok))
        i += j
    width, height, maxval = fields
    if maxval != 255:
        raise PNMError(f"{path}: only maxval 255 supported, got {maxval}")
    i += 1  # single whitespace byte after maxval
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    payload = blob[i : i + need]
    if len(payload) != need:
        raise PNMError(f"{path}: truncated pixel data")
    data = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        return data.reshape(height, width)
    return data.reshape(height, width, 3)


def write_pnm(path, image) -> None:
    """Write (H,W) as P5 or (H,W,3) as P6, atomically; values clipped to [0,1]."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 2:
        magic = b"P5"
        h, w = arr.shape
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
        h, w = arr.shape[:2]
    else:
        raise PNMError(f"image must be (H,W) or (H,W,3), got shape {arr.shape}")
    pixels = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    with atomic_open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(pixels.tobytes())
