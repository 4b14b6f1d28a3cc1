"""Minimal binary PGM (P5) / PPM (P6) reader and writer, 8-bit only, and
the listing of frame directories.

Frame directories ingested by the sampler hold one image per frame named
``frame_%06d.pgm`` or ``.ppm``.  Values map to floats in [0,1] on read and
back to rounded 8-bit on write.  Listing a directory reads no image, so
it needs no numpy, and numpy is imported only by the reader and writer.
"""

from __future__ import annotations

import os

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


def frame_name(index: int) -> str:
    return f"frame_{index:06d}"


def frame_files(meta, frame_dir) -> list:
    """Paths of the frames of the video ``meta`` (a
    :class:`gebd.annotations.VideoMeta`) in ``frame_dir``, in index order.

    They are ``frame_000000`` .. ``frame_<N-1>``, each once as ``.pgm`` or
    ``.ppm``; a gap or another ``frame_*.pgm``/``.ppm`` raises
    ``ValueError`` naming the first missing index, else the first unexpected
    file.  Other files are ignored.
    """
    found = {}  # stem -> its frame file names
    for name in os.listdir(frame_dir):
        stem, ext = os.path.splitext(name)
        if ext in (".pgm", ".ppm") and stem.startswith("frame_"):
            found.setdefault(stem, []).append(name)
    count = sum(map(len, found.values()))
    names = [sorted(found.pop(frame_name(i), ()))
             for i in range(meta.num_frames)]
    extra = sorted([n for hits in names for n in hits[1:]]
                   + [n for hits in found.values() for n in hits])
    problems = ([f"missing frame index {i} ({frame_name(i)}.pgm/.ppm)"
                 for i, hits in enumerate(names) if not hits]
                + [f"unexpected frame file {name}" for name in extra])
    if problems:
        raise ValueError(
            f"{meta.video_id}: {problems[0]}; frame directory holds "
            f"{count} frames, metadata says {meta.num_frames}")
    return [os.path.join(frame_dir, hits[0]) for hits in names]


def read_pnm(path):
    """Read a P5/P6 file; returns float64 (H,W) for P5 or (H,W,3) for P6 in [0,1]."""
    import numpy as np
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
    import numpy as np
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
