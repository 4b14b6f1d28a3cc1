"""Minimal binary PGM (P5) / PPM (P6) reader and writer, 8-bit only, and
the listing of frame directories.

Frame directories ingested by the sampler hold one image per frame named
``frame_%06d.pgm`` or ``.ppm``.  Values map to floats in [0,1] on read and
back to rounded 8-bit on write.  Listing a directory and reading headers
read no pixels, so they need no numpy, and numpy is imported only by the
reader and writer.
"""

from __future__ import annotations

import os

from .container import atomic_open


class PNMError(ValueError):
    pass


def _next_token(fh):
    """The next header token of ``fh``, consuming the one whitespace byte
    after it; ``#`` before a token starts a comment to the end of the line."""
    c = fh.read(1)
    while c.isspace() or c == b"#":
        if c == b"#":
            fh.readline()
        c = fh.read(1)
    token = b""
    while c and not c.isspace():
        token += c
        c = fh.read(1)
    if not c:  # every header token is followed by whitespace
        raise PNMError("truncated PNM header")
    return token


def read_header(fh):
    """``(width, height, channels)`` of the P5/P6 file open for binary
    reading in ``fh``, which is left at its first pixel byte.

    A magic other than P5/P6, a maxval other than 255, a width or height
    that is not a number or is below 1, or a file shorter than its pixel
    data raises :class:`PNMError` naming the field.
    """
    magic = _next_token(fh)
    if magic not in (b"P5", b"P6"):
        raise PNMError(f"unsupported PNM magic {magic!r}")
    numbers = []
    for name in ("width", "height", "maxval"):
        token = _next_token(fh)
        if not token.isdigit():
            raise PNMError(f"{name} {token!r} is not a number")
        numbers.append(int(token))
        if numbers[-1] < 1 and name != "maxval":
            raise PNMError(f"{name} {numbers[-1]} is below 1")
    width, height, maxval = numbers
    if maxval != 255:
        raise PNMError(f"only maxval 255 supported, got {maxval}")
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    have = os.fstat(fh.fileno()).st_size - fh.tell()
    if have < need:
        raise PNMError(f"truncated pixel data: {have} of {need} bytes")
    return width, height, channels


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


def check_frames(meta, frame_dir) -> None:
    """Check the frames of ``meta`` in ``frame_dir``: :func:`frame_files`
    lists them, then every frame's :func:`read_header` is read.  A bad
    header, or a width x height other than frame 0's, raises ``ValueError``
    naming the video, the frame index and the field.  P5 and P6 may mix."""
    first = None
    for index, path in enumerate(frame_files(meta, frame_dir)):
        where = f"{meta.video_id}: frame {index} ({os.path.basename(path)})"
        with open(path, "rb") as fh:
            try:
                size = read_header(fh)[:2]
            except PNMError as e:
                raise ValueError(f"{where}: {e}") from None
        if first is None:
            first = size
        elif size != first:
            raise ValueError(f"{where}: width x height {size[0]}x{size[1]} "
                             f"differs from frame 0's {first[0]}x{first[1]}")


def read_pnm(path):
    """Read a P5/P6 file; returns float64 (H,W) for P5 or (H,W,3) for P6 in [0,1]."""
    import numpy as np
    with open(path, "rb") as fh:
        try:
            width, height, channels = read_header(fh)
        except PNMError as e:
            raise PNMError(f"{path}: {e}") from None
        payload = fh.read(width * height * channels)
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
