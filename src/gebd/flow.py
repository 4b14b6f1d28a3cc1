"""Dense optical flow via per-pixel quadratic polynomial expansion.

Each frame is approximated locally, at every pixel, by a quadratic model

    f(x + d) ~= d^T A d + b^T d + c

fitted by Gaussian-weighted least squares over an odd window (G. Farneback,
"Two-Frame Motion Estimation Based on Polynomial Expansion", SCIA 2003).
For a pure translation ``s`` between two frames the models relate as
``A2 = A1`` and ``b2 = b1 - 2 A1 s``, so the displacement solves
``Abar d = db`` with ``Abar = (A1 + A2)/2`` and ``db = -(b2 - b1)/2``.  The
practical estimator samples frame 2's coefficients at prior-displaced
coordinates, averages the normal equations ``Abar^T Abar`` and
``Abar^T db`` over a neighborhood window, solves the 2x2 system per pixel,
and adds the correction to the prior.  A Gaussian pyramid makes the whole
thing coarse-to-fine so shifts larger than the window are recovered.

Flow is computed per video: :func:`video_flow` takes an ``(N, H, W)``
stack of consecutive frames, builds each frame's pyramid and polynomial
expansion once, and refines all ``N - 1`` consecutive pairs together, so
every numpy call covers the whole stack.  Callers bound memory by passing
chunks of about :data:`PAIR_CHUNK_PIXELS` frame pixels, each chunk sharing
its first frame with the previous chunk's last, as
:func:`gebd.windows.frame_feature_table` does.
:func:`farneback_flow` is the two-frame case of the same code.  The
pyramid, expansion and refinement functions accept leading batch axes in
front of ``(H, W)``.

All images are float arrays scaled to [0,1]; flow fields are (H, W, 2)
arrays holding (dx, dy) in pixels, x along columns and y along rows.
Every sliding window reflect-pads as numpy's "reflect" mode does
(:func:`_reflect`).  The linear filters are products with cached,
read-only axis operators cut into tiles of at most :data:`_TILE` outputs
(:func:`_tiles`), of two kinds: reflect-folded correlation taps
(:func:`_taps_operator`, for :func:`correlate1d`, whose uniform taps are
the box average :func:`_box_average`) and half-pixel bilinear weights
(:func:`_resize_operator`, for :func:`_resize_planes`).
:func:`_apply_operator` multiplies C-contiguous planes by them, and
``np.matmul`` calls gemm once per plane, so no product mixes frames.
Everything else is elementwise numpy or gathers, so results are
bit-identical no matter how callers batch or partition the work.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .config import FlowConfig

# Pixels whose averaged normal matrix has |det| below this keep the prior
# displacement instead of amplifying noise through a near-singular solve.
SINGULAR_DET = 1e-9

# Frame pixels refined per video_flow call when a video is split into chunks:
# 8 pairs of 64x64 frames.  Peak memory grows with the chunk, so this bounds it.
PAIR_CHUNK_PIXELS = 8 * 64 * 64


@dataclass
class PolyCoeffs:
    """Per-pixel quadratic model; A = [[a11, a12], [a12, a22]] is symmetric.

    Fields are (..., H, W) arrays; indexing slices every field along the
    leading batch axes.
    """

    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    c: np.ndarray

    @property
    def shape(self):
        return self.c.shape

    def __getitem__(self, index) -> "PolyCoeffs":
        return PolyCoeffs(**{f.name: getattr(self, f.name)[index]
                             for f in fields(self)})


def to_gray(rgb: np.ndarray) -> np.ndarray:
    """Luma conversion: 0.299 R + 0.587 G + 0.114 B of (..., H, W, 3) images."""
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim < 3 or rgb.shape[-1] != 3:
        raise ValueError(f"expected (H,W,3) RGB image, got shape {rgb.shape}")
    return 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]


def correlate1d(img: np.ndarray, kernel, axis: int) -> np.ndarray:
    """Correlation along one axis, reflect-padded as ``np.pad``'s "reflect" mode.

    out[x] = sum_d kernel[d + n] * img[x + d] for d in [-n, n].  ``axis``
    may be negative; every other axis passes through unchanged.  The taps,
    folded onto the axis by the reflection, form :func:`_taps_operator`'s
    matrices, so each output is one gemm dot product (see
    :func:`_apply_operator`).
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    return _apply_operator(img, _taps_operator(img.shape[axis], kernel.tobytes()),
                           axis)


def _reflect(positions: np.ndarray, size: int) -> np.ndarray:
    """The samples of an axis of ``size`` that numpy's "reflect" padding
    reads at ``positions``, which may lie any distance outside the axis:
    they fold back with period ``2 * (size - 1)``."""
    period = max(2 * (size - 1), 1)
    folded = positions % period
    return np.minimum(folded, period - folded)


def sep_correlate(img: np.ndarray, kx, ky) -> np.ndarray:
    """Separable correlation of the last two axes: rows (x) with ``kx``, then
    columns (y) with ``ky``."""
    return correlate1d(correlate1d(img, kx, axis=-1), ky, axis=-2)


def gaussian_kernel(sigma: float, radius: int) -> np.ndarray:
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def _resize_planes(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample of the last two axes; leading axes pass through.

    Serves the pyramid, the flow upsample between levels and the window
    slots.  Rows, then columns, are products with
    :func:`_resize_operator`'s matrices (see :func:`_apply_operator`), so
    each output is a gemm dot product of its two neighbours' weights along
    each axis.  Sample positions use the half-pixel convention
    src = (dst + 0.5) * in/out - 0.5, clipped to the source extent.
    """
    h, w = img.shape[-2:]
    rows = _apply_operator(img, _resize_operator(w, out_w), -1)
    return _apply_operator(rows, _resize_operator(h, out_h), -2)


def _resize_channels_last(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample of (..., H, W, C) arrays, such as stacks of flow fields."""
    planes = _resize_planes(np.moveaxis(img, -1, -3), out_h, out_w)
    return np.moveaxis(planes, -3, -1)


def gaussian_pyramid(img: np.ndarray, levels: int, scale: float,
                     min_size: int = 5) -> list:
    """Level 0 is the input; each next level is blurred then resampled by ``scale``.

    ``img`` is (..., H, W); leading batch axes pass through every level.
    The blur sigma 0.5*sqrt(1/scale^2 - 1) keeps the resampling roughly
    alias-free.  Levels whose width or height would fall below ``min_size``
    are dropped, with a warning, so the list may be shorter than requested.
    """
    img = np.asarray(img, dtype=np.float64)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if not 0 < scale < 1:
        raise ValueError("scale must be in (0,1)")
    if min(img.shape[-2:]) < min_size:
        raise ValueError(
            f"image {img.shape[-2:]} smaller than minimum size {min_size}")
    sigma = 0.5 * np.sqrt(1.0 / (scale * scale) - 1.0)
    kernel = gaussian_kernel(sigma, radius=max(1, int(np.ceil(3 * sigma))))
    pyramid = [img]
    for _ in range(1, levels):
        h, w = pyramid[-1].shape[-2:]
        nh, nw = int(round(h * scale)), int(round(w * scale))
        if min(nh, nw) < min_size:
            warnings.warn(
                f"pyramid truncated at {len(pyramid)} levels: next level "
                f"{nh}x{nw} would be smaller than {min_size}")
            break
        blurred = sep_correlate(pyramid[-1], kernel, kernel)
        pyramid.append(_resize_planes(blurred, nh, nw))
    return pyramid


def poly_expansion(img: np.ndarray, window: int, sigma: float) -> PolyCoeffs:
    """Fit the quadratic model at every pixel by Gaussian-weighted least squares.

    ``img`` is (..., H, W); leading batch axes pass through.  The
    applicability is separable and the basis (1, x, y, x^2, y^2, xy) factors
    into x- and y-parts, so each weighted moment is two 1-D correlations,
    and moments sharing an x-part share the row pass.  Each normal-matrix
    entry is a product of sums s_k = sum_x g(x) x^k over the odd window;
    g is even, so the odd sums vanish and the equations split in closed
    form: b1, b2 and a12 are one moment over its diagonal entry each, and
    c, a11, a22 solve the (1, x^2, y^2) block.  Borders see the
    mirror-padded image.
    """
    img = np.asarray(img, dtype=np.float64)
    if window % 2 == 0 or window < 3:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if window > min(img.shape[-2:]):
        raise ValueError(
            f"window {window} exceeds image extent {img.shape[-2:]}")
    n = window // 2
    x = np.arange(-n, n + 1, dtype=np.float64)
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    s0, s2, s4 = (float(np.sum(g * x**k)) for k in (0, 2, 4))

    rows = [correlate1d(img, g * x**p, axis=-1) for p in range(3)]
    m1, mx, my, mxx, myy, mxy = (correlate1d(rows[p], g * x**q, axis=-2) for p, q in
                                 ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)))
    # block [[a, b, b], [b, c4, d], [b, d, c4]]: its last two rows' difference
    # gives v = a11 - a22, their sum and the first row c and u = a11 + a22
    a, b, c4, d = s0 * s0, s0 * s2, s0 * s4, s2 * s2
    det = a * (c4 + d) - 2 * b * b
    u = (a * (mxx + myy) - 2 * b * m1) / det
    v = (mxx - myy) / (c4 - d)
    return PolyCoeffs(c=((c4 + d) * m1 - b * (mxx + myy)) / det,
                      b1=mx / b, b2=my / b, a11=0.5 * (u + v), a22=0.5 * (u - v),
                      a12=mxy / (2 * d))


def _bilinear_sampler(ys: np.ndarray, xs: np.ndarray):
    """Sampler of (..., H, W) fields at in-range coordinates ``ys``, ``xs``
    of the same shape: sample(field)[..., i, j] interpolates
    field[..., ys[..., i, j], xs[..., i, j]] within its own plane.

    Each pixel reads the 2x2 block whose top-left corner is its truncated
    coordinate clamped to ``(H - 2, W - 2)``, so planes must be at least
    2x2; at the last row or column the clamp gives the far corners weight
    1.  One flat index serves all four corners, gathered from the offset
    views ``flat``, ``flat[1:]``, ``flat[W:]`` and ``flat[W + 1:]`` of the
    flattened field, and the four corner weights are formed once.
    """
    h, w = ys.shape[-2:]
    x0 = np.minimum(xs.astype(np.intp), w - 2)
    y0 = np.minimum(ys.astype(np.intp), h - 2)
    fx = xs - x0
    fy = ys - y0
    gx, gy = 1 - fx, 1 - fy
    w00, w01, w10, w11 = gy * gx, gy * fx, fy * gx, fy * fx
    # flat indices of the top-left corners in the C-ordered stack of planes
    plane = np.arange(ys.size // (h * w)).reshape(ys.shape[:-2] + (1, 1)) * (h * w)
    index = plane + y0 * w + x0

    def sample(field):
        flat = field.reshape(-1)
        return (np.take(flat, index) * w00 + np.take(flat[1:], index) * w01
                + np.take(flat[w:], index) * w10 + np.take(flat[w + 1:], index) * w11)

    return sample


# Outputs per operator tile: an axis of at most this many samples is one
# matrix product, and a longer one is cut so the work per sample stays bounded.
_TILE = 64


def _tiles(index: np.ndarray, weight: np.ndarray) -> tuple:
    """Read-only tiles of the axis operator whose output ``k`` is
    ``sum_t weight[k, t] * x[index[k, t]]``, as ``(inputs, outputs,
    matrix)``: output ``k`` in the ``outputs`` slice is
    ``x[inputs] @ matrix[:, k]``.

    Each tile covers up to :data:`_TILE` outputs and the span of inputs
    they read.  Terms that read the same input are summed into one entry.
    """
    tiles = []
    for start in range(0, len(index), _TILE):
        stop = min(start + _TILE, len(index))
        reads = index[start:stop]
        lo, hi = int(reads.min()), int(reads.max()) + 1
        matrix = np.zeros((hi - lo, stop - start))
        np.add.at(matrix, (reads - lo, np.arange(stop - start)[:, None]),
                  weight[start:stop])
        matrix.flags.writeable = False
        tiles.append((slice(lo, hi), slice(start, stop), matrix))
    return tuple(tiles)


def _window_index(size: int, n: int) -> np.ndarray:
    """(size, 2n + 1) inputs read by each output's reflect-padded window."""
    return _reflect(np.arange(size)[:, None] + np.arange(-n, n + 1), size)


@functools.lru_cache(maxsize=128)
def _taps_operator(size: int, kernel: bytes) -> tuple:
    """:func:`_tiles` of the reflect-padded correlation with the float64
    taps whose bytes are ``kernel``: entry ``[i, k]`` sums the taps of
    output ``k`` that fold onto input ``i``.  Cached per
    ``(size, kernel)``."""
    taps = np.frombuffer(kernel)
    index = _window_index(size, len(taps) // 2)
    return _tiles(index, np.broadcast_to(taps, index.shape))


@functools.lru_cache(maxsize=64)
def _resize_operator(size: int, out_size: int) -> tuple:
    """:func:`_tiles` of the half-pixel bilinear resample of an axis from
    ``size`` to ``out_size`` samples: output ``k`` weighs the two inputs
    around src = (k + 0.5) * size/out_size - 0.5, clipped to the axis.
    Cached per ``(size, out_size)``."""
    src = np.clip((np.arange(out_size) + 0.5) * (size / out_size) - 0.5, 0, size - 1)
    x0 = np.floor(src).astype(np.intp)
    frac = (src - x0)[:, None]
    return _tiles(np.stack([x0, np.minimum(x0 + 1, size - 1)], axis=1),
                  np.hstack([1 - frac, frac]))


def _apply_operator(img: np.ndarray, tiles: tuple, axis: int) -> np.ndarray:
    """``img`` mapped along ``axis`` by an operator's :func:`_tiles`: the
    last axis as ``img @ op``, the one before as ``op.T @ img``, and any
    other by moving it second to last; every other axis passes through.

    The input is made C-contiguous first: ``np.matmul`` calls gemm once per
    plane only on such operands, and falls back to its own loop, which
    rounds differently, on strided ones.  So a plane gives the same bytes
    alone, in a stack or as a strided view.
    """
    img = np.ascontiguousarray(img)
    axis %= img.ndim
    if axis < img.ndim - 2:
        moved = _apply_operator(np.moveaxis(img, axis, -2), tiles, -2)
        return np.moveaxis(moved, -2, axis)
    shape = list(img.shape)
    shape[axis] = tiles[-1][1].stop
    out = np.empty(shape)
    for inputs, outputs, op in tiles:
        if axis == img.ndim - 1:
            np.matmul(img[..., inputs], op, out=out[..., outputs])
        else:
            np.matmul(op.T, img[..., inputs, :], out=out[..., outputs, :])
    return out


def _box_average(img: np.ndarray, window: int) -> np.ndarray:
    """Mean of the reflect-padded ``window`` x ``window`` square around
    each sample: :func:`sep_correlate` with ``window`` uniform taps of
    ``1 / window``.

    Each output is one gemm dot product of its window's inputs with the
    folded taps, so no difference of long sums cancels digits.
    """
    h, w = img.shape[-2:]
    # at most 2*dim - 1 on tiny pyramid levels, so reflection folds once
    window = min(window, 2 * min(h, w) - 1)
    if window % 2 == 0:
        window -= 1
    taps = np.full(window, 1.0 / window)
    return sep_correlate(img, taps, taps)


def flow_step(p1: PolyCoeffs, p2: PolyCoeffs, prior: np.ndarray,
              averaging_window: int) -> np.ndarray:
    """One displacement refinement from two polynomial expansions.

    Coefficient fields are (..., H, W) and ``prior`` is (..., H, W, 2);
    leading batch axes pair up element by element.  Frame 2 coefficients
    are sampled at prior-displaced coordinates (bilinear, clipped at
    borders), so fields must be at least 2x2.  Normal equations are
    box-averaged over the neighborhood window before the per-pixel 2x2
    solve, a divide masked to the pixels with ``|det| >= SINGULAR_DET``;
    the others keep the prior exactly.
    """
    if p1.shape != p2.shape:
        raise ValueError(f"coefficient grids disagree: {p1.shape} vs {p2.shape}")
    if prior.shape != p1.shape + (2,):
        raise ValueError(
            f"prior flow shape {prior.shape} does not match fields {p1.shape}")
    h, w = p1.shape[-2:]
    if h < 2 or w < 2:
        raise ValueError(f"fields must be at least 2x2 to sample, got {h}x{w}")
    xs = np.clip(np.arange(w) + prior[..., 0], 0, w - 1)
    ys = np.clip(np.arange(h)[:, None] + prior[..., 1], 0, h - 1)
    sample = _bilinear_sampler(ys, xs)

    # twice Abar and db: doubling is exact, so the normal equations are 4x
    # and det 16x theirs and the solve gives the same bytes
    a11 = p1.a11 + sample(p2.a11)
    a12 = p1.a12 + sample(p2.a12)
    a22 = p1.a22 + sample(p2.a22)
    db1 = p1.b1 - sample(p2.b1)
    db2 = p1.b2 - sample(p2.b2)

    a12_sq = a12 * a12
    g11 = _box_average(a11 * a11 + a12_sq, averaging_window)
    g12 = _box_average(a11 * a12 + a12 * a22, averaging_window)
    g22 = _box_average(a12_sq + a22 * a22, averaging_window)
    h1 = _box_average(a11 * db1 + a12 * db2, averaging_window)
    h2 = _box_average(a12 * db1 + a22 * db2, averaging_window)

    det = g11 * g22 - g12 * g12
    ok = np.abs(det) >= 16 * SINGULAR_DET
    step = np.zeros(prior.shape)
    np.divide(g22 * h1 - g12 * h2, det, out=step[..., 0], where=ok)
    np.divide(g11 * h2 - g12 * h1, det, out=step[..., 1], where=ok)
    return prior + step


def video_flow(frames: np.ndarray, config: FlowConfig = FlowConfig()) -> np.ndarray:
    """Coarse-to-fine dense flow between consecutive frames of a stack.

    ``frames`` is (N, H, W) grayscale with N >= 2; the result is
    (N-1, H, W, 2), entry ``i`` being the flow from frame ``i`` to ``i+1``.
    Each frame's pyramid and expansion are built once and every refinement
    step runs on all pairs at once, so memory grows with N: split long
    videos into chunks (see :data:`PAIR_CHUNK_PIXELS`).
    """
    config.validate()
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or len(frames) < 2:
        raise ValueError(
            f"expected (N,H,W) grayscale stack with N >= 2, got shape {frames.shape}")
    pyramid = gaussian_pyramid(frames, config.pyramid_levels,
                               config.pyramid_scale, min_size=config.poly_window)
    flow = np.zeros(pyramid[-1][1:].shape + (2,), dtype=np.float64)
    for level in range(len(pyramid) - 1, -1, -1):
        coeffs = poly_expansion(pyramid[level], config.poly_window,
                                config.poly_sigma)
        p1, p2 = coeffs[:-1], coeffs[1:]
        for _ in range(config.iterations_per_level):
            flow = flow_step(p1, p2, flow, config.averaging_window)
        if level > 0:
            nh, nw = pyramid[level - 1].shape[-2:]
            flow = _resize_channels_last(flow, nh, nw) / config.pyramid_scale
    return flow


def farneback_flow(frame1: np.ndarray, frame2: np.ndarray,
                   config: FlowConfig = FlowConfig()) -> np.ndarray:
    """Coarse-to-fine dense flow between two equally sized grayscale frames."""
    config.validate()
    f1 = np.asarray(frame1, dtype=np.float64)
    f2 = np.asarray(frame2, dtype=np.float64)
    if f1.shape != f2.shape:
        raise ValueError(f"frame shapes disagree: {f1.shape} vs {f2.shape}")
    if f1.ndim != 2:
        raise ValueError(f"expected 2-D grayscale frames, got shape {f1.shape}")
    return video_flow(np.stack([f1, f2]), config)[0]


def flow_stats_rows(dx: np.ndarray, dy: np.ndarray):
    """Mean magnitude, max magnitude and 8-bin angle histogram of many flow
    fields, each given as one row of the (B, N) component arrays ``dx`` and
    ``dy``; returns (B,), (B,) and (B, 8).

    The histogram is magnitude-weighted and normalized to sum 1; an
    all-zero field yields the uniform histogram by convention.  Sums run
    along each row and the histograms come from one ``np.bincount`` with a
    per-row bin offset, so a row equals its field's stats alone.
    """
    mag = np.hypot(dx, dy)
    total = mag.sum(axis=1)
    theta = np.arctan2(dy, dx)  # [-pi, pi]
    bins = np.minimum((theta + np.pi) / (2 * np.pi / 8), 7.9999).astype(np.intp)
    bins = np.clip(bins, 0, 7) + 8 * np.arange(len(mag))[:, None]
    sums = np.bincount(bins.ravel(), weights=mag.ravel(),
                       minlength=8 * len(mag)).reshape(-1, 8)
    hist = np.full(sums.shape, 1.0 / 8.0)
    np.divide(sums, total[:, None], out=hist, where=total[:, None] != 0.0)
    return mag.mean(axis=1), mag.max(axis=1), hist
