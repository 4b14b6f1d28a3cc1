"""Dense optical flow via per-pixel quadratic polynomial expansion.

Each frame is approximated locally, at every pixel, by a quadratic model

    f(x + d) ~= d^T A d + b^T d + c

fitted by Gaussian-weighted least squares over an odd window (the classic
polynomial-expansion formulation).  For a pure translation ``s`` between two
frames the models relate as ``A2 = A1`` and ``b2 = b1 - 2 A1 s``, so the
displacement solves ``Abar d = db`` with ``Abar = (A1 + A2)/2`` and
``db = -(b2 - b1)/2``.  The practical estimator samples frame 2's
coefficients at prior-displaced coordinates, averages the normal equations
``Abar^T Abar`` and ``Abar^T db`` over a neighborhood window, solves the 2x2
system per pixel, and adds the correction to the prior.  A Gaussian pyramid
makes the whole thing coarse-to-fine so shifts larger than the window are
recovered.

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
Everything here is elementwise numpy except the running sums of the box
average, and each of those stays within one row or one column of one
plane, never across frames, so results are bit-identical no matter how
callers batch or partition the work.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

# Pixels whose averaged normal matrix has |det| below this keep the prior
# displacement instead of amplifying noise through a near-singular solve.
SINGULAR_DET = 1e-9

# Frame pixels refined per video_flow call when a video is split into chunks:
# 8 pairs of 64x64 frames.  Peak memory grows with the chunk, so this bounds it.
PAIR_CHUNK_PIXELS = 8 * 64 * 64


@dataclass(frozen=True)
class FlowConfig:
    pyramid_levels: int = 3
    pyramid_scale: float = 0.5
    iterations_per_level: int = 3
    poly_window: int = 5
    poly_sigma: float = 1.1
    averaging_window: int = 15

    def validate(self) -> None:
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if not 0 < self.pyramid_scale < 1:
            raise ValueError("pyramid_scale must be in (0,1)")
        if self.iterations_per_level < 1:
            raise ValueError("iterations_per_level must be >= 1")
        for name in ("poly_window", "averaging_window"):
            v = getattr(self, name)
            if v < 3 or v % 2 == 0:
                raise ValueError(f"{name} must be odd and >= 3, got {v}")
        if self.poly_sigma <= 0:
            raise ValueError("poly_sigma must be positive")


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
    """Luma conversion: 0.299 R + 0.587 G + 0.114 B."""
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (H,W,3) RGB image, got shape {rgb.shape}")
    return 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]


def correlate1d(img: np.ndarray, kernel, axis: int) -> np.ndarray:
    """Correlation along one axis with mirror (reflect) padding.

    out[x] = sum_d kernel[d + n] * img[x + d] for d in [-n, n].  ``axis``
    may be negative; every other axis passes through unchanged.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    n = len(kernel) // 2
    pad = [(0, 0)] * img.ndim
    pad[axis] = (n, n)
    padded = np.pad(img, pad, mode="reflect")
    out = np.zeros(img.shape, dtype=np.float64)
    size = img.shape[axis]
    window = [slice(None)] * img.ndim
    for t, k in enumerate(kernel):
        window[axis] = slice(t, t + size)
        out += k * padded[tuple(window)]
    return out


def sep_correlate(img: np.ndarray, kx, ky) -> np.ndarray:
    """Separable correlation of the last two axes: rows (x) with ``kx``, then
    columns (y) with ``ky``."""
    return correlate1d(correlate1d(img, kx, axis=-1), ky, axis=-2)


def gaussian_kernel(sigma: float, radius: int) -> np.ndarray:
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def _resize_planes(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample of the last two axes; leading axes pass through."""
    h, w = img.shape[-2:]
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    w00 = (1 - fy)[:, None] * (1 - fx)[None, :]
    w01 = (1 - fy)[:, None] * fx[None, :]
    w10 = fy[:, None] * (1 - fx)[None, :]
    w11 = fy[:, None] * fx[None, :]
    rows0 = img[..., y0, :]
    rows1 = img[..., y1, :]
    return (rows0[..., x0] * w00 + rows0[..., x1] * w01
            + rows1[..., x0] * w10 + rows1[..., x1] * w11)


def _resize_channels_last(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample of (..., H, W, C) arrays, such as stacks of flow fields."""
    planes = _resize_planes(np.moveaxis(img, -1, -3), out_h, out_w)
    return np.moveaxis(planes, -3, -1)


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample to (out_h, out_w); trailing channel axis passes through.

    Accepts (H, W) or (H, W, C).  Sample positions use the half-pixel
    convention src = (dst + 0.5) * in/out - 0.5, clipped to the source extent.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 2:
        return _resize_planes(img, out_h, out_w)
    if img.ndim == 3:
        return _resize_channels_last(img, out_h, out_w)
    raise ValueError(f"expected (H,W) or (H,W,C) image, got shape {img.shape}")


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


def _basis_exponents():
    # basis (1, x, y, x^2, y^2, xy) as (p, q) exponent pairs
    return [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]


def poly_expansion(img: np.ndarray, window: int, sigma: float) -> PolyCoeffs:
    """Fit the quadratic model at every pixel by Gaussian-weighted least squares.

    ``img`` is (..., H, W); leading batch axes pass through.  The
    applicability weight is separable and the basis monomials factor into
    x- and y-parts, so each weighted moment is two 1-D correlations, and
    moments sharing an x-part share the row pass.  The (constant) 6x6
    normal matrix is inverted once and applied per pixel.  Borders see the
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

    # separable sums S[k] = sum_x g(x) x^k give every normal-matrix entry
    s = [float(np.sum(g * x**k)) for k in range(5)]
    exps = _basis_exponents()
    G = np.empty((6, 6))
    for i, (pi, qi) in enumerate(exps):
        for j, (pj, qj) in enumerate(exps):
            G[i, j] = s[pi + pj] * s[qi + qj]
    Ginv = np.linalg.inv(G)

    rows = [correlate1d(img, g * x**p, axis=-1) for p in range(3)]
    moments = [correlate1d(rows[p], g * x**q, axis=-2) for p, q in exps]
    r = [sum(Ginv[i, j] * moments[j] for j in range(6)) for i in range(6)]
    return PolyCoeffs(c=r[0], b1=r[1], b2=r[2], a11=r[3], a22=r[4], a12=0.5 * r[5])


def _bilinear_sampler(ys: np.ndarray, xs: np.ndarray):
    """Sampler of (..., H, W) fields at in-range coordinates ``ys``, ``xs``
    of the same shape: sample(field)[..., i, j] interpolates
    field[..., ys[..., i, j], xs[..., i, j]] within its own plane."""
    h, w = ys.shape[-2:]
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    gx, gy = 1 - fx, 1 - fy
    # flat indices into the C-ordered stack of planes
    plane = np.arange(ys.size // (h * w)).reshape(ys.shape[:-2] + (1, 1)) * (h * w)
    i00, i01 = plane + y0 * w + x0, plane + y0 * w + x1
    i10, i11 = plane + y1 * w + x0, plane + y1 * w + x1

    def sample(field):
        return (np.take(field, i00) * gy * gx + np.take(field, i01) * gy * fx
                + np.take(field, i10) * fy * gx + np.take(field, i11) * fy * fx)

    return sample


def _along(ndim: int, axis: int, index) -> tuple:
    """Index tuple applying ``index`` to ``axis`` and passing every other axis."""
    out = [slice(None)] * ndim
    out[axis] = index
    return tuple(out)


def _mirror_slices(img: np.ndarray, n: int, axis: int):
    """The ``n`` samples that np.pad's "reflect" mode puts before and after
    ``img`` along ``axis``, as views; needs ``n <= size - 1``."""
    size = img.shape[axis]
    left = img[_along(img.ndim, axis, slice(n, 0, -1))]
    # two steps: the one-slice form img[size-2:size-2-n:-1] is empty at n == size-1
    right = img[_along(img.ndim, axis, slice(size - 2, None, -1))]
    return left, right[_along(img.ndim, axis, slice(None, n))]


def _running_mean(img: np.ndarray, window: int, axis: int) -> np.ndarray:
    """Mean of the ``window`` mirror-padded samples centred on each sample
    along ``axis``: a running sum, so the cost does not grow with the window."""
    size = img.shape[axis]
    left, right = _mirror_slices(img, window // 2, axis)
    shape = list(img.shape)
    shape[axis] = 1
    sums = np.concatenate([np.zeros(shape), left, img, right], axis=axis)
    np.cumsum(sums, axis=axis, out=sums)
    out = sums[_along(img.ndim, axis, slice(window, window + size))] \
        - sums[_along(img.ndim, axis, slice(0, size))]
    out /= window
    return out


def _box_average(img: np.ndarray, window: int) -> np.ndarray:
    h, w = img.shape[-2:]
    # mirror padding needs window <= 2*dim - 1; clamp for tiny pyramid levels
    window = min(window, 2 * min(h, w) - 1)
    if window % 2 == 0:
        window -= 1
    return _running_mean(_running_mean(img, window, axis=-1), window, axis=-2)


def flow_step(p1: PolyCoeffs, p2: PolyCoeffs, prior: np.ndarray,
              averaging_window: int) -> np.ndarray:
    """One displacement refinement from two polynomial expansions.

    Coefficient fields are (..., H, W) and ``prior`` is (..., H, W, 2);
    leading batch axes pair up element by element.  Frame 2 coefficients
    are sampled at prior-displaced coordinates (bilinear, clipped at
    borders).  Normal equations are box-averaged over the neighborhood
    window before the per-pixel 2x2 solve; near-singular pixels keep the
    prior.
    """
    if p1.shape != p2.shape:
        raise ValueError(f"coefficient grids disagree: {p1.shape} vs {p2.shape}")
    if prior.shape != p1.shape + (2,):
        raise ValueError(
            f"prior flow shape {prior.shape} does not match fields {p1.shape}")
    h, w = p1.shape[-2:]
    ys_grid, xs_grid = np.mgrid[0:h, 0:w].astype(np.float64)
    xs = np.clip(xs_grid + prior[..., 0], 0, w - 1)
    ys = np.clip(ys_grid + prior[..., 1], 0, h - 1)
    sample = _bilinear_sampler(ys, xs)

    a11 = 0.5 * (p1.a11 + sample(p2.a11))
    a12 = 0.5 * (p1.a12 + sample(p2.a12))
    a22 = 0.5 * (p1.a22 + sample(p2.a22))
    db1 = -0.5 * (sample(p2.b1) - p1.b1)
    db2 = -0.5 * (sample(p2.b2) - p1.b2)

    g11 = _box_average(a11 * a11 + a12 * a12, averaging_window)
    g12 = _box_average(a11 * a12 + a12 * a22, averaging_window)
    g22 = _box_average(a12 * a12 + a22 * a22, averaging_window)
    h1 = _box_average(a11 * db1 + a12 * db2, averaging_window)
    h2 = _box_average(a12 * db1 + a22 * db2, averaging_window)

    det = g11 * g22 - g12 * g12
    ok = np.abs(det) >= SINGULAR_DET
    safe = np.where(ok, det, 1.0)
    dx = np.where(ok, (g22 * h1 - g12 * h2) / safe, 0.0)
    dy = np.where(ok, (g11 * h2 - g12 * h1) / safe, 0.0)
    return prior + np.stack([dx, dy], axis=-1)


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


def flow_stats(flow: np.ndarray):
    """(mean magnitude, max magnitude, 8-bin angle histogram).

    The histogram is magnitude-weighted and normalized to sum 1; an all-zero
    field yields the uniform histogram by convention.
    """
    flow = np.asarray(flow, dtype=np.float64)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ValueError(f"expected (H,W,2) flow field, got shape {flow.shape}")
    mag = np.hypot(flow[..., 0], flow[..., 1])
    total = float(mag.sum())
    if total == 0.0:
        hist = np.full(8, 1.0 / 8.0)
    else:
        theta = np.arctan2(flow[..., 1], flow[..., 0])  # [-pi, pi]
        bins = np.minimum((theta + np.pi) / (2 * np.pi / 8), 7.9999).astype(np.intp)
        bins = np.clip(bins, 0, 7)
        hist = np.bincount(bins.ravel(), weights=mag.ravel(), minlength=8) / total
    return float(mag.mean()), float(mag.max()), hist
