import os
from fractions import Fraction

import numpy as np
import pytest

from gebd.flow import (SINGULAR_DET, FlowConfig, PolyCoeffs, _bilinear_sampler,
                       _box_average, _reflect, _resize_channels_last,
                       _resize_operator, _resize_planes, _taps_operator,
                       correlate1d, farneback_flow, flow_stats_rows, flow_step,
                       gaussian_kernel, gaussian_pyramid, poly_expansion,
                       sep_correlate, to_gray, video_flow)
from gebd.annotations import per_video_rng
from gebd.pnm import read_pnm
from gebd.synth import RECT_HALF, generate_video

from conftest import (naive_correlate2d, shifted_pair, smooth_texture,
                      tap_loop_correlate1d)


def dense_poly_fit(img, window, sigma, y, x):
    """Direct weighted least squares of the quadratic model at one pixel.

    Builds the full design matrix over the mirror-padded window and solves
    the normal equations with a generic solver; shares nothing with the
    separable fast path beyond the padding convention.
    """
    n = window // 2
    padded = np.pad(img, n, mode="reflect")
    patch = padded[y:y + window, x:x + window]
    offs = np.arange(-n, n + 1, dtype=float)
    dys, dxs = np.meshgrid(offs, offs, indexing="ij")
    dxs, dys = dxs.ravel(), dys.ravel()
    basis = np.stack([np.ones_like(dxs), dxs, dys, dxs**2, dys**2, dxs * dys],
                     axis=1)
    weights = np.exp(-(dxs**2 + dys**2) / (2 * sigma * sigma))
    lhs = basis.T @ (weights[:, None] * basis)
    rhs = basis.T @ (weights * patch.ravel())
    r = np.linalg.solve(lhs, rhs)
    return {"c": r[0], "b1": r[1], "b2": r[2], "a11": r[3], "a22": r[4],
            "a12": r[5] / 2}


class TestToGray:
    def test_white(self):
        assert to_gray(np.ones((4, 4, 3))) == pytest.approx(np.ones((4, 4)))

    def test_black(self):
        assert to_gray(np.zeros((4, 4, 3))) == pytest.approx(np.zeros((4, 4)))

    def test_pure_red(self):
        img = np.zeros((2, 2, 3))
        img[..., 0] = 1.0
        assert to_gray(img) == pytest.approx(np.full((2, 2), 0.299))

    def test_shape_check(self):
        with pytest.raises(ValueError):
            to_gray(np.zeros((4, 4)))


class TestSeparableConvolution:
    def test_matches_naive_2d(self, rng):
        img = rng.random((20, 24))
        for sigma, radius in ((1.0, 3), (2.0, 5)):
            k = gaussian_kernel(sigma, radius)
            fast = sep_correlate(img, k, k)
            naive = naive_correlate2d(img, np.outer(k, k))
            assert np.abs(fast - naive).max() < 1e-6

    def test_asymmetric_kernels_match_naive(self, rng):
        img = rng.random((16, 16))
        x = np.arange(-2, 3, dtype=float)
        g = np.exp(-(x * x) / 2.42)
        fast = sep_correlate(img, g * x, g)
        naive = naive_correlate2d(img, np.outer(g, g * x))
        assert np.abs(fast - naive).max() < 1e-6


POLY_TAPS = [np.exp(-np.arange(-3.0, 4.0) ** 2 / 2.42) * np.arange(-3.0, 4.0) ** p
             for p in range(3)]


class TestCorrelate1d:
    @pytest.mark.parametrize("kernel", POLY_TAPS + [gaussian_kernel(0.866, 3),
                                                    gaussian_kernel(5.0, 15)])
    @pytest.mark.parametrize("shape, axis", [((2, 40, 40), -1), ((2, 40, 40), -2),
                                             ((1, 5, 300), -1)])
    def test_error_against_exact_reference(self, rng, kernel, shape, axis):
        # each output errs by at most (taps + 1) roundings of its terms'
        # magnitudes: one per product and sum, one where folded taps add
        img = rng.random(shape) - 0.5
        err, scale = exact_correlation_error(correlate1d(img, kernel, axis), img,
                                             kernel, axis)
        assert (err <= (len(kernel) + 1) * 2 ** -53 * scale).all()

    @pytest.mark.parametrize("kernel", POLY_TAPS + [gaussian_kernel(5.0, 15)])
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_tiled_axis_matches_tap_loop(self, rng, kernel, axis):
        # 300 samples: five tiles of up to 64 outputs
        img = rng.random((2, 300, 300))
        assert np.abs(correlate1d(img, kernel, axis)
                      - tap_loop_correlate1d(img, kernel, axis)).max() < 1e-14

    def test_leading_axis_matches_tap_loop(self, rng):
        img = rng.random((30, 4, 5))
        kernel = gaussian_kernel(1.0, 3)
        assert np.abs(correlate1d(img, kernel, 0)
                      - tap_loop_correlate1d(img, kernel, 0)).max() < 1e-15

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_strided_input_equals_contiguous(self, rng, axis):
        planes = np.moveaxis(rng.random((3, 70, 90, 2)), -1, -3)
        assert not planes.flags.c_contiguous
        want = correlate1d(np.ascontiguousarray(planes), POLY_TAPS[1], axis)
        assert correlate1d(planes, POLY_TAPS[1], axis).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(8, 64, 64), (3, 300, 200)])
    def test_plane_alone_equals_plane_in_stack(self, rng, shape):
        img = rng.random(shape) - 0.5
        k = gaussian_kernel(2.0, 6)
        stacked = sep_correlate(img, k, POLY_TAPS[2])
        for i in range(len(img)):
            alone = sep_correlate(img[i], k, POLY_TAPS[2])
            assert alone.tobytes() == stacked[i].tobytes()

    def test_operator_cached_and_read_only(self):
        taps = gaussian_kernel(5.0, 15)
        tiles = _taps_operator(130, taps.tobytes())
        assert _taps_operator(130, taps.tobytes()) is tiles
        # each tile holds at most 64 outputs and the 15 inputs beside them
        assert [(i.start, i.stop, o.start, o.stop) for i, o, _ in tiles] == \
            [(0, 79, 0, 64), (49, 130, 64, 128), (113, 130, 128, 130)]
        for _, _, matrix in tiles:
            assert not matrix.flags.writeable
        # a tap folded onto its own output by the reflection adds to it
        assert tiles[0][2][1, 0] == taps[14] + taps[16]


def exact_correlation_error(got, img, kernel, axis):
    """Per-output absolute error of ``got`` against the exact correlation of
    ``img`` with ``kernel`` along ``axis``, reflect-padded, in ``Fraction``s;
    also each output's sum of term magnitudes, sum |kernel[t] * x|."""
    n = len(kernel) // 2
    pad = [(0, 0)] * img.ndim
    pad[axis] = (n, n)
    padded = np.moveaxis(np.pad(img, pad, mode="reflect"), axis, -1)
    size = img.shape[axis]
    taps = [Fraction(float(k)) for k in kernel]
    got = np.moveaxis(got, axis, -1)
    err, scale = np.empty(got.shape), np.empty(got.shape)
    for index in np.ndindex(got.shape[:-1]):
        row = [Fraction(float(v)) for v in padded[index]]
        for x in range(size):
            terms = [k * v for k, v in zip(taps, row[x:x + len(taps)])]
            err[index + (x,)] = abs(Fraction(float(got[index + (x,)])) - sum(terms))
            scale[index + (x,)] = sum(abs(t) for t in terms)
    return err, scale


def mirror_pad(img, n, axis):
    """``img`` padded by ``n`` samples at both ends of ``axis`` at the
    positions :func:`_reflect` folds them onto, as the operators read them."""
    size = img.shape[axis]
    return np.take(img, _reflect(np.arange(-n, size + n), size), axis=axis)


class TestMirrorPad:
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_slices_match_np_pad(self, rng, axis):
        img = rng.random((2, 5, 7))
        size = img.shape[axis]
        for n in range(size):
            pad = [(0, 0)] * img.ndim
            pad[axis] = (n, n)
            assert np.array_equal(mirror_pad(img, n, axis),
                                  np.pad(img, pad, mode="reflect")), n

    @pytest.mark.parametrize("shape", [(2, 5, 7), (3, 2, 1)])
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_wider_than_the_axis_matches_np_pad(self, rng, shape, axis):
        # from n == size - 1 on, the padding folds back more than once
        img = rng.random(shape)
        size = img.shape[axis]
        for n in range(max(size - 1, 0), 3 * size + 1):
            pad = [(0, 0)] * img.ndim
            pad[axis] = (n, n)
            assert np.array_equal(mirror_pad(img, n, axis),
                                  np.pad(img, pad, mode="reflect")), n


class TestBoxAverage:
    @pytest.mark.parametrize("shape", [(8, 64, 64), (2, 5, 7), (2, 7, 5),
                                       (2, 8, 8)])
    @pytest.mark.parametrize("window", [3, 15])
    def test_matches_uniform_kernel(self, rng, shape, window):
        img = rng.random(shape)
        # the clamp for small planes; at 5 or 8 pixels and window 15 the
        # mirror pad reaches n == size - 1
        w = min(window, 2 * min(shape[-2:]) - 1)
        if w % 2 == 0:
            w -= 1
        k = np.full(w, 1.0 / w)
        want = tap_loop_correlate1d(tap_loop_correlate1d(img, k, -1), k, -2)
        assert np.abs(_box_average(img, window) - want).max() < 1e-12

    @pytest.mark.parametrize("shape", [(2, 130, 70), (1, 65, 200), (2, 64, 129)])
    @pytest.mark.parametrize("window", [3, 15, 201])
    def test_tiled_axes_match_uniform_kernel(self, rng, shape, window):
        # an axis longer than one tile is cut into tiles of 64 outputs; at
        # window 201 the clamp lets one window span several tiles
        img = rng.random(shape)
        w = min(window, 2 * min(shape[-2:]) - 1)
        if w % 2 == 0:
            w -= 1
        k = np.full(w, 1.0 / w)
        want = tap_loop_correlate1d(tap_loop_correlate1d(img, k, -1), k, -2)
        assert np.abs(_box_average(img, window) - want).max() < 1e-12

    @pytest.mark.parametrize("shape", [(2, 64, 64), (1, 100, 70)])
    def test_error_against_exact_reference(self, rng, shape):
        # each output is one dot product of its window with the folded taps;
        # running-sum differences erred by 8.1e-17 and 5.3e-17 here
        img = rng.random(shape) - 0.5
        assert exact_box_average_error(img, 15) < 4e-17

    @pytest.mark.parametrize("shape", [(8, 64, 64), (2, 5, 7), (3, 1, 4),
                                       (1, 100, 70)])
    def test_window_one_returns_input(self, rng, shape):
        img = rng.random(shape) - 0.5
        assert _box_average(img, 1).tobytes() == img.tobytes()

    @pytest.mark.parametrize("shape", [(8, 64, 64), (3, 300, 200)])
    def test_plane_alone_equals_plane_in_stack(self, rng, shape):
        img = rng.random(shape) - 0.5
        stacked = _box_average(img, 15)
        for i in range(len(img)):
            assert _box_average(img[i], 15).tobytes() == stacked[i].tobytes()


def exact_box_average_error(img, window):
    """Largest absolute error of ``_box_average`` against the exact mean of
    each reflect-padded window, computed in integers and compared as
    ``Fraction``s; ``img`` holds multiples of 2**-53, as ``rng.random``
    less 0.5 does."""
    scale = 2 ** 53
    sums = (img * scale).astype(np.int64)
    assert np.array_equal(sums / scale, img)
    for axis in (-1, -2):
        pad = [(0, 0)] * img.ndim
        pad[axis] = (window // 2, window // 2)
        padded = np.pad(sums, pad, mode="reflect")
        size = img.shape[axis]
        sums = sum(np.take(padded, np.arange(d, d + size), axis=axis)
                   for d in range(window))
    got = _box_average(img, window)
    exact = (Fraction(int(total), scale * window * window) for total in sums.ravel())
    return float(max(abs(Fraction(float(value)) - want)
                     for value, want in zip(got.ravel(), exact)))


def fancy_resize_planes(img, out_h, out_w):
    """The bilinear resize as first written, gathering with fancy indexing."""
    h, w = img.shape[-2:]
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    rows0 = img[..., y0, :]
    rows1 = img[..., y1, :]
    return (rows0[..., x0] * ((1 - fy)[:, None] * (1 - fx)[None, :])
            + rows0[..., x1] * ((1 - fy)[:, None] * fx[None, :])
            + rows1[..., x0] * (fy[:, None] * (1 - fx)[None, :])
            + rows1[..., x1] * (fy[:, None] * fx[None, :]))


def exact_resize_error(got, img):
    """Largest absolute error of a resize of ``img`` into ``got`` against
    exact bilinear interpolation, in ``Fraction``s, at the float64 sample
    positions src = (dst + 0.5) * in/out - 0.5, clipped to the source."""
    def taps(size, out):
        src = np.clip((np.arange(out) + 0.5) * (size / out) - 0.5, 0, size - 1)
        lo = np.floor(src).astype(int)
        return [(int(i), min(int(i) + 1, size - 1), Fraction(float(s)) - int(i))
                for i, s in zip(lo, src)]

    rows = taps(img.shape[-2], got.shape[-2])
    cols = taps(img.shape[-1], got.shape[-1])
    err = 0
    for plane, out in zip(img.reshape((-1,) + img.shape[-2:]),
                          got.reshape((-1,) + got.shape[-2:])):
        exact = [[Fraction(float(v)) for v in row] for row in plane]
        for i, (y0, y1, fy) in enumerate(rows):
            for j, (x0, x1, fx) in enumerate(cols):
                want = ((1 - fy) * ((1 - fx) * exact[y0][x0] + fx * exact[y0][x1])
                        + fy * ((1 - fx) * exact[y1][x0] + fx * exact[y1][x1]))
                err = max(err, abs(Fraction(float(out[i, j])) - want))
    return float(err)


class TestResizePlanes:
    @pytest.mark.parametrize("shape, out", [
        ((2, 64, 64), (32, 32)),      # pyramid downsample
        ((2, 16, 16), (32, 32)),      # flow upsample between levels
        ((1, 24, 40), (30, 18)),      # non-square, down in x and up in y
        ((1, 4, 256), (5, 128)),      # a tiled downsample
        ((1, 8, 64), (6, 224)),       # a tiled upsample
    ])
    def test_error_against_exact_reference(self, rng, shape, out):
        # the four-gather resize erred by up to 1.2e-16 on such inputs
        img = rng.random(shape) - 0.5
        assert exact_resize_error(_resize_planes(img, *out), img) < 2 * 2 ** -53

    @pytest.mark.parametrize("shape, out", [
        ((3, 64, 64), (32, 32)),
        ((2, 16, 16), (32, 32)),
        ((3, 64, 64), (224, 224)),    # window slot at the default side, tiled
        ((2, 24, 40), (30, 18)),      # non-square, down in x and up in y
        ((5, 33, 17), (17, 33)),
        ((2, 256, 100), (128, 150)),  # tiled on both axes
    ])
    def test_matches_four_gather_reference(self, rng, shape, out):
        img = rng.random(shape)
        assert np.abs(_resize_planes(img, *out)
                      - fancy_resize_planes(img, *out)).max() < 1e-15

    def test_strided_input_equals_contiguous(self, rng):
        field = rng.normal(size=(4, 40, 40, 2))
        planes = np.moveaxis(field, -1, -3)  # what flow slots resize
        assert not planes.flags.c_contiguous
        want = _resize_planes(np.ascontiguousarray(planes), 224, 224)
        assert _resize_planes(planes, 224, 224).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape, out", [((8, 64, 64), (224, 224)),
                                            ((3, 300, 200), (128, 100))])
    def test_plane_alone_equals_plane_in_stack(self, rng, shape, out):
        img = rng.random(shape) - 0.5
        stacked = _resize_planes(img, *out)
        for i in range(len(img)):
            assert _resize_planes(img[i], *out).tobytes() == stacked[i].tobytes()

    def test_operator_cached_and_read_only(self):
        tiles = _resize_operator(64, 224)
        assert _resize_operator(64, 224) is tiles
        assert [(o.start, o.stop) for _, o, _ in tiles] == \
            [(0, 64), (64, 128), (128, 192), (192, 224)]
        for inputs, _, matrix in tiles:
            assert not matrix.flags.writeable
            assert matrix.shape[0] == inputs.stop - inputs.start
            # every output's two weights sum to 1
            assert np.allclose(matrix.sum(axis=0), 1.0)

    def test_float32_input(self, rng):
        img = rng.normal(size=(2, 2, 40, 40)).astype(np.float32)
        got = _resize_planes(img, 32, 32)
        assert got.dtype == np.float64
        assert np.array_equal(got, fancy_resize_planes(img, 32, 32))
        assert np.array_equal(got, _resize_planes(img.astype(np.float64), 32, 32))


class TestPyramid:
    def test_constant_preserved(self):
        pyr = gaussian_pyramid(np.full((32, 32), 0.7), 3, 0.5)
        assert len(pyr) == 3
        for level in pyr:
            assert level == pytest.approx(np.full(level.shape, 0.7))

    def test_level_sizes(self):
        pyr = gaussian_pyramid(np.zeros((64, 64)), 3, 0.5)
        assert [p.shape for p in pyr] == [(64, 64), (32, 32), (16, 16)]

    def test_ramp_stays_planar(self):
        # analytic resample of the plane z = a*x at the half-pixel grid
        xs = np.arange(64, dtype=float)
        img = np.tile(0.01 * xs, (64, 1))
        pyr = gaussian_pyramid(img, 3, 0.5)
        for level in pyr[1:]:
            h, w = level.shape
            src_x = (np.arange(w) + 0.5) * (64 / w) - 0.5
            expected = np.tile(0.01 * src_x, (h, 1))
            interior = (slice(2, h - 2), slice(2, w - 2))
            assert np.abs(level - expected)[interior].max() < 1e-3

    def test_truncation_flagged(self):
        with pytest.warns(UserWarning, match="truncated"):
            pyr = gaussian_pyramid(np.zeros((16, 16)), 5, 0.5, min_size=5)
        assert len(pyr) == 2

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            gaussian_pyramid(np.zeros((3, 3)), 2, 0.5, min_size=5)


class TestPolyExpansion:
    def test_constant_image(self):
        pc = poly_expansion(np.full((16, 16), 0.42), 5, 1.1)
        for name in ("a11", "a12", "a22", "b1", "b2"):
            assert np.abs(getattr(pc, name)).max() < 1e-6
        assert pc.c == pytest.approx(np.full((16, 16), 0.42), abs=1e-6)

    def test_ramp_gradient(self):
        xs = np.arange(24, dtype=float)
        img = np.tile(0.02 * xs, (24, 1))
        pc = poly_expansion(img, 5, 1.1)
        inner = (slice(4, 20), slice(4, 20))
        assert pc.b1[inner] == pytest.approx(np.full((16, 16), 0.02), abs=1e-6)
        assert np.abs(pc.b2[inner]).max() < 1e-6
        assert np.abs(pc.a11[inner]).max() < 1e-6

    def test_pure_quadratic_curvature(self):
        alpha, x0 = 0.003, 12
        xs = np.arange(24, dtype=float)
        img = np.tile(alpha * (xs - x0) ** 2, (24, 1))
        pc = poly_expansion(img, 5, 1.1)
        assert pc.a11[12, x0] == pytest.approx(alpha, abs=1e-4)
        assert pc.b1[12, x0] == pytest.approx(0.0, abs=1e-4)

    def test_matches_dense_least_squares(self, rng):
        img = rng.random((20, 20))
        pc = poly_expansion(img, 5, 1.1)
        for _ in range(20):
            y = int(rng.integers(0, 20))
            x = int(rng.integers(0, 20))
            want = dense_poly_fit(img, 5, 1.1, y, x)
            for name, value in want.items():
                assert getattr(pc, name)[y, x] == pytest.approx(value, abs=1e-6)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            poly_expansion(np.zeros((10, 10)), 4, 1.0)

    @pytest.mark.parametrize("window", [3, 5, 7, 9])
    @pytest.mark.parametrize("sigma", [0.6, 1.1, 2.0, 4.0])
    def test_closed_form_matches_dense_least_squares(self, rng, window, sigma):
        img = rng.random((11, 13))
        pc = poly_expansion(img, window, sigma)
        for y in range(11):
            for x in range(13):
                for name, value in dense_poly_fit(img, window, sigma, y, x).items():
                    assert getattr(pc, name)[y, x] == pytest.approx(value, rel=0,
                                                                    abs=1e-12)


def analytic_coeffs(shape, A, b0, shift=(0.0, 0.0)):
    """PolyCoeffs of the global quadratic f(p) = p^T A p + b0^T p translated
    by ``shift``; the local linear term is the gradient at each pixel."""
    h, w = shape
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    px = xs - shift[0]
    py = ys - shift[1]
    b1 = 2 * A[0][0] * px + 2 * A[0][1] * py + b0[0]
    b2 = 2 * A[1][1] * py + 2 * A[0][1] * px + b0[1]
    c = A[0][0] * px**2 + A[1][1] * py**2 + 2 * A[0][1] * px * py \
        + b0[0] * px + b0[1] * py
    return PolyCoeffs(a11=np.full(shape, A[0][0]),
                      a12=np.full(shape, A[0][1]),
                      a22=np.full(shape, A[1][1]),
                      b1=b1, b2=b2, c=c)


def where_flow_step(p1, p2, prior, averaging_window):
    """flow_step as first written: the solve divides by a guarded det and
    picks with np.where.  Also returns the mask of solved pixels."""
    h, w = p1.shape[-2:]
    ys_grid, xs_grid = np.mgrid[0:h, 0:w].astype(np.float64)
    sample = _bilinear_sampler(np.clip(ys_grid + prior[..., 1], 0, h - 1),
                               np.clip(xs_grid + prior[..., 0], 0, w - 1))
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
    return prior + np.stack([dx, dy], axis=-1), ok


class TestFlowStep:
    def test_identical_coeffs_zero_flow(self, rng):
        img = rng.random((20, 20))
        pc = poly_expansion(img, 5, 1.1)
        flow = flow_step(pc, pc, np.zeros((20, 20, 2)), 5)
        assert np.abs(flow).max() < 1e-9

    def test_analytic_shift_recovered(self):
        A = [[0.4, 0.1], [0.1, 0.3]]
        p1 = analytic_coeffs((24, 24), A, (0.05, -0.02))
        p2 = analytic_coeffs((24, 24), A, (0.05, -0.02), shift=(1.0, 0.0))
        flow = flow_step(p1, p2, np.zeros((24, 24, 2)), 5)
        inner = flow[4:20, 4:20]
        assert np.abs(inner[..., 0] - 1.0).max() < 0.05
        assert np.abs(inner[..., 1]).max() < 0.05

    def test_singular_region_keeps_prior(self):
        flat = poly_expansion(np.full((16, 16), 0.5), 5, 1.1)
        prior = np.zeros((16, 16, 2))
        prior[..., 0] = 0.7
        flow = flow_step(flat, flat, prior, 5)
        assert flow == pytest.approx(prior)

    def test_masked_solve_matches_where_solve(self, rng):
        # textured on the left, flat on the right: the averaged normal
        # matrix is singular deep inside the flat part
        frames = np.full((3, 32, 48), 0.5)
        frames[:, :, :20] = [smooth_texture(rng, 32, 20) for _ in range(3)]
        coeffs = poly_expansion(frames, 5, 1.1)
        prior = rng.normal(scale=0.5, size=(2, 32, 48, 2))
        got = flow_step(coeffs[:-1], coeffs[1:], prior, 5)
        want, ok = where_flow_step(coeffs[:-1], coeffs[1:], prior, 5)
        assert ok.any() and not ok.all()
        assert np.array_equal(got, want)
        assert np.array_equal(got[~ok], prior[~ok])

    @pytest.mark.parametrize("shape", [(1, 8), (8, 1)])
    def test_fields_narrower_than_two_rejected(self, shape):
        # the sampler's 2x2 blocks would read outside a 1-pixel plane
        p = PolyCoeffs(*(np.ones(shape) for _ in range(6)))
        with pytest.raises(ValueError, match="at least 2x2"):
            flow_step(p, p, np.zeros(shape + (2,)), 3)

    def test_dimension_mismatch(self):
        p1 = poly_expansion(np.zeros((16, 16)), 5, 1.0)
        p2 = poly_expansion(np.zeros((16, 18)), 5, 1.0)
        with pytest.raises(ValueError):
            flow_step(p1, p2, np.zeros((16, 16, 2)), 5)


class TestFarneback:
    def test_identical_frames(self, rng):
        img = smooth_texture(rng, 64, 64)
        flow = farneback_flow(img, img)
        assert np.abs(flow).max() < 1e-3

    def test_integer_shift(self):
        f1, f2 = shifted_pair(np.random.default_rng(0), 64, 3.0, 0.0)
        flow = farneback_flow(f1, f2)
        inner = flow[8:56, 8:56]
        epe = np.hypot(inner[..., 0] - 3.0, inner[..., 1]).mean()
        assert epe < 0.5

    def test_subpixel_warp(self):
        f1, f2 = shifted_pair(np.random.default_rng(1), 64, 1.5, -0.5)
        flow = farneback_flow(f1, f2)
        inner = flow[8:56, 8:56]
        epe = np.hypot(inner[..., 0] - 1.5, inner[..., 1] + 0.5).mean()
        assert epe < 0.5

    def test_approximate_antisymmetry(self):
        f1, f2 = shifted_pair(np.random.default_rng(2), 64, 2.0, 1.0)
        fwd = farneback_flow(f1, f2)[8:56, 8:56]
        bwd = farneback_flow(f2, f1)[8:56, 8:56]
        residual = (fwd + bwd).mean(axis=(0, 1))
        assert np.hypot(*residual) < 0.2

    def test_constant_offset_invariance(self):
        f1, f2 = shifted_pair(np.random.default_rng(3), 48, 1.0, 0.0)
        base = farneback_flow(f1, f2)
        offset = farneback_flow(f1 + 0.1, f2 + 0.1)
        assert np.abs(offset - base).max() < 1e-3

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            farneback_flow(np.zeros((32, 32)), np.zeros((32, 34)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(poly_window=4).validate()
        with pytest.raises(ValueError):
            FlowConfig(pyramid_scale=1.5).validate()
        with pytest.raises(ValueError):
            FlowConfig(pyramid_levels=0).validate()


def drifting_video(rng, n, h, w):
    """n frames of one texture panning one pixel right and down per frame."""
    big = smooth_texture(rng, h + n, w + n)
    return np.stack([big[n - i:n - i + h, n - i:n - i + w] for i in range(n)])


def per_pair_flow(frames, config):
    return np.stack([farneback_flow(a, b, config)
                     for a, b in zip(frames[:-1], frames[1:])])


def chunked_video_flow(frames, pairs_per_chunk, config):
    """video_flow over chunks that share their boundary frame."""
    out = [video_flow(frames[s:s + pairs_per_chunk + 1], config)
           for s in range(0, len(frames) - 1, pairs_per_chunk)]
    return np.concatenate(out)


class TestVideoFlow:
    """The batched path must reproduce the two-frame path bit for bit."""

    CONFIG = FlowConfig(averaging_window=9)

    def test_chunked_stack_matches_per_pair(self, rng):
        frames = drifting_video(rng, 11, 32, 32)
        want = per_pair_flow(frames, self.CONFIG)
        assert np.array_equal(video_flow(frames, self.CONFIG), want)
        # 10 pairs in chunks of 4: the last chunk is short
        assert np.array_equal(chunked_video_flow(frames, 4, self.CONFIG), want)

    def test_truncated_pyramid_matches_per_pair(self, rng):
        frames = drifting_video(rng, 5, 12, 12)
        with pytest.warns(UserWarning, match="truncated"):
            want = per_pair_flow(frames, self.CONFIG)
        with pytest.warns(UserWarning, match="truncated"):
            got = video_flow(frames, self.CONFIG)
        assert np.array_equal(got, want)

    def test_non_square_matches_per_pair(self, rng):
        frames = drifting_video(rng, 4, 24, 40)
        got = video_flow(frames, self.CONFIG)
        assert got.shape == (3, 24, 40, 2)
        assert np.array_equal(got, per_pair_flow(frames, self.CONFIG))

    def test_needs_two_frames(self):
        with pytest.raises(ValueError, match="N >= 2"):
            video_flow(np.zeros((1, 16, 16)))
        with pytest.raises(ValueError, match="N >= 2"):
            video_flow(np.zeros((16, 16)))


def synth_flow_errors(frame_dir, seed, duration, pairs_per_chunk=8):
    """(rectangle endpoint error, background flow magnitude), in pixels, of
    ``video_flow`` on one 64x64 synth video whose rectangle moves by known
    steps over a static background.

    The endpoint error is averaged over pixels at least 2 px inside the
    rectangle of a pair's first frame, the magnitude over pixels at least
    6 px outside it in both frames.  Chunks share their boundary frame, as
    the pipeline's do.
    """
    n, _, centres = generate_video(frame_dir, 0, per_video_rng(seed, "synth_0000"),
                                   duration, 10.0, 64)
    frames = np.stack([read_pnm(os.path.join(frame_dir, f"frame_{i:06d}.pgm"))
                       for i in range(n)])
    flows = chunked_video_flow(frames, pairs_per_chunk, FlowConfig())
    cell = np.arange(64.0)  # pixel j covers [j, j + 1)

    def inside(c, margin):
        return (cell >= c - RECT_HALF + margin) & (cell + 1 <= c + RECT_HALF - margin)

    def outside(c, margin):
        return (cell + 1 <= c - RECT_HALF - margin) | (cell >= c + RECT_HALF + margin)

    errors, background = [], []
    for flow, (x0, y0), (x1, y1) in zip(flows, centres[:-1], centres[1:]):
        rect = inside(y0, 2)[:, None] & inside(x0, 2)
        away = ((outside(y0, 6)[:, None] | outside(x0, 6))
                & (outside(y1, 6)[:, None] | outside(x1, 6)))
        errors.append(np.hypot(flow[..., 0] - (x1 - x0),
                               flow[..., 1] - (y1 - y0))[rect])
        background.append(np.hypot(flow[..., 0], flow[..., 1])[away])
    return np.concatenate(errors).mean(), np.concatenate(background).mean()


class TestSynthMotion:
    """Flow accuracy against the motion synth draws: a rewrite that stays
    deterministic but breaks the estimator fails here."""

    def test_errors_within_bounds(self, tmp_path):
        # measured 0.614106 and 0.380673 px; the rectangle moves about 1 px
        # per frame, 4-5 px in the bursts after a boundary
        rect, background = synth_flow_errors(tmp_path, seed=7, duration=4.0)
        assert rect < 0.62
        assert background < 0.39


class TestFlowUpsampling:
    def test_constant_field_direction_preserved(self):
        field = np.zeros((16, 16, 2))
        field[..., 0] = 1.5
        field[..., 1] = -0.75
        up = _resize_channels_last(field, 32, 32) / 0.5
        assert up[..., 0] == pytest.approx(np.full((32, 32), 3.0))
        assert up[..., 1] == pytest.approx(np.full((32, 32), -1.5))


def flow_stats(field):
    """:func:`flow_stats_rows` of one (H, W, 2) field, as its one row."""
    mean, peak, hist = flow_stats_rows(field[..., 0].reshape(1, -1),
                                       field[..., 1].reshape(1, -1))
    return mean[0], peak[0], hist[0]


class TestFlowStats:
    def test_zero_field_uniform_histogram(self):
        mean, peak, hist = flow_stats(np.zeros((8, 8, 2)))
        assert mean == 0.0 and peak == 0.0
        assert hist == pytest.approx(np.full(8, 0.125))

    def test_constant_345_field(self):
        field = np.zeros((8, 8, 2))
        field[..., 0] = 3.0
        field[..., 1] = 4.0
        mean, peak, hist = flow_stats(field)
        assert mean == pytest.approx(5.0)
        assert peak == pytest.approx(5.0)
        assert sorted(hist)[-1] == pytest.approx(1.0)

    def test_matches_naive_loop(self, rng):
        field = rng.normal(size=(10, 12, 2))
        mean, peak, hist = flow_stats(field)
        mags, bins = [], np.zeros(8)
        for y in range(10):
            for x in range(12):
                dx, dy = field[y, x]
                mag = (dx * dx + dy * dy) ** 0.5
                mags.append(mag)
                theta = np.arctan2(dy, dx)
                idx = min(int((theta + np.pi) / (2 * np.pi / 8)), 7)
                bins[idx] += mag
        assert mean == pytest.approx(np.mean(mags))
        assert peak == pytest.approx(np.max(mags))
        assert hist == pytest.approx(bins / np.sum(mags))
