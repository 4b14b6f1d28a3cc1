import numpy as np
import pytest

from gebd.flow import (FlowConfig, PolyCoeffs, _box_average, _mirror_slices,
                       bilinear_resize, farneback_flow, flow_stats, flow_step,
                       gaussian_kernel, gaussian_pyramid, poly_expansion,
                       sep_correlate, to_gray, video_flow)

from conftest import naive_correlate2d, shifted_pair, smooth_texture


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


class TestMirrorPad:
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_slices_match_np_pad(self, rng, axis):
        img = rng.random((2, 5, 7))
        size = img.shape[axis]
        for n in range(size):
            left, right = _mirror_slices(img, n, axis)
            pad = [(0, 0)] * img.ndim
            pad[axis] = (n, n)
            assert np.array_equal(np.concatenate([left, img, right], axis=axis),
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
        assert np.abs(_box_average(img, window)
                      - sep_correlate(img, k, k)).max() < 1e-12


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


class TestFlowUpsampling:
    def test_constant_field_direction_preserved(self):
        field = np.zeros((16, 16, 2))
        field[..., 0] = 1.5
        field[..., 1] = -0.75
        up = bilinear_resize(field, 32, 32) / 0.5
        assert up[..., 0] == pytest.approx(np.full((32, 32), 3.0))
        assert up[..., 1] == pytest.approx(np.full((32, 32), -1.5))


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
