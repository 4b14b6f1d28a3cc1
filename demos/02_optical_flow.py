#!/usr/bin/env python3
"""Walkthrough: dense optical flow from polynomial expansion.

Creates a smooth random texture, shifts it by a known subpixel amount, and
checks how well the coarse-to-fine estimator recovers the displacement.
Also pokes at the intermediate pieces: the pyramid and the per-pixel
quadratic fit.
"""

import numpy as np

from gebd.flow import (FlowConfig, farneback_flow, flow_stats_rows, gaussian_kernel,
                       gaussian_pyramid, poly_expansion, sep_correlate)

rng = np.random.default_rng(0)

# a smooth texture with a seam-free translated copy
pad = 8
big = sep_correlate(rng.random((80, 80)), gaussian_kernel(3.0, 9),
                    gaussian_kernel(3.0, 9))
big = (big - big.min()) / (big.max() - big.min())
true_dx, true_dy = 2.0, -1.25


def sample(img, ys, xs):
    y0 = np.clip(np.floor(ys).astype(int), 0, img.shape[0] - 2)
    x0 = np.clip(np.floor(xs).astype(int), 0, img.shape[1] - 2)
    fy, fx = ys - y0, xs - x0
    return (img[y0, x0] * (1 - fy) * (1 - fx) + img[y0, x0 + 1] * (1 - fy) * fx
            + img[y0 + 1, x0] * fy * (1 - fx) + img[y0 + 1, x0 + 1] * fy * fx)


ys, xs = np.mgrid[0:64, 0:64].astype(float)
frame1 = sample(big, ys + pad, xs + pad)
frame2 = sample(big, ys + pad - true_dy, xs + pad - true_dx)

config = FlowConfig()  # 3 pyramid levels, scale 0.5, window 5, sigma 1.1
print(f"estimating flow for a planted shift of ({true_dx}, {true_dy}) px")

pyramid = gaussian_pyramid(frame1, config.pyramid_levels, config.pyramid_scale)
print("pyramid level sizes:", [p.shape for p in pyramid])

pc = poly_expansion(frame1, config.poly_window, config.poly_sigma)
print(f"per-pixel quadratic fit: c matches the image to "
      f"{np.abs(pc.c - frame1).max():.4f} max error")

flow = farneback_flow(frame1, frame2, config)
inner = flow[8:56, 8:56]
epe = np.hypot(inner[..., 0] - true_dx, inner[..., 1] - true_dy)
print(f"mean endpoint error (central region): {epe.mean():.3f} px")
print(f"median recovered vector: "
      f"({np.median(inner[..., 0]):.3f}, {np.median(inner[..., 1]):.3f})")

# one field as one row of each component
mean_mag, max_mag, hist = flow_stats_rows(flow[..., 0].reshape(1, -1),
                                          flow[..., 1].reshape(1, -1))
print(f"flow stats: mean magnitude {mean_mag[0]:.2f} px, max {max_mag[0]:.2f} px")
print("angle histogram (8 bins, magnitude weighted):")
print("  " + " ".join(f"{v:.2f}" for v in hist[0]))
