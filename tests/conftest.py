"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the library's code paths: matching is
checked against exhaustive enumeration, convolutions against naive double
loops, and flow against analytically constructed translations.
"""

import numpy as np
import pytest

from gebd.flow import gaussian_kernel, sep_correlate


# ---------------------------------------------------------------------------
# matching oracles

def enumerate_matchings(dist, limit):
    """All one-to-one admissible pairings by explicit recursion.

    Returns (cardinality, total_cost, pairs) of the best matching under the
    (max cardinality, min cost, lexicographically smallest pairs) order.
    Exponential; keep instances small.
    """
    P, G = dist.shape
    admissible = [[j for j in range(G) if dist[i][j] <= limit] for i in range(P)]
    best = [0, 0.0, []]

    def better(card, cost, pairs):
        if card != best[0]:
            return card > best[0]
        if abs(cost - best[1]) > 1e-9:
            return cost < best[1]
        return pairs < best[2]

    def rec(i, used, pairs, cost):
        if i == P:
            if better(len(pairs), cost, pairs):
                best[0], best[1], best[2] = len(pairs), cost, list(pairs)
            return
        rec(i + 1, used, pairs, cost)
        for j in admissible[i]:
            if j not in used:
                pairs.append((i, j))
                rec(i + 1, used | {j}, pairs, cost + dist[i][j])
                pairs.pop()

    rec(0, frozenset(), [], 0.0)
    return best[0], best[1], best[2]


def max_matching_cardinality(dist, limit):
    """Exhaustive maximum-matching size via bitmask dynamic programming."""
    P, G = dist.shape
    admissible = [[j for j in range(G) if dist[i][j] <= limit] for i in range(P)]
    memo = {}

    def rec(i, mask):
        if i == P:
            return 0
        key = (i, mask)
        if key in memo:
            return memo[key]
        out = rec(i + 1, mask)
        for j in admissible[i]:
            bit = 1 << j
            if not mask & bit:
                out = max(out, 1 + rec(i + 1, mask | bit))
        memo[key] = out
        return out

    return rec(0, 0)


# ---------------------------------------------------------------------------
# image helpers

def naive_correlate2d(img, kernel2d):
    """Direct windowed correlation with mirror padding; O(H*W*k^2)."""
    kh, kw = kernel2d.shape
    ny, nx = kh // 2, kw // 2
    padded = np.pad(img, ((ny, ny), (nx, nx)), mode="reflect")
    out = np.zeros_like(img, dtype=float)
    for y in range(img.shape[0]):
        for x in range(img.shape[1]):
            out[y, x] = np.sum(padded[y:y + kh, x:x + kw] * kernel2d)
    return out


def tap_loop_correlate1d(img, kernel, axis):
    """:func:`gebd.flow.correlate1d` as a loop over the taps, each one
    scaling a shifted slice of the reflect-padded input, the sum starting
    from the first tap's product: the kernel as it was before it became a
    matrix product, byte for byte."""
    kernel = np.asarray(kernel, dtype=np.float64)
    size = img.shape[axis]
    pad = [(0, 0)] * img.ndim
    pad[axis] = (len(kernel) // 2, len(kernel) // 2)
    padded = np.pad(img, pad, mode="reflect")

    def shifted(t):
        index = [slice(None)] * img.ndim
        index[axis] = slice(t, t + size)
        return padded[tuple(index)]

    out = kernel[0] * shifted(0)
    for t in range(1, len(kernel)):
        out += kernel[t] * shifted(t)
    return out


def smooth_texture(rng, h, w, sigma=3.0):
    """Blurred uniform noise stretched to [0,1]."""
    k = gaussian_kernel(sigma, int(3 * sigma))
    tex = sep_correlate(rng.random((h, w)), k, k)
    tex -= tex.min()
    return tex / tex.max()


def bilinear_probe(img, ys, xs):
    h, w = img.shape
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 2)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 2)
    fx = xs - x0
    fy = ys - y0
    return (img[y0, x0] * (1 - fy) * (1 - fx) + img[y0, x0 + 1] * (1 - fy) * fx
            + img[y0 + 1, x0] * fy * (1 - fx) + img[y0 + 1, x0 + 1] * fy * fx)


def shifted_pair(rng, size, dx, dy, sigma=3.0, pad=8):
    """Two seam-free views of one texture differing by the exact shift (dx, dy).

    Built by sampling a larger texture at displaced coordinates, so the flow
    ground truth is (dx, dy) everywhere including borders.
    """
    big = smooth_texture(rng, size + 2 * pad, size + 2 * pad, sigma)
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    f1 = bilinear_probe(big, ys + pad, xs + pad)
    f2 = bilinear_probe(big, ys + pad - dy, xs + pad - dx)
    return f1, f2


# ---------------------------------------------------------------------------
# classifier data

def separable_dataset(rng, n=200, margin=0.5, dim=2):
    """Linearly separable labeled points with the stated inter-class margin."""
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    y = np.repeat([0.0, 1.0], n // 2)
    X = rng.normal(scale=1.0, size=(n, dim))
    proj = X @ direction
    # push each point to its class side, clearing margin/2 from the separator
    offset = (margin / 2 + np.abs(proj)) * np.where(y > 0.5, 1.0, -1.0) - proj
    X = X + offset[:, None] * direction[None, :]
    perm = rng.permutation(n)
    return X[perm], y[perm]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
