"""Turn per-candidate boundary scores into predicted boundary timestamps.

Scores are optionally smoothed with a discrete Gaussian (sigma in candidate
steps), then local maxima at or above a score threshold become candidate
boundaries; greedy suppression keeps the highest-scoring peaks first until
all survivors are at least ``min_separation`` seconds apart.  Plateaus
contribute their leftmost index, and sequence edges count as lower
neighbors, so a plateau spanning the whole sequence yields one boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DetectionConfig
from .flow import gaussian_kernel


@dataclass
class ScoreSequence:
    video_id: str
    timestamps: list  # strictly ascending seconds
    scores: list  # aligned, in [0,1]

    def validate(self) -> None:
        if len(self.timestamps) != len(self.scores):
            raise ValueError(
                f"{self.video_id}: {len(self.timestamps)} timestamps vs "
                f"{len(self.scores)} scores")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if b <= a:
                raise ValueError(f"{self.video_id}: timestamps not strictly ascending")


def gaussian_taps(sigma: float) -> np.ndarray:
    """Normalized discrete Gaussian with radius ceil(3*sigma)."""
    return gaussian_kernel(sigma, int(np.ceil(3 * sigma)))


def smooth_scores(seq: ScoreSequence, sigma: float) -> ScoreSequence:
    """Gaussian-smoothed copy, reflect-padded by ``np.pad``'s "reflect"
    mode, which folds a radius longer than the sequence back and forth;
    sigma 0 returns an identical copy."""
    seq.validate()
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    scores = np.asarray(seq.scores, dtype=np.float64)
    if sigma == 0 or len(scores) <= 1:
        smoothed = scores.copy()
    else:
        taps = gaussian_taps(sigma)
        smoothed = np.convolve(np.pad(scores, len(taps) // 2, mode="reflect"),
                               taps[::-1], mode="valid")
    return ScoreSequence(video_id=seq.video_id, timestamps=list(seq.timestamps),
                         scores=[float(s) for s in smoothed])


def _plateau_maxima(scores: np.ndarray):
    """Leftmost index of every run of equal values higher than both neighbors."""
    peaks = []
    n = len(scores)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and scores[j + 1] == scores[i]:
            j += 1
        left_lower = i == 0 or scores[i - 1] < scores[i]
        right_lower = j == n - 1 or scores[j + 1] < scores[i]
        if left_lower and right_lower:
            peaks.append(i)
        i = j + 1
    return peaks


def detect_peaks(seq: ScoreSequence, config: DetectionConfig):
    """Peak timestamps after thresholding and min-separation suppression.

    Suppression is greedy in descending score order (ties: earlier
    timestamp wins), so raising the threshold can only remove boundaries.
    Returns ascending timestamps (possibly empty).
    """
    seq.validate()
    config.validate()
    scores = np.asarray(seq.scores, dtype=np.float64)
    candidates = [i for i in _plateau_maxima(scores)
                  if scores[i] >= config.score_threshold]
    candidates.sort(key=lambda i: (-scores[i], seq.timestamps[i]))
    kept = []
    for i in candidates:
        t = seq.timestamps[i]
        if all(abs(t - u) >= config.min_separation for u in kept):
            kept.append(t)
    return sorted(kept)


def scores_to_boundaries(seq: ScoreSequence, config: DetectionConfig):
    """Smooth then detect; the composition used by the detection stage."""
    return detect_peaks(smooth_scores(seq, config.smooth_sigma), config)
