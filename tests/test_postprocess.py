import numpy as np
import pytest

from gebd.postprocess import (DetectionConfig, ScoreSequence, detect_peaks,
                              gaussian_taps, scores_to_boundaries, smooth_scores)


def seq(scores, stride=0.25, video_id="v"):
    ts = [(k + 0.5) * stride for k in range(len(scores))]
    return ScoreSequence(video_id=video_id, timestamps=ts, scores=list(scores))


def oracle_peaks(sequence, config):
    """Brute-force reference: enumerate plateau maxima, suppress by score order."""
    s = list(sequence.scores)
    n = len(s)
    maxima = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and s[j + 1] == s[i]:
            j += 1
        if (i == 0 or s[i - 1] < s[i]) and (j == n - 1 or s[j + 1] < s[i]):
            maxima.append(i)
        i = j + 1
    maxima = [i for i in maxima if s[i] >= config.score_threshold]
    kept = []
    for i in sorted(maxima, key=lambda k: (-s[k], sequence.timestamps[k])):
        t = sequence.timestamps[i]
        if all(abs(t - u) >= config.min_separation for u in kept):
            kept.append(t)
    return sorted(kept)


class TestSmoothing:
    def test_sigma_zero_identity(self):
        s = seq([0.1, 0.7, 0.3])
        out = smooth_scores(s, 0.0)
        assert out.scores == s.scores
        assert out.timestamps == s.timestamps

    def test_constant_unchanged(self):
        s = seq([0.4] * 10)
        for sigma in (0.5, 1.0, 3.0):
            assert smooth_scores(s, sigma).scores == pytest.approx([0.4] * 10)

    def test_impulse_reproduces_kernel(self):
        scores = [0.0] * 11
        scores[5] = 1.0
        out = smooth_scores(seq(scores), 1.0)
        taps = gaussian_taps(1.0)
        radius = len(taps) // 2
        assert out.scores[5 - radius:5 + radius + 1] == pytest.approx(list(taps))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            smooth_scores(seq([0.1]), -1.0)

    def test_radius_past_both_ends_matches_np_pad(self):
        # sigma 5 has radius 15, so six scores are reflected several times
        scores = np.array([0.1, 0.9, 0.3, 0.7, 0.2, 0.5])
        taps = gaussian_taps(5.0)
        assert len(taps) // 2 == 15
        want = np.convolve(np.pad(scores, 15, mode="reflect"), taps[::-1], "valid")
        got = np.array(smooth_scores(seq(scores), 5.0).scores)
        assert got.tobytes() == want.tobytes()


class TestDetectPeaks:
    def test_single_maximum(self):
        s = seq([0.1, 0.9, 0.2])
        out = detect_peaks(s, DetectionConfig(score_threshold=0.5))
        assert out == [s.timestamps[1]]

    def test_all_below_threshold(self):
        assert detect_peaks(seq([0.1, 0.3, 0.2]),
                            DetectionConfig(score_threshold=0.5)) == []

    def test_plateau_leftmost(self):
        s = seq([0.1, 0.8, 0.8, 0.8, 0.2])
        out = detect_peaks(s, DetectionConfig(min_separation=0.0))
        assert out == [s.timestamps[1]]

    def test_matches_oracle_on_random_sequences(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 40))
            # quantized scores make plateaus and ties common
            scores = np.round(rng.random(n), 1)
            config = DetectionConfig(
                smooth_sigma=0.0,
                score_threshold=float(rng.uniform(0.0, 0.8)),
                min_separation=float(rng.uniform(0.0, 2.0)))
            s = seq(list(scores))
            assert detect_peaks(s, config) == oracle_peaks(s, config)

    def test_output_sorted_and_separated(self, rng):
        for _ in range(20):
            scores = list(rng.random(30))
            config = DetectionConfig(score_threshold=0.2, min_separation=0.6)
            out = detect_peaks(seq(scores), config)
            assert out == sorted(out)
            assert all(b - a >= 0.6 for a, b in zip(out, out[1:]))

    def test_monotone_in_threshold(self, rng):
        scores = list(rng.random(40))
        s = seq(scores)
        previous = None
        for threshold in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            out = set(detect_peaks(s, DetectionConfig(
                smooth_sigma=0.0, score_threshold=threshold,
                min_separation=0.5)))
            if previous is not None:
                assert out <= previous
            previous = out

    def test_shift_equivariance(self, rng):
        scores = list(rng.random(25))
        config = DetectionConfig(score_threshold=0.3, min_separation=0.4)
        base = detect_peaks(seq(scores), config)
        shifted = ScoreSequence("v", [t + 11.5 for t in seq(scores).timestamps],
                                scores)
        out = detect_peaks(shifted, config)
        assert out == pytest.approx([t + 11.5 for t in base])

    def test_score_scale_invariance(self, rng):
        scores = list(rng.random(25))
        config = DetectionConfig(smooth_sigma=0.0, score_threshold=0.4,
                                 min_separation=0.4)
        base = detect_peaks(seq(scores), config)
        half = DetectionConfig(smooth_sigma=0.0, score_threshold=0.2,
                               min_separation=0.4)
        out = detect_peaks(seq([v * 0.5 for v in scores]), half)
        assert out == base


class TestCompose:
    def test_constant_high_scores_single_boundary(self):
        s = seq([0.9] * 20)
        config = DetectionConfig(min_separation=100.0)
        assert len(scores_to_boundaries(s, config)) == 1

    def test_two_bumps(self):
        scores = np.full(40, 0.05)
        for center in (8, 20):  # 3 s apart at 0.25 s stride
            for off in (-2, -1, 0, 1, 2):
                scores[center + off] = 0.9 - 0.15 * abs(off)
        s = seq(list(scores))
        out = scores_to_boundaries(s, DetectionConfig(min_separation=1.0))
        assert len(out) == 2
        assert abs(out[0] - s.timestamps[8]) <= 0.25
        assert abs(out[1] - s.timestamps[20]) <= 0.25

    def test_unattainable_threshold(self, rng):
        s = seq(list(rng.random(30)))
        config = DetectionConfig(smooth_sigma=0.0, score_threshold=1.01)
        assert scores_to_boundaries(s, config) == []


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="timestamps"):
            ScoreSequence("v", [1.0, 2.0], [0.5]).validate()

    def test_unsorted_timestamps(self):
        with pytest.raises(ValueError, match="ascending"):
            ScoreSequence("v", [2.0, 1.0], [0.5, 0.5]).validate()
