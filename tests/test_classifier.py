import numpy as np
import pytest

from gebd import classifier
from gebd.classifier import (FEATURE_DIM, LogisticModel, TrainConfig,
                             bce_gradient, load_model, save_model,
                             score_sequence, slot_features, train_logistic,
                             window_features)

from conftest import separable_dataset


def zero_model(dim):
    return LogisticModel(weights=np.zeros(dim), bias=0.0,
                         feature_mean=np.zeros(dim),
                         feature_std=np.ones(dim))


class TestFrameFeatures:
    def test_degenerate_constant_input(self):
        gray = np.full((8, 8), 0.5)
        flow = np.zeros((2, 8, 8))
        f = slot_features(gray[None], flow[None], gray[None])[0]
        assert f.shape == (FEATURE_DIM,)
        assert f[0] == 0.0 and f[1] == 0.0  # magnitudes
        assert f[2:10] == pytest.approx(np.full(8, 0.125))  # angle histogram
        assert sorted(f[10:26])[-1] == pytest.approx(1.0)  # one intensity bin
        assert f[26] == 0.0  # frame difference

    def test_constant_345_flow(self):
        gray = np.full((8, 8), 0.5)
        flow = np.stack([np.full((8, 8), 3.0), np.full((8, 8), 4.0)])
        f = slot_features(gray[None], flow[None], gray[None])[0]
        assert f[0] == pytest.approx(5.0)
        assert f[1] == pytest.approx(5.0)

    def test_matches_naive_recomputation(self, rng):
        gray = rng.random((6, 6))
        prev = rng.random((6, 6))
        flow = rng.normal(size=(2, 6, 6))
        f = slot_features(gray[None], flow[None], prev[None])[0]

        mags, bins = [], np.zeros(8)
        for y in range(6):
            for x in range(6):
                dx, dy = flow[0, y, x], flow[1, y, x]
                mag = (dx * dx + dy * dy) ** 0.5
                mags.append(mag)
                bins[min(int((np.arctan2(dy, dx) + np.pi) / (2 * np.pi / 8)), 7)] += mag
        assert f[0] == pytest.approx(np.mean(mags))
        assert f[1] == pytest.approx(np.max(mags))
        assert f[2:10] == pytest.approx(bins / np.sum(mags))
        hist = np.zeros(16)
        for v in gray.ravel():
            hist[min(int(v * 16), 15)] += 1
        assert f[10:26] == pytest.approx(hist / gray.size)
        assert f[26] == pytest.approx(np.abs(gray - prev).mean())

    def test_histograms_sum_to_one(self, rng):
        f = slot_features(rng.random((1, 5, 5)), rng.normal(size=(1, 2, 5, 5)),
                          rng.random((1, 5, 5)))[0]
        assert f[2:10].sum() == pytest.approx(1.0, abs=1e-6)
        assert f[10:26].sum() == pytest.approx(1.0, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            slot_features(np.zeros((1, 4, 4)), np.zeros((1, 2, 5, 5)),
                          np.zeros((1, 4, 4)))


def histogram_features(gray, flow, prev_gray):
    """slot_features as first written: one slot at a time, with
    np.histogram for the intensity bins."""
    gray, flow, prev_gray = (np.asarray(a, dtype=np.float64)
                             for a in (gray, flow, prev_gray))
    field = np.transpose(flow, (1, 2, 0))
    mag = np.hypot(field[..., 0], field[..., 1])
    total = float(mag.sum())
    if total == 0.0:
        angle_hist = np.full(8, 1.0 / 8.0)
    else:
        theta = np.arctan2(field[..., 1], field[..., 0])
        bins = np.minimum((theta + np.pi) / (2 * np.pi / 8), 7.9999).astype(np.intp)
        angle_hist = np.bincount(np.clip(bins, 0, 7).ravel(),
                                 weights=mag.ravel(), minlength=8) / total
    intensity_hist, _ = np.histogram(np.clip(gray, 0, 1), bins=16, range=(0.0, 1.0))
    return np.concatenate([[float(mag.mean()), float(mag.max())], angle_hist,
                           intensity_hist / gray.size,
                           [float(np.abs(gray - prev_gray).mean())]])


class TestSlotFeatures:
    """The batched rows equal the one-slot formula bit for bit."""

    def slots(self, rng, dtype=np.float64):
        gray = rng.random((6, 12, 12)).astype(dtype)
        flow = rng.normal(size=(6, 2, 12, 12)).astype(dtype)
        prev = rng.random((6, 12, 12)).astype(dtype)
        flow[1] = 0.0  # all-zero flow: the uniform angle histogram
        gray[2, :, :5] = 0.0
        gray[2, :, 5:] = 1.5  # above 1, clipped to 1.0
        edges = np.arange(17) / 16  # every bin edge k/16, 1.0 included
        gray[3, 0, :] = edges[:12]
        gray[3, 1, :5] = edges[12:]
        flow[4, 0], flow[4, 1] = -1.0, 0.0  # angle exactly +pi
        flow[4, 1, :6] = -0.0  # angle exactly -pi
        flow[5, :, ::2] = 0.0  # zero vectors among moving ones
        return gray, flow, prev

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rows_equal_per_slot_formula(self, rng, dtype):
        gray, flow, prev = self.slots(rng, dtype)
        assert set(np.arange(17) / 16) <= set(gray[3].astype(np.float64).ravel())
        theta = np.arctan2(flow[4, 1], flow[4, 0])
        assert theta.max() == np.pi and theta.min() == -np.pi
        got = slot_features(gray, flow, prev)
        assert got.shape == (6, FEATURE_DIM)
        for k in range(6):
            want = histogram_features(gray[k], flow[k], prev[k])
            assert np.array_equal(got[k], want), k
            assert np.array_equal(
                slot_features(gray[k][None], flow[k][None], prev[k][None])[0], want)
        assert np.all(got[1, 2:10] == 1 / 8) and got[1, 0] == 0.0

    def test_row_does_not_depend_on_batch(self, rng):
        gray, flow, prev = self.slots(rng)
        whole = slot_features(gray, flow, prev)
        for lo, hi in [(0, 1), (1, 4), (4, 6)]:
            part = slot_features(gray[lo:hi], flow[lo:hi], prev[lo:hi])
            assert np.array_equal(part, whole[lo:hi])

    @pytest.mark.parametrize("shapes", [
        ((2, 4, 4), (3, 2, 4, 4), (2, 4, 4)),        # batch sizes differ
        ((2, 4, 4), (2, 3, 4, 4), (2, 4, 4)),        # three flow channels
        ((2, 3, 4, 4), (2, 2, 4, 4), (2, 3, 4, 4)),  # a channel axis
    ])
    def test_shape_mismatch(self, shapes):
        with pytest.raises(ValueError, match="slice shapes disagree"):
            slot_features(*(np.zeros(shape) for shape in shapes))


class TestPCConcat:
    """The before/after halves of :func:`window_features`: its slot features
    are given, so the window's gray and flow only set the slot count."""

    @pytest.fixture
    def pc_concat(self, monkeypatch):
        def pc_concat(before, after):
            feats = np.concatenate([before, after])
            monkeypatch.setattr(classifier, "slot_features",
                                lambda gray, flow, prev: feats)
            n = len(feats)
            return window_features(np.zeros((n, 1, 1)), np.zeros((n, 2, 1, 1)))
        return pc_concat

    def test_means_of_scalar_features(self, pc_concat):
        before = [[1.0], [2.0], [3.0], [4.0], [5.0]]
        after = [[3.0], [4.0], [5.0], [6.0], [7.0]]
        assert pc_concat(before, after) == pytest.approx([3.0, 5.0])

    def test_identical_sides(self, rng, pc_concat):
        side = rng.random((4, 6))
        out = pc_concat(side, side)
        assert out[:6] == pytest.approx(out[6:])

    def test_m_equals_one(self, rng, pc_concat):
        a, b = rng.random((1, 3)), rng.random((1, 3))
        assert pc_concat(a, b) == pytest.approx(np.concatenate([a[0], b[0]]))

    def test_permutation_invariance_and_swap(self, rng, pc_concat):
        before, after = rng.random((5, 4)), rng.random((5, 4))
        base = pc_concat(before, after)
        shuffled = pc_concat(before[rng.permutation(5)],
                             after[rng.permutation(5)])
        assert shuffled == pytest.approx(base)
        swapped = pc_concat(after, before)
        assert swapped[:4] == pytest.approx(base[4:])
        assert swapped[4:] == pytest.approx(base[:4])

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="2m matching slots"):
            window_features(np.zeros((7, 1, 1)), np.zeros((7, 2, 1, 1)))
        with pytest.raises(ValueError, match="2m matching slots"):
            window_features(np.zeros((6, 1, 1)), np.zeros((8, 2, 1, 1)))


class TestTraining:
    def test_zero_model_scores_half(self, rng):
        model = zero_model(4)
        assert model.score(rng.normal(size=(10, 4))) == pytest.approx(
            np.full(10, 0.5))

    def test_separable_reaches_high_accuracy(self, rng):
        X, y = separable_dataset(rng, n=200, margin=0.5)
        model, losses = train_logistic((X, y), TrainConfig(seed=3))
        acc = ((model.score(X) >= 0.5) == (y > 0.5)).mean()
        assert acc >= 0.99
        assert len(losses) == 16

    def test_gradient_matches_finite_differences(self, rng):
        X = rng.normal(size=(40, 5))
        y = (rng.random(40) > 0.5).astype(float)
        h = 1e-5
        worst = 0.0
        for _ in range(10):
            w = rng.normal(scale=0.5, size=5)
            b = float(rng.normal())
            _, gw, gb = bce_gradient(X, y, w, b)
            for k in range(5):
                e = np.zeros(5)
                e[k] = h
                num = (bce_gradient(X, y, w + e, b)[0]
                       - bce_gradient(X, y, w - e, b)[0]) / (2 * h)
                worst = max(worst, abs(num - gw[k]) / max(abs(num), abs(gw[k]), 1e-8))
            num_b = (bce_gradient(X, y, w, b + h)[0]
                     - bce_gradient(X, y, w, b - h)[0]) / (2 * h)
            worst = max(worst, abs(num_b - gb) / max(abs(num_b), abs(gb), 1e-8))
        assert worst < 1e-4

    def test_loss_nonincreasing_on_separable(self):
        ok = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X, y = separable_dataset(rng, n=120, margin=0.5)
            _, losses = train_logistic((X, y), TrainConfig(seed=seed))
            if all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])):
                ok += 1
        assert ok >= 19  # >= 95% of 20 runs

    def test_single_class_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match="both classes"):
            train_logistic((X, np.zeros(4)))

    def test_label_values_checked(self):
        with pytest.raises(ValueError, match="labels"):
            train_logistic((np.zeros((2, 1)), np.array([0.0, 2.0])))

    @pytest.mark.parametrize("bad", [2.0, -1.0, np.nan, np.inf, -np.inf])
    def test_label_outside_zero_one_rejected(self, bad):
        X = np.arange(8.0).reshape(4, 2)
        for y in ([0.0, 1.0, bad, 0.0], [bad, bad, bad, bad]):
            with pytest.raises(ValueError, match="labels must be 0 or 1"):
                train_logistic((X, np.array(y)))

    def test_negative_zero_label_is_class_zero(self, rng):
        X, y = separable_dataset(rng, n=40, margin=0.5)
        signed = np.where(y == 0.0, -0.0, y)
        assert np.signbit(signed).any()
        cfg = TrainConfig(seed=2, epochs=3)
        base, base_losses = train_logistic((X, y), cfg)
        other, other_losses = train_logistic((X, signed), cfg)
        assert base.weights.tobytes() == other.weights.tobytes()
        assert base_losses == other_losses
        model, _ = train_logistic((np.arange(6.0).reshape(3, 2),
                                   np.array([0.0, -0.0, 1.0])), cfg)
        assert np.isfinite(model.weights).all()
        with pytest.raises(ValueError, match="both classes"):
            train_logistic((np.zeros((2, 1)), np.array([0.0, -0.0])))

    def test_power_of_two_rescale_bitwise_identical(self, rng):
        X, y = separable_dataset(rng, n=64, margin=0.5, dim=3)
        cfg = TrainConfig(seed=11, epochs=4)
        base, base_losses = train_logistic((X, y), cfg)
        scaled = X.copy()
        scaled[:, 1] *= 4.0  # exact in binary floating point
        other, other_losses = train_logistic((scaled, y), cfg)
        assert base.weights.tobytes() == other.weights.tobytes()
        assert base.bias == other.bias
        assert base_losses == other_losses

    def test_general_affine_rescale_close(self, rng):
        X, y = separable_dataset(rng, n=64, margin=0.5, dim=3)
        cfg = TrainConfig(seed=11, epochs=4)
        base, _ = train_logistic((X, y), cfg)
        scaled = X.copy()
        scaled[:, 2] = scaled[:, 2] * 1.7 - 0.3
        other, _ = train_logistic((scaled, y), cfg)
        assert other.weights == pytest.approx(base.weights, abs=1e-9)


class TestScoring:
    def test_scores_monotone_in_margin(self, rng):
        model = LogisticModel(weights=rng.normal(size=4), bias=0.1,
                              feature_mean=np.zeros(4), feature_std=np.ones(4))
        X = rng.normal(size=(30, 4))
        z = X @ model.weights + model.bias
        s = model.score(X)
        order = np.argsort(z)
        assert np.all(np.diff(s[order]) > 0)

    def test_saturated_positive(self):
        model = zero_model(2)
        model.weights = np.array([20.0, 0.0])
        assert model.score(np.array([1.0, 0.0])) > 0.99

    def test_batch_equals_single_bitwise(self, rng):
        model = LogisticModel(weights=rng.normal(size=6), bias=-0.2,
                              feature_mean=rng.normal(size=6),
                              feature_std=np.abs(rng.normal(size=6)) + 0.5)
        X = rng.normal(size=(25, 6))
        batch = model.score(X)
        singles = np.array([model.score(row)[0] for row in X])
        assert batch.tobytes() == singles.tobytes()

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            zero_model(3).score(np.zeros((2, 4)))

    def test_score_sequence_order(self, rng):
        model = zero_model(3)
        seq = score_sequence(model, rng.normal(size=(4, 3)),
                             [0.5, 1.0, 1.5, 2.0], "vid")
        assert seq.video_id == "vid"
        assert seq.scores == pytest.approx([0.5] * 4)
        seq.validate()


class TestModelIO:
    def test_round_trip(self, tmp_path, rng):
        X, y = separable_dataset(rng, n=40, margin=0.5)
        model, _ = train_logistic((X, y), TrainConfig(seed=5, epochs=2))
        path = tmp_path / "model.json"
        save_model(path, model)
        back = load_model(path)
        assert back.weights == pytest.approx(model.weights)
        assert back.bias == model.bias
        assert back.feature_std == pytest.approx(model.feature_std)
        assert back.train_config == model.train_config
        assert back.score(X) == pytest.approx(model.score(X))


def test_window_features_shape(rng):
    gray = rng.random((6, 8, 8))
    flow = rng.normal(size=(6, 2, 8, 8))
    out = window_features(gray, flow)
    assert out.shape == (2 * FEATURE_DIM,)
    # first slot's difference term is zero by the self-pair rule
    feats0 = slot_features(gray[0][None], flow[0][None], gray[0][None])[0]
    assert out[:FEATURE_DIM][26] == pytest.approx(
        np.mean([slot_features(gray[k][None], flow[k][None],
                               (gray[k - 1] if k else gray[0])[None])[0][26]
                 for k in range(3)]))
    assert feats0[26] == 0.0
