import numpy as np
import pytest

from gebd.evaluation import (POLICIES, evaluate_corpus, f1_from_pr,
                             match_boundaries, match_count, prf_from_counts,
                             prf_from_match)

from conftest import enumerate_matchings, max_matching_cardinality


def random_instance(rng, max_side=8, duration=10.0):
    n_p = int(rng.integers(0, max_side + 1))
    n_g = int(rng.integers(0, max_side + 1))
    preds = np.sort(rng.uniform(0, duration, size=n_p))
    gts = np.sort(rng.uniform(0, duration, size=n_g))
    # strictly ascending with probability 1; regenerate on the off chance
    while len(set(preds)) != n_p:
        preds = np.sort(rng.uniform(0, duration, size=n_p))
    while len(set(gts)) != n_g:
        gts = np.sort(rng.uniform(0, duration, size=n_g))
    threshold = float(rng.uniform(0.01, 0.3))
    return preds, gts, duration, threshold


class TestMatching:
    def test_unambiguous_pairing(self):
        m = match_boundaries([1.0, 5.0], [1.2, 5.1], 10.0, 0.05)
        assert m.pairs == [(0, 0), (1, 1)]
        assert m.rel_distances == pytest.approx([0.02, 0.01])

    def test_empty_predictions(self):
        m = match_boundaries([], [5.0], 10.0, 0.05)
        assert m.pairs == []
        assert m.num_predictions == 0
        assert m.num_ground_truth == 1

    def test_greedy_vs_optimal_counterexample(self):
        preds, gts = [1.25, 1.45], [1.0, 1.3]
        optimal = match_boundaries(preds, gts, 10.0, 0.03, policy="optimal")
        greedy = match_boundaries(preds, gts, 10.0, 0.03, policy="greedy_nearest")
        assert optimal.pairs == [(0, 0), (1, 1)]
        assert greedy.pairs == [(0, 1)]
        # exhaustive enumeration confirms the optimum really is 2
        dist = np.abs(np.subtract.outer(preds, gts)) / 10.0
        card, _, _ = enumerate_matchings(dist, 0.03)
        assert card == 2

    def test_unsorted_inputs_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            match_boundaries([2.0, 1.0], [1.0], 10.0, 0.05)
        with pytest.raises(ValueError, match="ascending"):
            match_boundaries([1.0], [2.0, 2.0], 10.0, 0.05)

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            match_boundaries([1.0], [1.0], 10.0, 0.0)
        with pytest.raises(ValueError):
            match_boundaries([1.0], [1.0], -1.0, 0.05)

    def test_at_threshold_counts_as_matched(self):
        m = match_boundaries([4.5], [5.0], 10.0, 0.05)
        assert len(m.pairs) == 1

    def test_optimal_equals_exhaustive_cardinality(self):
        rng = np.random.default_rng(0)
        for _ in range(150):
            preds, gts, duration, threshold = random_instance(rng, max_side=6)
            m = match_boundaries(preds, gts, duration, threshold)
            if len(preds) and len(gts):
                dist = np.abs(np.subtract.outer(preds, gts)) / duration
                assert len(m.pairs) == max_matching_cardinality(dist, threshold)
            else:
                assert m.pairs == []

    def test_optimal_tie_rules_match_enumeration(self):
        # full (cardinality, cost, lexicographic) agreement on small instances
        rng = np.random.default_rng(1)
        for _ in range(120):
            preds, gts, duration, threshold = random_instance(rng, max_side=5)
            if not len(preds) or not len(gts):
                continue
            m = match_boundaries(preds, gts, duration, threshold)
            dist = np.abs(np.subtract.outer(preds, gts)) / duration
            card, cost, pairs = enumerate_matchings(dist, threshold)
            assert len(m.pairs) == card
            assert sum(m.rel_distances) == pytest.approx(cost, abs=1e-9)
            assert m.pairs == pairs

    def test_swap_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            preds, gts, duration, threshold = random_instance(rng, max_side=6)
            a = prf_from_match(match_boundaries(preds, gts, duration, threshold))
            b = prf_from_match(match_boundaries(gts, preds, duration, threshold))
            assert a.precision == pytest.approx(b.recall)
            assert a.recall == pytest.approx(b.precision)
            assert a.f1 == pytest.approx(b.f1)

    def test_pairs_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            preds, gts, duration, _ = random_instance(rng, max_side=8)
            last = 0
            for threshold in (0.02, 0.05, 0.1, 0.2, 0.4, 0.8):
                n = len(match_boundaries(preds, gts, duration, threshold).pairs)
                assert n >= last
                last = n

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        for c in (0.5, 3.0, 40.0):
            preds, gts, duration, threshold = random_instance(rng, max_side=6)
            a = prf_from_match(match_boundaries(preds, gts, duration, threshold))
            b = prf_from_match(match_boundaries(preds * c, gts * c,
                                                duration * c, threshold))
            assert a.precision == pytest.approx(b.precision)
            assert a.recall == pytest.approx(b.recall)


GRID = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)


def grid_lists(rng, max_side=12, duration=10.0, step=0.05):
    """Two ascending lists on a coarse grid, so many pairs sit exactly on a
    threshold of ``GRID``."""
    slots = np.arange(0.0, duration + step / 2, step).round(2)
    p = np.sort(rng.choice(slots, int(rng.integers(0, max_side + 1)), replace=False))
    g = np.sort(rng.choice(slots, int(rng.integers(0, max_side + 1)), replace=False))
    return p.tolist(), g.tolist()


class TestMatchCount:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_equals_pair_count_relative(self, policy):
        rng = np.random.default_rng(11)
        for _ in range(150):
            preds, gts = grid_lists(rng)
            for t in GRID:
                assert (match_count(preds, gts, 10.0, t, policy)
                        == len(match_boundaries(preds, gts, 10.0, t, policy).pairs))
            preds, gts, duration, _ = random_instance(rng, max_side=15)
            for t in GRID:
                assert (match_count(preds, gts, duration, t, policy)
                        == len(match_boundaries(preds, gts, duration, t, policy).pairs))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_equals_pair_count_window(self, policy):
        rng = np.random.default_rng(12)
        for _ in range(150):
            preds, gts = grid_lists(rng)
            for w in (0.05, 0.1, 0.25, 0.5, 1.0, 2.5):
                assert (match_count(preds, gts, None, w, policy)
                        == len(match_boundaries(preds, gts, None, w, policy).pairs))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_distances_are_the_plain_float_expression(self, policy):
        rng = np.random.default_rng(13)
        for _ in range(100):
            preds, gts, duration, threshold = random_instance(rng, max_side=12)
            p, g = preds.tolist(), gts.tolist()
            m = match_boundaries(p, g, duration, threshold, policy)
            assert m.rel_distances == [abs(p[i] - g[j]) / duration
                                       for i, j in m.pairs]
            w = match_boundaries(p, g, None, threshold * duration, policy)
            assert w.rel_distances == [abs(p[i] - g[j]) for i, j in w.pairs]
            assert all(type(d) is float
                       for d in m.rel_distances + w.rel_distances)

    def test_on_threshold_counts(self):
        assert match_count([4.5], [5.0], 10.0, 0.05) == 1
        assert match_count([4.5], [5.0], None, 0.5) == 1
        assert match_count([1.25, 3.0], [1.75, 3.25], 10.0, 0.05) == 2
        assert match_count([4.49], [5.0], 10.0, 0.05) == 0

    def test_checks_through_evaluate_corpus(self):
        gt, durations = {"v": [1.0, 2.0]}, {"v": 10.0}
        cases = [(({"v": [2.0, 1.0]}, gt, durations), {},
                  "predictions must be strictly ascending"),
                 (({}, {"v": [2.0, 2.0]}, durations), {},
                  "ground_truth must be strictly ascending"),
                 (({}, gt, durations), {"thresholds": [0.5, 1.5]},
                  r"threshold must be in \(0,1\], got 1.5"),
                 (({}, gt, durations), {"primary_threshold": 0.0},
                  r"threshold must be in \(0,1\], got 0.0"),
                 (({}, gt, {"v": 0.0}), {}, "duration must be positive, got 0.0"),
                 (({}, gt, {"v": -1.0}), {}, "duration must be positive, got -1.0"),
                 (({}, gt, {"v": float("nan")}), {}, "duration must be positive, got nan"),
                 (({}, gt, durations), {"policy": "bogus"}, "unknown policy 'bogus'"),
                 # a NaN in the middle would stall the count's two pointers
                 (({"v": [1.0, float("nan"), 2.0]}, gt, durations), {},
                  "predictions must be strictly ascending")]
        for args, kwargs, message in cases:
            with pytest.raises(ValueError, match=message):
                evaluate_corpus(*args, **kwargs)


class TestPRF:
    def test_partial(self):
        m = match_boundaries([1.0, 5.0, 9.0], [1.1, 5.1, 7.0, 9.6], 10.0, 0.02)
        assert len(m.pairs) == 2
        prf = prf_from_match(m)
        assert prf.precision == pytest.approx(2 / 3)
        assert prf.recall == pytest.approx(0.5)
        assert prf.f1 == pytest.approx(4 / 7)

    def test_degenerate_zero(self):
        prf = prf_from_match(match_boundaries([], [], 10.0, 0.05))
        assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)

    def test_perfect(self):
        prf = prf_from_match(match_boundaries([1.0, 2.0], [1.0, 2.0], 10.0, 0.05))
        assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)

    def test_f1_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p, r = rng.uniform(0, 1, size=2)
            f1 = f1_from_pr(p, r)
            assert f1 <= min(2 * p, 2 * r) + 1e-12
            assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12


class TestF1FromPR:
    def test_published_operating_points(self):
        # percentage-scale consistency of reported precision/recall/F1 triples
        table = [
            (60.44, 45.81, 52.11),
            (48.20, 55.04, 51.39),
            (47.96, 55.06, 51.26),
            (42.44, 63.03, 50.72),
            (69.35, 49.89, 58.03),
            (58.89, 75.20, 66.05),
            (58.58, 75.45, 65.95),
        ]
        for precision, recall, expected in table:
            assert f1_from_pr(precision, recall) == pytest.approx(expected, abs=0.02)

    def test_zero(self):
        assert f1_from_pr(0.0, 0.0) == 0.0


def sweep_thresholds(preds, gts, duration, grid):
    """The per-threshold rows :func:`evaluate_corpus` gives one video."""
    return evaluate_corpus({"v": preds}, {"v": gts}, {"v": duration},
                           thresholds=grid).per_video["v"]


class TestSweep:
    def test_grid_cardinality(self):
        grid = [round(0.05 * k, 2) for k in range(1, 11)]
        out = sweep_thresholds([1.0], [2.0], 10.0, grid)
        assert len(out) == 10
        assert [r.threshold for r in out] == grid

    def test_perfect_lists(self):
        out = sweep_thresholds([1.0, 3.0], [1.0, 3.0], 10.0, [0.05, 0.1, 0.2])
        assert all(r.f1 == 1.0 for r in out)

    def test_entries_equal_independent_matches(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            preds, gts, duration, _ = random_instance(rng, max_side=5)
            grid = [0.02, 0.05, 0.1, 0.3]
            out = sweep_thresholds(preds, gts, duration, grid)
            for threshold, prf in zip(grid, out):
                m = match_boundaries(preds, gts, duration, threshold)
                assert prf_from_match(m, threshold) == prf

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sweep_thresholds([1.0], [1.0], 10.0, [])
        with pytest.raises(ValueError, match="ascending"):
            sweep_thresholds([1.0], [1.0], 10.0, [0.1, 0.05])


class TestAbsoluteWindow:
    def test_inside_window(self):
        assert len(match_boundaries([4.8], [5.0], None, 0.25).pairs) == 1

    def test_outside_window(self):
        assert len(match_boundaries([4.8], [5.0], None, 0.1).pairs) == 0

    def test_bad_window(self):
        for window in (0.0, float("nan")):
            with pytest.raises(ValueError, match="window must be positive"):
                match_boundaries([1.0], [1.0], None, window)

    def test_equivalence_with_relative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            preds, gts, duration, threshold = random_instance(rng, max_side=6)
            rel = match_boundaries(preds, gts, duration, threshold)
            absolute = match_boundaries(preds, gts, None, threshold * duration)
            assert rel.pairs == absolute.pairs


def per_class(f1s, classes):
    """:func:`evaluate_corpus`'s class means over videos whose F1 at 5% is
    1 (one matched boundary) or 0 (one missed), as ``f1s`` maps them."""
    gt = {vid: [5.0] for vid in f1s}
    preds = {vid: [5.0] if f1 else [] for vid, f1 in f1s.items()}
    return evaluate_corpus(preds, gt, {vid: 10.0 for vid in f1s}, classes,
                           thresholds=[0.05]).per_class


class TestPerClass:
    def test_single_class_mean(self):
        assert per_class({"a": 1, "b": 0}, {"a": "x", "b": "x"}) == [("x", 0.5)]

    def test_top_bottom_ordering(self):
        # descending means; equal means by class label
        f1s = {"a": 1, "b": 0, "c": 0, "d": 1}
        classes = {"a": "hi", "b": "lo", "c": "dd", "d": "dd"}
        assert per_class(f1s, classes) == [("hi", 1.0), ("dd", 0.5), ("lo", 0.0)]

    def test_unscored_labels_left_out(self):
        # labels of videos without ground truth form no class
        assert per_class({"a": 1}, {"a": "only", "z": "other"}) == [("only", 1.0)]

    def test_matches_sort_and_average_oracle(self):
        rng = np.random.default_rng(8)
        labels = ["c0", "c1", "c2", "c3", "c4"]
        preds, gts, durations = {}, {}, {}
        for i in range(30):
            vid = f"v{i}"
            preds[vid], gts[vid], durations[vid], _ = random_instance(rng)
        classes = {vid: labels[i % 5] for i, vid in enumerate(sorted(gts))}
        rep = evaluate_corpus(preds, gts, durations, classes, thresholds=[0.1],
                              primary_threshold=0.1)
        sums, counts = {}, {}
        for vid in sorted(gts):
            f1 = prf_from_match(match_boundaries(preds[vid], gts[vid],
                                                 durations[vid], 0.1)).f1
            sums[classes[vid]] = sums.get(classes[vid], 0.0) + f1
            counts[classes[vid]] = counts.get(classes[vid], 0) + 1
        means = sorted(((lbl, sums[lbl] / counts[lbl]) for lbl in sums),
                       key=lambda lv: (-lv[1], lv[0]))
        assert rep.per_class == means

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="video 'a' has no class label"):
            per_class({"a": 1}, {})


class TestCorpusEval:
    def test_micro_aggregation_and_modes(self):
        gt = {"v1": [1.0, 5.0], "v2": [2.0]}
        preds = {"v1": [1.02, 5.0], "v2": [7.0]}
        durations = {"v1": 10.0, "v2": 10.0}
        classes = {"v1": "a", "v2": "b"}
        rep = evaluate_corpus(preds, gt, durations, classes,
                              thresholds=[0.05], primary_threshold=0.05)
        assert rep.global_prf[0].precision == pytest.approx(2 / 3)
        assert rep.global_prf[0].recall == pytest.approx(2 / 3)
        win = evaluate_corpus(preds, gt, durations, classes, window=0.5)
        assert win.global_prf[0].threshold == 0.5

    def test_bad_window_refused(self):
        for window in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="window must be positive"):
                evaluate_corpus({}, {"v": [1.0]}, {"v": 10.0}, window=window)

    def test_unknown_video_raises_keyerror(self):
        with pytest.raises(KeyError, match="ghost"):
            evaluate_corpus({"ghost": [1.0]}, {"v": [1.0]}, {"v": 10.0})

    @pytest.mark.parametrize("policy", POLICIES)
    def test_equals_per_video_match_boundaries(self, policy):
        rng = np.random.default_rng(13)
        preds, gt, durations = {}, {}, {}
        for k in range(40):
            vid = f"v{k:02d}"
            p, gt[vid] = grid_lists(rng)
            durations[vid] = 10.0
            if k % 7:  # every seventh video has no predictions at all
                preds[vid] = p
        rep = evaluate_corpus(preds, gt, durations, policy=policy)
        totals = np.zeros((len(GRID), 3), dtype=int)
        for vid in gt:
            p = preds.get(vid, [])
            for row, (t, got) in enumerate(zip(GRID, rep.per_video[vid])):
                m = match_boundaries(p, gt[vid], durations[vid], t, policy)
                assert got == prf_from_match(m, threshold=t)
                totals[row] += (len(m.pairs), len(p), len(gt[vid]))
        for (matched, n_p, n_g), got in zip(totals, rep.global_prf):
            assert (got.precision, got.recall) == (matched / n_p, matched / n_g)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("mode", ["relative", "absolute_window"])
    def test_counts_equal_per_threshold_match_count(self, policy, mode):
        rng = np.random.default_rng(14)
        preds = {"none": [], "no-gt": [2.0], "no-pred": []}
        gt = {"none": [], "no-gt": [], "no-pred": [3.0, 4.0]}
        for k in range(200):
            # short lists, so many videos pair off the shorter one early
            p, g = (grid_lists(rng, max_side=4) if k % 2
                    else random_instance(rng, max_side=5)[:2])
            preds[f"v{k:03d}"], gt[f"v{k:03d}"] = list(p), list(g)
        if mode == "relative":
            grid, duration, kwargs = GRID, 10.0, {"thresholds": GRID}
        else:
            grid, duration, kwargs = (0.3,), None, {"window": 0.3}
        rep = evaluate_corpus(preds, gt, dict.fromkeys(gt, 10.0), policy=policy,
                              **kwargs)
        saturated_early = 0  # before the last threshold, with both lists non-empty
        for vid in gt:
            p, g = preds[vid], gt[vid]
            counts = [match_count(p, g, duration, t, policy) for t in grid]
            assert rep.per_video[vid] == [prf_from_counts(c, len(p), len(g), t)
                                          for c, t in zip(counts, grid)]
            saturated_early += bool(p and g) and min(len(p), len(g)) in counts[:-1]
        assert saturated_early >= (50 if mode == "relative" else 0)

    def test_missing_prediction_counts_as_empty(self):
        rep = evaluate_corpus({}, {"v": [1.0]}, {"v": 10.0},
                              thresholds=[0.05])
        assert rep.global_prf[0].f1 == 0.0

