import json

import numpy as np
import pytest

from gebd.annotations import (AnnotationParseError, AnnotationSet,
                              AnnotationValidationError, AnnotatorTrack,
                              RawBoundary, VideoMeta, _mean, _pairwise_rows,
                              attach_consistency, compute_f1_consistency,
                              fnv1a64, load_annotations, normalize_track,
                              parse_annotations, per_video_rng,
                              select_gt, select_gt_highest, select_gt_weighted,
                              serialize_annotations)
from gebd.evaluation import match_boundaries, prf_from_match

from conftest import enumerate_matchings

META = VideoMeta("vid0", "classA", 10.0, 10.0, 100)


def pairwise_f1(aset, threshold):
    """The annotator-vs-annotator F1 rows that consistency averages, as an
    (n, n) array."""
    return np.array(_pairwise_rows(aset, threshold))


def make_set(track_lists, duration=10.0, video_id="vid0", consistencies=None):
    meta = VideoMeta(video_id, "classA", duration, 10.0, int(duration * 10))
    tracks = []
    for i, stamps in enumerate(track_lists):
        c = consistencies[i] if consistencies else None
        tracks.append(AnnotatorTrack(
            annotator_id=f"a{i}",
            boundaries=[RawBoundary("instant", t) for t in stamps],
            f1_consistency=c))
    return AnnotationSet(meta=meta, tracks=tracks)


ONE_VIDEO = """
[
 {"video_id": "v1", "class_label": "c", "duration": 10.0, "fps": 10.0,
  "num_frames": 100,
  "annotators": [
   {"annotator_id": "a0", "boundaries": [{"t": 1.0}, {"t": 5.0}]},
   {"annotator_id": "a1", "boundaries": [{"start": 2.0, "end": 4.0}]}
  ]}
]
"""


class TestParsing:
    def test_one_video_two_annotators(self):
        sets = parse_annotations(ONE_VIDEO)
        assert len(sets) == 1
        aset = sets[0]
        assert aset.meta.video_id == "v1"
        assert len(aset.tracks) == 2
        assert aset.tracks[0].boundaries[0] == RawBoundary("instant", 1.0)
        assert aset.tracks[1].boundaries[0] == RawBoundary("range", 2.0, 4.0)

    def test_negative_duration_names_field(self):
        bad = ONE_VIDEO.replace('"duration": 10.0', '"duration": -1')
        with pytest.raises(AnnotationValidationError, match="duration"):
            parse_annotations(bad)

    def test_malformed_json_reports_position(self):
        with pytest.raises(AnnotationParseError, match=r"line \d+ column \d+"):
            parse_annotations("[ {\"video_id\": }")

    def test_unsorted_boundaries_rejected(self):
        bad = ONE_VIDEO.replace('{"t": 1.0}, {"t": 5.0}',
                                '{"t": 5.0}, {"t": 1.0}')
        with pytest.raises(AnnotationValidationError, match="sorted"):
            parse_annotations(bad)

    def test_duplicate_annotator_rejected(self):
        bad = ONE_VIDEO.replace('"a1"', '"a0"')
        with pytest.raises(AnnotationValidationError, match="duplicate"):
            parse_annotations(bad)

    def test_duplicate_video_id_rejected(self):
        # a second entry for v1, of another class and boundaries
        doc = json.loads(ONE_VIDEO)
        doc.append(dict(doc[0], class_label="other",
                        annotators=[{"annotator_id": "b0",
                                     "boundaries": [{"t": 7.0}]}]))
        with pytest.raises(AnnotationValidationError,
                           match="duplicate video_id 'v1'"):
            parse_annotations(json.dumps(doc))

    def test_missing_field_named(self):
        doc = json.loads(ONE_VIDEO)
        del doc[0]["fps"]
        with pytest.raises(AnnotationValidationError, match="fps"):
            parse_annotations(json.dumps(doc))

    def test_frame_count_consistency(self):
        bad = ONE_VIDEO.replace('"num_frames": 100', '"num_frames": 150')
        with pytest.raises(AnnotationValidationError, match="num_frames"):
            parse_annotations(bad)

    @pytest.mark.parametrize("vid", ["../escape", "a/b", "/abs", ".", "..",
                                     "nul\0byte"])
    def test_path_like_video_id_rejected(self, tmp_path, vid):
        # the pipeline names a video's frame directory and files by its id
        doc = json.loads(ONE_VIDEO)
        doc[0]["video_id"] = vid
        path = tmp_path / "annotations.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(AnnotationValidationError, match="video_id"):
            load_annotations(path)

    def test_round_trip_three_videos(self):
        rng = np.random.default_rng(3)
        sets = []
        for v in range(3):
            aset = make_set([sorted(rng.uniform(0, 10, size=3)),
                             sorted(rng.uniform(0, 10, size=2))],
                            video_id=f"v{v}")
            aset.tracks[0].f1_consistency = 0.5
            sets.append(aset)
        back = parse_annotations(serialize_annotations(sets))
        assert back == sets  # dataclass equality is field-by-field


class TestNormalize:
    def test_range_midpoint(self):
        track = AnnotatorTrack("a", [RawBoundary("range", 2.0, 4.0)])
        assert normalize_track(track, META) == [3.0]

    def test_instants_identity(self):
        track = AnnotatorTrack("a", [RawBoundary("instant", 1.0),
                                     RawBoundary("instant", 5.0)])
        assert normalize_track(track, META) == [1.0, 5.0]

    def test_midpoint_collapses_with_instant(self):
        track = AnnotatorTrack("a", [RawBoundary("range", 1.0, 3.0),
                                     RawBoundary("instant", 2.0)])
        assert normalize_track(track, META) == [2.0]

    def test_midpoints_resorted(self):
        track = AnnotatorTrack("a", [RawBoundary("range", 1.0, 9.0),
                                     RawBoundary("instant", 2.0)])
        assert normalize_track(track, META) == [2.0, 5.0]

    def test_idempotent_on_instants(self):
        track = AnnotatorTrack("a", [RawBoundary("instant", 1.5),
                                     RawBoundary("instant", 2.5)])
        once = normalize_track(track, META)
        again = normalize_track(
            AnnotatorTrack("a", [RawBoundary("instant", t)
                                 for t in once]), META)
        assert again == once

    def test_corrupt_timestamp_guard(self):
        track = AnnotatorTrack("a", [RawBoundary("instant", 11.0)])
        with pytest.raises(AnnotationValidationError, match="outside"):
            normalize_track(track, META)


class TestConsistency:
    def test_identical_pair(self):
        aset = make_set([[1.0, 5.0], [1.0, 5.0]])
        out = compute_f1_consistency(aset, 0.05)
        assert out == [("a0", 1.0), ("a1", 1.0)]

    def test_empty_vs_nonempty(self):
        aset = make_set([[], [2.0]])
        out = compute_f1_consistency(aset, 0.05)
        assert out == [("a0", 0.0), ("a1", 0.0)]

    def test_three_annotators_against_oracle(self):
        aset = make_set([[1.0, 5.0], [1.1, 5.2], [8.0]])
        lists = [[1.0, 5.0], [1.1, 5.2], [8.0]]
        expected = []
        for i in range(3):
            f1s = []
            for j in range(3):
                if i == j:
                    continue
                dist = np.abs(np.subtract.outer(lists[i], lists[j])) / 10.0
                card, _, _ = enumerate_matchings(dist, 0.05)
                p = card / len(lists[i]) if lists[i] else 0.0
                r = card / len(lists[j]) if lists[j] else 0.0
                f1s.append(2 * p * r / (p + r) if p + r else 0.0)
            expected.append(float(np.mean(f1s)))
        got = compute_f1_consistency(aset, 0.05)
        for (_, c), e in zip(got, expected):
            assert c == pytest.approx(e)

    def test_single_track_scores_one(self):
        # no other annotator to disagree with, boundaries or not
        for stamps in ([1.0], []):
            assert compute_f1_consistency(make_set([stamps])) == [("a0", 1.0)]

    def test_pairwise_equals_ordered_pair_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            duration = float(rng.choice([7.5, 10.0, 12.34]))
            slots = np.arange(0.0, duration, 0.05).round(2)
            lists = [sorted(rng.choice(slots, int(rng.integers(0, 9)),
                                       replace=False).tolist()) for _ in range(n)]
            aset = make_set(lists, duration=duration)
            for threshold in (0.01, 0.05, 0.1, 0.5):
                expected = np.ones((n, n))
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            m = match_boundaries(lists[i], lists[j], duration,
                                                 threshold)
                            expected[i, j] = prf_from_match(m).f1
                assert np.array_equal(pairwise_f1(aset, threshold), expected)

    def test_duplicated_track_pair_scores_one(self):
        aset = make_set([[1.0, 4.0], [2.0, 7.0], [1.0, 4.0]])
        f1 = pairwise_f1(aset, 0.05)
        assert f1[0, 2] == 1.0 and f1[2, 0] == 1.0

    def test_mean_is_numpy_mean_bit_for_bit(self):
        # numpy sums fewer than 8 values in turn, up to 128 in 8 running
        # sums, and splits longer runs in two; n up to 300 covers each
        rng = np.random.default_rng(21)
        for n in range(1, 301):
            x = rng.random(n).tolist()
            assert _mean(x) == float(np.mean(x)), n

    @pytest.mark.parametrize("n_tracks", [9, 12])
    def test_consistency_is_numpy_mean_of_pairwise_rows(self, n_tracks):
        # 8 and 11 other annotators: the running-sum branch, with and
        # without values left over after the whole 8s
        rng = np.random.default_rng(n_tracks)
        lists = [sorted(set(rng.uniform(0, 10, size=rng.integers(0, 9))
                            .round(1).tolist())) for _ in range(n_tracks)]
        aset = make_set(lists)
        f1 = pairwise_f1(aset, 0.05)
        expected = [float(np.mean(np.delete(f1[i], i))) for i in range(n_tracks)]
        got = [c for _, c in compute_f1_consistency(aset, 0.05)]
        assert got == expected
        assert len(set(got)) > 1

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            lists = [sorted(rng.uniform(0, 10, size=rng.integers(0, 5)))
                     for _ in range(4)]
            aset = make_set(lists)
            base = dict(compute_f1_consistency(aset, 0.05))
            perm = rng.permutation(4)
            shuffled = make_set([lists[p] for p in perm])
            out = compute_f1_consistency(shuffled, 0.05)
            for slot, p in enumerate(perm):
                assert out[slot][1] == pytest.approx(base[f"a{p}"])


class TestSelectGT:
    def test_argmax(self):
        aset = make_set([[1.0], [2.0], [3.0]], consistencies=[0.6, 0.8, 0.7])
        assert select_gt_highest(aset) == [2.0]

    def test_tie_breaks_lexicographic(self):
        aset = make_set([[1.0], [2.0]], consistencies=[0.5, 0.5])
        assert select_gt_highest(aset) == [1.0]
        # swap ids so lexicographic order differs from track order
        aset.tracks[0].annotator_id = "zz"
        aset.tracks[1].annotator_id = "aa"
        assert select_gt_highest(aset) == [2.0]

    def test_singleton(self):
        aset = make_set([[4.0]], consistencies=[0.3])
        assert select_gt_highest(aset) == [4.0]

    def test_missing_consistency_instructs(self):
        aset = make_set([[1.0], [2.0]])
        with pytest.raises(ValueError, match="compute_f1_consistency"):
            select_gt_highest(aset)

    def test_rescaling_invariance(self):
        aset = make_set([[1.0], [2.0], [3.0]], consistencies=[0.2, 0.9, 0.5])
        base = select_gt_highest(aset)
        for track in aset.tracks:
            track.f1_consistency = track.f1_consistency * 0.5
        assert select_gt_highest(aset) == base

    def test_weighted_zero_mass_excluded(self):
        for seed in (0, 1, 99):
            aset = make_set([[1.0], [2.0]], consistencies=[1.0, 0.0])
            assert select_gt_weighted(aset, seed) == [1.0]

    def test_weighted_deterministic(self):
        aset = make_set([[1.0], [2.0]], consistencies=[0.5, 0.5])
        picks = {select_gt_weighted(aset, 42)[0] for _ in range(5)}
        assert len(picks) == 1

    def test_policy_dispatch(self):
        aset = make_set([[1.0], [2.0], [3.0]], video_id="v9",
                        consistencies=[0.2, 0.5, 0.3])
        assert select_gt(aset, "highest", 0) == select_gt_highest(aset)
        for seed in range(20):
            assert select_gt(aset, "weighted", seed) == \
                select_gt_weighted(aset, seed)
            assert select_gt(aset, f"weighted:{seed}", 99) == \
                select_gt_weighted(aset, seed)
        for policy in ("lowest", "weightedx", ""):
            with pytest.raises(ValueError, match="unknown gt policy"):
                select_gt(aset, policy, 0)

    def test_weighted_all_zero_rejected(self):
        aset = make_set([[1.0], [2.0]], consistencies=[0.0, 0.0])
        with pytest.raises(ValueError, match="undefined"):
            select_gt_weighted(aset, 0)

    def test_weighted_frequency(self):
        hits = 0
        n = 2000
        for v in range(n):
            aset = make_set([[1.0], [2.0]], video_id=f"v{v}",
                            consistencies=[0.25, 0.75])
            if select_gt_weighted(aset, 7) == [2.0]:
                hits += 1
        sigma = (0.75 * 0.25 / n) ** 0.5
        assert abs(hits / n - 0.75) <= 4 * sigma


class TestSeeding:
    def test_fnv1a64_reference_vectors(self):
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C
        assert fnv1a64("foobar") == 0x85944171F73967E8

    def test_per_video_rng_independent_of_order(self):
        a1 = per_video_rng(5, "vidA").random()
        _ = per_video_rng(5, "vidB").random()
        a2 = per_video_rng(5, "vidA").random()
        assert a1 == a2


def test_attach_consistency_fills_tracks():
    aset = make_set([[1.0, 5.0], [1.0, 5.0]])
    attach_consistency(aset, 0.05)
    assert all(t.f1_consistency == 1.0 for t in aset.tracks)
